//! Streaming-ingest engine: per-batch deltas to the reconstruction
//! matrix and tag aggregates, with epoch-versioned snapshots.
//!
//! [`IngestEngine`] sits on top of [`CleanIngest`]: each applied batch
//! extends the clean columns and reconstructs the new videos'
//! per-country view rows; each publish extends the previous epoch's
//! per-tag aggregate rows by the videos added since. After N batches
//! the engine holds exactly the state a cold
//! `filter → compute → aggregate` rebuild of the concatenated corpus
//! would, bit for bit (the rebuild oracle).
//!
//! # Why incremental equals cold, bitwise
//!
//! * **Reconstruction rows** are per-video pure functions
//!   ([`reconstruct_intensities_into`]): apply fills each new video's
//!   row on the worker pool with the identical arithmetic
//!   [`Reconstruction::compute`] runs for that row, independent of
//!   every other video and of the chunking.
//! * **Aggregate rows** are dataset-order f64 sums. The cold
//!   [`TagViewTable::aggregate`] sums each tag's postings in ascending
//!   clean-position order; new videos take the next positions, so a
//!   tag's new postings are the tail of its posting list. Publish
//!   builds each populated row, in `TagId` order, by copying the
//!   previous epoch's row (copies preserve bits) and adding that tail
//!   in order: a prefix-extended left fold replays the cold operation
//!   sequence, hence the same bits, although float addition is neither
//!   associative nor commutative. It is the cold aggregate's own kernel
//!   (the cold build is the case with no previous epoch), run on the
//!   pool; each row's additions never depend on scheduling, so the
//!   result is the same at any `TAGDIST_THREADS`.
//!
//! Reconstruction rows go to an open buffer. Publishing moves that
//! buffer into a new sealed [`Reconstruction`] segment (and the clean
//! columns into a new clean segment), and the snapshot shares every
//! earlier segment with the epochs before it, so a publish never
//! copies a row that an earlier epoch already holds. The aggregate
//! matrix is written into the buffer of the epoch retired two
//! publishes earlier when no reader holds that epoch any more, so a
//! steady stream stops faulting in a fresh matrix per epoch.
//!
//! # Epochs and double-buffering
//!
//! [`publish`](IngestEngine::publish) finalizes the current state into
//! an immutable [`EpochSnapshot`] behind an `Arc` and flips it into the
//! engine's [`SnapshotCell`]. Readers (`report`/`stats`/`predict`
//! paths) [`load`](SnapshotCell::load) the cell and keep their `Arc`
//! for as long as they need a consistent view — the previous epoch
//! stays alive in their hands while the engine builds and flips the
//! next one, which is all a double buffer is. No reader ever observes
//! a half-applied batch, and an epoch's aggregate buffer is recycled
//! only once `Arc::try_unwrap` proves no reader holds the epoch.

use std::sync::{Arc, Mutex, PoisonError};

use tagdist_dataset::{CleanDataset, CleanIngest, ColumnarRead, IngestDelta};
use tagdist_geo::{CountryMatrix, GeoDist, GeoError};
use tagdist_obs::SpanGuard;
use tagdist_par::Pool;

use crate::tagviews::TagViewTable;
use crate::views::{reconstruct_intensities_into, Reconstruction};

/// One immutable, internally consistent view of the stream: the clean
/// dataset, its reconstruction and the per-tag aggregates as of a
/// published epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochSnapshot {
    /// Monotone epoch counter (first publish = 1).
    pub epoch: u64,
    /// The §2-filtered working set at this epoch.
    pub clean: CleanDataset,
    /// Per-video reconstructed view rows, aligned with `clean`.
    pub recon: Reconstruction,
    /// Per-tag Eq. 3 aggregates over `recon`.
    pub table: TagViewTable,
}

impl EpochSnapshot {
    /// Cold-builds epoch `epoch` from an already filtered dataset:
    /// per-video reconstruction plus per-tag aggregation against
    /// `traffic`. External publishers — `tagdist serve --watch`
    /// re-sniffing a file another process keeps rewriting — use this to
    /// turn a freshly loaded corpus into a publishable snapshot; by the
    /// rebuild oracle it equals the streamed state bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates the first per-video reconstruction error in dataset
    /// order.
    pub fn rebuild(
        epoch: u64,
        clean: CleanDataset,
        traffic: &GeoDist,
    ) -> Result<EpochSnapshot, GeoError> {
        let recon = Reconstruction::compute(&clean, traffic)?;
        let table = TagViewTable::aggregate(&clean, &recon);
        Ok(EpochSnapshot {
            epoch,
            clean,
            recon,
            table,
        })
    }
}

/// The published-snapshot slot readers poll: one atomic flip per
/// epoch, previous epochs kept alive by the readers still holding
/// them.
#[derive(Debug, Default)]
pub struct SnapshotCell {
    inner: Mutex<Option<Arc<EpochSnapshot>>>,
}

impl SnapshotCell {
    /// Creates an empty cell (no epoch published yet).
    pub fn new() -> SnapshotCell {
        SnapshotCell::default()
    }

    /// The most recently published snapshot, if any. Cloning the `Arc`
    /// is the whole read path — the returned epoch stays consistent
    /// (and alive) however long the caller keeps it.
    pub fn load(&self) -> Option<Arc<EpochSnapshot>> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Flips `snapshot` into the cell. [`IngestEngine::publish`] calls
    /// this on every epoch; external publishers (the serve layer's
    /// `--watch` reload path) call it directly with a snapshot built
    /// via [`EpochSnapshot::rebuild`]. Readers pinned to the previous
    /// epoch are unaffected — they keep their `Arc`.
    pub fn store(&self, snapshot: Arc<EpochSnapshot>) {
        *self.inner.lock().unwrap_or_else(PoisonError::into_inner) = Some(snapshot);
    }
}

/// Deterministic counters of everything an engine has absorbed, for
/// the `ingest.*` obs section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestStats {
    /// Batches applied.
    pub batches: u64,
    /// Records applied across all batches, kept or dropped.
    pub videos_seen: u64,
    /// Videos retained by the filter.
    pub videos_kept: u64,
    /// Aggregate-row updates: one per (kept video, tag) pair.
    pub rows_touched: u64,
    /// Epochs published.
    pub epoch_flips: u64,
}

/// The streaming-ingest engine: applies video batches as deltas and
/// publishes epoch snapshots (see the module docs).
#[derive(Debug)]
pub struct IngestEngine {
    clean: CleanIngest,
    traffic: GeoDist,
    /// Rows of every published epoch, one sealed segment per publish
    /// that added videos; each snapshot shares them.
    recon: Reconstruction,
    /// Flat `rows × countries` rows of the videos kept since the last
    /// publish, sealed into `recon` by the next one.
    open_rows: Vec<f64>,
    /// The last published epoch, whose aggregates the next publish
    /// extends.
    latest: Option<Arc<EpochSnapshot>>,
    /// The epoch published before `latest`: the next publish reuses its
    /// aggregate buffer if no reader holds it by then.
    retired: Option<Arc<EpochSnapshot>>,
    stats: IngestStats,
    epoch: u64,
    published: Arc<SnapshotCell>,
}

impl IngestEngine {
    /// Creates an empty engine reconstructing against `traffic`.
    pub fn new(traffic: GeoDist) -> IngestEngine {
        IngestEngine {
            clean: CleanIngest::new(traffic.len()),
            recon: Reconstruction::empty(traffic.len()),
            traffic,
            open_rows: Vec::new(),
            latest: None,
            retired: None,
            stats: IngestStats::default(),
            epoch: 0,
            published: Arc::new(SnapshotCell::new()),
        }
    }

    /// Applies every record of `src` as the stream's first batch; see
    /// [`apply_from`](IngestEngine::apply_from).
    ///
    /// # Errors
    ///
    /// As for [`apply_from`](IngestEngine::apply_from).
    ///
    /// # Panics
    ///
    /// As for [`apply_range`](IngestEngine::apply_range).
    pub fn apply<C: ColumnarRead>(&mut self, src: &C) -> Result<IngestDelta, GeoError> {
        self.apply_from(src, 0)
    }

    /// Applies the records of `src` from position `from` onward as
    /// one batch: filters them into the clean columns and reconstructs
    /// each new kept video's view row. Their tags' aggregates are
    /// extended by the next [`publish`](IngestEngine::publish).
    ///
    /// # Errors
    ///
    /// Propagates the first per-video reconstruction error in dataset
    /// order ([`GeoError::ZeroMass`] is impossible for filtered videos
    /// under a strictly positive prior; [`GeoError::LengthMismatch`]
    /// cannot occur since batch and prior world sizes are checked).
    /// After an error the engine state is partially updated and must be
    /// discarded.
    ///
    /// # Panics
    ///
    /// As for [`apply_range`](IngestEngine::apply_range).
    pub fn apply_from<C: ColumnarRead>(
        &mut self,
        src: &C,
        from: usize,
    ) -> Result<IngestDelta, GeoError> {
        self.apply_range(src, from, src.len())
    }

    /// Applies the records `from..to` of `src` as one batch — the
    /// slicing that re-streams a saved crawl in fixed-size batches
    /// (`tagdist ingest --batches N`).
    ///
    /// # Errors
    ///
    /// As for [`apply_from`](IngestEngine::apply_from).
    ///
    /// # Panics
    ///
    /// As for [`CleanIngest::apply_range`]: if `src` covers a different
    /// world size, the range is out of bounds, or the batch does not
    /// continue the stream (`from` is not the number of records
    /// applied so far, or `src`'s tag vocabulary does not extend the
    /// one adopted so far).
    pub fn apply_range<C: ColumnarRead>(
        &mut self,
        src: &C,
        from: usize,
        to: usize,
    ) -> Result<IngestDelta, GeoError> {
        let delta = self.clean.apply_range(src, from, to);
        let new = delta.first_kept..delta.first_kept + delta.kept;
        // Reconstruct the new videos' rows into the open buffer on the
        // pool — per-row arithmetic identical to the cold
        // `Reconstruction::compute`, so chunking changes no bit.
        let cc = self.traffic.len();
        let open = (new.start - self.recon.len()) * cc;
        if open == 0 {
            // A fresh zeroed buffer: its pages fault in on the workers.
            self.open_rows = vec![0.0; delta.kept * cc];
        } else {
            self.open_rows.resize(open + delta.kept * cc, 0.0);
        }
        let (clean, traffic) = (&self.clean, &self.traffic);
        let results = Pool::from_env().par_fill(
            &clean.views_column()[new.clone()],
            &mut self.open_rows[open..],
            cc,
            |start, chunk, block| {
                for (j, &total) in chunk.iter().enumerate() {
                    reconstruct_intensities_into(
                        clean.intensities_at(new.start + start + j),
                        total,
                        traffic,
                        &mut block[j * cc..(j + 1) * cc],
                    )?;
                }
                Ok::<(), GeoError>(())
            },
        );
        // Chunk results come back in chunk order, each stopped at its
        // first failure: this is the first error in dataset order.
        for result in results {
            result?;
        }
        let touched: usize = new.map(|pos| self.clean.tags_at(pos).len()).sum();
        self.stats.rows_touched += touched as u64;
        self.stats.batches += 1;
        self.stats.videos_seen += delta.records as u64;
        self.stats.videos_kept += delta.kept as u64;
        Ok(delta)
    }

    /// Finalizes the current state into an [`EpochSnapshot`], flips it
    /// into the engine's [`SnapshotCell`] and returns it.
    ///
    /// The snapshot's `clean`/`recon`/`table` equal a cold
    /// `filter → compute → aggregate` of the concatenated corpus: the
    /// clean columns replay the cold column writes, the rows kept
    /// since the last publish move (no copy) into a new sealed
    /// reconstruction segment, and the aggregate table extends the
    /// previous epoch's rows by the new postings with the cold
    /// aggregate's kernel, on the pool. Sealed clean and
    /// reconstruction segments are shared with every earlier epoch, so
    /// a publish copies only the view column, the interner's pointers,
    /// the postings, the key index and the aggregates, never an earlier
    /// video's columns or row. The postings and the key index extend
    /// the previous epoch's: only the new videos are inverted and
    /// hashed.
    ///
    /// # Errors
    ///
    /// Never fails in practice — the open rows match their declared
    /// shape by construction — but matrix assembly is fallible, so the
    /// signature is honest.
    pub fn publish(&mut self) -> Result<Arc<EpochSnapshot>, GeoError> {
        // Recycle the aggregate buffer of the epoch before `latest`
        // unless a reader still holds that epoch.
        let buffer = self
            .retired
            .take()
            .and_then(|epoch| Arc::try_unwrap(epoch).ok())
            .map(|epoch| epoch.table.into_buffer())
            .unwrap_or_default();
        let clean = self
            .clean
            .snapshot(self.latest.as_ref().map(|epoch| &epoch.clean));
        let open = CountryMatrix::from_flat(
            self.clean.kept() - self.recon.len(),
            self.traffic.len(),
            std::mem::take(&mut self.open_rows),
        )?;
        self.recon.push_segment(open);
        let recon = self.recon.clone();
        let table = TagViewTable::extend_with(
            &Pool::from_env(),
            self.latest.as_ref().map(|epoch| &epoch.table),
            &clean,
            &recon,
            buffer,
        );

        self.epoch += 1;
        self.stats.epoch_flips += 1;
        let snapshot = Arc::new(EpochSnapshot {
            epoch: self.epoch,
            clean,
            recon,
            table,
        });
        self.retired = self.latest.replace(Arc::clone(&snapshot));
        self.published.store(Arc::clone(&snapshot));
        Ok(snapshot)
    }

    /// The cell this engine publishes into; clone the `Arc` and hand
    /// it to readers on other threads.
    pub fn cell(&self) -> Arc<SnapshotCell> {
        Arc::clone(&self.published)
    }

    /// The incremental filtering state (report, counts, columns).
    pub fn clean(&self) -> &CleanIngest {
        &self.clean
    }

    /// The traffic prior rows are reconstructed against.
    pub fn traffic(&self) -> &GeoDist {
        &self.traffic
    }

    /// Epochs published so far (0 before the first
    /// [`publish`](IngestEngine::publish)).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Deterministic ingest counters.
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Records the engine's deterministic counters under an `ingest`
    /// child span of `parent` (`ingest.batches`, `.videos_seen`,
    /// `.videos_kept`, `.rows_touched`, `.epoch_flips`) — the gated smoke-subtree section. Counters are
    /// totals over the engine's lifetime and never depend on
    /// `TAGDIST_THREADS`: each is counted on the calling thread from
    /// the batch's records, whatever the pool's chunking.
    pub fn record_obs(&self, parent: &SpanGuard) {
        let span = parent.child("ingest");
        let obs = span.recorder();
        obs.add("ingest.batches", self.stats.batches);
        obs.add("ingest.videos_seen", self.stats.videos_seen);
        obs.add("ingest.videos_kept", self.stats.videos_kept);
        obs.add("ingest.rows_touched", self.stats.rows_touched);
        obs.add("ingest.epoch_flips", self.stats.epoch_flips);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagdist_dataset::{filter, Dataset, DatasetBuilder, RawPopularity};

    /// Cold rebuild of the pipeline over one dataset.
    fn cold(d: &Dataset, traffic: &GeoDist) -> EpochSnapshot {
        let clean = filter(d);
        let recon = Reconstruction::compute(&clean, traffic).unwrap();
        let table = TagViewTable::aggregate(&clean, &recon);
        EpochSnapshot {
            epoch: 0,
            clean,
            recon,
            table,
        }
    }

    fn assert_equivalent(snapshot: &EpochSnapshot, rebuild: &EpochSnapshot) {
        assert_eq!(snapshot.clean, rebuild.clean);
        assert_eq!(snapshot.recon, rebuild.recon);
        assert_eq!(snapshot.table, rebuild.table);
    }

    fn corpus(n: usize) -> Dataset {
        let mut b = DatasetBuilder::new(3);
        for i in 0..n {
            let tags: Vec<String> = (0..i % 4).map(|t| format!("tag{}", (i + t) % 17)).collect();
            let tag_refs: Vec<&str> = tags.iter().map(String::as_str).collect();
            let pop = match i % 6 {
                0 => RawPopularity::Missing,
                1 => RawPopularity::decode(vec![0, 0, 0], 3),
                _ => RawPopularity::decode(vec![(i % 61) as u8, ((i * 7) % 61) as u8, 30], 3),
            };
            b.push_video(&format!("v{i}"), (i * i % 99_991) as u64, &tag_refs, pop);
        }
        b.build()
    }

    fn traffic3() -> GeoDist {
        GeoDist::from_slice(&[5.0, 2.0, 1.0]).unwrap()
    }

    /// Splits `d` into contiguous slices applied via `apply_from` on
    /// growing prefixes (the shape a monotone crawl produces).
    fn ingest_in_batches(d: &Dataset, cuts: &[usize], traffic: &GeoDist) -> IngestEngine {
        let mut engine = IngestEngine::new(traffic.clone());
        let mut from = 0;
        for &to in cuts.iter().chain(std::iter::once(&d.len())) {
            assert!(to >= from && to <= d.len());
            // Rebuild the prefix dataset [0, to) the way a suspended
            // crawl's checkpoint holds it.
            let mut b = DatasetBuilder::new(d.country_count());
            for i in 0..to {
                let v = d.video(tagdist_dataset::VideoId::from_index(i));
                let names: Vec<&str> = v.tags.iter().map(|&t| d.tags().name(t)).collect();
                b.push_video_titled(&v.key, &v.title, v.total_views, &names, {
                    v.popularity.clone()
                });
            }
            let prefix = b.build();
            engine.apply_from(&prefix, from).unwrap();
            engine.publish().unwrap();
            from = to;
        }
        engine
    }

    #[test]
    fn single_batch_equals_cold_rebuild() {
        let d = corpus(150);
        let traffic = traffic3();
        let mut engine = IngestEngine::new(traffic.clone());
        engine.apply(&d).unwrap();
        let snapshot = engine.publish().unwrap();
        assert_equivalent(&snapshot, &cold(&d, &traffic));
        assert_eq!(snapshot.epoch, 1);
        assert_eq!(engine.epoch(), 1);
    }

    #[test]
    fn batch_splits_converge_to_the_same_snapshot() {
        let d = corpus(120);
        let traffic = traffic3();
        let rebuild = cold(&d, &traffic);
        let all_at_once = ingest_in_batches(&d, &[], &traffic);
        let in_threes = ingest_in_batches(&d, &[40, 80], &traffic);
        let one_by_one_cuts: Vec<usize> = (1..d.len()).collect();
        let one_by_one = ingest_in_batches(&d, &one_by_one_cuts, &traffic);
        for engine in [&all_at_once, &in_threes, &one_by_one] {
            let snapshot = engine.cell().load().unwrap();
            assert_equivalent(&snapshot, &rebuild);
        }
        assert_eq!(one_by_one.epoch(), d.len() as u64);
    }

    #[test]
    fn readers_keep_their_epoch_while_the_next_is_built() {
        let d = corpus(100);
        let traffic = traffic3();
        let mut engine = IngestEngine::new(traffic);
        let cell = engine.cell();
        assert!(cell.load().is_none(), "nothing published yet");

        let mut b = DatasetBuilder::new(3);
        b.extend_from(&d);
        let half = {
            let mut hb = DatasetBuilder::new(3);
            for i in 0..50 {
                let v = d.video(tagdist_dataset::VideoId::from_index(i));
                let names: Vec<&str> = v.tags.iter().map(|&t| d.tags().name(t)).collect();
                hb.push_video_titled(&v.key, &v.title, v.total_views, &names, {
                    v.popularity.clone()
                });
            }
            hb.build()
        };
        engine.apply(&half).unwrap();
        engine.publish().unwrap();
        let held = cell.load().unwrap(); // reader pins epoch 1

        engine.apply_from(&d, 50).unwrap();
        engine.publish().unwrap();

        // The pinned snapshot is untouched by the flip; the cell hands
        // out the new epoch.
        assert_eq!(held.epoch, 1);
        assert_eq!(held.clean.report().crawled, 50);
        let fresh = cell.load().unwrap();
        assert_eq!(fresh.epoch, 2);
        assert_eq!(fresh.clean.report().crawled, 100);
    }

    #[test]
    fn epochs_share_rows_and_columns() {
        let d = corpus(90);
        let traffic = traffic3();
        let mut engine = IngestEngine::new(traffic.clone());
        engine.apply_range(&d, 0, 40).unwrap();
        let first = engine.publish().unwrap();
        engine.apply_range(&d, 40, 90).unwrap();
        let second = engine.publish().unwrap();
        // Row 0 was sealed by the first publish; the second epoch
        // borrows the same memory instead of a copy.
        let (a, b) = (
            first.recon.views(0).unwrap(),
            second.recon.views(0).unwrap(),
        );
        assert!(std::ptr::eq(a, b));
        assert!(std::ptr::eq(first.clean.key_of(0), second.clean.key_of(0)));
        assert!(std::ptr::eq(
            first.clean.intensities_of(0),
            second.clean.intensities_of(0)
        ));
        // The last row of the first segment and the first of the next.
        let cold = cold(&d, &traffic);
        let boundary = first.recon.len();
        for pos in [boundary - 1, boundary] {
            assert_eq!(second.recon.views(pos), cold.recon.views(pos));
        }
        // A publish with nothing new adds no empty segment.
        let third = engine.publish().unwrap();
        assert_eq!(third.recon.segment_count(), 2);
        assert_equivalent(&third, &cold);
    }

    #[test]
    fn filtered_only_batches_publish_cleanly() {
        // A batch whose every record is dropped — tags interned but no
        // carriers ("dangling tag references") — must round-trip
        // through the delta path and publish an empty-but-consistent
        // snapshot.
        let mut b = DatasetBuilder::new(3);
        b.push_video(
            "ghost1",
            10,
            &["phantom", "specter"],
            RawPopularity::Missing,
        );
        b.push_video("ghost2", 20, &[], RawPopularity::decode(vec![1, 2, 3], 3));
        b.push_video(
            "ghost3",
            30,
            &["phantom"],
            RawPopularity::decode(vec![0, 0, 0], 3),
        );
        let d = b.build();
        let traffic = traffic3();
        let mut engine = IngestEngine::new(traffic.clone());
        let delta = engine.apply(&d).unwrap();
        assert_eq!(delta.kept, 0);
        assert_eq!(delta.records, 3);
        let snapshot = engine.publish().unwrap();
        assert!(snapshot.clean.is_empty());
        assert_eq!(snapshot.clean.tags().len(), 2);
        assert_eq!(snapshot.table.populated_tags(), 0);
        assert_equivalent(&snapshot, &cold(&d, &traffic));
    }

    #[test]
    fn empty_engine_publishes_an_empty_epoch() {
        let mut engine = IngestEngine::new(traffic3());
        let snapshot = engine.publish().unwrap();
        assert_eq!(snapshot.epoch, 1);
        assert!(snapshot.clean.is_empty());
        assert_eq!(snapshot.recon.len(), 0);
        assert_eq!(snapshot.table.populated_tags(), 0);
    }

    #[test]
    fn stats_account_for_everything_applied() {
        let d = corpus(60);
        let mut engine = IngestEngine::new(traffic3());
        engine.apply_range(&d, 0, 25).unwrap();
        engine.apply_range(&d, 25, 60).unwrap();
        engine.publish().unwrap();
        let s = engine.stats();
        assert_eq!(s.batches, 2);
        assert_eq!(s.videos_seen, 60);
        assert_eq!(s.epoch_flips, 1);
        let kept: u64 = filter(&d).report().kept as u64;
        assert_eq!(s.videos_kept, kept);
        let postings: u64 = {
            let clean = filter(&d);
            (0..clean.len())
                .map(|p| clean.tags_of(p).len() as u64)
                .sum()
        };
        assert_eq!(s.rows_touched, postings);
    }

    #[test]
    fn obs_counters_mirror_stats() {
        let d = corpus(40);
        let recorder = tagdist_obs::Recorder::new();
        let span = recorder.span("test");
        let mut engine = IngestEngine::new(traffic3());
        engine.apply(&d).unwrap();
        engine.publish().unwrap();
        engine.record_obs(&span);
        drop(span);
        let report = recorder.finish();
        assert_eq!(report.counters.get("ingest.batches"), Some(&1));
        assert_eq!(report.counters.get("ingest.epoch_flips"), Some(&1));
        assert_eq!(
            report.counters.get("ingest.videos_kept").copied(),
            Some(engine.stats().videos_kept)
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use tagdist_dataset::{filter, Dataset, DatasetBuilder, RawPopularity};

    fn build(specs: &[(u64, usize, Vec<u8>)]) -> Dataset {
        let mut b = DatasetBuilder::new(3);
        for (i, (views, tag_seed, raw)) in specs.iter().enumerate() {
            let tags: Vec<String> = (0..*tag_seed)
                .map(|t| format!("t{}", (i + t) % 7))
                .collect();
            let tag_refs: Vec<&str> = tags.iter().map(String::as_str).collect();
            b.push_video(
                &format!("v{i}"),
                *views,
                &tag_refs,
                RawPopularity::decode(raw.clone(), 3),
            );
        }
        b.build()
    }

    /// Records `[0, to)` of `d` as a dataset of their own, the way a
    /// growing crawl holds them: its interner holds the names those
    /// records use, in the order `d` interned them.
    fn prefix(d: &Dataset, to: usize) -> Dataset {
        let mut b = DatasetBuilder::new(3);
        for i in 0..to {
            let v = d.video(tagdist_dataset::VideoId::from_index(i));
            let names: Vec<&str> = v.tags.iter().map(|&t| d.tags().name(t)).collect();
            b.push_video(&v.key, v.total_views, &names, v.popularity.clone());
        }
        b.build()
    }

    proptest! {
        /// The tentpole oracle, randomized: any contiguous batch split
        /// of one growing corpus (including size-1 and all-at-once
        /// extremes, and repeated cuts that apply nothing), published
        /// after every cut, converges to the same snapshot a cold
        /// rebuild produces — and every earlier epoch equals the cold
        /// rebuild of its own prefix.
        #[test]
        fn any_batch_split_equals_cold_rebuild(
            specs in proptest::collection::vec(
                (1u64..1_000_000, 0usize..4, proptest::collection::vec(0u8..=61, 3)),
                1..30
            ),
            cut_seeds in proptest::collection::vec(0usize..1_000, 1..5),
        ) {
            let d = build(&specs);
            let traffic = GeoDist::from_slice(&[4.0, 2.0, 1.0]).unwrap();
            let cold = |to: usize| {
                let clean = filter(&prefix(&d, to));
                let recon = Reconstruction::compute(&clean, &traffic).unwrap();
                let table = TagViewTable::aggregate(&clean, &recon);
                (clean, recon, table)
            };
            let mut cuts: Vec<usize> = cut_seeds.iter().map(|c| c % (d.len() + 1)).collect();
            cuts.sort_unstable();

            let mut engine = IngestEngine::new(traffic.clone());
            // First batch: records [0, cuts[0]) as their own dataset.
            engine.apply(&prefix(&d, cuts[0])).unwrap();
            let mut epochs = vec![(cuts[0], engine.publish().unwrap())];
            // Later cuts as the new records of the grown prefix, one
            // publish each.
            for pair in cuts.windows(2) {
                engine.apply_range(&prefix(&d, pair[1]), pair[0], pair[1]).unwrap();
                epochs.push((pair[1], engine.publish().unwrap()));
            }
            // Last batch: the rest of `d` itself.
            engine.apply_from(&d, cuts[cuts.len() - 1]).unwrap();
            epochs.push((d.len(), engine.publish().unwrap()));

            for (to, snapshot) in &epochs {
                let (clean, recon, table) = cold(*to);
                prop_assert_eq!(&snapshot.clean, &clean);
                prop_assert_eq!(&snapshot.recon, &recon);
                prop_assert_eq!(&snapshot.table, &table);
            }
        }
    }
}
