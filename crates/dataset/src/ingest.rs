//! Streaming ingest: grow the clean working set batch by batch.
//!
//! The batch pipeline runs §2 filtering once, over the whole crawl.
//! [`CleanIngest`] is the incremental restatement: video batches (new
//! suffixes of a growing crawl, or whole separate datasets) are applied
//! as deltas — key-deduplicated, re-interned, filtered — onto the same
//! `CleanBuilder` column state a cold [`filter`](crate::filter::filter)
//! pass drives, and [`snapshot`](CleanIngest::snapshot) finalizes a
//! [`CleanDataset`] at any point mid-stream. A snapshot seals the
//! videos kept since the previous one into a new column segment and
//! shares every earlier segment, so it never copies a video's columns
//! again.
//!
//! # The equivalence argument
//!
//! After any sequence of batches, `snapshot(…)` equals
//! `filter(&concatenated)` — where *concatenated* is the one dataset a
//! [`DatasetBuilder`](crate::dataset::DatasetBuilder) replay of every
//! batch in order would build — field for field, because each
//! ingredient replays the cold path exactly:
//!
//! * **keys** — the builder's first-crawl-wins rule (duplicate keys
//!   return the existing record untouched) becomes a key set here:
//!   a record whose key was already applied is skipped whole, before
//!   any interning, exactly where `push_video_titled` returns early.
//!   The set stores each key once — a kept record's in the clean
//!   columns, a dropped one's in a pool of its own — and indexes them
//!   by `fnv1a` hash, confirming every hash match against the stored
//!   key, so collisions resolve exactly.
//! * **tags** — the interner assigns dense ids in first-seen order, so
//!   re-interning each unique record's tag *names* in record order
//!   reproduces the concatenated dataset's ids (the invariant
//!   `extend_from` relies on). Tags are interned for every unique
//!   record — even ones the filter then drops — matching the raw
//!   vocabulary a cold build carries. A memo that lives across calls
//!   maps each source tag id to the source name it was resolved from
//!   and the engine id it got, so a stream of batches from one dataset
//!   interns each name once; interning is idempotent, so skipping a
//!   repeat keeps the first-seen order.
//! * **columns** — the filter predicate (no tags → `no_tags`, else
//!   unusable popularity → `bad_popularity`) runs per record in arrival
//!   order, appending survivors through the same `CleanBuilder::push`
//!   the cold path calls; `snapshot` seals them, and equality is row
//!   by row, so the segment boundaries a stream leaves do not matter.
//! * **indices** — `snapshot` extends the previous snapshot's postings
//!   and key index by the newly sealed segment alone, with the kernel
//!   a cold build runs over every segment. New videos take the next
//!   positions, so each tag's new postings belong at the tail of its
//!   run, and the new `(hash, position)` pairs merge into the sorted
//!   keys where a cold sort of every pair puts them.

use std::sync::Arc;

use crate::binfmt::fnv1a;
use crate::dataset::Dataset;
use crate::filter::{CleanBuilder, CleanDataset, FilterReport};
use crate::record::VideoId;
use crate::tag::{TagId, TagInterner};

/// Accounting for one applied batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestDelta {
    /// Clean positions `first_kept..first_kept + kept` are this batch's
    /// newly retained videos.
    pub first_kept: usize,
    /// Videos this batch added to the clean working set.
    pub kept: usize,
    /// Unique (not previously seen) records in the batch, kept or not.
    pub unique: usize,
    /// Records skipped because their key was already applied (first
    /// crawl wins).
    pub duplicates: usize,
}

/// Incremental §2 filtering state: the clean-dataset columns, interner
/// and key set of everything applied so far.
#[derive(Debug, Clone)]
pub struct CleanIngest {
    country_count: usize,
    tags: TagInterner,
    keys: KeySet,
    builder: CleanBuilder,
    /// Indexed by a source dataset's [`TagId`]: the source name that
    /// id was last resolved from and the engine id it got (itself
    /// `None` for a name that normalizes to nothing). A hit needs
    /// `Arc::ptr_eq` with the current source's name; the clone held
    /// here keeps that allocation alive, so its address cannot be
    /// reused for another name and the check is exact for any sequence
    /// of source datasets.
    tag_memo: Vec<Option<(Arc<str>, Option<TagId>)>>,
}

impl CleanIngest {
    /// Creates an empty ingest state for a world of `country_count`
    /// countries.
    pub fn new(country_count: usize) -> CleanIngest {
        CleanIngest {
            country_count,
            tags: TagInterner::new(),
            keys: KeySet::default(),
            builder: CleanBuilder::new(country_count, 0),
            tag_memo: Vec::new(),
        }
    }

    /// Applies a whole dataset as one batch.
    ///
    /// # Panics
    ///
    /// Panics if `batch` covers a different world size.
    pub fn apply(&mut self, batch: &Dataset) -> IngestDelta {
        self.apply_from(batch, 0)
    }

    /// Applies the records of `dataset` from position `from` onward —
    /// the natural delta of a monotonically growing crawl (checkpoint
    /// suspensions hand back the same dataset, longer).
    ///
    /// # Panics
    ///
    /// Panics if `dataset` covers a different world size.
    pub fn apply_from(&mut self, dataset: &Dataset, from: usize) -> IngestDelta {
        self.apply_range(dataset, from, dataset.len())
    }

    /// Applies the records `from..to` of `dataset` as one batch — the
    /// slicing a replayed file needs to re-stream a saved crawl in
    /// fixed-size batches.
    ///
    /// # Panics
    ///
    /// Panics if `dataset` covers a different world size or the range
    /// is out of bounds.
    pub fn apply_range(&mut self, dataset: &Dataset, from: usize, to: usize) -> IngestDelta {
        assert_eq!(
            dataset.country_count(),
            self.country_count,
            "batch covers a different world size"
        );
        assert!(
            from <= to && to <= dataset.len(),
            "batch range {from}..{to} out of bounds for {} records",
            dataset.len()
        );
        let mut delta = IngestDelta {
            first_kept: self.kept(),
            ..IngestDelta::default()
        };
        // The memo is keyed by source tag ids; it grows to the largest
        // source vocabulary seen.
        if self.tag_memo.len() < dataset.tags().len() {
            self.tag_memo.resize(dataset.tags().len(), None);
        }
        let mut tag_ids = Vec::new();
        for index in from..to {
            let record = dataset.video(VideoId::from_index(index));
            let hash = fnv1a(record.key.as_bytes());
            if self.keys.contains(hash, &record.key, &self.builder) {
                delta.duplicates += 1;
                continue;
            }
            delta.unique += 1;
            // The id a DatasetBuilder replay of every batch would have
            // assigned: the next dense unique index.
            let id = VideoId::from_index(self.builder.report.crawled);
            self.builder.report.crawled += 1;
            // Re-intern by name so ids match the concatenated corpus'
            // first-seen order; record tag lists are already normalized
            // and deduplicated, so the mapping is 1:1. A memo hit skips
            // only a repeat intern, so the first-seen order is unchanged.
            tag_ids.clear();
            for &t in &record.tags {
                let name = dataset.tags().name_arc(t);
                let memo = &mut self.tag_memo[t.index()];
                let id = match memo {
                    Some((seen, id)) if Arc::ptr_eq(seen, name) => *id,
                    _ => {
                        let id = self.tags.intern(name);
                        *memo = Some((Arc::clone(name), id));
                        id
                    }
                };
                tag_ids.extend(id);
            }
            if tag_ids.is_empty() {
                self.builder.report.no_tags += 1;
                self.keys.insert_dropped(hash, &record.key);
                continue;
            }
            let Some(pop) = record.popularity.usable() else {
                self.builder.report.bad_popularity += 1;
                self.keys.insert_dropped(hash, &record.key);
                continue;
            };
            self.keys.insert(hash, self.kept());
            self.builder.push(
                id,
                &record.key,
                &record.title,
                record.total_views,
                tag_ids.iter().copied(),
                pop.as_slice(),
            );
            delta.kept += 1;
        }
        delta
    }

    /// World size of every popularity vector.
    pub fn country_count(&self) -> usize {
        self.country_count
    }

    /// Videos retained so far.
    pub fn kept(&self) -> usize {
        self.builder.views.len()
    }

    /// Unique records applied so far (kept or filtered).
    pub fn crawled(&self) -> usize {
        self.builder.report.crawled
    }

    /// The filtering accounting over everything applied so far.
    pub fn report(&self) -> FilterReport {
        FilterReport {
            kept: self.kept(),
            ..self.builder.report
        }
    }

    /// Interned tags so far (the raw vocabulary, dropped videos
    /// included).
    pub fn tag_count(&self) -> usize {
        self.tags.len()
    }

    /// Total views of every retained video so far, in clean position
    /// order (the slice a parallel pass over a batch's new videos
    /// chunks).
    pub fn views_column(&self) -> &[u64] {
        &self.builder.views
    }

    /// Validated intensity bytes of the retained video at `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn intensities_at(&self, pos: usize) -> &[u8] {
        self.builder.intensities_of(pos)
    }

    /// Interned tags of the retained video at `pos`, in upload order.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn tags_at(&self, pos: usize) -> &[TagId] {
        self.builder.tags_of(pos)
    }

    /// Finalizes the current state into a [`CleanDataset`], leaving the
    /// ingest ready for further batches.
    ///
    /// The videos applied since the last snapshot are sealed into a new
    /// column segment; the snapshot shares every sealed segment with
    /// earlier snapshots and copies only the view column and the
    /// interner. `base` is the previous snapshot this ingest returned,
    /// if the caller still holds it: the postings and the key index
    /// then copy and extend `base`'s and index only the new segment.
    /// Without it they are built over every segment, as a cold
    /// [`filter`](crate::filter::filter) builds them. Either way the
    /// result equals that cold filter of the concatenated corpus.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not a snapshot of this ingest.
    pub fn snapshot(&mut self, base: Option<&CleanDataset>) -> CleanDataset {
        self.builder.snapshot(self.tags.clone(), base)
    }
}

/// Marks a free [`KeySet`] slot.
const EMPTY: u32 = u32::MAX;

/// Set in a [`KeySet`] reference to a dropped record's key; clear, the
/// reference is the kept record's clean position.
const DROPPED: u32 = 1 << 31;

/// The keys of every unique record applied so far, each stored once.
///
/// A kept record's key is read back from the clean columns by
/// position; a dropped record's key goes to `dropped`, an append-only
/// pool. The table maps `fnv1a(key)` to those references, open
/// addressed with linear probing and at most half full, and every hash
/// match is confirmed against the stored key. Growing moves 16-byte
/// entries by their stored hash; no key is hashed or copied twice.
#[derive(Debug, Clone, Default)]
struct KeySet {
    /// `(hash, reference)` slots, a power of two of them; the
    /// reference is [`EMPTY`] in a free slot.
    slots: Vec<(u64, u32)>,
    len: usize,
    /// Keys of dropped records, back to back; `dropped_ends[d]` ends
    /// the `d`-th.
    dropped: String,
    dropped_ends: Vec<usize>,
}

impl KeySet {
    /// Returns `true` if `key` (hashing to `hash`) was inserted.
    fn contains(&self, hash: u64, key: &str, builder: &CleanBuilder) -> bool {
        if self.slots.is_empty() {
            return false;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(hash);
        loop {
            let (h, r) = self.slots[i];
            if r == EMPTY {
                return false;
            }
            if h == hash && self.key(r, builder) == key {
                return true;
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts the key of the kept record at clean position `pos`.
    fn insert(&mut self, hash: u64, pos: usize) {
        assert!(
            pos < DROPPED as usize,
            "clean position {pos} overflows the key set"
        );
        self.place(hash, pos as u32);
    }

    /// Stores a dropped record's key and inserts it.
    fn insert_dropped(&mut self, hash: u64, key: &str) {
        let d = self.dropped_ends.len();
        // `DROPPED | d` must stay clear of `EMPTY`.
        assert!(
            d < (EMPTY ^ DROPPED) as usize,
            "dropped key {d} overflows the key set"
        );
        self.dropped.push_str(key);
        self.dropped_ends.push(self.dropped.len());
        self.place(hash, DROPPED | d as u32);
    }

    /// The key `r` refers to.
    fn key<'a>(&'a self, r: u32, builder: &'a CleanBuilder) -> &'a str {
        if r & DROPPED == 0 {
            return builder.key_of(r as usize);
        }
        let d = (r & !DROPPED) as usize;
        let start = d.checked_sub(1).map_or(0, |p| self.dropped_ends[p]);
        &self.dropped[start..self.dropped_ends[d]]
    }

    /// The first slot probed for `hash`: its top bits after a
    /// Fibonacci multiply, so every key byte reaches the index.
    fn home(&self, hash: u64) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (hash.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    /// Files `(hash, r)` in the first free slot, growing first if the
    /// table would pass half full.
    fn place(&mut self, hash: u64, r: u32) {
        if 2 * (self.len + 1) > self.slots.len() {
            let grown = vec![(0, EMPTY); (self.slots.len() * 2).max(16)];
            for (h, r) in std::mem::replace(&mut self.slots, grown) {
                if r != EMPTY {
                    self.file(h, r);
                }
            }
        }
        self.file(hash, r);
        self.len += 1;
    }

    fn file(&mut self, hash: u64, r: u32) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(hash);
        while self.slots[i].1 != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = (hash, r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use crate::filter::filter;
    use crate::record::RawPopularity;

    fn corpus(n: usize, salt: usize) -> Dataset {
        let mut b = DatasetBuilder::new(3);
        for i in 0..n {
            let tags: Vec<String> = (0..(i + salt) % 4)
                .map(|t| format!("tag{}", (i + t) % 13))
                .collect();
            let tag_refs: Vec<&str> = tags.iter().map(String::as_str).collect();
            let pop = match i % 5 {
                0 => RawPopularity::Missing,
                1 => RawPopularity::decode(vec![0, 0, 0], 3),
                _ => RawPopularity::decode(vec![(i % 61) as u8, 30, 1], 3),
            };
            b.push_video_titled(
                &format!("v{}", i + salt * 1_000),
                &format!("title {i}"),
                (i * i % 9_999) as u64,
                &tag_refs,
                pop,
            );
        }
        b.build()
    }

    /// Concatenates datasets the way a resumed crawl would: one
    /// builder replaying every batch in order, first crawl winning.
    fn concat(batches: &[&Dataset]) -> Dataset {
        let mut b = DatasetBuilder::new(batches[0].country_count());
        for d in batches {
            b.extend_from(d);
        }
        b.build()
    }

    #[test]
    fn one_batch_snapshot_equals_cold_filter() {
        let d = corpus(120, 0);
        let mut ingest = CleanIngest::new(3);
        let delta = ingest.apply(&d);
        assert_eq!(delta.unique, 120);
        assert_eq!(delta.duplicates, 0);
        assert_eq!(ingest.snapshot(None), filter(&d));
    }

    #[test]
    fn suffix_batches_equal_cold_filter() {
        let d = corpus(90, 0);
        let mut ingest = CleanIngest::new(3);
        // Apply as three growing-prefix deltas of the same dataset.
        for (from, to) in [(0, 30), (30, 31), (31, 90)] {
            let prefix = {
                let mut b = DatasetBuilder::new(3);
                for i in 0..to {
                    let v = d.video(VideoId::from_index(i));
                    let names: Vec<&str> = v.tags.iter().map(|&t| d.tags().name(t)).collect();
                    b.push_video_titled(&v.key, &v.title, v.total_views, &names, {
                        v.popularity.clone()
                    });
                }
                b.build()
            };
            let delta = ingest.apply_from(&prefix, from);
            assert_eq!(delta.unique, to - from);
        }
        assert_eq!(ingest.snapshot(None), filter(&d));
    }

    #[test]
    fn overlapping_batches_keep_first_crawl() {
        let a = corpus(60, 0);
        let b = corpus(60, 20); // keys v20000.. overlap nothing; salt shifts keys
        let mut ingest = CleanIngest::new(3);
        ingest.apply(&a);
        let mid = ingest.apply(&a); // exact duplicate batch: all skipped
        assert_eq!(mid.unique, 0);
        assert_eq!(mid.duplicates, 60);
        assert_eq!(mid.kept, 0);
        ingest.apply(&b);
        assert_eq!(ingest.snapshot(None), filter(&concat(&[&a, &a, &b])));
    }

    #[test]
    fn snapshots_share_sealed_columns() {
        let a = corpus(40, 0);
        let b = corpus(40, 7);
        let mut ingest = CleanIngest::new(3);
        ingest.apply(&a);
        let first = ingest.snapshot(None);
        ingest.apply(&b);
        let second = ingest.snapshot(Some(&first));
        // Row 0 was sealed by the first snapshot; the second borrows
        // the same bytes instead of a copy.
        assert!(std::ptr::eq(first.key_of(0), second.key_of(0)));
        assert!(std::ptr::eq(
            first.intensities_of(0),
            second.intensities_of(0)
        ));
        assert_eq!(second.segment_count(), 2);
        // A snapshot with nothing new seals no empty segment.
        let third = ingest.snapshot(Some(&second));
        assert_eq!(third.segment_count(), 2);
        assert_eq!(third, second);
        assert_eq!(second, filter(&concat(&[&a, &b])));
        assert_eq!(first, filter(&a));
    }

    #[test]
    fn report_tracks_mid_stream_state() {
        let d = corpus(50, 1);
        let mut ingest = CleanIngest::new(3);
        ingest.apply(&d);
        let r = ingest.report();
        let cold = filter(&d).report();
        assert_eq!(r, cold);
        assert_eq!(ingest.crawled(), 50);
        assert_eq!(ingest.kept(), cold.kept);
    }

    #[test]
    fn accessors_match_the_snapshot_columns() {
        let d = corpus(40, 2);
        let mut ingest = CleanIngest::new(3);
        ingest.apply(&d);
        let snap = ingest.snapshot(None);
        assert_eq!(ingest.tag_count(), snap.tags().len());
        for pos in 0..snap.len() {
            assert_eq!(ingest.views_column()[pos], snap.views_column()[pos]);
            assert_eq!(ingest.intensities_at(pos), snap.intensities_of(pos));
            assert_eq!(ingest.tags_at(pos), snap.tags_of(pos));
        }
    }

    /// The memo is keyed by source tag id but checked against the
    /// source's name: two sources that order the same names
    /// differently, then one that reuses an id for a new name, must
    /// each re-intern by name.
    #[test]
    fn tag_memo_follows_names_across_sources() {
        let source = |key: &str, tags: &[&str]| {
            let mut b = DatasetBuilder::new(3);
            b.push_video(key, 5, tags, RawPopularity::decode(vec![61, 1, 1], 3));
            b.build()
        };
        let a = source("a", &["rock", "jazz"]);
        let b = source("b", &["jazz", "rock"]);
        let c = source("c", &["blues"]);
        let mut ingest = CleanIngest::new(3);
        for d in [&a, &b, &c, &a] {
            ingest.apply(d);
        }
        let snap = ingest.snapshot(None);
        let names = |pos: usize| -> Vec<&str> {
            snap.tags_of(pos)
                .iter()
                .map(|&t| snap.tags().name(t))
                .collect()
        };
        assert_eq!(names(1), ["jazz", "rock"]);
        assert_eq!(names(2), ["blues"]);
        assert_eq!(snap, filter(&concat(&[&a, &b, &c, &a])));
    }

    #[test]
    fn key_set_confirms_hash_matches_against_stored_keys() {
        let mut builder = CleanBuilder::new(1, 0);
        builder.push(VideoId::from_index(0), "kept", "", 1, [], &[1]);
        let mut keys = KeySet::default();
        // Both keys filed under one hash: lookups must compare keys.
        keys.insert(7, 0);
        keys.insert_dropped(7, "dropped");
        assert!(keys.contains(7, "kept", &builder));
        assert!(keys.contains(7, "dropped", &builder));
        assert!(!keys.contains(7, "other", &builder));
        assert!(!keys.contains(8, "kept", &builder));
        // Growing the table refiles every entry.
        for i in 0..100 {
            keys.insert_dropped(i, &format!("k{i}"));
        }
        for i in 0..100 {
            assert!(keys.contains(i, &format!("k{i}"), &builder));
        }
        assert!(keys.contains(7, "kept", &builder));
        assert!(keys.contains(7, "dropped", &builder));
    }

    #[test]
    fn empty_batches_are_harmless() {
        let empty = DatasetBuilder::new(3).build();
        let mut ingest = CleanIngest::new(3);
        let delta = ingest.apply(&empty);
        assert_eq!(delta, IngestDelta::default());
        let snap = ingest.snapshot(None);
        assert!(snap.is_empty());
        assert_eq!(snap, filter(&empty));
    }

    #[test]
    #[should_panic(expected = "not a prefix")]
    fn a_base_from_another_stream_panics() {
        let mut other = CleanIngest::new(3);
        other.apply(&corpus(10, 0));
        let foreign = other.snapshot(None);
        let mut ingest = CleanIngest::new(3);
        ingest.apply(&corpus(10, 0));
        let _ = ingest.snapshot(Some(&foreign));
    }

    /// A batch of one record per spec: `(key, tag count, popularity
    /// kind)`. A key's tags depend on the key alone; kinds 0 and 1 are
    /// a missing and an all-zero vector, so those records drop.
    fn batch(specs: &[(usize, usize, u8)]) -> Dataset {
        let mut b = DatasetBuilder::new(3);
        for &(key, tags, kind) in specs {
            let names: Vec<String> = (0..tags)
                .map(|t| format!("t{}", (key * 7 + t) % 9))
                .collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let pop = match kind {
                0 => RawPopularity::Missing,
                1 => RawPopularity::decode(vec![0, 0, 0], 3),
                k => RawPopularity::decode(vec![k, 61 - k, 3], 3),
            };
            b.push_video(&format!("k{key}"), key as u64 * 13, &refs, pop);
        }
        b.build()
    }

    proptest::proptest! {
        /// Streamed snapshots, each extending the previous one's
        /// indices, equal the cold filter after every epoch: postings
        /// tag by tag and the key index key by key (plus one absent
        /// key), over random splits with an empty batch, a batch whose
        /// records all drop, and keys repeated across batches.
        #[test]
        fn streamed_indices_equal_the_cold_filter_after_every_epoch(
            specs in proptest::collection::vec((0usize..40, 0usize..4, 0u8..6), 0..80),
            cuts in proptest::collection::vec(0usize..80, 0..6),
        ) {
            let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(specs.len())).collect();
            bounds.extend([0, specs.len()]);
            bounds.sort_unstable();
            let mut batches: Vec<Dataset> =
                bounds.windows(2).map(|w| batch(&specs[w[0]..w[1]])).collect();
            batches.insert(batches.len() / 2, batch(&[]));
            batches.push(batch(&[(90, 0, 4), (91, 2, 0), (92, 1, 1)]));
            batches.push(batch(&specs[..specs.len().min(8)]));

            let mut ingest = CleanIngest::new(3);
            let mut previous: Option<CleanDataset> = None;
            for epoch in 0..batches.len() {
                ingest.apply(&batches[epoch]);
                let snap = ingest.snapshot(previous.as_ref());
                let refs: Vec<&Dataset> = batches[..=epoch].iter().collect();
                let cold = filter(&concat(&refs));
                for (tag, _) in cold.tags().iter() {
                    proptest::prop_assert_eq!(snap.videos_with_tag(tag), cold.videos_with_tag(tag));
                }
                for key in cold.iter().map(|v| v.key).chain(["absent"]) {
                    let first = (0..cold.len()).find(|&pos| cold.key_of(pos) == key);
                    proptest::prop_assert_eq!(cold.position_of(key), first);
                    proptest::prop_assert_eq!(snap.position_of(key), first);
                }
                proptest::prop_assert_eq!(&snap, &cold);
                previous = Some(snap);
            }
        }
    }

    #[test]
    #[should_panic(expected = "different world size")]
    fn world_size_mismatch_panics() {
        let mut ingest = CleanIngest::new(2);
        ingest.apply(&corpus(3, 0));
    }
}
