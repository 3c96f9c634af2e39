//! Streaming ingest: grow the clean working set batch by batch.
//!
//! The paper's §2 filter runs in one loop,
//! [`CleanIngest::apply_range`]. A cold build
//! ([`filter_columnar`](crate::filter::filter_columnar), and
//! [`filter`](crate::filter::filter) over records) is one batch of it;
//! a stream is several, each appending its survivors to the same
//! `CleanBuilder` columns, and [`snapshot`](CleanIngest::snapshot)
//! finalizes a [`CleanDataset`] at any point mid-stream. A snapshot
//! seals the videos kept since the previous one into a new column
//! segment and shares every earlier segment, so it never copies a
//! video's columns again.
//!
//! # What a stream is
//!
//! A stream applies consecutive records of one growing corpus, read
//! through any [`ColumnarRead`] source: a file cut into ranges
//! (`tagdist ingest --batches`), or a crawl's dataset handed over
//! after each level (`crawl --ingest`). Every batch must continue it:
//!
//! * `from` equals the records applied so far;
//! * the source's tag vocabulary extends the names already adopted —
//!   the same names under the same ids, perhaps more after them.
//!
//! Both are checked with O(1) asserts (the record count, the
//! vocabulary length and the last adopted name), and a batch that does
//! not continue the stream panics. A crawl's interner only appends, so
//! its dataset always extends the last one, and duplicate keys were
//! already resolved when the crawl was recorded (`DatasetBuilder` keeps
//! the first crawl). A key a `bin v1` file repeats is kept twice, as
//! the cold build keeps it.
//!
//! # The equivalence argument
//!
//! After batches covering records `0..n` of a source, `snapshot(…)`
//! equals the cold filter of those `n` records under the source's
//! vocabulary, field for field, because it is that one loop cut into
//! pieces:
//!
//! * **tags** — each record's tag ids are taken from the source as
//!   stored, and names are copied from it, as the cold build copies
//!   them. The contract makes the adopted names the source's, so ids
//!   and names agree. A file stream adopts the file's whole vocabulary
//!   at its first batch, as the cold build of the file does; the
//!   growing dataset of a crawl adopts what the crawl has interned.
//! * **columns** — the predicate (no tags → `no_tags`, else unusable
//!   popularity → `bad_popularity`) runs per record in source order,
//!   appending survivors through `CleanBuilder::push`; `snapshot`
//!   seals them, and equality is row by row, so the segment boundaries
//!   a stream leaves do not matter.
//! * **indices** — `snapshot` extends the previous snapshot's postings
//!   and key index by the newly sealed segment alone, with the kernel
//!   a cold build runs over every segment. New videos take the next
//!   positions, so each tag's new postings belong at the tail of its
//!   run, and the new `(hash, position)` pairs merge into the sorted
//!   keys where a cold sort of every pair puts them.

use crate::columnar::{ColumnarRead, POP_VALID};
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
    /// Records in the batch, kept or dropped.
    pub records: usize,
}

/// Incremental §2 filtering state: the clean-dataset columns and the
/// tag vocabulary of everything applied so far.
#[derive(Debug, Clone)]
pub struct CleanIngest {
    country_count: usize,
    /// The source's names, adopted under its ids.
    tags: TagInterner,
    builder: CleanBuilder,
}

impl CleanIngest {
    /// Creates an empty ingest state for a world of `country_count`
    /// countries.
    pub fn new(country_count: usize) -> CleanIngest {
        CleanIngest {
            country_count,
            tags: TagInterner::new(),
            builder: CleanBuilder::new(country_count),
        }
    }

    /// The cold build: every record of `src` as one batch.
    pub(crate) fn filter<C: ColumnarRead>(src: &C) -> CleanDataset {
        let mut ingest = CleanIngest::new(src.country_count());
        ingest.apply(src);
        ingest.builder.finish(ingest.tags)
    }

    /// Applies every record of `src` as the stream's first batch.
    ///
    /// # Panics
    ///
    /// As for [`apply_range`](CleanIngest::apply_range).
    pub fn apply<C: ColumnarRead>(&mut self, src: &C) -> IngestDelta {
        self.apply_range(src, 0, src.len())
    }

    /// Applies the records of `src` from position `from` onward — the
    /// natural delta of a monotonically growing crawl (checkpoint
    /// suspensions hand back the same dataset, longer).
    ///
    /// # Panics
    ///
    /// As for [`apply_range`](CleanIngest::apply_range).
    pub fn apply_from<C: ColumnarRead>(&mut self, src: &C, from: usize) -> IngestDelta {
        self.apply_range(src, from, src.len())
    }

    /// Applies the records `from..to` of `src` as one batch: the §2
    /// filter loop, appending each survivor to the clean columns.
    ///
    /// # Panics
    ///
    /// Panics if `src` covers a different world size, the range is out
    /// of bounds, or the batch does not continue the stream (see the
    /// module docs): `from` is not the number of records applied so
    /// far, or `src`'s vocabulary does not extend the adopted one.
    pub fn apply_range<C: ColumnarRead>(&mut self, src: &C, from: usize, to: usize) -> IngestDelta {
        assert_eq!(
            src.country_count(),
            self.country_count,
            "batch covers a different world size"
        );
        assert!(
            from <= to && to <= src.len(),
            "batch range {from}..{to} out of bounds for {} records",
            src.len()
        );
        assert!(
            from == self.crawled(),
            "batch starting at record {from} does not continue the stream, which has applied {}",
            self.crawled()
        );
        let adopted = self.tags.len();
        assert!(
            src.tag_count() >= adopted
                && adopted.checked_sub(1).is_none_or(|last| {
                    src.tag_name(last) == self.tags.name(TagId::from_index(last))
                }),
            "batch source's tag vocabulary does not extend the stream's"
        );
        let first_kept = self.kept();
        let b = &mut self.builder;
        for i in from..to {
            let tags = src.video_tags(i);
            if tags.len() == 0 {
                b.report.no_tags += 1;
                continue;
            }
            // `POP_VALID` guarantees `country_count` in-range bytes, so
            // "usable" reduces to the sentinel plus a non-zero byte.
            let pop = src.pop_payload(i);
            if src.pop_kind(i) != POP_VALID || !pop.iter().any(|&v| v > 0) {
                b.report.bad_popularity += 1;
                continue;
            }
            let id = VideoId::from_index(i);
            b.push(id, src.key(i), src.title(i), src.total_views(i), tags, pop);
        }
        b.report.crawled = to;
        // The loop reads no name, so the new names are copied after it.
        // Copying them first put the interner's many small allocations
        // ahead of the columns' and raised `cold_build`'s peak RSS by
        // about 27 MiB.
        self.tags
            .extend_names((adopted..src.tag_count()).map(|t| src.tag_name(t)));
        IngestDelta {
            first_kept,
            kept: self.kept() - first_kept,
            records: to - from,
        }
    }

    /// World size of every popularity vector.
    pub fn country_count(&self) -> usize {
        self.country_count
    }

    /// Videos retained so far.
    pub fn kept(&self) -> usize {
        self.builder.views.len()
    }

    /// Records applied so far (kept or filtered).
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

    /// Adopted tags so far (the source's raw vocabulary, dropped
    /// videos' tags included).
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
    /// result equals the cold filter of the records applied so far.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not a snapshot of this ingest.
    pub fn snapshot(&mut self, base: Option<&CleanDataset>) -> CleanDataset {
        self.builder.snapshot(self.tags.clone(), base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, DatasetBuilder};
    use crate::filter::{filter, filter_records};
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

    #[test]
    fn one_batch_snapshot_equals_cold_filter() {
        let d = corpus(120, 0);
        let mut ingest = CleanIngest::new(3);
        let delta = ingest.apply(&d);
        assert_eq!(delta.records, 120);
        let snap = ingest.snapshot(None);
        assert_eq!(snap, filter_records(&d, d.len()));
        assert_eq!(snap, filter(&d));
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
            assert_eq!(delta.records, to - from);
            assert_eq!(ingest.snapshot(None), filter(&prefix));
        }
        assert_eq!(ingest.snapshot(None), filter(&d));
    }

    #[test]
    fn snapshots_share_sealed_columns() {
        let d = corpus(80, 7);
        let mut ingest = CleanIngest::new(3);
        ingest.apply_range(&d, 0, 40);
        let first = ingest.snapshot(None);
        ingest.apply_range(&d, 40, 80);
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
        assert_eq!(second, filter(&d));
        assert_eq!(first, filter_records(&d, 40));
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

    #[test]
    #[should_panic(expected = "does not continue the stream")]
    fn a_batch_that_skips_records_panics() {
        let d = corpus(30, 0);
        let mut ingest = CleanIngest::new(3);
        ingest.apply_range(&d, 0, 10);
        ingest.apply_range(&d, 11, 20);
    }

    #[test]
    #[should_panic(expected = "does not continue the stream")]
    fn a_batch_that_repeats_records_panics() {
        let d = corpus(30, 0);
        let mut ingest = CleanIngest::new(3);
        ingest.apply(&d);
        ingest.apply(&d);
    }

    #[test]
    #[should_panic(expected = "vocabulary does not extend")]
    fn a_source_with_another_vocabulary_panics() {
        let a = corpus(30, 0);
        // Same record count, tags interned in another order.
        let b = corpus(30, 1);
        let mut ingest = CleanIngest::new(3);
        ingest.apply_range(&a, 0, 10);
        ingest.apply_range(&b, 10, 30);
    }

    /// A source of one record per spec: `(key, tag count, popularity
    /// kind)`. A key's tags depend on the key alone, and a repeated key
    /// keeps its first record; kinds 0 and 1 are a missing and an
    /// all-zero vector, so those records drop.
    fn source(specs: &[(usize, usize, u8)]) -> Dataset {
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
        /// One source cut at random points, each cut either published
        /// or applied on with no publish in between, equals the record
        /// oracle over its prefix after every epoch: postings tag by
        /// tag and the key index key by key (plus one absent key), with
        /// every snapshot extending the previous one's indices. Repeated
        /// cuts and the final empty batch apply no records.
        #[test]
        fn streamed_indices_equal_the_cold_filter_after_every_epoch(
            specs in proptest::collection::vec((0usize..40, 0usize..4, 0u8..6), 0..80),
            cuts in proptest::collection::vec((0usize..80, 0u8..2), 0..8),
        ) {
            let src = source(&specs);
            let mut cuts: Vec<(usize, bool)> =
                cuts.iter().map(|&(c, publish)| (c.min(src.len()), publish == 1)).collect();
            cuts.sort_unstable();
            cuts.extend([(src.len(), false), (src.len(), true)]);

            let mut ingest = CleanIngest::new(3);
            let mut previous: Option<CleanDataset> = None;
            let mut from = 0;
            for (to, publish) in cuts {
                ingest.apply_range(&src, from, to);
                from = to;
                if !publish {
                    continue;
                }
                let snap = ingest.snapshot(previous.as_ref());
                let oracle = filter_records(&src, to);
                for (tag, _) in oracle.tags().iter() {
                    proptest::prop_assert_eq!(snap.videos_with_tag(tag), oracle.videos_with_tag(tag));
                }
                for key in oracle.iter().map(|v| v.key).chain(["absent"]) {
                    let first = (0..oracle.len()).find(|&pos| oracle.key_of(pos) == key);
                    proptest::prop_assert_eq!(snap.position_of(key), first);
                }
                proptest::prop_assert_eq!(&snap, &oracle);
                previous = Some(snap);
            }
            proptest::prop_assert_eq!(previous, Some(filter(&src)));
        }
    }

    #[test]
    #[should_panic(expected = "different world size")]
    fn world_size_mismatch_panics() {
        let mut ingest = CleanIngest::new(2);
        ingest.apply(&corpus(3, 0));
    }
}
