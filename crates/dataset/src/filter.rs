//! The paper's §2 filtering step.
//!
//! > *“we filter out all videos containing no tags (6,736 videos), or
//! > with an incorrect or empty popularity vector. This filtering step
//! > results in a dataset with 691,349 videos, associated with 705,415
//! > unique tags, totaling 173,288,616,473 views.”*
//!
//! [`filter`] reproduces that step and reports the same accounting; the
//! output is a [`CleanDataset`] whose every record carries a
//! *validated, signal-bearing* popularity vector, so downstream stages
//! (reconstruction, tag aggregation) never re-check metadata.
//!
//! # Columnar storage
//!
//! `CleanDataset` stores its videos as flat columns, not as one struct
//! per video: offset-indexed key/title pools, a dense `u64` view
//! column, a CSR video→tag spine, a fixed-stride intensity block
//! (every retained popularity vector has exactly `country_count`
//! validated bytes), and a CSR tag→video postings spine. Filtering a
//! million videos is a dozen allocations instead of millions, and the
//! hot per-column accessors ([`views_column`](CleanDataset::views_column),
//! [`intensities_of`](CleanDataset::intensities_of), …) hand slices to
//! the reconstruction without any per-video indirection. [`CleanVideo`]
//! is a borrowed row view assembled on demand by
//! [`iter`](CleanDataset::iter)/[`get`](CleanDataset::get) for code
//! that wants record-shaped access.
//!
//! Every per-video column except the views lives in `Arc` segments of
//! consecutive positions. [`filter`] and [`filter_columnar`] yield one
//! segment; the streaming ingest (`crate::ingest`) seals one per
//! snapshot and shares the earlier ones between snapshots. Accessors
//! find a position's segment by binary search over the segment starts,
//! and equality compares row by row, so segment boundaries are
//! invisible to callers.
//!
//! Two whole-corpus indices sit beside the segments: the tag→video
//! postings and a key index of `(fnv1a(key), position)` pairs sorted
//! by hash, which [`position_of`](CleanDataset::position_of) searches.
//! A cold build counting-sorts the postings and sorts the keys. A
//! streamed snapshot extends the previous snapshot's indices instead:
//! it copies each tag's run and merges the sorted keys, and it inverts
//! and hashes only the segments sealed since. Both paths run one
//! kernel, so their indices are equal.
//!
//! One loop applies the predicate:
//! [`CleanIngest::apply_range`](crate::ingest::CleanIngest::apply_range),
//! which reads any [`ColumnarRead`] source (an owned
//! [`ColumnarDataset`](crate::columnar::ColumnarDataset), a zero-copy
//! [`ColumnarView`](crate::binfmt::ColumnarView) over a mapped file,
//! or a record [`Dataset`] read in place). [`filter_columnar`] is one
//! batch of it over the whole source, and [`filter`] is the same call
//! on records. A record-path restatement of the loop is kept as a test
//! oracle; the proptests below compare both entry points with it field
//! for field.

use core::fmt;
use std::sync::Arc;

use tagdist_geo::PopularityView;

use crate::binfmt::fnv1a;
use crate::columnar::ColumnarRead;
use crate::dataset::Dataset;
use crate::ingest::CleanIngest;
use crate::record::VideoId;
use crate::tag::{TagId, TagInterner};

/// A video that survived filtering: tags present, popularity valid.
///
/// This is a borrowed row view over [`CleanDataset`]'s columns — cheap
/// to copy, assembled on demand — with the same field names the old
/// owned struct had, so field-access call sites read identically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CleanVideo<'a> {
    /// Id in the *original* dataset (stable across filtering so raw
    /// and clean views can be joined).
    pub id: VideoId,
    /// External platform key.
    pub key: &'a str,
    /// Display title.
    pub title: &'a str,
    /// Total worldwide views (the paper's `views(v)`).
    pub total_views: u64,
    /// Interned tags (non-empty).
    pub tags: &'a [TagId],
    /// Validated, signal-bearing popularity vector (the paper's
    /// `pop(v)`).
    pub popularity: PopularityView<'a>,
}

/// Accounting of the filtering step, mirroring §2 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FilterReport {
    /// Videos in the raw crawl (paper: 1,063,844).
    pub crawled: usize,
    /// Videos dropped for carrying no tags (paper: 6,736).
    pub no_tags: usize,
    /// Videos dropped for an incorrect or empty popularity vector.
    pub bad_popularity: usize,
    /// Videos kept (paper: 691,349).
    pub kept: usize,
}

impl FilterReport {
    /// Fraction of the crawl that survived filtering (paper: ≈ 65 %).
    pub fn keep_ratio(&self) -> f64 {
        if self.crawled == 0 {
            0.0
        } else {
            self.kept as f64 / self.crawled as f64
        }
    }
}

impl fmt::Display for FilterReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "crawled {} videos; dropped {} with no tags, {} with bad popularity; kept {} ({:.1}%)",
            self.crawled,
            self.no_tags,
            self.bad_popularity,
            self.kept,
            100.0 * self.keep_ratio()
        )
    }
}

/// The filtered dataset: the paper's 691,349-video working set,
/// stored columnar (see the module docs).
#[derive(Debug, Clone)]
pub struct CleanDataset {
    /// Per-video columns in position order, one segment per seal; none
    /// is empty. Datasets published from one stream share them.
    segments: Vec<Arc<Segment>>,
    /// First position of each segment, ascending.
    starts: Vec<usize>,
    /// Worldwide view counts, one per retained video.
    views: Vec<u64>,
    tags: TagInterner,
    /// CSR spine into `postings`; length `tags.len() + 1`.
    posting_rows: Vec<usize>,
    /// Flat tag→video postings: positions of retained videos carrying
    /// each tag, in dataset order.
    postings: Vec<u32>,
    /// `(fnv1a(key), position)` of every retained video, ascending: the
    /// key index [`position_of`](CleanDataset::position_of) searches.
    keys: Vec<(u64, u32)>,
    country_count: usize,
    report: FilterReport,
    /// Computed once at construction (printed per run; hot in report
    /// code).
    unique_tags: usize,
    /// Computed once at construction.
    total_views: u128,
}

impl PartialEq for CleanDataset {
    /// Row by row, whatever the segment boundaries: a streamed dataset
    /// equals the cold filter of the same corpus.
    fn eq(&self, other: &CleanDataset) -> bool {
        // Listed without `..`, so a field added later must be compared.
        let CleanDataset {
            segments: _,
            starts: _,
            views,
            tags,
            posting_rows,
            postings,
            keys,
            country_count,
            report,
            unique_tags,
            total_views,
        } = self;
        *views == other.views
            && *tags == other.tags
            && *posting_rows == other.posting_rows
            && *postings == other.postings
            && *keys == other.keys
            && *country_count == other.country_count
            && *report == other.report
            && *unique_tags == other.unique_tags
            && *total_views == other.total_views
            && self.iter().eq(other.iter())
    }
}

impl CleanDataset {
    /// Number of retained videos.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Returns `true` if filtering removed everything.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// World size the popularity vectors cover.
    pub fn country_count(&self) -> usize {
        self.country_count
    }

    /// The filtering accounting.
    pub fn report(&self) -> FilterReport {
        self.report
    }

    /// Iterates over retained videos as borrowed row views.
    pub fn iter(&self) -> impl Iterator<Item = CleanVideo<'_>> + '_ {
        (0..self.len()).map(move |pos| self.video(pos))
    }

    /// Retained video by position (0‥[`len`](CleanDataset::len)).
    pub fn get(&self, pos: usize) -> Option<CleanVideo<'_>> {
        (pos < self.len()).then(|| self.video(pos))
    }

    /// The shared tag interner (covers the *raw* vocabulary; tags used
    /// only by dropped videos have empty postings here).
    pub fn tags(&self) -> &TagInterner {
        &self.tags
    }

    /// Positions (into [`iter`](CleanDataset::iter)/[`get`](CleanDataset::get))
    /// of retained videos carrying `tag` — Eq. 3's `videos(t)` on the
    /// clean set, in dataset order.
    pub fn videos_with_tag(&self, tag: TagId) -> &[u32] {
        let t = tag.index();
        if t + 1 >= self.posting_rows.len() {
            return &[];
        }
        &self.postings[self.posting_rows[t]..self.posting_rows[t + 1]]
    }

    /// Position of the retained video keyed `key`, or `None` if no
    /// retained video has that key.
    ///
    /// Binary-searches the key index to the run of entries sharing
    /// `key`'s hash and confirms each candidate against the stored key,
    /// in position order, so hash collisions resolve exactly. Should
    /// the dataset carry a key twice (a `bin v1` file may), the first
    /// position answers.
    pub fn position_of(&self, key: &str) -> Option<usize> {
        let hash = fnv1a(key.as_bytes());
        let start = self.keys.partition_point(|&(h, _)| h < hash);
        self.keys[start..]
            .iter()
            .take_while(|&&(h, _)| h == hash)
            .map(|&(_, pos)| pos as usize)
            .find(|&pos| self.key_of(pos) == key)
    }

    /// Number of distinct tags attached to at least one retained video
    /// (the paper's "705,415 unique tags"). Precomputed.
    pub fn unique_tags(&self) -> usize {
        self.unique_tags
    }

    /// Sum of views over retained videos (the paper's
    /// 173,288,616,473). Precomputed.
    pub fn total_views(&self) -> u128 {
        self.total_views
    }

    /// Most-viewed retained video (Fig. 1's subject), if any.
    pub fn most_viewed(&self) -> Option<CleanVideo<'_>> {
        // Scan with `>=` so ties resolve to the *last* maximal video,
        // exactly like the `Iterator::max_by_key` this replaced —
        // rendered reports must stay byte-identical.
        let mut best: Option<usize> = None;
        for (pos, &v) in self.views.iter().enumerate() {
            if best.is_none_or(|b| v >= self.views[b]) {
                best = Some(pos);
            }
        }
        best.map(|pos| self.video(pos))
    }

    /// Original dataset id of the retained video at `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn id_of(&self, pos: usize) -> VideoId {
        let (segment, i) = self.locate(pos);
        segment.ids[i]
    }

    /// External platform key of the retained video at `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn key_of(&self, pos: usize) -> &str {
        let (segment, i) = self.locate(pos);
        segment.key(i)
    }

    /// Display title of the retained video at `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn title_of(&self, pos: usize) -> &str {
        let (segment, i) = self.locate(pos);
        segment.title(i)
    }

    /// The dense view-count column, one entry per retained video in
    /// position order — the natural slice for chunked parallel passes
    /// over the corpus.
    pub fn views_column(&self) -> &[u64] {
        &self.views
    }

    /// Interned tags of the retained video at `pos`, in upload order.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn tags_of(&self, pos: usize) -> &[TagId] {
        let (segment, i) = self.locate(pos);
        segment.tags(i)
    }

    /// Validated intensity bytes of the retained video at `pos`
    /// (exactly `country_count` entries).
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn intensities_of(&self, pos: usize) -> &[u8] {
        let (segment, i) = self.locate(pos);
        segment.intensities(i, self.country_count)
    }

    /// The segment holding position `pos` and the index within it.
    fn locate(&self, pos: usize) -> (&Segment, usize) {
        assert!(pos < self.len(), "position {pos} out of range");
        let s = segment_of(&self.starts, pos);
        (&self.segments[s], pos - self.starts[s])
    }

    /// Assembles the borrowed row view at `pos` (callers guarantee
    /// `pos < len`).
    fn video(&self, pos: usize) -> CleanVideo<'_> {
        let (segment, i) = self.locate(pos);
        CleanVideo {
            id: segment.ids[i],
            key: segment.key(i),
            title: segment.title(i),
            total_views: self.views[pos],
            tags: segment.tags(i),
            popularity: PopularityView::from_validated(segment.intensities(i, self.country_count)),
        }
    }

    /// Number of column segments.
    #[cfg(test)]
    pub(crate) fn segment_count(&self) -> usize {
        self.segments.len()
    }
}

/// Index of the segment holding `pos`, given ascending segment
/// `starts` that begin at 0 (`pos` must be in range).
fn segment_of(starts: &[usize], pos: usize) -> usize {
    starts.partition_point(|&start| start <= pos) - 1
}

/// A run of consecutive retained videos: every per-video column except
/// the view counts, with offsets local to the run.
#[derive(Debug, Clone)]
struct Segment {
    /// Original dataset ids.
    ids: Vec<VideoId>,
    /// Byte offsets of each key in `key_pool`; length `len + 1`.
    key_offsets: Vec<usize>,
    key_pool: String,
    /// Byte offsets of each title in `title_pool`; length `len + 1`.
    title_offsets: Vec<usize>,
    title_pool: String,
    /// CSR spine into `tag_ids`; length `len + 1`.
    tag_rows: Vec<usize>,
    /// Flat per-video tag lists, in position order.
    tag_ids: Vec<TagId>,
    /// Fixed-stride intensity block: `len × country_count` validated
    /// bytes (every retained vector has exactly `country_count`
    /// entries — the filter predicate guarantees it).
    intensities: Vec<u8>,
}

impl Segment {
    fn new() -> Segment {
        Segment {
            ids: Vec::new(),
            key_offsets: vec![0],
            key_pool: String::new(),
            title_offsets: vec![0],
            title_pool: String::new(),
            tag_rows: vec![0],
            tag_ids: Vec::new(),
            intensities: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn key(&self, i: usize) -> &str {
        &self.key_pool[self.key_offsets[i]..self.key_offsets[i + 1]]
    }

    fn title(&self, i: usize) -> &str {
        &self.title_pool[self.title_offsets[i]..self.title_offsets[i + 1]]
    }

    fn tags(&self, i: usize) -> &[TagId] {
        &self.tag_ids[self.tag_rows[i]..self.tag_rows[i + 1]]
    }

    fn intensities(&self, i: usize, country_count: usize) -> &[u8] {
        &self.intensities[i * country_count..(i + 1) * country_count]
    }
}

/// Incremental column builder behind the filter loop
/// (`crate::ingest`): a cold build and a stream construct their result
/// through the exact same sequence of column writes.
///
/// Pushed videos go to an open segment. [`seal`](CleanBuilder::seal)
/// freezes it behind an `Arc`, and
/// [`snapshot`](CleanBuilder::snapshot) assembles a dataset that
/// shares every sealed segment, so a stream publishing an epoch per
/// batch copies each video's columns once, not once per epoch. Equality
/// is row by row, so the result equals a cold [`filter`] of the
/// concatenated corpus (one segment) field for field.
#[derive(Debug, Clone)]
pub(crate) struct CleanBuilder {
    country_count: usize,
    pub(crate) report: FilterReport,
    /// Sealed segments and their first positions.
    sealed: Vec<Arc<Segment>>,
    starts: Vec<usize>,
    /// Videos pushed since the last seal.
    open: Segment,
    pub(crate) views: Vec<u64>,
    total_views: u128,
}

impl CleanBuilder {
    pub(crate) fn new(country_count: usize) -> CleanBuilder {
        CleanBuilder {
            country_count,
            report: FilterReport::default(),
            sealed: Vec::new(),
            starts: Vec::new(),
            open: Segment::new(),
            views: Vec::new(),
            total_views: 0,
        }
    }

    pub(crate) fn push<I>(
        &mut self,
        id: VideoId,
        key: &str,
        title: &str,
        views: u64,
        tags: I,
        pop: &[u8],
    ) where
        I: IntoIterator<Item = TagId>,
    {
        debug_assert_eq!(pop.len(), self.country_count);
        let open = &mut self.open;
        open.ids.push(id);
        open.key_pool.push_str(key);
        open.key_offsets.push(open.key_pool.len());
        open.title_pool.push_str(title);
        open.title_offsets.push(open.title_pool.len());
        open.tag_ids.extend(tags);
        open.tag_rows.push(open.tag_ids.len());
        open.intensities.extend_from_slice(pop);
        self.views.push(views);
        self.total_views += views as u128;
    }

    /// The segment holding position `pos` (sealed or open) and the
    /// index within it.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    fn locate(&self, pos: usize) -> (&Segment, usize) {
        assert!(pos < self.views.len(), "position {pos} out of range");
        let open_start = self.views.len() - self.open.len();
        if pos >= open_start {
            return (&self.open, pos - open_start);
        }
        let s = segment_of(&self.starts, pos);
        (&self.sealed[s], pos - self.starts[s])
    }

    /// Validated intensity bytes of the video at `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub(crate) fn intensities_of(&self, pos: usize) -> &[u8] {
        let (segment, i) = self.locate(pos);
        segment.intensities(i, self.country_count)
    }

    /// Interned tags of the video at `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub(crate) fn tags_of(&self, pos: usize) -> &[TagId] {
        let (segment, i) = self.locate(pos);
        segment.tags(i)
    }

    /// Freezes the open segment, if it holds any video.
    pub(crate) fn seal(&mut self) {
        if self.open.len() == 0 {
            return;
        }
        self.starts.push(self.views.len() - self.open.len());
        let open = std::mem::replace(&mut self.open, Segment::new());
        self.sealed.push(Arc::new(open));
    }

    /// Seals, then assembles a dataset that shares every sealed
    /// segment with this builder; further pushes go to a new segment.
    ///
    /// `base`, a dataset an earlier snapshot of this builder returned,
    /// is the prefix the postings and the key index extend, so only the
    /// segments sealed since are inverted and hashed.
    ///
    /// # Panics
    ///
    /// Panics if `base`'s segments are not a prefix of this builder's.
    pub(crate) fn snapshot(
        &mut self,
        tags: TagInterner,
        base: Option<&CleanDataset>,
    ) -> CleanDataset {
        self.seal();
        let (segments, starts, views) =
            (self.sealed.clone(), self.starts.clone(), self.views.clone());
        self.assemble(base, segments, starts, views, tags)
    }

    /// Seals and assembles the dataset (a cold build: one segment).
    pub(crate) fn finish(mut self, tags: TagInterner) -> CleanDataset {
        self.seal();
        let segments = std::mem::take(&mut self.sealed);
        let starts = std::mem::take(&mut self.starts);
        let views = std::mem::take(&mut self.views);
        self.assemble(None, segments, starts, views, tags)
    }

    /// The one index kernel: the cold build is this with no `base`.
    ///
    /// Postings: each tag's run starts as a copy of its `base` run and
    /// continues with a counting-sort scatter of the segments past
    /// `base`, in dataset order. Those segments' positions all follow
    /// `base`'s, so every run stays sorted by position and equals the
    /// cold counting sort's. Keys: the new segments' `(hash, position)`
    /// pairs are sorted and merged into `base`'s, the order a cold sort
    /// of every pair gives, since no two pairs are equal.
    fn assemble(
        &self,
        base: Option<&CleanDataset>,
        segments: Vec<Arc<Segment>>,
        starts: Vec<usize>,
        views: Vec<u64>,
        tags: TagInterner,
    ) -> CleanDataset {
        assert!(
            u32::try_from(views.len()).is_ok(),
            "dataset position overflows the u32 posting space"
        );
        let indexed = base.map_or(0, |base| {
            assert!(
                base.segments.len() <= segments.len()
                    && base
                        .segments
                        .iter()
                        .zip(&segments)
                        .all(|(a, b)| Arc::ptr_eq(a, b))
                    && base.tags.len() <= tags.len(),
                "base is not a prefix of the dataset being assembled"
            );
            base.segments.len()
        });
        let (fresh, fresh_starts) = (&segments[indexed..], &starts[indexed..]);

        // A counting sort: per-tag counts (the base run plus the new
        // postings) and prefix sums, then each base run copied to the
        // head of its tag's run and the new postings filled in dataset
        // order behind it.
        let tag_count = tags.len();
        let mut counts = vec![0usize; tag_count];
        if let Some(base) = base {
            for (count, row) in counts.iter_mut().zip(base.posting_rows.windows(2)) {
                *count = row[1] - row[0];
            }
        }
        for tag in fresh.iter().flat_map(|segment| &segment.tag_ids) {
            counts[tag.index()] += 1;
        }
        let unique_tags = counts.iter().filter(|&&c| c > 0).count();
        let mut posting_rows = vec![0usize; tag_count + 1];
        for (t, &c) in counts.iter().enumerate() {
            posting_rows[t + 1] = posting_rows[t] + c;
        }
        let mut cursor = posting_rows.clone();
        let mut postings = vec![0u32; posting_rows[tag_count]];
        if let Some(base) = base {
            for (t, row) in base.posting_rows.windows(2).enumerate() {
                let run = &base.postings[row[0]..row[1]];
                postings[cursor[t]..cursor[t] + run.len()].copy_from_slice(run);
                cursor[t] += run.len();
            }
        }
        for (segment, &start) in fresh.iter().zip(fresh_starts) {
            for i in 0..segment.len() {
                for tag in segment.tags(i) {
                    postings[cursor[tag.index()]] = (start + i) as u32;
                    cursor[tag.index()] += 1;
                }
            }
        }

        let mut fresh_keys: Vec<(u64, u32)> = fresh
            .iter()
            .zip(fresh_starts)
            .flat_map(|(segment, &start)| {
                (0..segment.len())
                    .map(move |i| (fnv1a(segment.key(i).as_bytes()), (start + i) as u32))
            })
            .collect();
        fresh_keys.sort_unstable();
        let keys = match base {
            Some(base) => merge_sorted(&base.keys, &fresh_keys),
            None => fresh_keys,
        };

        CleanDataset {
            segments,
            starts,
            report: FilterReport {
                kept: views.len(),
                ..self.report
            },
            views,
            tags,
            posting_rows,
            postings,
            keys,
            country_count: self.country_count,
            unique_tags,
            total_views: self.total_views,
        }
    }
}

/// Merges two ascending runs: each entry of the (short) `fresh` run is
/// placed by binary search, and the `base` entries between are copied
/// as whole slices.
fn merge_sorted(base: &[(u64, u32)], fresh: &[(u64, u32)]) -> Vec<(u64, u32)> {
    let mut merged = Vec::with_capacity(base.len() + fresh.len());
    let mut rest = base;
    for &entry in fresh {
        let split = rest.partition_point(|&e| e < entry);
        merged.extend_from_slice(&rest[..split]);
        merged.push(entry);
        rest = &rest[split..];
    }
    merged.extend_from_slice(rest);
    merged
}

/// Applies the paper's §2 filter to a raw crawl.
///
/// Videos with no tags are dropped first (and counted as `no_tags`
/// even if their popularity is also bad, matching the paper's
/// presentation order); remaining videos with a missing, corrupt or
/// all-zero popularity vector are dropped as `bad_popularity`. The
/// records are read in place through [`ColumnarRead`], by the same
/// loop as [`filter_columnar`].
pub fn filter(dataset: &Dataset) -> CleanDataset {
    CleanIngest::filter(dataset)
}

/// Applies the paper's §2 filter directly to columnar storage — the
/// zero-copy path from a decoded (or memory-mapped) binary file to the
/// clean working set, skipping [`Dataset`] materialization entirely.
///
/// One batch of [`CleanIngest::apply_range`] over every video: an
/// empty tag row is `no_tags`; a popularity that is not
/// `POP_VALID`-with-signal is `bad_popularity`. Tag ids are taken as
/// stored and names copied from the source. Output equals
/// `filter(&src.to_dataset())` field for field.
pub fn filter_columnar<C: ColumnarRead>(src: &C) -> CleanDataset {
    CleanIngest::filter(src)
}

/// The record-path restatement of the §2 loop over records `0..to`,
/// under `dataset`'s whole vocabulary: the oracle the proptests compare
/// the one production loop with.
#[cfg(test)]
pub(crate) fn filter_records(dataset: &Dataset, to: usize) -> CleanDataset {
    let mut b = CleanBuilder::new(dataset.country_count());
    b.report.crawled = to;
    for record in dataset.iter().take(to) {
        if record.tags.is_empty() {
            b.report.no_tags += 1;
            continue;
        }
        let Some(pop) = record.popularity.usable() else {
            b.report.bad_popularity += 1;
            continue;
        };
        b.push(
            record.id,
            &record.key,
            &record.title,
            record.total_views,
            record.tags.iter().copied(),
            pop.as_slice(),
        );
    }
    b.finish(dataset.tags().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::ColumnarDataset;
    use crate::dataset::DatasetBuilder;
    use crate::record::RawPopularity;

    fn build() -> Dataset {
        let mut b = DatasetBuilder::new(3);
        // clean
        b.push_video("a", 100, &["pop"], RawPopularity::decode(vec![61, 0, 0], 3));
        // no tags
        b.push_video("b", 200, &[], RawPopularity::decode(vec![0, 61, 0], 3));
        // missing popularity
        b.push_video("c", 300, &["rock"], RawPopularity::Missing);
        // corrupt popularity (wrong length)
        b.push_video("d", 400, &["rock"], RawPopularity::decode(vec![61], 3));
        // empty (all-zero) popularity
        b.push_video("e", 500, &["jazz"], RawPopularity::decode(vec![0, 0, 0], 3));
        // no tags AND bad popularity → counted as no_tags
        b.push_video("f", 600, &[], RawPopularity::Missing);
        // clean, shares a tag
        b.push_video(
            "g",
            700,
            &["pop", "live"],
            RawPopularity::decode(vec![0, 0, 61], 3),
        );
        b.build()
    }

    #[test]
    fn report_matches_paper_accounting_rules() {
        let clean = filter(&build());
        let r = clean.report();
        assert_eq!(r.crawled, 7);
        assert_eq!(r.no_tags, 2);
        assert_eq!(r.bad_popularity, 3);
        assert_eq!(r.kept, 2);
        assert_eq!(r.crawled, r.no_tags + r.bad_popularity + r.kept);
        assert!((r.keep_ratio() - 2.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn clean_videos_keep_original_ids() {
        let clean = filter(&build());
        let keys: Vec<&str> = clean.iter().map(|v| v.key).collect();
        assert_eq!(keys, vec!["a", "g"]);
        assert_eq!(clean.get(0).unwrap().id.index(), 0);
        assert_eq!(clean.get(1).unwrap().id.index(), 6);
        assert_eq!(clean.id_of(1).index(), 6);
        assert!(clean.get(2).is_none());
    }

    #[test]
    fn unique_tags_counts_only_surviving_postings() {
        let clean = filter(&build());
        // "rock" and "jazz" only appear on dropped videos.
        assert_eq!(clean.unique_tags(), 2); // pop, live
        let rock = clean.tags().id("rock").unwrap();
        assert!(clean.videos_with_tag(rock).is_empty());
        let pop = clean.tags().id("pop").unwrap();
        assert_eq!(clean.videos_with_tag(pop), &[0, 1]);
    }

    #[test]
    fn totals_cover_retained_only() {
        let clean = filter(&build());
        assert_eq!(clean.total_views(), 800);
        assert_eq!(clean.most_viewed().unwrap().key, "g");
    }

    #[test]
    fn most_viewed_breaks_ties_like_max_by_key() {
        // `Iterator::max_by_key` returns the *last* maximal element;
        // Fig. 1 report bytes depend on replicating that.
        let mut b = DatasetBuilder::new(2);
        b.push_video("first", 9, &["t"], RawPopularity::decode(vec![61, 0], 2));
        b.push_video("second", 9, &["t"], RawPopularity::decode(vec![0, 61], 2));
        let clean = filter(&b.build());
        assert_eq!(clean.most_viewed().unwrap().key, "second");
    }

    #[test]
    fn columnar_accessors_match_the_row_views() {
        let clean = filter(&build());
        assert_eq!(clean.views_column(), &[100, 700]);
        for (pos, v) in clean.iter().enumerate() {
            assert_eq!(clean.key_of(pos), v.key);
            assert_eq!(clean.title_of(pos), v.title);
            assert_eq!(clean.views_column()[pos], v.total_views);
            assert_eq!(clean.tags_of(pos), v.tags);
            assert_eq!(clean.intensities_of(pos), v.popularity.as_slice());
        }
    }

    #[test]
    fn empty_dataset_filters_to_empty() {
        let clean = filter(&DatasetBuilder::new(3).build());
        assert!(clean.is_empty());
        assert_eq!(clean.report().keep_ratio(), 0.0);
        assert_eq!(clean.unique_tags(), 0);
        assert!(clean.most_viewed().is_none());
    }

    #[test]
    fn report_display_is_informative() {
        let clean = filter(&build());
        let s = clean.report().to_string();
        assert!(s.contains("crawled 7"));
        assert!(s.contains("kept 2"));
    }

    /// Seven retained videos, each with its own key, title, tags and
    /// intensities.
    fn seven() -> CleanDataset {
        let mut b = DatasetBuilder::new(3);
        for i in 0..7u8 {
            let tags = [format!("t{i}"), format!("t{}", i / 2)];
            let tag_refs: Vec<&str> = tags.iter().map(String::as_str).collect();
            b.push_video_titled(
                &format!("v{i}"),
                &format!("title {i}"),
                10 * u64::from(i),
                &tag_refs,
                RawPopularity::decode(vec![i + 1, 2 * i, 61 - i], 3),
            );
        }
        filter(&b.build())
    }

    /// `clean` re-pushed through one builder sealed before each of the
    /// positions in `cuts`, the shape a stream publishing there holds.
    fn resegmented(clean: &CleanDataset, cuts: &[usize]) -> CleanDataset {
        let mut b = CleanBuilder::new(clean.country_count());
        b.report = clean.report();
        for (pos, v) in clean.iter().enumerate() {
            if cuts.contains(&pos) {
                b.seal();
            }
            let (tags, pop) = (v.tags.iter().copied(), v.popularity.as_slice());
            b.push(v.id, v.key, v.title, v.total_views, tags, pop);
        }
        b.finish(clean.tags().clone())
    }

    #[test]
    fn lookups_at_segment_boundaries_find_the_right_rows() {
        let cold = seven();
        // A repeated cut seals nothing new: no empty segment.
        let split = resegmented(&cold, &[2, 2, 5]);
        assert_eq!(split.segment_count(), 3);
        for pos in [0, 1, 2, 4, 5, 6] {
            assert_eq!(split.get(pos), cold.get(pos), "row {pos}");
            assert_eq!(split.id_of(pos), cold.id_of(pos));
            assert_eq!(split.key_of(pos), format!("v{pos}"));
            assert_eq!(split.title_of(pos), format!("title {pos}"));
            assert_eq!(split.tags_of(pos), cold.tags_of(pos));
            assert_eq!(split.intensities_of(pos), cold.intensities_of(pos));
        }
        assert!(split.get(7).is_none());
        assert_eq!(split, cold);
        for (tag, _) in cold.tags().iter() {
            assert_eq!(split.videos_with_tag(tag), cold.videos_with_tag(tag));
        }

        let empty = filter(&DatasetBuilder::new(3).build());
        assert_eq!(empty.segment_count(), 0);
        let resealed = resegmented(&empty, &[0]);
        assert_eq!(resealed.segment_count(), 0);
        assert_eq!(resealed, empty);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn lookups_past_the_last_segment_panic() {
        let _ = resegmented(&seven(), &[3]).key_of(7);
    }

    #[test]
    fn equality_sees_one_change_in_a_later_segment() {
        let cold = seven();
        let split = resegmented(&cold, &[3]);
        assert_eq!(split, cold);
        let mutations: [fn(&mut Segment); 5] = [
            |s| s.ids[1] = VideoId::from_index(99),
            |s| s.key_pool.replace_range(0..1, "w"),
            |s| s.title_pool.replace_range(0..1, "T"),
            |s| s.tag_ids[0] = TagId::from_index(s.tag_ids[0].index() + 1),
            |s| s.intensities[4] ^= 1,
        ];
        for (i, mutate) in mutations.iter().enumerate() {
            let mut changed = split.clone();
            mutate(Arc::make_mut(&mut changed.segments[1]));
            assert_ne!(changed, cold, "mutation {i}");
            assert_ne!(cold, changed, "mutation {i}");
        }
        // Copy-on-write: the shared original is untouched.
        assert_eq!(split, cold);
    }

    #[test]
    fn filter_columnar_equals_filter_via_records() {
        let d = build();
        let c = ColumnarDataset::from_dataset(&d).unwrap();
        let via_records = filter(&c.to_dataset());
        let via_columns = filter_columnar(&c);
        assert_eq!(via_records, via_columns);
        assert_eq!(via_columns.report(), filter(&d).report());
    }

    /// `n` retained videos keyed `key-0`, `key-1`, ….
    fn keyed(n: usize) -> CleanDataset {
        let mut b = DatasetBuilder::new(2);
        for i in 0..n {
            let pop = RawPopularity::decode(vec![30, 61], 2);
            b.push_video(&format!("key-{i}"), 100 + i as u64, &["t"], pop);
        }
        filter(&b.build())
    }

    #[test]
    fn every_key_maps_to_its_position_and_unknown_keys_miss() {
        let clean = keyed(500);
        assert_eq!(clean.len(), 500);
        for pos in 0..clean.len() {
            assert_eq!(clean.position_of(clean.key_of(pos)), Some(pos));
        }
        for absent in ["", "key-500", "key-", "KEY-1", "key-1 "] {
            assert_eq!(clean.position_of(absent), None, "{absent:?}");
        }
        let empty = keyed(0);
        assert_eq!(empty.position_of(""), None);
        assert_eq!(empty.position_of("key-0"), None);
    }

    #[test]
    fn colliding_hashes_resolve_by_comparing_keys() {
        // Every position filed under the hash of "key-3": the lookup
        // must walk the whole run and confirm against the key pool.
        let mut clean = keyed(8);
        let shared = fnv1a(b"key-3");
        let mut keys: Vec<(u64, u32)> = (0..8).map(|pos| (shared, pos)).collect();
        // Neighbouring runs on both sides of the shared hash.
        keys.insert(0, (shared - 1, 2));
        keys.push((shared + 1, 4));
        clean.keys = keys;
        assert_eq!(clean.position_of("key-3"), Some(3));
        // Same hash run, but no candidate's key matches.
        clean.keys = (0..8).filter(|&p| p != 3).map(|p| (shared, p)).collect();
        assert_eq!(clean.position_of("key-3"), None);
        // Keys whose real hash is absent from the index miss.
        assert_eq!(clean.position_of("key-0"), None);
    }

    /// A columnar source whose video `copy` repeats video `of`'s key —
    /// the `bin v1` decoder does not reject duplicate keys, and the
    /// filter loop keeps both rows.
    struct DuplicateKey {
        inner: ColumnarDataset,
        of: usize,
        copy: usize,
    }

    impl ColumnarRead for DuplicateKey {
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn country_count(&self) -> usize {
            self.inner.country_count()
        }
        fn tag_count(&self) -> usize {
            ColumnarRead::tag_count(&self.inner)
        }
        fn key(&self, i: usize) -> &str {
            self.inner.key(if i == self.copy { self.of } else { i })
        }
        fn title(&self, i: usize) -> &str {
            self.inner.title(i)
        }
        fn total_views(&self, i: usize) -> u64 {
            self.inner.total_views(i)
        }
        fn video_tags(&self, i: usize) -> impl ExactSizeIterator<Item = TagId> + '_ {
            self.inner.video_tags(i)
        }
        fn pop_kind(&self, i: usize) -> u8 {
            ColumnarRead::pop_kind(&self.inner, i)
        }
        fn pop_payload(&self, i: usize) -> &[u8] {
            ColumnarRead::pop_payload(&self.inner, i)
        }
        fn tag_name(&self, t: usize) -> &str {
            self.inner.tag_name(t)
        }
    }

    /// Six retained videos keyed `key-0`‥`key-5`, except that video 4
    /// repeats `key-1`.
    fn duplicate_key() -> DuplicateKey {
        let mut b = DatasetBuilder::new(2);
        for i in 0..6 {
            let pop = RawPopularity::decode(vec![30, 61], 2);
            b.push_video(&format!("key-{i}"), 100 + i as u64, &["t"], pop);
        }
        let inner = ColumnarDataset::from_dataset(&b.build()).unwrap();
        DuplicateKey {
            inner,
            of: 1,
            copy: 4,
        }
    }

    #[test]
    fn a_duplicated_key_answers_with_its_first_position() {
        let clean = filter_columnar(&duplicate_key());
        assert_eq!(clean.key_of(1), clean.key_of(4));
        for pos in 0..clean.len() {
            let key = clean.key_of(pos);
            let first = (0..clean.len()).find(|&p| clean.key_of(p) == key);
            assert_eq!(clean.position_of(key), first, "{key:?}");
        }
        assert_eq!(clean.position_of("key-1"), Some(1));
    }

    /// A stream keeps a repeated key's second row, as the cold build
    /// does, however the source is cut.
    #[test]
    fn a_streamed_repeated_key_equals_the_cold_build() {
        let src = duplicate_key();
        let cold = filter_columnar(&src);
        assert_eq!(cold.len(), 6);
        for cuts in [&[][..], &[3], &[1, 2, 3, 4, 5]] {
            let mut ingest = CleanIngest::new(2);
            let mut from = 0;
            for &to in cuts.iter().chain([&src.len()]) {
                ingest.apply_range(&src, from, to);
                from = to;
            }
            let streamed = ingest.snapshot(None);
            assert_eq!(streamed.report(), cold.report(), "cuts {cuts:?}");
            assert_eq!(streamed.views_column(), cold.views_column());
            for pos in 0..cold.len() {
                assert_eq!(streamed.key_of(pos), cold.key_of(pos), "cuts {cuts:?}");
                assert_eq!(streamed.get(pos), cold.get(pos), "cuts {cuts:?}");
            }
            assert_eq!(streamed, cold, "cuts {cuts:?}");
        }
    }

    #[test]
    fn filter_columnar_on_empty_input() {
        let c = ColumnarDataset::from_dataset(&DatasetBuilder::new(4).build()).unwrap();
        let clean = filter_columnar(&c);
        assert!(clean.is_empty());
        assert_eq!(clean.country_count(), 4);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::columnar::ColumnarDataset;
    use crate::dataset::DatasetBuilder;
    use crate::record::RawPopularity;
    use proptest::prelude::*;

    proptest! {
        /// The record oracle: `filter(columnar.to_dataset())` and
        /// `filter_columnar(columnar)` equal the record-path loop field
        /// for field — columns, postings order, interner and
        /// `FilterReport` counts — on random corpora mixing every
        /// popularity shape.
        #[test]
        fn filter_columnar_matches_record_path(
            specs in proptest::collection::vec(
                (
                    0u64..1_000_000,
                    0usize..5,
                    prop_oneof![
                        Just(None),                                        // missing
                        proptest::collection::vec(0u8..=61, 3).prop_map(Some),  // valid shape
                        proptest::collection::vec(0u8..=255, 0..6).prop_map(Some), // maybe corrupt
                    ],
                ),
                0..40
            )
        ) {
            let mut b = DatasetBuilder::new(3);
            for (i, (views, tag_seed, raw)) in specs.iter().enumerate() {
                let tags: Vec<String> =
                    (0..*tag_seed).map(|t| format!("t{}", (i + t) % 11)).collect();
                let tag_refs: Vec<&str> = tags.iter().map(String::as_str).collect();
                let pop = match raw {
                    None => RawPopularity::Missing,
                    Some(bytes) => RawPopularity::decode(bytes.clone(), 3),
                };
                b.push_video(&format!("v{i}"), *views, &tag_refs, pop);
            }
            let records = b.build();
            let oracle = filter_records(&records, records.len());
            let columnar = ColumnarDataset::from_dataset(&records).unwrap();
            let via_records = filter(&columnar.to_dataset());
            let via_columns = filter_columnar(&columnar);
            prop_assert_eq!(via_records.report(), oracle.report());
            prop_assert_eq!(via_columns.report(), oracle.report());
            prop_assert_eq!(&via_records, &oracle);
            prop_assert_eq!(&via_columns, &oracle);
        }
    }
}
