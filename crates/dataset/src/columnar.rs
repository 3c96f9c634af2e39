//! Columnar in-memory dataset representation.
//!
//! [`ColumnarDataset`] holds the same information as [`Dataset`] in a
//! handful of flat columns instead of one `VideoRecord` per video:
//! string pools with offset indices for keys, titles and tag names, a
//! CSR spine for the video→tag lists, and a dense sentinel-tagged
//! block for the popularity vectors. The point is scale: a million
//! videos is a dozen allocations, not four million, and the layout maps
//! 1:1 onto the `tagdist-dataset bin v1` on-disk sections (see
//! [`binfmt`](crate::binfmt)) so a load is sequential reads into
//! preallocated buffers.
//!
//! Conversions bridge to the record-oriented world: `from_dataset`
//! flattens a built [`Dataset`] (deterministically — same input, same
//! columns), `to_dataset` rebuilds one for code paths that still want
//! records. Both preserve every field exactly, including `Corrupt`
//! popularity bytes, so TSV↔bin round-trips are lossless.

use tagdist_obs::Recorder;

use crate::dataset::Dataset;
use crate::error::DatasetError;
use crate::record::{RawPopularity, VideoId, VideoRecord};
use crate::tag::{TagId, TagInterner};

/// Popularity sentinel: no chart was served.
pub const POP_MISSING: u8 = 0;
/// Popularity sentinel: a structurally valid intensity vector.
pub const POP_VALID: u8 = 1;
/// Popularity sentinel: raw bytes that failed decoding.
pub const POP_CORRUPT: u8 = 2;

/// Read access to a validated dataset, video by video.
///
/// Implemented by [`ColumnarDataset`] (typed columns in owned `Vec`s),
/// by [`ColumnarView`](crate::binfmt::ColumnarView) (sections borrowed
/// straight from an on-disk image, e.g. an `mmap`) and by a record
/// [`Dataset`], read in place. The §2 filter loop
/// ([`CleanIngest::apply_range`](crate::CleanIngest::apply_range), and
/// [`filter_columnar`](crate::filter::filter_columnar) as its one
/// batch) runs unchanged over any of them, which is what lets the
/// pipeline go from file bytes to a [`CleanDataset`](crate::CleanDataset)
/// without materializing per-video records.
///
/// Every implementation upholds the invariants in the
/// [`ColumnarDataset`] docs, so accessors may panic only on
/// out-of-range indices.
pub trait ColumnarRead {
    /// Number of videos.
    fn len(&self) -> usize;

    /// Returns `true` if the dataset contains no videos.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of countries each popularity vector is expected to cover.
    fn country_count(&self) -> usize;

    /// Number of distinct interned tags.
    fn tag_count(&self) -> usize;

    /// The external platform key of video `i`.
    fn key(&self, i: usize) -> &str;

    /// The display title of video `i`.
    fn title(&self, i: usize) -> &str;

    /// Total worldwide views of video `i`.
    fn total_views(&self, i: usize) -> u64;

    /// Tag ids of video `i`, in upload order; each is `< tag_count`.
    fn video_tags(&self, i: usize) -> impl ExactSizeIterator<Item = TagId> + '_;

    /// The `POP_*` sentinel of video `i`.
    fn pop_kind(&self, i: usize) -> u8;

    /// Raw popularity payload bytes of video `i` (empty for
    /// `POP_MISSING`; exactly `country_count` in-range intensities for
    /// `POP_VALID`).
    fn pop_payload(&self, i: usize) -> &[u8];

    /// The interned name of tag `t`.
    fn tag_name(&self, t: usize) -> &str;
}

/// Byte sizes of the live columns, for memory accounting.
///
/// Reported as `dataset.*` gauges by
/// [`ColumnarDataset::record_gauges`]; every field is a deterministic
/// function of the dataset contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// Bytes in the key + title string pools (offsets + bytes).
    pub string_pool_bytes: u64,
    /// Bytes in the CSR tag spine + flat tag-id column.
    pub postings_bytes: u64,
    /// Bytes in the popularity kind/offset/payload block.
    pub popularity_bytes: u64,
    /// Bytes in the interned tag-name pool (offsets + bytes).
    pub tag_names_bytes: u64,
    /// Number of videos.
    pub videos: u64,
    /// Number of distinct tags.
    pub tags: u64,
}

impl MemoryFootprint {
    /// Total resident bytes across all columns.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.string_pool_bytes + self.postings_bytes + self.popularity_bytes + self.tag_names_bytes
    }
}

/// A dataset stored as flat columns (see the module docs).
///
/// Invariants (checked by the binary decoder, upheld by
/// `from_dataset`): every offset column is monotone, starts at 0 and
/// ends at its pool's length; string-pool offsets fall on UTF-8
/// character boundaries; tag ids are `< tag_count`; popularity kinds
/// are one of the `POP_*` sentinels with `POP_MISSING` rows empty and
/// `POP_VALID` rows exactly `country_count` in-range bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnarDataset {
    pub(crate) country_count: u32,
    /// Byte offsets of each key in `key_bytes`; length `n + 1`.
    pub(crate) key_offsets: Vec<u32>,
    pub(crate) key_bytes: String,
    /// Byte offsets of each title in `title_bytes`; length `n + 1`.
    pub(crate) title_offsets: Vec<u32>,
    pub(crate) title_bytes: String,
    /// Worldwide view counts, one per video.
    pub(crate) total_views: Vec<u64>,
    /// CSR spine into `tag_ids`; length `n + 1`.
    pub(crate) tag_rows: Vec<u32>,
    /// Flat per-video tag-id lists, in video order.
    pub(crate) tag_ids: Vec<u32>,
    /// One `POP_*` sentinel per video.
    pub(crate) pop_kind: Vec<u8>,
    /// Byte offsets of each popularity payload in `pop_bytes`.
    pub(crate) pop_offsets: Vec<u32>,
    pub(crate) pop_bytes: Vec<u8>,
    /// Byte offsets of each tag name in `tagname_bytes`; length `t + 1`.
    pub(crate) tagname_offsets: Vec<u32>,
    pub(crate) tagname_bytes: String,
}

impl ColumnarDataset {
    /// Number of videos.
    #[must_use]
    pub fn len(&self) -> usize {
        self.total_views.len()
    }

    /// Returns `true` if the dataset contains no videos.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total_views.is_empty()
    }

    /// Number of countries each popularity vector is expected to cover.
    #[must_use]
    pub fn country_count(&self) -> usize {
        self.country_count as usize
    }

    /// Number of distinct interned tags.
    #[must_use]
    pub fn tag_count(&self) -> usize {
        self.tagname_offsets.len().saturating_sub(1)
    }

    /// The external platform key of video `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn key(&self, i: usize) -> &str {
        &self.key_bytes[self.key_offsets[i] as usize..self.key_offsets[i + 1] as usize]
    }

    /// The display title of video `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn title(&self, i: usize) -> &str {
        &self.title_bytes[self.title_offsets[i] as usize..self.title_offsets[i + 1] as usize]
    }

    /// Total worldwide views of video `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn total_views(&self, i: usize) -> u64 {
        self.total_views[i]
    }

    /// Dense tag ids of video `i`, in upload order.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn tags_of(&self, i: usize) -> &[u32] {
        &self.tag_ids[self.tag_rows[i] as usize..self.tag_rows[i + 1] as usize]
    }

    /// The interned name of tag `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[must_use]
    pub fn tag_name(&self, t: usize) -> &str {
        &self.tagname_bytes[self.tagname_offsets[t] as usize..self.tagname_offsets[t + 1] as usize]
    }

    /// Raw popularity payload of video `i`: its sentinel kind and the
    /// stored bytes (empty for `POP_MISSING`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn popularity_raw(&self, i: usize) -> (u8, &[u8]) {
        let bytes = &self.pop_bytes[self.pop_offsets[i] as usize..self.pop_offsets[i + 1] as usize];
        (self.pop_kind[i], bytes)
    }

    /// Reconstructs the [`RawPopularity`] of video `i` (allocates the
    /// payload; use [`popularity_raw`](Self::popularity_raw) on hot
    /// paths).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn popularity(&self, i: usize) -> RawPopularity {
        let (kind, bytes) = self.popularity_raw(i);
        match kind {
            POP_MISSING => RawPopularity::Missing,
            POP_VALID => RawPopularity::decode(bytes.to_vec(), self.country_count()),
            _ => RawPopularity::Corrupt(bytes.to_vec()),
        }
    }

    /// Byte sizes of the live columns.
    #[must_use]
    pub fn memory_footprint(&self) -> MemoryFootprint {
        let offsets = |v: &Vec<u32>| (v.len() * size_of::<u32>()) as u64;
        MemoryFootprint {
            string_pool_bytes: offsets(&self.key_offsets)
                + self.key_bytes.len() as u64
                + offsets(&self.title_offsets)
                + self.title_bytes.len() as u64,
            postings_bytes: offsets(&self.tag_rows) + offsets(&self.tag_ids),
            popularity_bytes: self.pop_kind.len() as u64
                + offsets(&self.pop_offsets)
                + self.pop_bytes.len() as u64,
            tag_names_bytes: offsets(&self.tagname_offsets) + self.tagname_bytes.len() as u64,
            videos: self.len() as u64,
            tags: self.tag_count() as u64,
        }
    }

    /// Records the memory footprint as `dataset.*` gauges.
    ///
    /// Every value is a pure function of the dataset contents, so the
    /// gauges belong in the deterministic subtree of a metrics report.
    pub fn record_gauges(&self, recorder: &Recorder) {
        let fp = self.memory_footprint();
        recorder.gauge_max("dataset.string_pool_bytes", fp.string_pool_bytes);
        recorder.gauge_max("dataset.postings_bytes", fp.postings_bytes);
        recorder.gauge_max("dataset.popularity_bytes", fp.popularity_bytes);
        recorder.gauge_max("dataset.tag_names_bytes", fp.tag_names_bytes);
        recorder.gauge_max("dataset.videos", fp.videos);
        recorder.gauge_max("dataset.tags", fp.tags);
    }

    /// Flattens a record-oriented [`Dataset`] into columns.
    ///
    /// Deterministic: videos are visited in id order and tag names in
    /// interner order, so the same dataset always produces the same
    /// columns (and, through [`binfmt`](crate::binfmt), the same
    /// bytes on disk).
    ///
    /// # Errors
    ///
    /// [`DatasetError::Format`] if a string pool, the popularity
    /// block, the tag spine or a tag id exceeds the `u32` range
    /// (≈4 GiB per pool; beyond v1's design point).
    pub fn from_dataset(dataset: &Dataset) -> Result<ColumnarDataset, DatasetError> {
        fn index_u32(len: usize, what: &str) -> Result<u32, DatasetError> {
            u32::try_from(len).map_err(|_| DatasetError::Format {
                message: format!("{what} ({len}) exceeds the u32 range of bin v1"),
            })
        }

        let n = dataset.len();
        let mut key_offsets = Vec::with_capacity(n + 1);
        let mut key_bytes = String::new();
        let mut title_offsets = Vec::with_capacity(n + 1);
        let mut title_bytes = String::new();
        let mut total_views = Vec::with_capacity(n);
        let mut tag_rows = Vec::with_capacity(n + 1);
        let mut tag_ids = Vec::new();
        let mut pop_kind = Vec::with_capacity(n);
        let mut pop_offsets = Vec::with_capacity(n + 1);
        let mut pop_bytes = Vec::new();

        key_offsets.push(0u32);
        title_offsets.push(0u32);
        tag_rows.push(0u32);
        pop_offsets.push(0u32);

        for video in dataset.iter() {
            key_bytes.push_str(&video.key);
            key_offsets.push(index_u32(key_bytes.len(), "video key pool")?);
            title_bytes.push_str(&video.title);
            title_offsets.push(index_u32(title_bytes.len(), "title pool")?);
            total_views.push(video.total_views);
            for &tag in &video.tags {
                tag_ids.push(index_u32(tag.index(), "tag id")?);
            }
            tag_rows.push(index_u32(tag_ids.len(), "tag spine")?);
            let (kind, payload): (u8, &[u8]) = match &video.popularity {
                RawPopularity::Missing => (POP_MISSING, &[]),
                RawPopularity::Valid(p) => (POP_VALID, p.as_slice()),
                RawPopularity::Corrupt(bytes) => (POP_CORRUPT, bytes),
            };
            pop_kind.push(kind);
            pop_bytes.extend_from_slice(payload);
            pop_offsets.push(index_u32(pop_bytes.len(), "popularity block")?);
        }

        let t = dataset.tags().len();
        let mut tagname_offsets = Vec::with_capacity(t + 1);
        let mut tagname_bytes = String::new();
        tagname_offsets.push(0u32);
        for (_, name) in dataset.tags().iter() {
            tagname_bytes.push_str(name);
            tagname_offsets.push(index_u32(tagname_bytes.len(), "tag-name pool")?);
        }

        Ok(ColumnarDataset {
            country_count: index_u32(dataset.country_count(), "country count")?,
            key_offsets,
            key_bytes,
            title_offsets,
            title_bytes,
            total_views,
            tag_rows,
            tag_ids,
            pop_kind,
            pop_offsets,
            pop_bytes,
            tagname_offsets,
            tagname_bytes,
        })
    }

    /// Rebuilds a record-oriented [`Dataset`] — the conversion adapter
    /// for code paths that still want [`VideoRecord`]s; the pipeline
    /// itself consumes columns directly via [`ColumnarRead`].
    ///
    /// Uses the private fast constructor instead of replaying a
    /// [`DatasetBuilder`](crate::DatasetBuilder): tag names are adopted
    /// verbatim (they were normalized when first interned) and tag ids
    /// are taken as stored, so no re-normalization or re-interning
    /// runs. Inverse of [`from_dataset`](Self::from_dataset).
    #[must_use]
    pub fn to_dataset(&self) -> Dataset {
        let tags = TagInterner::from_names((0..self.tag_count()).map(|t| self.tag_name(t)));
        let videos: Vec<VideoRecord> = (0..self.len())
            .map(|i| VideoRecord {
                id: VideoId::from_index(i),
                key: self.key(i).to_owned(),
                title: self.title(i).to_owned(),
                total_views: self.total_views(i),
                tags: self
                    .tags_of(i)
                    .iter()
                    .map(|&t| TagId::from_index(t as usize))
                    .collect(),
                popularity: self.popularity(i),
            })
            .collect();
        Dataset::from_parts(videos, tags, self.country_count())
    }
}

impl ColumnarRead for ColumnarDataset {
    fn len(&self) -> usize {
        ColumnarDataset::len(self)
    }

    fn country_count(&self) -> usize {
        ColumnarDataset::country_count(self)
    }

    fn tag_count(&self) -> usize {
        ColumnarDataset::tag_count(self)
    }

    fn key(&self, i: usize) -> &str {
        ColumnarDataset::key(self, i)
    }

    fn title(&self, i: usize) -> &str {
        ColumnarDataset::title(self, i)
    }

    fn total_views(&self, i: usize) -> u64 {
        ColumnarDataset::total_views(self, i)
    }

    fn video_tags(&self, i: usize) -> impl ExactSizeIterator<Item = TagId> + '_ {
        self.tags_of(i)
            .iter()
            .map(|&t| TagId::from_index(t as usize))
    }

    fn pop_kind(&self, i: usize) -> u8 {
        self.pop_kind[i]
    }

    fn pop_payload(&self, i: usize) -> &[u8] {
        &self.pop_bytes[self.pop_offsets[i] as usize..self.pop_offsets[i + 1] as usize]
    }

    fn tag_name(&self, t: usize) -> &str {
        ColumnarDataset::tag_name(self, t)
    }
}

/// A record dataset read in place: each video's `POP_*` kind is its
/// [`RawPopularity`] variant, so the filter loop needs no flattening
/// copy.
impl ColumnarRead for Dataset {
    fn len(&self) -> usize {
        Dataset::len(self)
    }

    fn country_count(&self) -> usize {
        Dataset::country_count(self)
    }

    fn tag_count(&self) -> usize {
        self.tags().len()
    }

    fn key(&self, i: usize) -> &str {
        &self.video(VideoId::from_index(i)).key
    }

    fn title(&self, i: usize) -> &str {
        &self.video(VideoId::from_index(i)).title
    }

    fn total_views(&self, i: usize) -> u64 {
        self.video(VideoId::from_index(i)).total_views
    }

    fn video_tags(&self, i: usize) -> impl ExactSizeIterator<Item = TagId> + '_ {
        self.video(VideoId::from_index(i)).tags.iter().copied()
    }

    fn pop_kind(&self, i: usize) -> u8 {
        match self.video(VideoId::from_index(i)).popularity {
            RawPopularity::Missing => POP_MISSING,
            RawPopularity::Valid(_) => POP_VALID,
            RawPopularity::Corrupt(_) => POP_CORRUPT,
        }
    }

    fn pop_payload(&self, i: usize) -> &[u8] {
        match &self.video(VideoId::from_index(i)).popularity {
            RawPopularity::Missing => &[],
            RawPopularity::Valid(pop) => pop.as_slice(),
            RawPopularity::Corrupt(bytes) => bytes,
        }
    }

    fn tag_name(&self, t: usize) -> &str {
        self.tags().name(TagId::from_index(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;

    fn sample() -> Dataset {
        let mut b = DatasetBuilder::new(3);
        b.push_video_titled(
            "vid,weird\tkey",
            "A title, with\tescapes",
            123,
            &["pop", "hip hop", "a,b"],
            RawPopularity::decode(vec![61, 0, 7], 3),
        );
        b.push_video("plain", 0, &[], RawPopularity::Missing);
        b.push_video_titled(
            "corrupt",
            "c",
            9,
            &["x", "pop"],
            RawPopularity::decode(vec![1, 2], 3),
        );
        b.build()
    }

    #[test]
    fn columns_mirror_the_records() {
        let d = sample();
        let c = ColumnarDataset::from_dataset(&d).unwrap();
        assert_eq!(c.len(), d.len());
        assert_eq!(c.country_count(), d.country_count());
        assert_eq!(c.tag_count(), d.tags().len());
        for (i, v) in d.iter().enumerate() {
            assert_eq!(c.key(i), v.key);
            assert_eq!(c.title(i), v.title);
            assert_eq!(c.total_views(i), v.total_views);
            let tags: Vec<u32> = v.tags.iter().map(|t| t.index() as u32).collect();
            assert_eq!(c.tags_of(i), &tags[..]);
            assert_eq!(c.popularity(i), v.popularity);
        }
        for (id, name) in d.tags().iter() {
            assert_eq!(c.tag_name(id.index()), name);
        }
    }

    #[test]
    fn round_trips_to_an_identical_dataset() {
        let d = sample();
        let r = ColumnarDataset::from_dataset(&d).unwrap().to_dataset();
        assert_eq!(r.len(), d.len());
        assert_eq!(r.country_count(), d.country_count());
        for (a, b) in d.iter().zip(r.iter()) {
            assert_eq!(a, b);
        }
        // Lookup indices are rebuilt, not just the records.
        assert_eq!(r.by_key("plain").unwrap().total_views, 0);
        let pop = r.tags().id("pop").unwrap();
        assert_eq!(r.videos_with_tag(pop).len(), 2);
        // And the TSV serializations agree byte for byte.
        let (mut a, mut b) = (Vec::new(), Vec::new());
        crate::tsv::write(&d, &mut a).unwrap();
        crate::tsv::write(&r, &mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_dataset_flattens_and_rebuilds() {
        let d = DatasetBuilder::new(5).build();
        let c = ColumnarDataset::from_dataset(&d).unwrap();
        assert!(c.is_empty());
        assert_eq!(c.tag_count(), 0);
        let r = c.to_dataset();
        assert!(r.is_empty());
        assert_eq!(r.country_count(), 5);
    }

    #[test]
    fn footprint_counts_every_column() {
        let c = ColumnarDataset::from_dataset(&sample()).unwrap();
        let fp = c.memory_footprint();
        assert_eq!(fp.videos, 3);
        assert_eq!(fp.tags, 4);
        assert!(fp.string_pool_bytes > 0);
        assert!(fp.postings_bytes > 0);
        assert!(fp.popularity_bytes > 0);
        assert!(fp.tag_names_bytes > 0);
        assert_eq!(
            fp.total_bytes(),
            fp.string_pool_bytes + fp.postings_bytes + fp.popularity_bytes + fp.tag_names_bytes
        );
    }

    #[test]
    fn gauges_land_in_the_deterministic_subtree() {
        let rec = Recorder::new();
        ColumnarDataset::from_dataset(&sample())
            .unwrap()
            .record_gauges(&rec);
        let report = rec.finish();
        assert_eq!(report.gauges.get("dataset.videos"), Some(&3));
        assert_eq!(report.gauges.get("dataset.tags"), Some(&4));
        assert!(report.gauges.contains_key("dataset.string_pool_bytes"));
    }

    #[test]
    fn flatten_is_deterministic() {
        let d = sample();
        assert_eq!(
            ColumnarDataset::from_dataset(&d).unwrap(),
            ColumnarDataset::from_dataset(&d).unwrap()
        );
    }
}
