//! The `/video/{key}` lookup: video key → dataset position for one
//! epoch, without a copy of any key.
//!
//! The index is rebuilt on every epoch flip, so it must be cheap to
//! build and to drop: a map owning its keys would allocate one string
//! per retained video (~800k at 1M crawled) and free as many when the
//! epoch is dropped. [`KeyIndex`] stores `(fnv1a(key), position)`
//! pairs sorted by hash — 16 bytes a video, one allocation — and
//! confirms every candidate against the epoch's own key pool, so hash
//! collisions resolve exactly. Building is a sort, whatever the keys;
//! a lookup costs one key comparison per entry sharing its hash, so a
//! corpus crafted to collide slows only the lookups of its own keys.

use tagdist::dataset::binfmt::fnv1a;
use tagdist::dataset::CleanDataset;

/// Sorted `(hash, position)` pairs over one [`CleanDataset`]'s keys.
#[derive(Debug)]
pub(crate) struct KeyIndex {
    entries: Vec<(u64, usize)>,
}

impl KeyIndex {
    /// Hashes every retained video's key.
    pub(crate) fn build(clean: &CleanDataset) -> KeyIndex {
        KeyIndex::from_entries(
            (0..clean.len())
                .map(|pos| (fnv1a(clean.key_of(pos).as_bytes()), pos))
                .collect(),
        )
    }

    /// Sorts raw `(hash, position)` entries into an index. Positions
    /// must be in range for the dataset later passed to
    /// [`get`](KeyIndex::get).
    fn from_entries(mut entries: Vec<(u64, usize)>) -> KeyIndex {
        entries.sort_unstable();
        KeyIndex { entries }
    }

    /// The position of the video keyed `key` in `clean` (the dataset
    /// the index was built from), or `None` if no retained video has
    /// that key.
    ///
    /// Binary-searches to the run of entries sharing `key`'s hash and
    /// compares each candidate's actual key, in position order. Should
    /// a dataset carry a key twice, the first position answers, as
    /// [`query::find_video`](crate::query::find_video) does offline and
    /// as the streamed ingest keeps a key's first crawl.
    pub(crate) fn get(&self, clean: &CleanDataset, key: &str) -> Option<usize> {
        let hash = fnv1a(key.as_bytes());
        let start = self.entries.partition_point(|&(h, _)| h < hash);
        self.entries[start..]
            .iter()
            .take_while(|&&(h, _)| h == hash)
            .find(|&&(_, pos)| clean.key_of(pos) == key)
            .map(|&(_, pos)| pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::find_video;
    use tagdist::dataset::{
        filter, filter_columnar, ColumnarDataset, ColumnarRead, DatasetBuilder, RawPopularity,
    };

    fn clean(videos: usize) -> CleanDataset {
        let mut b = DatasetBuilder::new(2);
        for i in 0..videos {
            b.push_video(
                &format!("key-{i}"),
                100 + i as u64,
                &["t"],
                RawPopularity::decode(vec![30, 61], 2),
            );
        }
        filter(&b.build())
    }

    #[test]
    fn every_key_maps_to_its_position() {
        let clean = clean(500);
        assert_eq!(clean.len(), 500);
        let keys = KeyIndex::build(&clean);
        for pos in 0..clean.len() {
            assert_eq!(keys.get(&clean, clean.key_of(pos)), Some(pos));
        }
    }

    #[test]
    fn unknown_and_empty_keys_miss() {
        let clean = clean(50);
        let keys = KeyIndex::build(&clean);
        for absent in ["", "key-50", "key-", "KEY-1", "key-1 "] {
            assert_eq!(keys.get(&clean, absent), None, "{absent:?}");
        }
    }

    #[test]
    fn an_empty_epoch_answers_nothing() {
        let clean = clean(0);
        let keys = KeyIndex::build(&clean);
        assert_eq!(keys.get(&clean, ""), None);
        assert_eq!(keys.get(&clean, "key-0"), None);
    }

    #[test]
    fn colliding_hashes_resolve_by_comparing_keys() {
        // Every position filed under the hash of "key-3": the lookup
        // must walk the whole run and confirm against the key pool.
        let clean = clean(8);
        let shared = fnv1a(b"key-3");
        let mut entries: Vec<(u64, usize)> = (0..8).rev().map(|pos| (shared, pos)).collect();
        // Neighbouring runs on both sides of the shared hash.
        entries.push((shared - 1, 2));
        entries.push((shared + 1, 4));
        let keys = KeyIndex::from_entries(entries);
        assert_eq!(keys.get(&clean, "key-3"), Some(3));
        // Same hash run, but no candidate's key matches.
        let keys =
            KeyIndex::from_entries((0..8).filter(|&p| p != 3).map(|p| (shared, p)).collect());
        assert_eq!(keys.get(&clean, "key-3"), None);
        // Keys whose real hash is absent from the index miss.
        assert_eq!(keys.get(&clean, "key-0"), None);
    }

    /// A columnar source whose video `copy` repeats video `of`'s key —
    /// the `bin v1` decoder does not reject duplicate keys, and
    /// `filter_columnar` keeps both rows.
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
        fn tag_range(&self, i: usize) -> core::ops::Range<usize> {
            ColumnarRead::tag_range(&self.inner, i)
        }
        fn tag_id(&self, k: usize) -> u32 {
            ColumnarRead::tag_id(&self.inner, k)
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

    #[test]
    fn a_duplicated_key_answers_with_its_first_position_like_the_offline_lookup() {
        let mut b = DatasetBuilder::new(2);
        for i in 0..6 {
            b.push_video(
                &format!("key-{i}"),
                100,
                &["t"],
                RawPopularity::decode(vec![30, 61], 2),
            );
        }
        let inner = ColumnarDataset::from_dataset(&b.build()).unwrap();
        let clean = filter_columnar(&DuplicateKey {
            inner,
            of: 1,
            copy: 4,
        });
        assert_eq!(clean.key_of(1), clean.key_of(4));
        let keys = KeyIndex::build(&clean);
        for pos in 0..clean.len() {
            let key = clean.key_of(pos);
            assert_eq!(keys.get(&clean, key), find_video(&clean, key), "{key:?}");
        }
        assert_eq!(keys.get(&clean, "key-1"), Some(1));
    }
}
