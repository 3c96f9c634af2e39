//! Inverted geographic index: what is watched *where*.
//!
//! The per-tag analysis answers "where is this tag viewed?"; a cache
//! operator asks the inverse: "which tags characterize this country?"
//! [`GeoTagIndex`] materializes both rankings per country:
//!
//! * **by views** — the tags with the most reconstructed views in the
//!   country (dominated by global tags, like the head of any chart),
//! * **by lift** — the tags most *over-represented* relative to the
//!   world traffic share (`share_in_country / country_traffic_share`),
//!   which surfaces the `favela`-like local signature tags.

use core::cmp::Ordering;

use tagdist_dataset::TagId;
use tagdist_geo::{kernel, CountryId, GeoDist, TopK};
use tagdist_reconstruct::TagViewTable;

/// One scored tag in a country ranking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredTag {
    /// The tag.
    pub tag: TagId,
    /// Reconstructed views of the tag inside the country.
    pub views: f64,
    /// Over-representation: tag's in-country view share divided by
    /// the country's world traffic share.
    pub lift: f64,
}

/// Both rankings' order over `(score, tag)`: higher score first, then
/// the smaller (unique) tag.
fn higher_score_first(a: (f64, TagId), b: (f64, TagId)) -> Ordering {
    b.0.total_cmp(&a.0).then(a.1.cmp(&b.1))
}

/// The views ranking: most views first, unique-tag tiebreak.
fn most_views_first(a: &ScoredTag, b: &ScoredTag) -> Ordering {
    higher_score_first((a.views, a.tag), (b.views, b.tag))
}

/// The lift ranking: highest lift first, unique-tag tiebreak.
fn highest_lift_first(a: &ScoredTag, b: &ScoredTag) -> Ordering {
    higher_score_first((a.lift, a.tag), (b.lift, b.tag))
}

/// Whether a cell scoring `score` for `tag` ranks strictly before a
/// full ranking's `floor`: the only cells [`TopK::offer`] would keep.
/// With room left (`None`), every cell may enter.
fn ranks_before(floor: Option<(f64, TagId)>, score: f64, tag: TagId) -> bool {
    floor.is_none_or(|floor| higher_score_first((score, tag), floor) == Ordering::Less)
}

/// The relative slack in [`Floors::lift_excludes`]'s bound, far above
/// the few units in the last place its rounding can cost.
const LIFT_MARGIN: f64 = 1e-9;

/// The magnitudes [`Floors::set_lift`] builds a bound from: well inside
/// the normal range, so no step of the bound or of a lift underflows.
const BOUND_RANGE: core::ops::RangeInclusive<f64> = 1e-290..=1e290;

/// What a cell must beat to enter one country's two rankings.
#[derive(Debug, Clone, Copy)]
struct Floors {
    /// The views ranking's `k`-th entry, once it is full.
    views: Option<(f64, TagId)>,
    /// That entry's views, or −∞ while the ranking has room.
    views_below: f64,
    /// The lift ranking's `k`-th entry, once it is full.
    lift: Option<(f64, TagId)>,
    /// `floor lift × traffic share × (1 − LIFT_MARGIN)`, or 0 while the
    /// ranking has room or the floor is out of [`BOUND_RANGE`].
    lift_per_total: f64,
}

impl Floors {
    const OPEN: Floors = Floors {
        views: None,
        views_below: f64::NEG_INFINITY,
        lift: None,
        lift_per_total: 0.0,
    };

    fn set_views(&mut self, kth: Option<&ScoredTag>) {
        self.views = kth.map(|s| (s.views, s.tag));
        self.views_below = kth.map_or(f64::NEG_INFINITY, |s| s.views);
    }

    fn set_lift(&mut self, kth: Option<&ScoredTag>, traffic_share: f64) {
        self.lift = kth.map(|s| (s.lift, s.tag));
        self.lift_per_total = kth.map_or(0.0, |s| {
            let bound = s.lift * traffic_share * (1.0 - LIFT_MARGIN);
            if BOUND_RANGE.contains(&s.lift) && BOUND_RANGE.contains(&bound) {
                bound
            } else {
                0.0
            }
        });
    }

    /// Whether a cell of `v` views has fewer than the views floor. The
    /// IEEE `<` is false for NaN and for a tie, which take the exact
    /// [`ranks_before`] test; where it holds, so does `total_cmp`'s.
    fn views_exclude(&self, v: f64) -> bool {
        v < self.views_below
    }

    /// Whether a cell of `v` views, of a tag totalling `total`, scores
    /// a lift strictly below the lift floor, decided with one multiply
    /// instead of the lift's two divisions.
    ///
    /// Exact: with `bound = lift_per_total × total` normal, every
    /// rounding on the way from the floor lift `L` to `bound` and from
    /// `bound` to its own lift is a normal one, within a relative
    /// 2⁻⁵³, so `bound`'s lift is at most `L × (1 − LIFT_MARGIN) ×
    /// (1 + 2⁻⁵³)⁵ < L`. Correctly rounded division is monotone, so a
    /// cell with `v < bound` has a lift no larger, strictly below `L`:
    /// it cannot enter, whatever its tag.
    fn lift_excludes(&self, v: f64, total: f64) -> bool {
        let bound = self.lift_per_total * total;
        bound.is_normal() && v < bound
    }
}

/// Per-country tag rankings.
#[derive(Debug, Clone)]
pub struct GeoTagIndex {
    by_views: Vec<Vec<ScoredTag>>,
    by_lift: Vec<Vec<ScoredTag>>,
}

impl GeoTagIndex {
    /// Builds the index from the Eq. 3 table, keeping the top `k`
    /// tags per country per ranking.
    ///
    /// `min_views` and `min_videos` suppress noise: tags need at
    /// least that much total reconstructed view mass *and* that many
    /// carrying videos to enter the lift ranking (raw lift explodes
    /// for the folksonomy's single-video tags).
    ///
    /// # Panics
    ///
    /// Panics if `traffic` does not cover the table's world size.
    pub fn build(
        table: &TagViewTable,
        traffic: &GeoDist,
        k: usize,
        min_views: f64,
        min_videos: usize,
    ) -> GeoTagIndex {
        assert_eq!(
            table.country_count(),
            traffic.len(),
            "traffic and table must cover the same world"
        );
        let rows = table
            .iter()
            .map(|(tag, views)| (tag, views, table.video_count(tag)));
        GeoTagIndex::from_rows(rows, traffic, k, min_views, min_videos)
    }

    /// The build over `(tag, per-country views, carrying videos)` rows.
    ///
    /// Every positive cell is scored and offered straight to its
    /// country's two bounded [`TopK`] accumulators, so no per-country
    /// candidate list is ever materialized. The comparators are total
    /// orders (`total_cmp` with the unique-tag tiebreak), so the kept
    /// entries are exactly the first `k` of a full sort, ties included.
    ///
    /// Once a ranking is full, a cell must rank before its `k`-th entry
    /// to enter, and almost none does: each country keeps its two
    /// [`Floors`], and a cell that can beat neither is skipped before
    /// its lift is computed or either ranking is touched. Every skip
    /// is one [`TopK::offer`] would have rejected, so the rankings are
    /// unchanged.
    fn from_rows<'a>(
        rows: impl Iterator<Item = (TagId, &'a [f64], usize)>,
        traffic: &GeoDist,
        k: usize,
        min_views: f64,
        min_videos: usize,
    ) -> GeoTagIndex {
        let countries = traffic.len();
        let mut by_views: Vec<_> = (0..countries)
            .map(|_| TopK::new(k, most_views_first))
            .collect();
        let mut by_lift: Vec<_> = (0..countries)
            .map(|_| TopK::new(k, highest_lift_first))
            .collect();
        let mut floors = vec![Floors::OPEN; countries];

        for (tag, views, videos) in rows {
            let total = kernel::sum(views);
            if total <= 0.0 {
                continue;
            }
            let lift_ranked = total >= min_views && videos >= min_videos;
            for (index, &v) in views.iter().enumerate() {
                if v <= 0.0 {
                    continue;
                }
                let floor = &mut floors[index];
                let takes_views = !floor.views_exclude(v) && ranks_before(floor.views, v, tag);
                let may_lift = lift_ranked && !floor.lift_excludes(v, total);
                if !takes_views && !may_lift {
                    continue;
                }
                let share = v / total;
                let traffic_share = traffic.prob(CountryId::from_index(index));
                let lift = if traffic_share > 0.0 {
                    share / traffic_share
                } else {
                    0.0
                };
                let scored = ScoredTag {
                    tag,
                    views: v,
                    lift,
                };
                if takes_views {
                    by_views[index].offer(scored);
                    floor.set_views(by_views[index].floor());
                }
                if may_lift && ranks_before(floor.lift, lift, tag) {
                    by_lift[index].offer(scored);
                    floor.set_lift(by_lift[index].floor(), traffic_share);
                }
            }
        }

        GeoTagIndex {
            by_views: by_views.into_iter().map(TopK::into_sorted).collect(),
            by_lift: by_lift.into_iter().map(TopK::into_sorted).collect(),
        }
    }

    /// Number of countries indexed.
    pub fn country_count(&self) -> usize {
        self.by_views.len()
    }

    /// The country's most-viewed tags, descending.
    ///
    /// # Panics
    ///
    /// Panics if `country` is out of range.
    pub fn top_by_views(&self, country: CountryId) -> &[ScoredTag] {
        &self.by_views[country.index()]
    }

    /// The country's signature tags (highest lift), descending.
    ///
    /// # Panics
    ///
    /// Panics if `country` is out of range.
    pub fn top_by_lift(&self, country: CountryId) -> &[ScoredTag] {
        &self.by_lift[country.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagdist_dataset::{filter, CleanDataset, DatasetBuilder, RawPopularity};
    use tagdist_geo::CountryVec;
    use tagdist_reconstruct::Reconstruction;

    /// Country 0 has 80 % of traffic, country 1 has 20 %.
    fn traffic() -> GeoDist {
        GeoDist::from_counts(&CountryVec::from_values(vec![8.0, 2.0])).unwrap()
    }

    fn setup() -> (CleanDataset, TagViewTable) {
        let mut b = DatasetBuilder::new(2);
        let pop = |v: Vec<u8>| RawPopularity::decode(v, 2);
        // "global" rides traffic; "niche" lives in the small country.
        b.push_video("g", 1_000, &["global"], pop(vec![61, 61]));
        b.push_video("n", 200, &["niche"], pop(vec![0, 61]));
        let clean = filter(&b.build());
        let recon = Reconstruction::compute(&clean, &traffic()).unwrap();
        let table = TagViewTable::aggregate(&clean, &recon);
        (clean, table)
    }

    #[test]
    fn views_ranking_favours_the_global_tag() {
        let (clean, table) = setup();
        let index = GeoTagIndex::build(&table, &traffic(), 5, 0.0, 0);
        let c0 = CountryId::from_index(0);
        let top = index.top_by_views(c0);
        assert_eq!(clean.tags().name(top[0].tag), "global");
        // niche has zero views in country 0 → absent entirely.
        assert_eq!(top.len(), 1);
    }

    #[test]
    fn lift_ranking_surfaces_the_signature_tag() {
        let (clean, table) = setup();
        let index = GeoTagIndex::build(&table, &traffic(), 5, 0.0, 0);
        let c1 = CountryId::from_index(1);
        let top = index.top_by_lift(c1);
        assert_eq!(clean.tags().name(top[0].tag), "niche");
        // niche: 100 % of its views in a country with 20 % traffic → lift 5.
        assert!((top[0].lift - 5.0).abs() < 1e-9, "lift {}", top[0].lift);
        // global: share == traffic share → lift 1.
        let global = top
            .iter()
            .find(|s| clean.tags().name(s.tag) == "global")
            .expect("global indexed");
        assert!((global.lift - 1.0).abs() < 1e-9);
    }

    #[test]
    fn min_views_suppresses_sparse_tags_from_lift() {
        let (clean, table) = setup();
        let index = GeoTagIndex::build(&table, &traffic(), 5, 500.0, 0);
        let c1 = CountryId::from_index(1);
        // niche (200 total views) is filtered from lift…
        assert!(index
            .top_by_lift(c1)
            .iter()
            .all(|s| clean.tags().name(s.tag) != "niche"));
        // …but still present in the views ranking.
        assert!(index
            .top_by_views(c1)
            .iter()
            .any(|s| clean.tags().name(s.tag) == "niche"));
    }

    #[test]
    fn min_videos_suppresses_singleton_tags_from_lift() {
        let (clean, table) = setup();
        let index = GeoTagIndex::build(&table, &traffic(), 5, 0.0, 2);
        // Both tags are single-video → lift rankings are empty…
        for c in 0..index.country_count() {
            assert!(index.top_by_lift(CountryId::from_index(c)).is_empty());
        }
        // …while views rankings are untouched.
        assert!(!index.top_by_views(CountryId::from_index(0)).is_empty());
        let _ = clean;
    }

    #[test]
    fn k_truncates_rankings() {
        let (_, table) = setup();
        let index = GeoTagIndex::build(&table, &traffic(), 1, 0.0, 0);
        for c in 0..index.country_count() {
            assert!(index.top_by_views(CountryId::from_index(c)).len() <= 1);
            assert!(index.top_by_lift(CountryId::from_index(c)).len() <= 1);
        }
    }

    /// Satellite fixture: the selection-based rankings must equal the
    /// full-sort rankings entry for entry — including tied scores,
    /// which the unique-tag tiebreak orders deterministically.
    #[test]
    fn top_k_selection_matches_full_sort_including_ties() {
        let mut b = DatasetBuilder::new(2);
        let pop = |v: Vec<u8>| RawPopularity::decode(v, 2);
        // 30 single-tag videos; groups of 3 share identical view
        // totals and identical charts → exact score ties in both
        // rankings.
        for i in 0..30u64 {
            let tag = format!("t{i:02}");
            let views = 100 * (i / 3 + 1);
            b.push_video(&format!("v{i}"), views, &[tag.as_str()], pop(vec![40, 20]));
        }
        let clean = filter(&b.build());
        let recon = Reconstruction::compute(&clean, &traffic()).unwrap();
        let table = TagViewTable::aggregate(&clean, &recon);
        // k >= candidate count degenerates to exactly a full sort.
        let full = GeoTagIndex::build(&table, &traffic(), usize::MAX, 0.0, 0);
        for k in [1, 2, 3, 4, 7, 29, 30, 31] {
            let pruned = GeoTagIndex::build(&table, &traffic(), k, 0.0, 0);
            for c in 0..pruned.country_count() {
                let c = CountryId::from_index(c);
                let all_views = full.top_by_views(c);
                let all_lift = full.top_by_lift(c);
                assert_eq!(
                    pruned.top_by_views(c),
                    &all_views[..k.min(all_views.len())],
                    "views ranking diverged at k={k}"
                );
                assert_eq!(
                    pruned.top_by_lift(c),
                    &all_lift[..k.min(all_lift.len())],
                    "lift ranking diverged at k={k}"
                );
            }
        }
        let _ = clean;
    }

    #[test]
    #[should_panic(expected = "same world")]
    fn mismatched_traffic_panics() {
        let (_, table) = setup();
        let _ = GeoTagIndex::build(&table, &GeoDist::uniform(9), 3, 0.0, 0);
    }
}

#[cfg(test)]
mod oracle {
    use super::*;
    use proptest::prelude::*;
    use tagdist_geo::{top_k_by, CountryVec};

    /// The candidate-list build the streaming one replaced: every
    /// scored cell is pushed into a per-country list, then
    /// [`top_k_by`] keeps `k` of each.
    fn build_by_candidates<'a>(
        rows: impl Iterator<Item = (TagId, &'a [f64], usize)>,
        traffic: &GeoDist,
        k: usize,
        min_views: f64,
        min_videos: usize,
    ) -> GeoTagIndex {
        let countries = traffic.len();
        let mut by_views: Vec<Vec<ScoredTag>> = vec![Vec::new(); countries];
        let mut by_lift: Vec<Vec<ScoredTag>> = vec![Vec::new(); countries];

        for (tag, views, videos) in rows {
            let total = kernel::sum(views);
            if total <= 0.0 {
                continue;
            }
            for (index, &v) in views.iter().enumerate() {
                if v <= 0.0 {
                    continue;
                }
                let country = CountryId::from_index(index);
                let share = v / total;
                let traffic_share = traffic.prob(country);
                let lift = if traffic_share > 0.0 {
                    share / traffic_share
                } else {
                    0.0
                };
                let scored = ScoredTag {
                    tag,
                    views: v,
                    lift,
                };
                by_views[country.index()].push(scored);
                if total >= min_views && videos >= min_videos {
                    by_lift[country.index()].push(scored);
                }
            }
        }

        for list in &mut by_views {
            let candidates = core::mem::take(list);
            *list = top_k_by(candidates, k, |a, b| {
                b.views.total_cmp(&a.views).then(a.tag.cmp(&b.tag))
            });
        }
        for list in &mut by_lift {
            let candidates = core::mem::take(list);
            *list = top_k_by(candidates, k, |a, b| {
                b.lift.total_cmp(&a.lift).then(a.tag.cmp(&b.tag))
            });
        }
        GeoTagIndex { by_views, by_lift }
    }

    const COUNTRIES: usize = 5;

    /// Builds both indices over the same rows and compares every
    /// ranking bit for bit (`ScoredTag`'s float fields compare with
    /// `==`, so also check the bit patterns).
    fn assert_same(
        rows: &[(TagId, Vec<f64>, usize)],
        traffic: &GeoDist,
        k: usize,
        min_views: f64,
        min_videos: usize,
    ) -> Result<(), TestCaseError> {
        let iter = || rows.iter().map(|(t, v, n)| (*t, v.as_slice(), *n));
        let fast = GeoTagIndex::from_rows(iter(), traffic, k, min_views, min_videos);
        let slow = build_by_candidates(iter(), traffic, k, min_views, min_videos);
        prop_assert_eq!(fast.country_count(), slow.country_count());
        let bits = |list: &[ScoredTag]| -> Vec<(TagId, u64, u64)> {
            list.iter()
                .map(|s| (s.tag, s.views.to_bits(), s.lift.to_bits()))
                .collect()
        };
        for c in 0..fast.country_count() {
            let c = CountryId::from_index(c);
            let (got, want) = (bits(fast.top_by_views(c)), bits(slow.top_by_views(c)));
            prop_assert!(got == want, "views ranking, k={k}: {got:?} != {want:?}");
            let (got, want) = (bits(fast.top_by_lift(c)), bits(slow.top_by_lift(c)));
            prop_assert!(got == want, "lift ranking, k={k}: {got:?} != {want:?}");
            prop_assert!(fast.top_by_views(c).len() <= k);
        }
        Ok(())
    }

    proptest! {
        /// Cells are drawn from a handful of multiples of 50 —
        /// including zero and negative ones — so equal views, equal
        /// lifts and skipped cells are all common. Copies of some rows
        /// under other tags tie on views and on lift, at the `k`-th
        /// place among others. Tag ids are sparse; rows are offered out
        /// of order and in ascending order (the table's). The last
        /// country carries no traffic. The thresholds are often some
        /// row's exact total and carrier count, and `k` runs from 0
        /// past the number of tags.
        #[test]
        fn streaming_build_matches_the_candidate_list_oracle(
            cells in proptest::collection::vec(-2i32..6, 0..(40 * COUNTRIES)),
            videos in proptest::collection::vec(0usize..5, 40),
            counts in proptest::collection::vec(0u32..4, COUNTRIES),
            copies in proptest::collection::vec(0usize..40, 0..6),
            at_row in 0usize..80,
            min_views_step in 0usize..3,
            min_videos in 0usize..4,
        ) {
            let mut counts: Vec<f64> = counts.into_iter().map(f64::from).collect();
            counts[0] += 1.0;
            counts[COUNTRIES - 1] = 0.0;
            let traffic = GeoDist::from_counts(&CountryVec::from_values(counts)).unwrap();
            let mut rows: Vec<(TagId, Vec<f64>, usize)> = cells
                .chunks_exact(COUNTRIES)
                .enumerate()
                .map(|(i, chunk)| {
                    let tag = TagId::from_index((i * 7919) % 401);
                    let views = chunk.iter().map(|&c| f64::from(c) * 50.0).collect();
                    (tag, views, videos[i])
                })
                .collect();
            let originals = rows.len();
            for (j, &row) in copies.iter().enumerate() {
                if row < originals {
                    let (_, views, videos) = rows[row].clone();
                    rows.push((TagId::from_index(401 + j), views, videos));
                }
            }
            let (min_views, min_videos) = match rows.get(at_row) {
                Some(row) => (kernel::sum(&row.1), row.2),
                None => ([0.0, 100.0, 250.0][min_views_step], min_videos),
            };
            let mut ascending = rows.clone();
            ascending.sort_by_key(|row| row.0);
            for k in [0, 1, 2, 3, 8, rows.len(), rows.len() + 1] {
                assert_same(&rows, &traffic, k, min_views, min_videos)?;
                assert_same(&ascending, &traffic, k, min_views, min_videos)?;
            }
        }
    }

    #[test]
    fn empty_table_and_k_zero_build_empty_rankings() {
        let traffic = GeoDist::uniform(3);
        let rows = [(TagId::from_index(0), vec![10.0, 20.0, 30.0], 5)];
        let iter = || rows.iter().map(|(t, v, n)| (*t, v.as_slice(), *n));
        let none = GeoTagIndex::from_rows(iter(), &traffic, 0, 0.0, 0);
        let empty = GeoTagIndex::from_rows(core::iter::empty(), &traffic, 8, 0.0, 0);
        for index in [none, empty] {
            assert_eq!(index.country_count(), 3);
            for c in 0..3 {
                assert!(index.top_by_views(CountryId::from_index(c)).is_empty());
                assert!(index.top_by_lift(CountryId::from_index(c)).is_empty());
            }
        }
    }
}
