//! Per-video view reconstruction (inverting Eq. 1 via Eq. 2).

use std::sync::Arc;

use tagdist_geo::{kernel, CountryMatrix, CountryVec, GeoDist, GeoError, PopularityVector};

use tagdist_dataset::CleanDataset;
use tagdist_obs::SpanGuard;
use tagdist_par::Pool;

/// Reconstructs a video's per-country view vector from its popularity
/// map, total view count and a traffic prior, writing into a
/// caller-owned row (normally a [`CountryMatrix`] row — no allocation).
///
/// Implements the paper's §3 inversion:
/// `views(v)[c] ∝ pop(v)[c] · p̂yt[c]`, rescaled so the entries sum to
/// `total_views` (which eliminates the per-video Map-Chart scale
/// `K(v)`).
///
/// # Errors
///
/// * [`GeoError::LengthMismatch`] if `pop`, `traffic` and `out`
///   disagree on the world size.
/// * [`GeoError::ZeroMass`] if `pop(v)[c]·p̂yt[c]` is zero everywhere —
///   an "empty" popularity vector, which the §2 filter is supposed to
///   have removed.
pub fn reconstruct_views_into(
    pop: &PopularityVector,
    total_views: u64,
    traffic: &GeoDist,
    out: &mut [f64],
) -> Result<(), GeoError> {
    reconstruct_intensities_into(pop.as_slice(), total_views, traffic, out)
}

/// [`reconstruct_views_into`] over raw intensity bytes — the columnar
/// hot path: [`CleanDataset`] stores every popularity vector as a
/// fixed-stride slice of its intensity block, so reconstruction reads
/// the bytes where they sit. Identical arithmetic, hence bit-identical
/// output, to the `PopularityVector` wrapper.
///
/// # Errors
///
/// As for [`reconstruct_views_into`].
pub fn reconstruct_intensities_into(
    intensities: &[u8],
    total_views: u64,
    traffic: &GeoDist,
    out: &mut [f64],
) -> Result<(), GeoError> {
    let prior = traffic.as_vec().as_slice();
    if intensities.len() != prior.len() {
        return Err(GeoError::LengthMismatch {
            left: intensities.len(),
            right: prior.len(),
        });
    }
    if out.len() != prior.len() {
        return Err(GeoError::LengthMismatch {
            left: out.len(),
            right: prior.len(),
        });
    }
    for ((o, &i), &p) in out.iter_mut().zip(intensities).zip(prior) {
        *o = f64::from(i) * p;
    }
    let mass = kernel::sum(out);
    if mass <= 0.0 || !mass.is_finite() {
        return Err(GeoError::ZeroMass);
    }
    kernel::scale(out, total_views as f64 / mass);
    Ok(())
}

/// Allocating convenience wrapper around [`reconstruct_views_into`].
///
/// # Errors
///
/// As for [`reconstruct_views_into`].
pub fn reconstruct_views(
    pop: &PopularityVector,
    total_views: u64,
    traffic: &GeoDist,
) -> Result<CountryVec, GeoError> {
    let mut out = vec![0.0; traffic.len()];
    reconstruct_views_into(pop, total_views, traffic, &mut out)?;
    Ok(CountryVec::from_values(out))
}

/// Reconstructed per-country views for every video of a
/// [`CleanDataset`] (row `i` ↔ dataset position `i`, the order of
/// [`CleanDataset::iter`]), stored as contiguous [`CountryMatrix`]
/// segments instead of one heap vector per video.
///
/// A cold [`compute`](Reconstruction::compute) fills one segment. The
/// streaming-ingest engine seals one segment per published epoch and
/// every later epoch shares the earlier segments behind their `Arc`s,
/// so publishing copies no row twice. Equality compares rows, not
/// segment boundaries: a streamed reconstruction equals the cold one
/// built from the same corpus.
#[derive(Debug, Clone)]
pub struct Reconstruction {
    /// Row segments in position order; none is empty.
    segments: Vec<Arc<CountryMatrix>>,
    /// First position of each segment, ascending.
    starts: Vec<usize>,
    len: usize,
    country_count: usize,
}

impl PartialEq for Reconstruction {
    /// Row by row with `f64` `==`, whatever the segment boundaries.
    fn eq(&self, other: &Reconstruction) -> bool {
        // Listed without `..`, so a field added later must be compared.
        let Reconstruction {
            segments: _,
            starts: _,
            len,
            country_count,
        } = self;
        *len == other.len && *country_count == other.country_count && self.iter().eq(other.iter())
    }
}

impl Reconstruction {
    /// Reconstructs every video of `clean` under `traffic`.
    ///
    /// Videos are independent, so the corpus fans out over the
    /// `TAGDIST_THREADS` worker pool; each chunk writes its rows
    /// directly into the final flat buffer ([`Pool::par_fill`]), so
    /// there is no concatenation pass and the matrix is bit-identical
    /// at any thread count.
    ///
    /// # Errors
    ///
    /// Returns the first per-video error in dataset order (see
    /// [`reconstruct_views_into`]). With a correctly filtered dataset
    /// and a strictly positive traffic prior this cannot fail.
    pub fn compute(clean: &CleanDataset, traffic: &GeoDist) -> Result<Reconstruction, GeoError> {
        Reconstruction::compute_with(&Pool::from_env(), clean, traffic)
    }

    /// [`compute`](Reconstruction::compute), instrumented: opens a
    /// `reconstruct` child span of `parent` and records the stage's
    /// deterministic counters (`reconstruct.videos`, `.cells`,
    /// `.rows_filled`) plus pool dispatch stats into its recorder.
    ///
    /// # Errors
    ///
    /// As for [`compute`](Reconstruction::compute).
    pub fn compute_obs(
        clean: &CleanDataset,
        traffic: &GeoDist,
        parent: &SpanGuard,
    ) -> Result<Reconstruction, GeoError> {
        let span = parent.child("reconstruct");
        let obs = span.recorder().clone();
        let pool = Pool::from_env().with_obs(&obs);
        obs.add("reconstruct.videos", clean.len() as u64);
        obs.add(
            "reconstruct.cells",
            (clean.len() * clean.country_count()) as u64,
        );
        let result = Reconstruction::compute_with(&pool, clean, traffic);
        if let Ok(recon) = &result {
            obs.add("reconstruct.rows_filled", recon.len() as u64);
        }
        result
    }

    /// [`compute`](Reconstruction::compute) on an explicit pool.
    ///
    /// # Errors
    ///
    /// As for [`compute`](Reconstruction::compute).
    pub fn compute_with(
        pool: &Pool,
        clean: &CleanDataset,
        traffic: &GeoDist,
    ) -> Result<Reconstruction, GeoError> {
        let cols = clean.country_count();
        // Chunk over the dense view-count column; each worker reads
        // its videos' intensities straight out of the clean dataset's
        // fixed-stride block — no per-video structs anywhere.
        let views = clean.views_column();
        let mut data = vec![0.0; views.len() * cols];
        let results = pool.par_fill(views, &mut data, cols, |start, chunk, block| {
            for (j, &total) in chunk.iter().enumerate() {
                reconstruct_intensities_into(
                    clean.intensities_of(start + j),
                    total,
                    traffic,
                    &mut block[j * cols..(j + 1) * cols],
                )?;
            }
            Ok::<(), GeoError>(())
        });
        // Chunk results come back in chunk order and each chunk stops
        // at its first failure, so this reports the first per-video
        // error in dataset order.
        for result in results {
            result?;
        }
        let mut recon = Reconstruction::empty(cols);
        recon.push_segment(CountryMatrix::from_flat(views.len(), cols, data)?);
        Ok(recon)
    }

    /// A reconstruction of no videos over a world of `country_count`
    /// countries.
    pub(crate) fn empty(country_count: usize) -> Reconstruction {
        Reconstruction {
            segments: Vec::new(),
            starts: Vec::new(),
            len: 0,
            country_count,
        }
    }

    /// Appends `rows` as the next segment (the streaming-ingest
    /// engine's publish step, whose rows come from the same per-row
    /// [`reconstruct_intensities_into`] arithmetic
    /// [`compute`](Reconstruction::compute) runs, hence bit-identical).
    /// An empty `rows` adds no segment.
    pub(crate) fn push_segment(&mut self, rows: CountryMatrix) {
        debug_assert_eq!(rows.cols(), self.country_count);
        if rows.is_empty() {
            return;
        }
        self.starts.push(self.len);
        self.len += rows.rows();
        self.segments.push(Arc::new(rows));
    }

    /// Number of reconstructed videos.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no videos were reconstructed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// World size of every row.
    pub fn country_count(&self) -> usize {
        self.country_count
    }

    /// Estimated view vector of the video at dataset position `pos`,
    /// as a borrowed matrix row.
    pub fn views(&self, pos: usize) -> Option<&[f64]> {
        (pos < self.len).then(|| self.row(pos))
    }

    /// Row `pos`, found by binary search over the segment starts.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub(crate) fn row(&self, pos: usize) -> &[f64] {
        assert!(pos < self.len, "row {pos} out of range ({} rows)", self.len);
        let s = self.starts.partition_point(|&start| start <= pos) - 1;
        self.segments[s].row(pos - self.starts[s])
    }

    /// Estimated view *distribution* of the video at position `pos`.
    ///
    /// # Errors
    ///
    /// Propagates [`GeoError::ZeroMass`] for an out-of-range `pos`
    /// (never happens for rows produced by
    /// [`compute`](Reconstruction::compute), whose mass is positive by
    /// construction).
    pub fn distribution(&self, pos: usize) -> Result<GeoDist, GeoError> {
        let row = self.views(pos).ok_or(GeoError::ZeroMass)?;
        GeoDist::from_slice(row)
    }

    /// Iterates over the estimated view vectors in dataset order.
    pub fn iter(&self) -> impl Iterator<Item = &[f64]> + '_ {
        self.segments.iter().flat_map(|segment| segment.iter_rows())
    }

    /// Sums all rows: the estimated per-country platform traffic
    /// implied by the reconstruction (an internal consistency check
    /// against the prior). Accumulated in row order.
    pub fn implied_traffic(&self) -> CountryVec {
        let mut out = vec![0.0; self.country_count];
        for row in self.iter() {
            kernel::add_assign(&mut out, row);
        }
        CountryVec::from_values(out)
    }

    /// Number of row segments.
    #[cfg(test)]
    pub(crate) fn segment_count(&self) -> usize {
        self.segments.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagdist_dataset::{filter, DatasetBuilder, RawPopularity};

    fn traffic2() -> GeoDist {
        GeoDist::from_counts(&CountryVec::from_values(vec![3.0, 1.0])).unwrap()
    }

    fn assert_close(actual: &[f64], expected: &[f64]) {
        assert_eq!(actual.len(), expected.len());
        for (a, e) in actual.iter().zip(expected) {
            assert!((a - e).abs() < 1e-6, "{actual:?} vs {expected:?}");
        }
    }

    #[test]
    fn equal_intensity_splits_like_traffic() {
        let pop = PopularityVector::from_raw(vec![61, 61]).unwrap();
        let v = reconstruct_views(&pop, 1_000, &traffic2()).unwrap();
        assert_close(v.as_slice(), &[750.0, 250.0]);
    }

    #[test]
    fn zero_intensity_gets_zero_views() {
        let pop = PopularityVector::from_raw(vec![61, 0]).unwrap();
        let v = reconstruct_views(&pop, 500, &traffic2()).unwrap();
        assert_eq!(v.as_slice(), &[500.0, 0.0]);
    }

    #[test]
    fn totals_are_preserved() {
        let pop = PopularityVector::from_raw(vec![61, 17]).unwrap();
        let v = reconstruct_views(&pop, 12_345, &traffic2()).unwrap();
        assert!((v.sum() - 12_345.0).abs() < 1e-9);
    }

    #[test]
    fn into_variant_matches_the_allocating_one_bitwise() {
        let pop = PopularityVector::from_raw(vec![61, 17]).unwrap();
        let v = reconstruct_views(&pop, 12_345, &traffic2()).unwrap();
        let mut row = vec![7.0, 7.0]; // stale contents must be overwritten
        reconstruct_views_into(&pop, 12_345, &traffic2(), &mut row).unwrap();
        assert_eq!(v.as_slice(), row.as_slice());
    }

    #[test]
    fn into_variant_rejects_a_wrong_sized_row() {
        let pop = PopularityVector::from_raw(vec![61, 17]).unwrap();
        let mut row = vec![0.0; 3];
        assert!(matches!(
            reconstruct_views_into(&pop, 10, &traffic2(), &mut row),
            Err(GeoError::LengthMismatch { left: 3, right: 2 })
        ));
    }

    #[test]
    fn intensity_differences_scale_views() {
        // Same traffic share, different intensity ⇒ views scale with
        // intensity ratio.
        let traffic = GeoDist::uniform(2);
        let pop = PopularityVector::from_raw(vec![60, 30]).unwrap();
        let v = reconstruct_views(&pop, 900, &traffic).unwrap();
        assert!((v.as_slice()[0] - 600.0).abs() < 1e-9);
        assert!((v.as_slice()[1] - 300.0).abs() < 1e-9);
    }

    #[test]
    fn paper_fig1_interpretation() {
        // Fig. 1: the USA and Singapore share intensity 61, yet the
        // USA must receive vastly more reconstructed views because its
        // traffic share is vastly larger — exactly the paper's point
        // that pop(v) is NOT a view count.
        use tagdist_geo::{world, TrafficModel};
        let world_ = world();
        let traffic = TrafficModel::reference(world_);
        let us = world_.by_code("US").unwrap().id;
        let sg = world_.by_code("SG").unwrap().id;
        let mut raw = vec![0u8; world_.len()];
        raw[us.index()] = 61;
        raw[sg.index()] = 61;
        let pop = PopularityVector::from_raw(raw).unwrap();
        let v = reconstruct_views(&pop, 1_000_000, traffic.distribution()).unwrap();
        assert!(
            v[us] > 10.0 * v[sg],
            "US {} vs SG {} reconstructed views",
            v[us],
            v[sg]
        );
    }

    #[test]
    fn disjoint_support_is_zero_mass() {
        // Traffic mass only where the chart is dark.
        let traffic = GeoDist::from_counts(&CountryVec::from_values(vec![0.0, 1.0])).unwrap();
        let pop = PopularityVector::from_raw(vec![61, 0]).unwrap();
        assert_eq!(
            reconstruct_views(&pop, 10, &traffic),
            Err(GeoError::ZeroMass)
        );
    }

    #[test]
    fn length_mismatch_is_reported() {
        let pop = PopularityVector::from_raw(vec![61]).unwrap();
        assert!(matches!(
            reconstruct_views(&pop, 10, &traffic2()),
            Err(GeoError::LengthMismatch { .. })
        ));
    }

    fn clean2() -> CleanDataset {
        let mut b = DatasetBuilder::new(2);
        b.push_video("a", 1_000, &["x"], RawPopularity::decode(vec![61, 61], 2));
        b.push_video("b", 100, &["y"], RawPopularity::decode(vec![0, 61], 2));
        filter(&b.build())
    }

    #[test]
    fn reconstruction_covers_the_dataset() {
        let clean = clean2();
        let r = Reconstruction::compute(&clean, &traffic2()).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.country_count(), 2);
        assert_close(r.views(0).unwrap(), &[750.0, 250.0]);
        assert_close(r.views(1).unwrap(), &[0.0, 100.0]);
        assert!(r.views(2).is_none());
        assert_eq!(r.iter().count(), 2);
        assert_eq!(r.segment_count(), 1);
    }

    /// Seven videos over two countries, reconstructed cold.
    fn clean7() -> (CleanDataset, Reconstruction) {
        let mut b = DatasetBuilder::new(2);
        for i in 0..7u8 {
            let raw = vec![i + 1, 61 - i];
            b.push_video(&format!("v{i}"), 100 + u64::from(i), &["t"], {
                RawPopularity::decode(raw, 2)
            });
        }
        let clean = filter(&b.build());
        let recon = Reconstruction::compute(&clean, &traffic2()).unwrap();
        (clean, recon)
    }

    /// `whole` re-cut into one segment per span between `cuts`, the
    /// shape a stream publishing at those positions holds.
    fn resegmented(whole: &Reconstruction, cuts: &[usize]) -> Reconstruction {
        let cols = whole.country_count();
        let mut r = Reconstruction::empty(cols);
        let mut from = 0;
        for &to in cuts.iter().chain([whole.len()].iter()) {
            let data = whole
                .iter()
                .skip(from)
                .take(to - from)
                .flatten()
                .copied()
                .collect();
            r.push_segment(CountryMatrix::from_flat(to - from, cols, data).unwrap());
            from = to;
        }
        r
    }

    #[test]
    fn lookups_at_segment_boundaries_find_the_right_rows() {
        let (_, whole) = clean7();
        // The repeated cut is a publish with nothing new: no segment.
        let r = resegmented(&whole, &[2, 2, 5]);
        assert_eq!(r.segment_count(), 3);
        assert_eq!(r.len(), 7);
        for pos in [0, 1, 2, 4, 5, 6] {
            assert_eq!(r.views(pos), whole.views(pos), "row {pos}");
        }
        assert!(r.views(7).is_none());
        assert_eq!(r, whole);
        assert!(r.iter().eq(whole.iter()));
        assert_eq!(r.implied_traffic(), whole.implied_traffic());

        let mut empty = Reconstruction::empty(2);
        empty.push_segment(CountryMatrix::zeros(0, 2));
        assert_eq!(empty.segment_count(), 0);
        assert!(empty.views(0).is_none());
        assert_eq!(empty, resegmented(&empty, &[0, 0]));
    }

    #[test]
    fn equality_sees_one_changed_bit_in_a_later_segment() {
        let (_, whole) = clean7();
        let mut r = resegmented(&whole, &[3]);
        assert_eq!(r, whole);
        let cell = &mut Arc::make_mut(&mut r.segments[1]).row_mut(1)[1];
        *cell = f64::from_bits(cell.to_bits() ^ 1);
        assert_ne!(r, whole);
        assert_ne!(whole, r);
    }

    #[test]
    fn distributions_normalize_rows() {
        let clean = clean2();
        let r = Reconstruction::compute(&clean, &traffic2()).unwrap();
        let d = r.distribution(0).unwrap();
        assert!((d.as_vec().sum() - 1.0).abs() < 1e-12);
        assert!(r.distribution(99).is_err());
    }

    #[test]
    fn parallel_compute_is_thread_count_invariant() {
        let clean = clean2();
        let reference = Reconstruction::compute_with(&Pool::new(1), &clean, &traffic2()).unwrap();
        for threads in [2, 8] {
            let parallel =
                Reconstruction::compute_with(&Pool::new(threads), &clean, &traffic2()).unwrap();
            assert_eq!(reference, parallel);
        }
        assert_eq!(reference.iter().count(), reference.len());
    }

    #[test]
    fn implied_traffic_sums_rows() {
        let clean = clean2();
        let r = Reconstruction::compute(&clean, &traffic2()).unwrap();
        assert_close(r.implied_traffic().as_slice(), &[750.0, 350.0]);
    }

    /// End-to-end on the synthetic platform: reconstructed view
    /// distributions must be much closer to ground truth than the
    /// traffic prior is.
    #[test]
    fn reconstruction_beats_the_prior_on_synthetic_truth() {
        use tagdist_crawler::{crawl, CrawlConfig};
        use tagdist_ytsim::{Platform, WorldConfig};

        let platform = Platform::generate(WorldConfig::tiny());
        let mut ccfg = CrawlConfig::default();
        ccfg.with_budget(800);
        let outcome = crawl(&platform, &ccfg);
        let clean = filter(&outcome.dataset);
        let traffic = platform.true_traffic();
        let r = Reconstruction::compute(&clean, traffic).unwrap();

        let mut js_recon = 0.0;
        let mut js_prior = 0.0;
        let mut n = 0.0;
        for (pos, video) in clean.iter().enumerate() {
            let truth = platform
                .ground_truth(video.key)
                .expect("crawled videos exist")
                .view_distribution();
            js_recon += r.distribution(pos).unwrap().js_divergence(&truth).unwrap();
            js_prior += traffic.js_divergence(&truth).unwrap();
            n += 1.0;
        }
        js_recon /= n;
        js_prior /= n;
        assert!(
            js_recon < 0.6 * js_prior,
            "reconstruction JS {js_recon} vs prior JS {js_prior}"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use tagdist_dataset::{filter, DatasetBuilder, RawPopularity};

    /// The per-video formula the contiguous matrix replaced, one boxed
    /// [`CountryVec`] per video: `hadamard` with the prior, `sum`,
    /// then `scaled` to the video's total. [`Reconstruction::compute`]
    /// must reproduce it bit for bit.
    fn oracle_rows(clean: &CleanDataset, traffic: &GeoDist) -> Vec<CountryVec> {
        clean
            .iter()
            .map(|v| {
                let weighted = v
                    .popularity
                    .as_country_vec()
                    .hadamard(traffic.as_vec())
                    .unwrap();
                let mass = weighted.sum();
                weighted.scaled(v.total_views as f64 / mass)
            })
            .collect()
    }

    fn bits(row: &[f64]) -> Vec<u64> {
        row.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #[test]
        fn compute_equals_the_per_video_oracle_at_any_thread_count(
            countries in 1usize..16,
            videos in proptest::collection::vec(
                (0u64..5_000_000_000, proptest::collection::vec(0u8..=61, 16)),
                0..400,
            ),
            weights in proptest::collection::vec(0.001f64..10.0, 16),
        ) {
            let mut builder = DatasetBuilder::new(countries);
            for (i, (views, raw)) in videos.iter().enumerate() {
                builder.push_video(
                    &format!("v{i}"),
                    *views,
                    &["t"],
                    RawPopularity::decode(raw[..countries].to_vec(), countries),
                );
            }
            let clean = filter(&builder.build());
            let traffic = GeoDist::from_counts(
                &CountryVec::from_values(weights[..countries].to_vec())).unwrap();
            let want: Vec<Vec<u64>> =
                oracle_rows(&clean, &traffic).iter().map(|r| bits(r.as_slice())).collect();
            for threads in [1, 2, 8] {
                let recon = Reconstruction::compute_with(&Pool::new(threads), &clean, &traffic)
                    .unwrap();
                let got: Vec<Vec<u64>> = recon.iter().map(bits).collect();
                prop_assert_eq!((threads, got), (threads, want.clone()));
            }
        }

        #[test]
        fn reconstruction_preserves_total_and_support(
            raw in proptest::collection::vec(0u8..=61, 2..40),
            weights in proptest::collection::vec(0.01f64..10.0, 2..40),
            total in 1u64..1_000_000_000
        ) {
            let n = raw.len().min(weights.len());
            let raw = &raw[..n];
            prop_assume!(raw.iter().any(|&b| b > 0));
            let pop = PopularityVector::from_raw(raw.to_vec()).unwrap();
            let traffic = GeoDist::from_counts(
                &CountryVec::from_values(weights[..n].to_vec())).unwrap();
            let v = reconstruct_views(&pop, total, &traffic).unwrap();
            // Total preserved.
            prop_assert!((v.sum() - total as f64).abs() / (total as f64) < 1e-9);
            // Support: zero intensity ⇒ zero views; positive ⇒ positive.
            for (i, &b) in raw.iter().enumerate() {
                let val = v.as_slice()[i];
                if b == 0 {
                    prop_assert_eq!(val, 0.0);
                } else {
                    prop_assert!(val > 0.0);
                }
            }
        }
    }
}
