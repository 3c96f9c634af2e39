//! The computations behind the report sections whose shapes the
//! integration tests assert.
//!
//! Each function takes a completed [`Study`] and returns plain rows.
//! [`markdown_report`](crate::markdown_report) renders them, and
//! `tests/end_to_end.rs` and `tests/cold_start.rs` check their
//! shapes, so a table and the test that guards it run one
//! implementation. Sections no test needs stay inline in
//! `report.rs`.
//!
//! Every size below is derived from the study's own catalogue, so a
//! tiny test world stays cheap and the default world reproduces the
//! EXPERIMENTS.md tables.

use tagdist_cache::{
    run_hybrid, run_reactive_obs, run_static_obs, run_static_sized, run_tiered, run_with_latency,
    ByteReport, DiurnalModel, LatencyReport, LfuCache, LruCache, PeakReport, Placement,
    RequestStream, SizedPlacement, SlruCache, TieredReport, TimedRequestStream,
};
use tagdist_geo::{world, CountryMatrix, GeoDist, LatencyModel, TrafficModel};
use tagdist_obs::SpanGuard;
use tagdist_reconstruct::{refine_prior, ErrorReport, Reconstruction};
use tagdist_tags::{Predictor, SmoothedPredictor};
use tagdist_ytsim::Platform;

use crate::study::{score_reconstruction, Study};

/// E5: relative noise levels applied to the true traffic before the
/// reconstruction (Alexa's estimate was certainly not exact).
pub const PRIOR_NOISE_LEVELS: [f64; 5] = [0.0, 0.05, 0.10, 0.20, 0.40];

/// E7: per-country cache capacities, as fractions of the catalogue.
pub const CAPACITIES: [f64; 5] = [0.001, 0.005, 0.01, 0.02, 0.05];

/// E7b–E7e: the single capacity the extensions run at (2 % of the
/// catalogue per country).
pub const EXTENSION_CAPACITY: f64 = 0.02;

/// E7c: per-country byte budgets, as fractions of the catalogue bytes.
pub const BYTE_BUDGETS: [f64; 2] = [0.01, 0.05];

/// Simulated requests per retained video, for every E7 stream.
pub const REQUESTS_PER_VIDEO: usize = 5;

/// E6b: shrinkage strength (view units) of the smoothed predictor.
const COLD_START_SHRINKAGE: f64 = 5_000.0;

/// E5c: iteration cap and step tolerance of the fixed-point refinement.
const BOOTSTRAP_ITERATIONS: usize = 25;
const BOOTSTRAP_EPSILON: f64 = 1e-7;

/// E5: reconstruction error against ground truth with the true
/// traffic perturbed at each of [`PRIOR_NOISE_LEVELS`] (seeded by the
/// study's `prior_seed`), in that order.
#[expect(
    clippy::expect_used,
    clippy::missing_panics_doc,
    reason = "a study's filtered dataset is non-empty and reconstructs"
)]
pub fn prior_noise_sweep(study: &Study) -> Vec<(f64, ErrorReport)> {
    let truth = study.true_distributions();
    let base = TrafficModel::from_distribution(study.platform().true_traffic().clone());
    PRIOR_NOISE_LEVELS
        .iter()
        .map(|&noise| {
            let prior = base.perturbed(noise, study.config().prior_seed);
            let recon = Reconstruction::compute(study.clean(), prior.distribution())
                .expect("study datasets reconstruct");
            (noise, score_reconstruction(&truth, &recon))
        })
        .collect()
}

/// One E5c row: a starting prior and where the refinement took it.
#[derive(Debug, Clone, PartialEq)]
pub struct BootstrapRow {
    /// Name of the starting prior.
    pub start: &'static str,
    /// Total-variation distance of the start from the true traffic.
    pub tv_before: f64,
    /// Total-variation distance of the fixed point from the true
    /// traffic.
    pub tv_after: f64,
    /// Refinement iterations run.
    pub iterations: usize,
    /// Mean JS (bits) of the final reconstruction against the truth.
    pub recon_js: f64,
}

/// E5c: iterates reconstruct → re-estimate traffic from a uniform
/// start, the reference (Alexa-substitute) table and the true traffic
/// at ±40 % noise, in that order.
#[expect(
    clippy::expect_used,
    clippy::missing_panics_doc,
    reason = "strictly positive priors over the study's own world refine"
)]
pub fn prior_bootstrap(study: &Study) -> Vec<BootstrapRow> {
    let true_traffic = study.platform().true_traffic();
    let truth = study.true_distributions();
    let noisy = TrafficModel::from_distribution(true_traffic.clone())
        .perturbed(0.4, study.config().prior_seed);
    let starts = [
        (
            "uniform (no knowledge)",
            GeoDist::uniform(true_traffic.len()),
        ),
        (
            "reference table (Alexa substitute)",
            TrafficModel::reference(world()).distribution().clone(),
        ),
        ("true traffic ±40 %", noisy.distribution().clone()),
    ];
    starts
        .into_iter()
        .map(|(start, prior)| {
            let refined = refine_prior(
                study.clean(),
                &prior,
                BOOTSTRAP_ITERATIONS,
                BOOTSTRAP_EPSILON,
            )
            .expect("positive priors refine");
            let tv = |d: &GeoDist| d.total_variation(true_traffic).expect("same world");
            BootstrapRow {
                start,
                tv_before: tv(&prior),
                tv_after: tv(&refined.traffic),
                iterations: refined.iterations(),
                recon_js: score_reconstruction(&truth, &refined.reconstruction)
                    .js
                    .mean,
            }
        })
        .collect()
}

/// E6b: every predictor's error on uploads the crawl never saw.
#[derive(Debug, Clone, PartialEq)]
pub struct ColdStart {
    /// New uploads scored.
    pub uploads: usize,
    /// Share of new uploads carrying at least one crawled tag.
    pub known_tag_share: f64,
    /// Tag mixture (the paper's proposal).
    pub tags: ErrorReport,
    /// Tag mixture shrunk towards the prior by evidence mass.
    pub smoothed: ErrorReport,
    /// Point mass on the uploader's country.
    pub uploader_country: ErrorReport,
    /// The traffic prior alone.
    pub prior: ErrorReport,
}

impl ColdStart {
    /// The predictor rows in report order, with their names.
    pub fn rows(&self) -> [(&'static str, &ErrorReport); 4] {
        [
            ("tags (paper's proposal)", &self.tags),
            ("tags, smoothed", &self.smoothed),
            ("uploader country", &self.uploader_country),
            ("traffic prior", &self.prior),
        ]
    }
}

/// E6b: grows the study's platform by one new upload per ten videos
/// (the generator is append-only, so the old catalogue is unchanged)
/// and predicts each upload's geography from its tags alone, using
/// the study's tag table as the knowledge base.
#[expect(
    clippy::expect_used,
    clippy::missing_panics_doc,
    reason = "predictions and truths cover the same world by construction"
)]
pub fn cold_start(study: &Study) -> ColdStart {
    let base = study.config().world.videos;
    let uploads = (base / 10).max(1);
    let mut grown = study.config().world.clone();
    grown.with_videos(base + uploads);
    let tomorrow = Platform::generate(grown);
    let prior = study.traffic();
    let predictor = Predictor::new(study.tag_table(), prior);
    let smoothed = SmoothedPredictor::new(study.tag_table(), prior, COLD_START_SHRINKAGE);

    let mut truth = Vec::with_capacity(uploads);
    let mut by_tags = Vec::with_capacity(uploads);
    let mut by_smoothed = Vec::with_capacity(uploads);
    let mut by_uploader = Vec::with_capacity(uploads);
    let mut known = 0usize;
    for video in &tomorrow.videos()[base..] {
        // Tags as the uploader typed them; only crawled ones carry
        // signal.
        let tags: Vec<_> = video
            .tags
            .iter()
            .filter_map(|t| study.clean().tags().id(t))
            .collect();
        known += usize::from(!tags.is_empty());
        truth.push(video.view_distribution());
        by_tags.push(predictor.predict(&tags, None));
        by_smoothed.push(smoothed.predict(&tags, None));
        by_uploader.push(GeoDist::point_mass(prior.len(), video.upload_country));
    }
    let by_prior = vec![prior.clone(); uploads];
    let score = |estimate: &[GeoDist]| ErrorReport::compare(&truth, estimate).expect("aligned");
    ColdStart {
        uploads,
        known_tag_share: known as f64 / uploads as f64,
        tags: score(&by_tags),
        smoothed: score(&by_smoothed),
        uploader_country: score(&by_uploader),
        prior: score(&by_prior),
    }
}

/// One E7 row: hit rates of every policy at one capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Per-country capacity in videos.
    pub capacity: usize,
    /// Placement from the true distributions (upper bound).
    pub oracle: f64,
    /// Placement from leave-one-out tag predictions.
    pub tags: f64,
    /// The same globally most-viewed videos everywhere.
    pub geo_blind: f64,
    /// Seeded random placement (lower bound).
    pub random: f64,
    /// Reactive LRU.
    pub lru: f64,
    /// Reactive LFU.
    pub lfu: f64,
    /// Reactive segmented LRU.
    pub slru: f64,
    /// Half the budget pinned by tags, half LRU.
    pub hybrid: f64,
}

/// The shared inputs of every caching section: true and predicted
/// distributions, request weights and sizes, and one request stream.
#[derive(Debug)]
pub struct CacheWorkload {
    truth: Vec<GeoDist>,
    weights: Vec<f64>,
    sizes: Vec<f64>,
    predicted: CountryMatrix,
    stream: RequestStream,
}

impl CacheWorkload {
    /// Prepares the workload: [`REQUESTS_PER_VIDEO`] requests per
    /// retained video drawn from the true distributions, and each
    /// video's leave-one-out tag prediction (computed on the worker
    /// pool, recorded under `span`).
    #[expect(
        clippy::expect_used,
        clippy::missing_panics_doc,
        reason = "every retained video was crawled from the study's platform"
    )]
    pub fn new(study: &Study, span: &SpanGuard) -> CacheWorkload {
        let truth = study.true_distributions();
        let weights = study.view_weights();
        let clean = study.clean();
        let sizes = clean
            .iter()
            .map(|v| {
                study
                    .platform()
                    .ground_truth(v.key)
                    .expect("crawled videos exist on the platform")
                    .size_bytes()
            })
            .collect();
        let stream =
            RequestStream::generate(&truth, &weights, REQUESTS_PER_VIDEO * truth.len(), 2014);
        // Per-video predictions land as normalized rows of one
        // contiguous matrix: chunked over the pool, each chunk writes a
        // flat block (no per-video allocation), blocks copied back in
        // corpus order.
        let predictor = Predictor::new(study.tag_table(), study.traffic());
        let countries = world().len();
        let pool = tagdist_par::Pool::from_env().with_obs(span.recorder());
        let blocks = pool.par_chunks(clean.views_column(), |start, chunk| {
            let mut block = vec![0.0; chunk.len() * countries];
            for offset in 0..chunk.len() {
                let own = study.reconstruction().views(start + offset);
                let row = &mut block[offset * countries..(offset + 1) * countries];
                predictor.predict_probs_into(clean.tags_of(start + offset), own, row);
            }
            block
        });
        let mut predicted = CountryMatrix::zeros(clean.len(), countries);
        for (pos, row) in blocks
            .iter()
            .flat_map(|block| block.chunks_exact(countries))
            .enumerate()
        {
            predicted.row_mut(pos).copy_from_slice(row);
        }
        CacheWorkload {
            truth,
            weights,
            sizes,
            predicted,
            stream,
        }
    }

    /// Requests in the shared stream.
    pub fn requests(&self) -> usize {
        self.stream.len()
    }

    /// Videos in the catalogue.
    pub fn catalogue(&self) -> usize {
        self.truth.len()
    }

    /// Per-country capacity in videos for a catalogue fraction.
    pub fn capacity(&self, fraction: f64) -> usize {
        ((self.truth.len() as f64) * fraction).ceil() as usize
    }

    fn oracle(&self, capacity: usize) -> Placement {
        Placement::predictive(
            "oracle",
            world().len(),
            capacity,
            &self.truth,
            &self.weights,
        )
    }

    fn tags(&self, capacity: usize) -> Placement {
        Placement::predictive_rows(
            "tag-proactive",
            world().len(),
            capacity,
            &self.predicted,
            &self.weights,
        )
    }

    fn geo_blind(&self, capacity: usize) -> Placement {
        Placement::geo_blind(world().len(), capacity, &self.weights)
    }

    /// E7: hit rate of every policy at each of [`CAPACITIES`], in that
    /// order. Each replay opens a `cache.{policy}` child of `span`.
    pub fn sweep(&self, span: &SpanGuard) -> Vec<SweepRow> {
        let countries = world().len();
        CAPACITIES
            .iter()
            .map(|&fraction| {
                let capacity = self.capacity(fraction);
                let rate = |p: &Placement| run_static_obs(p, &self.stream, span).hit_rate();
                let random = Placement::random(countries, self.catalogue(), capacity, 99);
                let pinned_half = self.tags(capacity / 2);
                SweepRow {
                    capacity,
                    oracle: rate(&self.oracle(capacity)),
                    tags: rate(&self.tags(capacity)),
                    geo_blind: rate(&self.geo_blind(capacity)),
                    random: rate(&random),
                    lru: run_reactive_obs(|| LruCache::new(capacity), capacity, &self.stream, span)
                        .hit_rate(),
                    lfu: run_reactive_obs(|| LfuCache::new(capacity), capacity, &self.stream, span)
                        .hit_rate(),
                    slru: run_reactive_obs(
                        || SlruCache::new(capacity),
                        capacity,
                        &self.stream,
                        span,
                    )
                    .hit_rate(),
                    hybrid: run_hybrid(&pinned_half, capacity - capacity / 2, &self.stream)
                        .hit_rate(),
                }
            })
            .collect()
    }

    /// E7b: cooperative-CDN latency (local edge → nearest caching edge
    /// → origin in the US) at [`EXTENSION_CAPACITY`], for the oracle,
    /// tag-proactive, geo-blind and random placements, in that order.
    #[expect(
        clippy::missing_panics_doc,
        reason = "the built-in world registry has the US"
    )]
    pub fn latency(&self) -> [LatencyReport; 4] {
        let capacity = self.capacity(EXTENSION_CAPACITY);
        let model = LatencyModel::default_2011();
        #[expect(clippy::expect_used, reason = "the built-in world registry has the US")]
        let origin = world().by_code("US").expect("US is registered").id;
        let random = Placement::random(world().len(), self.catalogue(), capacity, 3);
        [
            self.oracle(capacity),
            self.tags(capacity),
            self.geo_blind(capacity),
            random,
        ]
        .map(|placement| run_with_latency(world(), &model, &placement, &self.stream, origin))
    }

    /// E7c: request and byte hit rates at each of [`BYTE_BUDGETS`] for
    /// the size-aware (density-greedy) tag placement, the size-blind
    /// (top-score) tag placement and the size-aware geo-blind
    /// placement, in that order.
    pub fn byte_budgets(&self) -> Vec<(f64, [ByteReport; 3])> {
        let countries = world().len();
        let total = tagdist_geo::kernel::sum(&self.sizes);
        let (predicted, weights, sizes) = (&self.predicted, &self.weights, &self.sizes);
        BYTE_BUDGETS
            .iter()
            .map(|&fraction| {
                let budget = total * fraction;
                let size_aware =
                    SizedPlacement::greedy("tags, size-aware", countries, budget, sizes, |c, v| {
                        predicted.row(v)[c.index()] * weights[v]
                    });
                // Size-blind: rank by predicted local views alone (the
                // unit-size ordering), so density × size.
                let size_blind =
                    SizedPlacement::greedy("tags, size-blind", countries, budget, sizes, |c, v| {
                        predicted.row(v)[c.index()] * weights[v] * sizes[v]
                    });
                let blind = SizedPlacement::greedy(
                    "geo-blind, size-aware",
                    countries,
                    budget,
                    sizes,
                    |_, v| weights[v],
                );
                let run = |p: &SizedPlacement| run_static_sized(p, &self.stream, sizes);
                (fraction, [run(&size_aware), run(&size_blind), run(&blind)])
            })
            .collect()
    }

    /// E7d: origin load per UTC hour under diurnal demand (each country
    /// active in its local evening), at [`EXTENSION_CAPACITY`], for the
    /// oracle, tag-proactive and geo-blind placements, in that order.
    /// The timed stream has as many requests as the shared one.
    pub fn peak_load(&self) -> [PeakReport; 3] {
        let capacity = self.capacity(EXTENSION_CAPACITY);
        let stream = TimedRequestStream::generate(
            world(),
            &DiurnalModel::default_2011(),
            &self.truth,
            &self.weights,
            self.requests(),
            31,
        );
        [
            self.oracle(capacity),
            self.tags(capacity),
            self.geo_blind(capacity),
        ]
        .map(|placement| PeakReport::analyze(&placement, &stream))
    }

    /// E7e: static country edges at [`EXTENSION_CAPACITY`] backed by
    /// one LRU parent per region with four times the edge capacity,
    /// for the tag-proactive and geo-blind edges, in that order.
    pub fn tiers(&self) -> [TieredReport; 2] {
        let capacity = self.capacity(EXTENSION_CAPACITY);
        [self.tags(capacity), self.geo_blind(capacity)]
            .map(|edge| run_tiered(world(), &edge, 4 * capacity, &self.stream))
    }
}
