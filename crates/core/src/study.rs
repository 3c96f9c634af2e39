//! The end-to-end study pipeline.

use tagdist_crawler::{crawl_parallel_obs, CrawlConfig, CrawlStats, PlatformApi as _};
use tagdist_dataset::{filter, CleanDataset, CleanVideo, DatasetStats, FilterReport};
use tagdist_geo::{world, GeoDist, TrafficModel};
use tagdist_obs::Recorder;
use tagdist_reconstruct::{ErrorReport, Reconstruction, Sensitivity, TagViewTable};
use tagdist_tags::{
    profiles, ClassifyThresholds, LocalityBreakdown, PredictionEvaluation, Predictor, TagProfile,
};
use tagdist_ytsim::{FaultProfile, FlakyPlatform, Platform, WorldConfig};

/// Configuration of a full study run.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyConfig {
    /// Synthetic-world parameters.
    pub world: WorldConfig,
    /// Crawl parameters (§2 methodology).
    pub crawl: CrawlConfig,
    /// Transient-fault injection applied to the platform during the
    /// crawl ([`FaultProfile::off`] by default). With any profile
    /// whose faults resolve within the retry budget, the study output
    /// is byte-identical to a fault-free run.
    pub fault: FaultProfile,
    /// Relative error injected into the traffic prior, modelling the
    /// gap between Alexa's estimate `p̂yt` and the real `pyt` (Eq. 2).
    /// `0.0` hands the pipeline the platform's true distribution.
    pub prior_noise: f64,
    /// Seed for the prior perturbation (independent of the world
    /// seed).
    pub prior_seed: u64,
    /// Minimum videos per tag for profile construction.
    pub min_tag_videos: usize,
}

impl Default for StudyConfig {
    fn default() -> StudyConfig {
        StudyConfig {
            world: WorldConfig::default(),
            crawl: CrawlConfig::default(),
            fault: FaultProfile::off(),
            prior_noise: 0.05,
            prior_seed: 7,
            min_tag_videos: 5,
        }
    }
}

impl StudyConfig {
    /// A miniature configuration for tests and doctests.
    pub fn tiny() -> StudyConfig {
        StudyConfig {
            world: WorldConfig::tiny(),
            min_tag_videos: 3,
            ..StudyConfig::default()
        }
    }

    /// A mid-size configuration for integration tests and benches.
    pub fn small() -> StudyConfig {
        StudyConfig {
            world: WorldConfig::small(),
            ..StudyConfig::default()
        }
    }
}

/// Failure modes of the end-to-end pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StudyError {
    /// The world or crawl configuration failed validation.
    InvalidConfig(String),
    /// Filtering kept no usable videos, so nothing reconstructs.
    EmptyDataset,
}

impl core::fmt::Display for StudyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StudyError::InvalidConfig(why) => write!(f, "invalid study configuration: {why}"),
            StudyError::EmptyDataset => write!(f, "the crawl yielded no usable videos"),
        }
    }
}

impl std::error::Error for StudyError {}

/// A completed end-to-end run: platform, crawl, filtered dataset,
/// reconstruction and tag table, with the paper's figures and our
/// ground-truth evaluations as methods.
#[derive(Debug)]
pub struct Study {
    config: StudyConfig,
    platform: Platform,
    crawl_stats: CrawlStats,
    clean: CleanDataset,
    filter_report: FilterReport,
    traffic: TrafficModel,
    reconstruction: Reconstruction,
    tag_table: TagViewTable,
}

impl Study {
    /// Runs the whole pipeline (generate → crawl → filter →
    /// reconstruct → aggregate).
    ///
    /// Deterministic in the configuration's seeds.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`WorldConfig::validate`] and [`CrawlConfig::validate`]) or the
    /// crawl yields no usable videos. [`Study::try_run`] is the
    /// fallible variant.
    #[expect(
        clippy::expect_used,
        reason = "documented # Panics contract; try_run is the fallible variant"
    )]
    pub fn run(config: StudyConfig) -> Study {
        Study::try_run(config)
            .expect("study configuration is valid and the crawl yields usable videos")
    }

    /// Runs the whole pipeline, reporting failures as values.
    ///
    /// # Errors
    ///
    /// * [`StudyError::InvalidConfig`] if the world or crawl
    ///   configuration fails validation.
    /// * [`StudyError::EmptyDataset`] if the §2 filter keeps no usable
    ///   videos (so the Eq. 1 reconstruction has nothing to normalize).
    pub fn try_run(config: StudyConfig) -> Result<Study, StudyError> {
        Study::try_run_with(config, &Recorder::disabled())
    }

    /// [`try_run`](Study::try_run), instrumented: opens a `study` root
    /// span on `obs` with one child per pipeline stage (`generate`,
    /// `crawl`, `filter`, `traffic_prior`, `reconstruct`, `aggregate`,
    /// `validate`) and records every stage's deterministic counters.
    /// With a disabled recorder this is exactly
    /// [`try_run`](Study::try_run); either way the [`Study`] itself is
    /// identical — metrics never feed back into outputs.
    ///
    /// # Errors
    ///
    /// As for [`try_run`](Study::try_run).
    pub fn try_run_with(config: StudyConfig, obs: &Recorder) -> Result<Study, StudyError> {
        let study_span = obs.span("study");
        config.world.validate().map_err(StudyError::InvalidConfig)?;
        config.crawl.validate().map_err(StudyError::InvalidConfig)?;
        let platform = {
            let _span = study_span.child("generate");
            Platform::generate(config.world.clone())
        };
        obs.add("generate.catalogue", platform.catalogue_size() as u64);
        let outcome = if config.fault.is_enabled() {
            let flaky = FlakyPlatform::new(&platform, config.fault);
            crawl_parallel_obs(&flaky, &config.crawl, &study_span)
        } else {
            crawl_parallel_obs(&platform, &config.crawl, &study_span)
        };
        let clean = {
            let _span = study_span.child("filter");
            filter(&outcome.dataset)
        };
        let filter_report = clean.report();
        obs.add("filter.crawled", filter_report.crawled as u64);
        obs.add("filter.kept", filter_report.kept as u64);
        obs.add("filter.no_tags", filter_report.no_tags as u64);
        obs.add("filter.bad_popularity", filter_report.bad_popularity as u64);
        // The paper's Eq. 2 prior: the (noisy) estimate of the
        // platform's per-country traffic.
        let traffic = {
            let _span = study_span.child("traffic_prior");
            TrafficModel::from_distribution(platform.true_traffic().clone())
                .perturbed(config.prior_noise, config.prior_seed)
        };
        let reconstruction =
            Reconstruction::compute_obs(&clean, traffic.distribution(), &study_span)
                .map_err(|_| StudyError::EmptyDataset)?;
        let tag_table = TagViewTable::aggregate_obs(&clean, &reconstruction, &study_span);
        // Debug builds verify the stage invariants (free in release).
        {
            let _span = study_span.child("validate");
            crate::validate::Validate::debug_validate(&clean);
            crate::validate::Validate::debug_validate(traffic.distribution());
        }
        Ok(Study {
            config,
            platform,
            crawl_stats: outcome.stats,
            clean,
            filter_report,
            traffic,
            reconstruction,
            tag_table,
        })
    }

    /// The configuration that produced this study.
    pub fn config(&self) -> &StudyConfig {
        &self.config
    }

    /// The synthetic platform (ground truth included).
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Crawl accounting.
    pub fn crawl_stats(&self) -> &CrawlStats {
        &self.crawl_stats
    }

    /// The filtered working dataset (§2).
    pub fn clean(&self) -> &CleanDataset {
        &self.clean
    }

    /// The §2 filtering accounting.
    pub fn filter_report(&self) -> FilterReport {
        self.filter_report
    }

    /// §2 corpus statistics.
    pub fn dataset_stats(&self) -> DatasetStats {
        DatasetStats::compute(&self.clean)
    }

    /// The traffic prior handed to the reconstruction (Eq. 2's
    /// `p̂yt`).
    pub fn traffic(&self) -> &GeoDist {
        self.traffic.distribution()
    }

    /// Per-video reconstructed views (§3).
    pub fn reconstruction(&self) -> &Reconstruction {
        &self.reconstruction
    }

    /// Per-tag aggregated views (Eq. 3).
    pub fn tag_table(&self) -> &TagViewTable {
        &self.tag_table
    }

    /// Profiles of all tags with at least
    /// [`StudyConfig::min_tag_videos`] retained videos, by views
    /// descending.
    pub fn tag_profiles(&self) -> Vec<TagProfile> {
        profiles(
            &self.clean,
            &self.tag_table,
            self.traffic.distribution(),
            self.config.min_tag_videos,
        )
    }

    /// Profile of one tag by name (no minimum-video threshold), or
    /// `None` if the tag never survived filtering.
    pub fn tag_profile(&self, name: &str) -> Option<TagProfile> {
        let tag = self.clean.tags().id(name)?;
        TagProfile::build(
            tag,
            &self.clean,
            &self.tag_table,
            self.traffic.distribution(),
        )
    }

    /// Fig. 1: the most-viewed video and its popularity map.
    ///
    /// # Panics
    ///
    /// Panics if the filtered dataset is empty.
    #[expect(
        clippy::expect_used,
        reason = "documented # Panics contract on empty datasets"
    )]
    pub fn fig1_most_viewed(&self) -> CleanVideo<'_> {
        self.clean
            .most_viewed()
            .expect("study datasets are non-empty")
    }

    /// E5: reconstruction error against ground truth, per video.
    ///
    /// The paper could not run this check; the synthetic substrate
    /// can. Compares each retained video's reconstructed distribution
    /// with the generator's true one.
    pub fn reconstruction_error(&self) -> ErrorReport {
        score_reconstruction(&self.true_distributions(), &self.reconstruction)
    }

    /// Baseline for E5: how far the traffic prior alone is from each
    /// video's true distribution.
    #[expect(
        clippy::expect_used,
        clippy::missing_panics_doc,
        reason = "the prior covers the same world as the truth"
    )]
    pub fn prior_error(&self) -> ErrorReport {
        let truth = self.true_distributions();
        let estimate: Vec<GeoDist> = vec![self.traffic.distribution().clone(); truth.len()];
        ErrorReport::compare(&truth, &estimate).expect("aligned by construction")
    }

    /// E6: leave-one-out tag-prediction quality against the
    /// *reconstructed* distributions (the paper's observable).
    pub fn prediction_evaluation(&self) -> PredictionEvaluation {
        PredictionEvaluation::evaluate(
            &self.clean,
            &self.reconstruction,
            &self.tag_table,
            self.traffic.distribution(),
        )
    }

    /// E6 per-class view: prediction quality by the locality class of
    /// each video's dominant tag.
    pub fn prediction_by_locality(&self) -> LocalityBreakdown {
        LocalityBreakdown::evaluate(
            &self.clean,
            &self.reconstruction,
            &self.tag_table,
            self.traffic.distribution(),
            &ClassifyThresholds::default(),
        )
    }

    /// E6 (ground-truth variant): tag predictions scored against the
    /// generator's true distributions.
    #[expect(
        clippy::expect_used,
        clippy::missing_panics_doc,
        reason = "predictions cover the same world as the truth"
    )]
    pub fn prediction_error_vs_truth(&self) -> ErrorReport {
        let predictor = Predictor::new(&self.tag_table, self.traffic.distribution());
        let truth = self.true_distributions();
        // Chunked over the pool with a per-chunk scratch buffer; order
        // and values match the serial map at any thread count.
        let estimate: Vec<GeoDist> = tagdist_par::Pool::from_env()
            .par_chunks(self.clean.views_column(), |start, chunk| {
                let mut mix = vec![0.0; self.tag_table.country_count()];
                (0..chunk.len())
                    .map(|offset| {
                        let own = self.reconstruction.views(start + offset);
                        predictor
                            .predict_into(self.clean.tags_of(start + offset), own, &mut mix)
                            .unwrap_or_else(|_| self.traffic.distribution().clone())
                    })
                    .collect::<Vec<GeoDist>>()
            })
            .into_iter()
            .flatten()
            .collect();
        ErrorReport::compare(&truth, &estimate).expect("aligned by construction")
    }

    /// E5 decomposition: quantization loss vs prior-mismatch loss
    /// (see [`Sensitivity`]).
    ///
    /// # Panics
    ///
    /// Panics if the filtered dataset is empty.
    #[expect(
        clippy::expect_used,
        reason = "documented # Panics contract; retained videos were crawled from this platform"
    )]
    pub fn sensitivity(&self) -> Sensitivity {
        // One contiguous matrix of ground-truth rows (no per-video
        // clones): copy each platform vector into its row slot.
        let countries = self.traffic.distribution().len();
        let mut truth_views = tagdist_geo::CountryMatrix::zeros(self.clean.len(), countries);
        for (pos, v) in self.clean.iter().enumerate() {
            let truth = self
                .platform
                .ground_truth(v.key)
                .expect("crawled videos exist on the platform");
            truth_views
                .row_mut(pos)
                .copy_from_slice(truth.views_by_country.as_slice());
        }
        Sensitivity::analyze(&truth_views, self.traffic.distribution())
            .expect("non-empty study datasets decompose")
    }

    /// Ground-truth view distributions of the retained videos, in
    /// dataset order (inputs for oracle cache placements).
    #[expect(
        clippy::expect_used,
        clippy::missing_panics_doc,
        reason = "every retained video was crawled from this very platform"
    )]
    pub fn true_distributions(&self) -> Vec<GeoDist> {
        self.clean
            .iter()
            .map(|v| {
                self.platform
                    .ground_truth(v.key)
                    .expect("crawled videos exist on the platform")
                    .view_distribution()
            })
            .collect()
    }

    /// Per-video request weights (total views), in dataset order.
    pub fn view_weights(&self) -> Vec<f64> {
        self.clean.iter().map(|v| v.total_views as f64).collect()
    }

    /// The world registry the study ran against.
    pub fn world(&self) -> &'static tagdist_geo::World {
        world()
    }
}

/// Scores a reconstruction's rows against the aligned true
/// distributions.
#[expect(
    clippy::expect_used,
    reason = "reconstructed rows carry mass and align with the truth by construction"
)]
pub(crate) fn score_reconstruction(truth: &[GeoDist], recon: &Reconstruction) -> ErrorReport {
    let estimate: Vec<GeoDist> = (0..recon.len())
        .map(|pos| recon.distribution(pos).expect("rows carry mass"))
        .collect();
    ErrorReport::compare(truth, &estimate).expect("aligned by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study() -> Study {
        Study::run(StudyConfig::tiny())
    }

    #[test]
    fn pipeline_produces_consistent_sizes() {
        let s = study();
        assert_eq!(s.clean().len(), s.reconstruction().len());
        assert_eq!(s.filter_report().kept, s.clean().len());
        assert!(s.crawl_stats().fetched >= s.clean().len());
        assert!(s.clean().len() > 500, "tiny study kept {}", s.clean().len());
    }

    #[test]
    fn filter_ratios_land_near_paper_shape() {
        let s = study();
        let r = s.filter_report();
        let keep = r.keep_ratio();
        assert!((0.55..0.75).contains(&keep), "keep ratio {keep}");
        let tagless = r.no_tags as f64 / r.crawled as f64;
        assert!(tagless < 0.03, "tagless share {tagless}");
    }

    #[test]
    fn builtin_tags_have_the_paper_shapes() {
        let s = study();
        let pop = s.tag_profile("pop").expect("pop survives");
        let favela = s.tag_profile("favela").expect("favela survives");
        // Fig. 2 vs Fig. 3.
        assert!(pop.js_from_traffic < favela.js_from_traffic);
        assert!(
            favela.top_share > 0.4,
            "favela top share {}",
            favela.top_share
        );
        let br = world().by_code("BR").unwrap().id;
        assert_eq!(favela.top_country, br);
    }

    #[test]
    fn reconstruction_beats_the_prior() {
        let s = study();
        let recon = s.reconstruction_error();
        let prior = s.prior_error();
        assert!(recon.js.mean < prior.js.mean);
        assert!(recon.top_country_accuracy > prior.top_country_accuracy);
    }

    #[test]
    fn prediction_beats_the_baseline() {
        let s = study();
        let eval = s.prediction_evaluation();
        assert!(eval.predicted.mean < eval.baseline.mean);
        assert!(eval.win_rate > 0.5, "win rate {}", eval.win_rate);
    }

    #[test]
    fn locality_breakdown_covers_most_videos() {
        let s = study();
        let breakdown = s.prediction_by_locality();
        let covered: usize = breakdown.rows.iter().map(|&(_, n, ..)| n).sum();
        assert!(covered as f64 > 0.95 * s.clean().len() as f64);
        // The conjecture should hold within every class.
        for (class, n, pred, base) in &breakdown.rows {
            if *n > 100 {
                assert!(
                    pred.mean < base.mean,
                    "{class}: prediction {} vs baseline {}",
                    pred.mean,
                    base.mean
                );
            }
        }
    }

    #[test]
    fn study_is_deterministic() {
        let a = study();
        let b = study();
        assert_eq!(a.filter_report(), b.filter_report());
        assert_eq!(a.fig1_most_viewed().key, b.fig1_most_viewed().key);
    }

    #[test]
    fn helpers_are_aligned() {
        let s = study();
        assert_eq!(s.true_distributions().len(), s.clean().len());
        assert_eq!(s.view_weights().len(), s.clean().len());
        assert_eq!(s.world().len(), s.traffic().len());
        assert!(s.dataset_stats().unique_tags > 0);
        assert!(s.tag_profiles().len() > 10);
    }
}
