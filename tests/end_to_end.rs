//! Cross-crate integration tests: the whole paper pipeline, checked
//! for the shapes reported in each section of the paper.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp,
    clippy::missing_panics_doc,
    missing_docs
)]

use tagdist::experiments::{self, CacheWorkload};
use tagdist::geo::world;
use tagdist::obs::SpanGuard;
use tagdist::tags::{classify, ClassifyThresholds, Locality};
use tagdist::{Study, StudyConfig};

/// One shared study per test binary keeps the suite fast.
fn shared() -> &'static Study {
    use std::sync::OnceLock;
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| Study::run(StudyConfig::tiny()))
}

#[test]
fn section2_filter_accounting_balances() {
    let s = shared();
    let r = s.filter_report();
    assert_eq!(r.crawled, r.no_tags + r.bad_popularity + r.kept);
    // Paper shape: ~0.6 % tagless, ~65 % kept.
    let tagless = r.no_tags as f64 / r.crawled as f64;
    assert!(tagless < 0.03, "tagless share {tagless}");
    assert!(
        (0.5..0.8).contains(&r.keep_ratio()),
        "keep {}",
        r.keep_ratio()
    );
}

#[test]
fn section2_stats_shape() {
    let s = shared();
    let stats = s.dataset_stats();
    assert_eq!(stats.videos, s.clean().len());
    // Folksonomy long tail: most tags are rare.
    assert!(
        stats.singleton_tag_share > 0.3,
        "{}",
        stats.singleton_tag_share
    );
    // Heavy-tailed views.
    assert!(stats.max_video_views as f64 > 50.0 * stats.median_video_views as f64);
    assert!(stats.top1pct_view_share > 0.1);
}

#[test]
fn fig1_most_viewed_has_a_saturated_map() {
    let s = shared();
    let video = s.fig1_most_viewed();
    assert_eq!(video.popularity.max(), 61, "rescaling saturates the max");
    assert!(!video.popularity.saturated().is_empty());
    // The clean record agrees with platform ground truth.
    let truth = s.platform().ground_truth(video.key).unwrap();
    assert_eq!(truth.total_views, video.total_views);
}

#[test]
fn fig2_fig3_contrast() {
    let s = shared();
    let pop = s.tag_profile("pop").expect("pop profiled");
    let favela = s.tag_profile("favela").expect("favela profiled");
    // Fig. 2: pop follows traffic; Fig. 3: favela is Brazilian.
    assert!(pop.js_from_traffic < 0.1, "pop JS {}", pop.js_from_traffic);
    assert!(
        favela.js_from_traffic > 2.0 * pop.js_from_traffic,
        "favela {} vs pop {}",
        favela.js_from_traffic,
        pop.js_from_traffic
    );
    assert_eq!(favela.top_country, world().by_code("BR").unwrap().id);
    assert!(favela.top_share > 0.4);

    let thresholds = ClassifyThresholds::default();
    assert_eq!(classify(&favela, &thresholds), Locality::Local);
    assert_ne!(classify(&pop, &thresholds), Locality::Local);
}

#[test]
fn eq3_mass_conservation() {
    let s = shared();
    let total_tagged: f64 = s
        .tag_table()
        .iter()
        .map(|(_, v)| tagdist_geo::kernel::sum(v))
        .sum();
    let expected: f64 = s
        .clean()
        .iter()
        .map(|v| v.tags.len() as f64 * v.total_views as f64)
        .sum();
    assert!(
        (total_tagged - expected).abs() / expected < 1e-9,
        "tagged mass {total_tagged} vs expected {expected}"
    );
}

#[test]
fn e5_reconstruction_orders_correctly() {
    let s = shared();
    let recon = s.reconstruction_error();
    let prior = s.prior_error();
    assert!(recon.js.mean < 0.5 * prior.js.mean);
    assert!(recon.top_country_accuracy > 0.8);
    assert!(prior.top_country_accuracy < 0.5);
}

#[test]
fn e6_prediction_sits_between_recon_and_prior() {
    let s = shared();
    let recon = s.reconstruction_error().js.mean;
    let pred = s.prediction_error_vs_truth().js.mean;
    let prior = s.prior_error().js.mean;
    assert!(recon < pred, "recon {recon} < prediction {pred}");
    assert!(pred < prior, "prediction {pred} < prior {prior}");
}

#[test]
fn e5_error_grows_with_prior_noise_and_beats_the_prior() {
    let s = shared();
    let sweep = experiments::prior_noise_sweep(s);
    assert_eq!(sweep.len(), experiments::PRIOR_NOISE_LEVELS.len());
    for pair in sweep.windows(2) {
        let ((low, a), (high, b)) = (&pair[0], &pair[1]);
        assert!(
            b.js.mean >= a.js.mean,
            "error fell from {} at ±{low} to {} at ±{high}",
            a.js.mean,
            b.js.mean
        );
    }
    let prior = s.prior_error().js.mean;
    for (noise, report) in &sweep {
        assert!(
            report.js.mean < prior,
            "±{noise}: reconstruction {} vs prior alone {prior}",
            report.js.mean
        );
    }
}

#[test]
fn e5c_bootstrap_from_a_uniform_start_approaches_the_true_traffic() {
    let rows = experiments::prior_bootstrap(shared());
    let uniform = &rows[0];
    assert!(uniform.start.starts_with("uniform"), "{}", uniform.start);
    assert!(
        uniform.tv_after < uniform.tv_before,
        "TV {} -> {}",
        uniform.tv_before,
        uniform.tv_after
    );
}

/// The caching sections' shared workload on the shared study.
fn workload() -> &'static CacheWorkload {
    use std::sync::OnceLock;
    static WORKLOAD: OnceLock<CacheWorkload> = OnceLock::new();
    WORKLOAD.get_or_init(|| CacheWorkload::new(shared(), &SpanGuard::disabled()))
}

#[test]
fn e7_caching_policies_order_as_expected() {
    let rows = workload().sweep(&SpanGuard::disabled());
    assert_eq!(rows.len(), experiments::CAPACITIES.len());
    // At this scale the smaller capacities hold a handful of videos,
    // and tag-proactive vs geo-blind is within noise there; the order
    // below 2 % is checked only by the default-world report.
    let extension = workload().capacity(experiments::EXTENSION_CAPACITY);
    for row in rows.iter().filter(|row| row.capacity >= extension) {
        assert!(row.oracle >= row.tags, "{row:?}");
        assert!(row.tags > row.geo_blind, "{row:?}");
        assert!(row.geo_blind > row.random, "{row:?}");
        assert!(row.lru < row.geo_blind, "{row:?}");
    }
}

#[test]
fn e7b_tags_cut_latency_and_geo_blind_has_no_cooperative_hits() {
    let [_, tags, blind, _] = workload().latency();
    assert!(
        tags.mean_rtt_ms < blind.mean_rtt_ms,
        "tags {} ms vs geo-blind {} ms",
        tags.mean_rtt_ms,
        blind.mean_rtt_ms
    );
    assert_eq!(blind.remote_hits, 0, "every site holds the same content");
}

#[test]
fn e7c_sized_placement_orders_correctly() {
    // The largest budget only: at 1 % the tiny world's two placements
    // are within noise (the default-world report shows the gap).
    let budgets = workload().byte_budgets();
    if let Some((budget, [size_aware, _, blind])) = budgets.last() {
        assert!(
            size_aware.hit_rate() > blind.hit_rate(),
            "budget {budget}: tags {} vs geo-blind {}",
            size_aware.hit_rate(),
            blind.hit_rate()
        );
        assert!(size_aware.byte_hit_rate() > 0.0 && size_aware.byte_hit_rate() <= 1.0);
    }
}

#[test]
fn e7d_diurnal_peak_ordering() {
    let w = workload();
    let [oracle, tags, blind] = w.peak_load();
    // Relief vs geo-blind: oracle > tag-proactive > 0.
    assert!(
        oracle.peak_origin() < tags.peak_origin(),
        "{oracle:?} vs {tags:?}"
    );
    assert!(
        tags.peak_origin() < blind.peak_origin(),
        "{tags:?} vs {blind:?}"
    );
    assert_eq!(oracle.requests_per_hour.iter().sum::<usize>(), w.requests());
}

#[test]
fn e7e_tag_edges_beat_geo_blind_edges() {
    let [tags, blind] = workload().tiers();
    assert!(
        tags.edge_hit_rate() > blind.edge_hit_rate(),
        "tags {} vs geo-blind {}",
        tags.edge_hit_rate(),
        blind.edge_hit_rate()
    );
}

#[test]
fn paper_comparison_api_agrees_with_report() {
    use tagdist::PaperComparison;
    let s = shared();
    let cmp = PaperComparison::compute(s);
    assert!((cmp.measured_keep_ratio - s.filter_report().keep_ratio()).abs() < 1e-12);
    assert!(cmp.ratios_match(0.08), "{cmp}");
}

#[test]
fn crawl_stats_are_consistent_with_dataset() {
    let s = shared();
    let stats = s.crawl_stats();
    assert_eq!(stats.per_depth.iter().sum::<usize>(), stats.fetched);
    assert!(stats.fetched >= s.filter_report().crawled);
    assert_eq!(stats.fetched, s.filter_report().crawled);
    assert!(stats.seeds > 0);
    assert!(stats.max_depth().unwrap_or(0) >= 1);
}

/// Observability must not leak into outputs: a metrics-enabled run
/// produces a Study and a rendered report byte-identical to the
/// uninstrumented path, and the recorded metrics survive a JSON
/// round trip.
#[test]
fn metrics_recording_does_not_change_outputs() {
    use tagdist::obs::{MetricsReport, Recorder};
    use tagdist::{markdown_report, markdown_report_obs};

    let mut cfg = StudyConfig::tiny();
    cfg.world.with_videos(900);

    let plain_study = Study::try_run(cfg.clone()).expect("study runs");
    let plain_report = markdown_report(&plain_study);

    let obs = Recorder::new();
    let obs_study = Study::try_run_with(cfg, &obs).expect("study runs");
    let obs_report = markdown_report_obs(&obs_study, &obs);

    assert_eq!(obs_study.tag_table(), plain_study.tag_table());
    assert_eq!(obs_study.reconstruction(), plain_study.reconstruction());
    assert_eq!(obs_report, plain_report, "metrics leaked into the report");

    let metrics = obs.finish();
    assert!(!metrics.spans.is_empty());
    let round = MetricsReport::from_json(&metrics.to_json()).expect("well-formed JSON");
    assert_eq!(round, metrics);
}
