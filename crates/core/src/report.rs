//! Markdown report generation: the one way the paper's experiments
//! are run and printed.
//!
//! Given a completed [`Study`], [`markdown_report`] renders every row
//! of DESIGN.md's experiment matrix, E1 through E7e, on the study's
//! own world. It has no options. Map depths, list lengths and cache
//! capacities are constants, and request counts scale with the
//! catalogue (see [`crate::experiments`]). EXPERIMENTS.md carries the
//! verbatim output of `tagdist report` on the default world, and CI
//! diffs the two.

use std::fmt::Write as _;

use tagdist_dataset::DatasetStats;
use tagdist_geo::GeoDist;
use tagdist_obs::{Recorder, SpanGuard};
use tagdist_reconstruct::ErrorReport;
use tagdist_tags::{classify, ClassifyThresholds, LocalitySummary, PredictionEvaluation};

use crate::experiments::{self, CacheWorkload, EXTENSION_CAPACITY};
use crate::paper::PAPER;
use crate::render::{render_distribution, render_popularity_map, render_views};
use crate::study::Study;

/// Rows rendered per distribution "map".
const MAP_DEPTH: usize = 8;

/// Tags listed by aggregated views.
const TOP_TAGS: usize = 10;

/// Points of the tag rank-frequency curve.
const RANK_POINTS: usize = 9;

/// Renders the full markdown report of the study.
///
/// # Panics
///
/// Panics if the study's filtered dataset is empty.
pub fn markdown_report(study: &Study) -> String {
    markdown_report_obs(study, &Recorder::disabled())
}

/// [`markdown_report`], instrumented: opens a `report` root span on
/// `obs` with one child per experiment section and records the
/// prediction and caching counters. The rendered markdown is
/// byte-identical to [`markdown_report`] — metrics never feed back
/// into report contents.
///
/// # Panics
///
/// As for [`markdown_report`].
pub fn markdown_report_obs(study: &Study, obs: &Recorder) -> String {
    let span = obs.span("report");
    let mut out = String::new();
    // Writing into a `String` never fails, so the inner `fmt::Result`
    // (which exists purely so `?` replaces per-line unwraps) is moot.
    let _ = write_report(&mut out, study, &span);
    out
}

fn percent(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

fn write_report(w: &mut String, study: &Study, span: &SpanGuard) -> std::fmt::Result {
    writeln!(w, "# tagdist study report\n")?;
    writeln!(
        w,
        "World: {} videos, seed {}; crawl fetched {} videos; traffic prior = true traffic \
         ±{:.0} % (seed {}).\n",
        study.config().world.videos,
        study.config().world.seed,
        study.crawl_stats().fetched,
        100.0 * study.config().prior_noise,
        study.config().prior_seed
    )?;
    // Crawl health: only *unmasked* failures appear here, so a run
    // whose transient faults all resolved within the retry budget
    // renders a report byte-identical to a fault-free run.
    writeln!(
        w,
        "Crawl health: {} dangling references, {} exhausted retries.\n",
        study.crawl_stats().dangling_references,
        study.crawl_stats().exhausted_retries
    )?;
    write_e1(w, study, span)?;
    write_e1b(w, study, span)?;
    write_e2(w, study, span)?;
    write_e3_e4(w, study, span)?;
    write_e5(w, study, span)?;
    write_e6(w, study, span)?;
    let e7 = span.child("e7_caching");
    let workload = CacheWorkload::new(study, &e7);
    write_e7(w, &workload, &e7)?;
    drop(e7);
    write_e7_extensions(w, &workload, span)
}

fn write_e1(w: &mut String, study: &Study, span: &SpanGuard) -> std::fmt::Result {
    let _span = span.child("e1_accounting");
    let r = study.filter_report();
    let stats = study.dataset_stats();
    writeln!(w, "## E1 — §2 dataset accounting\n")?;
    writeln!(w, "| quantity | paper | measured | paper % | measured % |")?;
    writeln!(w, "|---|---:|---:|---:|---:|")?;
    let crawled = (PAPER.crawled as f64, r.crawled as f64);
    for (name, paper, measured) in [
        ("crawled videos", PAPER.crawled, r.crawled),
        ("dropped: no tags", PAPER.no_tags, r.no_tags),
        (
            "dropped: bad popularity",
            PAPER.bad_popularity(),
            r.bad_popularity,
        ),
        ("kept (working set)", PAPER.kept, r.kept),
    ] {
        writeln!(
            w,
            "| {name} | {paper} | {measured} | {:.2} % | {:.2} % |",
            percent(paper as f64, crawled.0),
            percent(measured as f64, crawled.1)
        )?;
    }
    writeln!(w)?;
    let per_kept = |x: f64, kept: usize| x / kept.max(1) as f64;
    writeln!(w, "| quantity | paper | measured |")?;
    writeln!(w, "|---|---:|---:|")?;
    writeln!(
        w,
        "| unique tags | {} | {} |",
        PAPER.unique_tags, stats.unique_tags
    )?;
    writeln!(
        w,
        "| unique tags per kept video | {:.2} | {:.2} |",
        PAPER.unique_tags as f64 / PAPER.kept as f64,
        per_kept(stats.unique_tags as f64, r.kept)
    )?;
    writeln!(
        w,
        "| total views | {} | {} |",
        PAPER.total_views, stats.total_views
    )?;
    writeln!(
        w,
        "| mean views per kept video | {:.0} | {:.0} |\n",
        PAPER.mean_views(),
        per_kept(stats.total_views as f64, r.kept)
    )?;
    writeln!(w, "```\n{stats}\n```\n")?;
    writeln!(w, "Tag rank-frequency at log-spaced ranks:\n")?;
    writeln!(w, "| tag rank | videos with the tag |")?;
    writeln!(w, "|---:|---:|")?;
    for (rank, videos) in DatasetStats::tag_rank_frequency(study.clean(), RANK_POINTS) {
        writeln!(w, "| {rank} | {videos} |")?;
    }
    writeln!(w)
}

#[expect(
    clippy::expect_used,
    reason = "a non-empty reconstruction carries mass"
)]
fn write_e1b(w: &mut String, study: &Study, span: &SpanGuard) -> std::fmt::Result {
    let _span = span.child("e1b_regional");
    writeln!(w, "## E1b — §1 regional split of platform views\n")?;
    let implied = GeoDist::from_counts(&study.reconstruction().implied_traffic())
        .expect("reconstruction carries mass");
    let world = study.world();
    let truth = study.platform().true_traffic().regional_shares(world);
    let recon = implied.regional_shares(world);
    let prior = study.traffic().regional_shares(world);
    writeln!(w, "| region | ground truth | reconstructed | prior |")?;
    writeln!(w, "|---|---:|---:|---:|")?;
    for (((region, t), (_, r)), (_, p)) in truth.iter().zip(&recon).zip(&prior) {
        writeln!(
            w,
            "| {region} | {:.1} % | {:.1} % | {:.1} % |",
            100.0 * t,
            100.0 * r,
            100.0 * p
        )?;
    }
    writeln!(w)
}

fn write_e2(w: &mut String, study: &Study, span: &SpanGuard) -> std::fmt::Result {
    let _span = span.child("e2_fig1");
    let video = study.fig1_most_viewed();
    let world = study.world();
    writeln!(w, "## E2 — Fig. 1: most-viewed video\n")?;
    let saturated: Vec<&str> = video
        .popularity
        .saturated()
        .iter()
        .map(|&id| world.country(id).code)
        .collect();
    writeln!(
        w,
        "`{}` with {} views; saturated at 61: {}; signal in {} of {} countries.\n",
        video.key,
        video.total_views,
        saturated.join(", "),
        video.popularity.support_size(),
        world.len()
    )?;
    writeln!(
        w,
        "Popularity map (0–61 intensities):\n\n```\n{}```\n",
        render_popularity_map(video.popularity, MAP_DEPTH)
    )?;
    let pos = study
        .clean()
        .iter()
        .position(|v| v.key == video.key)
        .unwrap_or(0);
    if let Some(views) = study.reconstruction().views(pos) {
        writeln!(
            w,
            "Reconstructed views (Eqs. 1–2):\n\n```\n{}```\n",
            render_views(views, MAP_DEPTH)
        )?;
    }
    Ok(())
}

fn write_e3_e4(w: &mut String, study: &Study, span: &SpanGuard) -> std::fmt::Result {
    let _span = span.child("e3_e4_tags");
    let thresholds = ClassifyThresholds::default();
    writeln!(w, "## E3/E4 — Figs. 2–3: tag geographies\n")?;
    let profiles = [study.tag_profile("pop"), study.tag_profile("favela")];
    for p in profiles.iter().flatten() {
        writeln!(w, "### tag `{}`\n", p.name)?;
        writeln!(
            w,
            "{} videos, {:.0} views, top {} ({:.1} %), JS from traffic {:.4} bits, \
             normalized entropy {:.3}, Gini {:.3}, classified {}.\n",
            p.video_count,
            p.total_views,
            study.world().country(p.top_country).code,
            100.0 * p.top_share,
            p.js_from_traffic,
            p.normalized_entropy,
            p.gini,
            classify(p, &thresholds)
        )?;
        writeln!(w, "```\n{}```\n", render_distribution(&p.dist, MAP_DEPTH))?;
    }
    if let [Some(pop), Some(favela)] = &profiles {
        writeln!(
            w,
            "Contrast: JS(favela ‖ traffic) / JS(pop ‖ traffic) = {:.1}×.\n",
            favela.js_from_traffic / pop.js_from_traffic.max(1e-9)
        )?;
    }
    writeln!(
        w,
        "Locality census over tags with at least {} videos: {}.\n",
        study.config().min_tag_videos,
        LocalitySummary::compute(&study.tag_profiles(), &thresholds)
    )?;
    writeln!(w, "### top tags by aggregated views\n")?;
    for (tag, views) in study.tag_table().top_by_views(TOP_TAGS) {
        writeln!(
            w,
            "- `{}` — {:.0} views",
            study.clean().tags().name(tag),
            views
        )?;
    }
    writeln!(w)
}

/// Opens an error table whose first column is `first`.
fn error_header(w: &mut String, first: &str) -> std::fmt::Result {
    writeln!(
        w,
        "| {first} | mean JS | p90 JS | mean TV | top-1 accuracy |"
    )?;
    writeln!(w, "|---|---:|---:|---:|---:|")
}

fn error_row(w: &mut String, name: &str, r: &ErrorReport) -> std::fmt::Result {
    writeln!(
        w,
        "| {name} | {:.4} | {:.4} | {:.4} | {:.1} % |",
        r.js.mean,
        r.js.p90,
        r.total_variation.mean,
        100.0 * r.top_country_accuracy
    )
}

fn write_e5(w: &mut String, study: &Study, parent: &SpanGuard) -> std::fmt::Result {
    let span = parent.child("e5_reconstruction_error");
    writeln!(w, "## E5 — reconstruction error vs. ground truth\n")?;
    let prior = study.prior_error();
    let sweep = experiments::prior_noise_sweep(study);
    error_header(w, "estimator")?;
    for (noise, report) in &sweep {
        error_row(
            w,
            &format!("reconstruction, prior ±{:.0} %", 100.0 * noise),
            report,
        )?;
    }
    error_row(w, "traffic prior alone (no map)", &prior)?;
    writeln!(w)?;

    let e5b = span.child("e5b_sensitivity");
    let s = study.sensitivity();
    writeln!(w, "### E5b — which loss dominates the inversion?\n")?;
    writeln!(
        w,
        "Mean JS bits at the study's ±{:.0} % prior: quantization-only {:.4}, prior-only {:.4}, \
         combined {:.4}; prior gap {:.4}.\n",
        100.0 * study.config().prior_noise,
        s.quantization_only.js.mean,
        s.prior_only.js.mean,
        s.combined.js.mean,
        s.prior_gap
    )?;
    drop(e5b);

    let _e5c = span.child("e5c_bootstrap");
    writeln!(w, "### E5c — bootstrapping the prior from the charts\n")?;
    writeln!(
        w,
        "| starting prior | TV before | TV after | iterations | mean recon JS |"
    )?;
    writeln!(w, "|---|---:|---:|---:|---:|")?;
    for row in experiments::prior_bootstrap(study) {
        writeln!(
            w,
            "| {} | {:.4} | {:.4} | {} | {:.4} |",
            row.start, row.tv_before, row.tv_after, row.iterations, row.recon_js
        )?;
    }
    if let Some((_, exact)) = sweep.first() {
        writeln!(
            w,
            "| true prior (oracle) | 0.0000 | — | 0 | {:.4} |",
            exact.js.mean
        )?;
    }
    writeln!(w)
}

fn write_e6(w: &mut String, study: &Study, parent: &SpanGuard) -> std::fmt::Result {
    let span = parent.child("e6_prediction");
    // Evaluated through the instrumented path so the `predict` span and
    // counters land under this section; with a disabled span this is
    // exactly `study.prediction_evaluation()`.
    let evaluation = PredictionEvaluation::evaluate_obs(
        study.clean(),
        study.reconstruction(),
        study.tag_table(),
        study.traffic(),
        &span,
    );
    writeln!(w, "## E6 — tag prediction\n")?;
    writeln!(
        w,
        "Leave-one-out, scored against the reconstructed distributions (the paper's observable):\n"
    )?;
    writeln!(w, "```\n{evaluation}\n```\n")?;
    writeln!(w, "Scored against ground truth:\n")?;
    let recon = study.reconstruction_error();
    let predicted = study.prediction_error_vs_truth();
    let prior = study.prior_error();
    error_header(w, "predictor")?;
    error_row(w, "reconstruction (upper reference)", &recon)?;
    error_row(w, "tag-mixture prediction", &predicted)?;
    error_row(w, "traffic prior", &prior)?;
    let holds = recon.js.mean < predicted.js.mean && predicted.js.mean < prior.js.mean;
    writeln!(
        w,
        "\nJS(recon) < JS(tags) < JS(prior): {:.4} < {:.4} < {:.4} — {}.\n",
        recon.js.mean,
        predicted.js.mean,
        prior.js.mean,
        if holds { "holds" } else { "violated" }
    )?;

    let e6b = span.child("e6b_cold_start");
    let cold = experiments::cold_start(study);
    writeln!(w, "### E6b — cold start: new uploads\n")?;
    writeln!(
        w,
        "{} new uploads, {:.1} % with at least one crawled tag, predicted from tags alone:\n",
        cold.uploads,
        100.0 * cold.known_tag_share
    )?;
    error_header(w, "predictor")?;
    for (name, report) in cold.rows() {
        error_row(w, name, report)?;
    }
    writeln!(w)?;
    drop(e6b);

    let _e6c = span.child("e6c_locality");
    writeln!(
        w,
        "### E6c — prediction by locality class of the dominant tag\n"
    )?;
    writeln!(w, "```\n{}```\n", study.prediction_by_locality())
}

fn write_e7(w: &mut String, workload: &CacheWorkload, span: &SpanGuard) -> std::fmt::Result {
    writeln!(w, "## E7 — proactive geographic caching\n")?;
    writeln!(
        w,
        "{} per-country edge caches, {} requests drawn from the true distributions, \
         {}-video catalogue. Hit rates:\n",
        tagdist_geo::world().len(),
        workload.requests(),
        workload.catalogue()
    )?;
    writeln!(
        w,
        "| capacity | oracle | tag-proactive | geo-blind | random | LRU | LFU | SLRU | hybrid |"
    )?;
    writeln!(w, "|---:|---:|---:|---:|---:|---:|---:|---:|---:|")?;
    for row in workload.sweep(span) {
        write!(w, "| {} ", row.capacity)?;
        for rate in [
            row.oracle,
            row.tags,
            row.geo_blind,
            row.random,
            row.lru,
            row.lfu,
            row.slru,
            row.hybrid,
        ] {
            write!(w, "| {:.1} % ", 100.0 * rate)?;
        }
        writeln!(w, "|")?;
    }
    writeln!(w)
}

fn write_e7_extensions(
    w: &mut String,
    workload: &CacheWorkload,
    span: &SpanGuard,
) -> std::fmt::Result {
    let capacity = workload.capacity(EXTENSION_CAPACITY);

    let e7b = span.child("e7b_latency");
    writeln!(w, "### E7b — user-visible latency\n")?;
    writeln!(
        w,
        "Cooperative CDN (local edge → nearest caching edge → origin in the US), \
         {capacity} videos per country:\n"
    )?;
    writeln!(w, "| placement | mean RTT | local | remote | origin |")?;
    writeln!(w, "|---|---:|---:|---:|---:|")?;
    for r in workload.latency() {
        let n = r.requests as f64;
        writeln!(
            w,
            "| {} | {:.1} ms | {:.1} % | {:.1} % | {:.1} % |",
            r.policy,
            r.mean_rtt_ms,
            percent(r.local_hits as f64, n),
            percent(r.remote_hits as f64, n),
            percent(r.origin_fetches as f64, n)
        )?;
    }
    writeln!(w)?;
    drop(e7b);

    let e7c = span.child("e7c_byte_budget");
    writeln!(w, "### E7c — byte budgets and heterogeneous sizes\n")?;
    writeln!(
        w,
        "| budget (of catalogue bytes) | placement | request hits | byte hits |"
    )?;
    writeln!(w, "|---:|---|---:|---:|")?;
    for (fraction, reports) in workload.byte_budgets() {
        for r in reports {
            writeln!(
                w,
                "| {:.0} % | {} | {:.1} % | {:.1} % |",
                100.0 * fraction,
                r.policy,
                100.0 * r.hit_rate(),
                100.0 * r.byte_hit_rate()
            )?;
        }
    }
    writeln!(w)?;
    drop(e7c);

    let e7d = span.child("e7d_peak_load");
    writeln!(w, "### E7d — peak-hour origin load under diurnal demand\n")?;
    writeln!(
        w,
        "| placement | origin total | origin peak | peak hour (UTC) | peak/mean |"
    )?;
    writeln!(w, "|---|---:|---:|---:|---:|")?;
    let peaks = workload.peak_load();
    for r in &peaks {
        writeln!(
            w,
            "| {} | {} | {} | {} | {:.2} |",
            r.policy,
            r.origin_per_hour.iter().sum::<usize>(),
            r.peak_origin(),
            r.peak_hour(),
            r.peak_to_mean()
        )?;
    }
    let [oracle, tags, blind] = &peaks;
    let relief = |r: &tagdist_cache::PeakReport| {
        100.0 - percent(r.peak_origin() as f64, blind.peak_origin() as f64)
    };
    writeln!(
        w,
        "\nPeak origin relief vs geo-blind: {:.1} % (tag-proactive), {:.1} % (oracle).\n",
        relief(tags),
        relief(oracle)
    )?;
    drop(e7d);

    let _e7e = span.child("e7e_tiers");
    writeln!(w, "### E7e — two-tier hierarchy\n")?;
    writeln!(
        w,
        "Static country edges backed by one LRU parent per region with {} slots:\n",
        4 * capacity
    )?;
    writeln!(
        w,
        "| edge placement | edge hits | regional hits | hierarchy hits |"
    )?;
    writeln!(w, "|---|---:|---:|---:|")?;
    for r in workload.tiers() {
        writeln!(
            w,
            "| {} | {:.1} % | {:.1} % | {:.1} % |",
            r.policy,
            100.0 * r.edge_hit_rate(),
            percent(r.regional_hits as f64, r.requests as f64),
            100.0 * r.hierarchy_hit_rate()
        )?;
    }
    writeln!(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::StudyConfig;
    use std::sync::OnceLock;

    fn study() -> &'static Study {
        static STUDY: OnceLock<Study> = OnceLock::new();
        STUDY.get_or_init(|| {
            let mut cfg = StudyConfig::tiny();
            cfg.world.with_videos(1_500);
            Study::run(cfg)
        })
    }

    fn shared() -> &'static str {
        static REPORT: OnceLock<String> = OnceLock::new();
        REPORT.get_or_init(|| markdown_report(study()))
    }

    #[test]
    fn report_contains_every_section() {
        let report = shared();
        for needle in [
            "# tagdist study report",
            "dangling references",
            "exhausted retries",
            "## E1 ",
            "## E1b ",
            "## E2 ",
            "## E3/E4 ",
            "tag `pop`",
            "tag `favela`",
            "Locality census",
            "## E5 ",
            "### E5b ",
            "### E5c ",
            "## E6 ",
            "win rate",
            "### E6b ",
            "### E6c ",
            "## E7 ",
            "### E7b ",
            "### E7c ",
            "### E7d ",
            "### E7e ",
        ] {
            assert!(report.contains(needle), "missing {needle:?}");
        }
    }

    #[test]
    fn report_is_deterministic() {
        assert_eq!(markdown_report(study()), shared());
    }

    #[test]
    fn maps_are_bounded_by_the_map_depth() {
        let pop_block = shared()
            .split("tag `pop`")
            .nth(1)
            .and_then(|s| s.split("```").nth(1))
            .expect("pop map block present");
        assert!(pop_block.trim().lines().count() <= MAP_DEPTH, "{pop_block}");
    }

    #[test]
    fn e7_sweep_has_one_row_per_capacity() {
        let table = shared()
            .split("| capacity | oracle |")
            .nth(1)
            .expect("E7 table present");
        let rows = table
            .lines()
            .skip(2)
            .take_while(|l| l.starts_with('|'))
            .count();
        assert_eq!(rows, experiments::CAPACITIES.len());
    }
}
