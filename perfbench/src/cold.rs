//! `cold_build`: corpus file → `load_clean` → `Reconstruction::compute`
//! → `TagViewTable::aggregate` → `ServeState::build` → the rendered
//! report. The path `tagdist ingest --cold`, a `serve` boot and every
//! `--watch` reload pay; it has no publish or socket work, so it is the
//! control for ingest and serve changes.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use tagdist::dataset::{binfmt, decode_any, filter, filter_columnar, CleanDataset, Mmap};
use tagdist::geo::GeoDist;
use tagdist::reconstruct::{EpochSnapshot, Reconstruction, TagViewTable};
use tagdist_serve::query::{ingest_report_body, load_clean};
use tagdist_serve::ServeState;

use crate::corpus;
use crate::measure::{self, median, timed, Outcome, Probe, TracedRep};
use crate::{Ctx, SETUP_REPS};

/// Fewest builds a run measures per mode, whatever `--seconds` says.
const MIN_BUILDS: usize = 3;

/// The layers a traced build times, in call order, with the allocation
/// counter each reports.
const LAYERS: [(&str, Option<&str>); 6] = [
    ("dataset.load_s", Some("alloc.load")),
    ("dataset.filter_s", Some("alloc.filter")),
    ("reconstruct.compute_s", Some("alloc.compute")),
    ("reconstruct.aggregate_s", Some("alloc.aggregate")),
    ("serve.state_build_s", Some("alloc.state_build")),
    ("serve.report_render_s", None),
];

/// The record-path oracle: `decode_any` → `filter` → `rebuild`, plus
/// its rendered report.
pub fn oracle(path: &Path, traffic: &GeoDist) -> Result<(EpochSnapshot, String), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read corpus: {e}"))?;
    let clean = filter(&decode_any(&bytes).map_err(|e| format!("cannot decode corpus: {e}"))?);
    let snapshot =
        EpochSnapshot::rebuild(1, clean, traffic).map_err(|e| format!("oracle rebuild: {e}"))?;
    let report = ingest_report_body(&snapshot.clean, &snapshot.table);
    Ok((snapshot, report))
}

fn epoch_one(
    clean: CleanDataset,
    recon: Reconstruction,
    table: TagViewTable,
) -> Arc<EpochSnapshot> {
    Arc::new(EpochSnapshot {
        epoch: 1,
        clean,
        recon,
        table,
    })
}

/// One cold build, as the product runs it.
fn build(path: &Path, traffic: &GeoDist) -> Result<(ServeState, String), String> {
    let clean = load_clean(&path.to_string_lossy())?;
    let recon = Reconstruction::compute(&clean, traffic).map_err(|e| e.to_string())?;
    let table = TagViewTable::aggregate(&clean, &recon);
    let state = ServeState::build(epoch_one(clean, recon, table), traffic);
    let report = ingest_report_body(&state.snapshot.clean, &state.snapshot.table);
    Ok((state, report))
}

/// The same build with every layer call timed from here; `load_clean`
/// is split into its map + borrowed decode and its columnar filter.
fn traced_build(
    path: &Path,
    traffic: &GeoDist,
) -> Result<(ServeState, String, Vec<measure::Span>), String> {
    let probe = Probe::start();
    let map = Mmap::open(path).map_err(|e| format!("cannot open corpus: {e}"))?;
    let view = binfmt::decode_borrowed(&map).map_err(|e| format!("cannot parse corpus: {e}"))?;
    let load = probe.stop();
    let (clean, filter) = timed(|| filter_columnar(&view));
    drop(map);
    let (recon, compute) = timed(|| Reconstruction::compute(&clean, traffic));
    let recon = recon.map_err(|e| e.to_string())?;
    let (table, aggregate) = timed(|| TagViewTable::aggregate(&clean, &recon));
    let snapshot = epoch_one(clean, recon, table);
    let (state, state_build) = timed(|| ServeState::build(snapshot, traffic));
    let (report, render) =
        timed(|| ingest_report_body(&state.snapshot.clean, &state.snapshot.table));
    let spans = vec![load, filter, compute, aggregate, state_build, render];
    Ok((state, report, spans))
}

pub fn run(ctx: &Ctx) -> Result<(Outcome, u64), String> {
    let traffic = ctx.traffic.distribution();
    let setup = corpus::set_up(
        ctx.seed,
        ctx.videos,
        ctx.countries(),
        &ctx.path,
        SETUP_REPS,
        |_| Ok(0.0),
    )?;
    let (want, want_report) = oracle(&ctx.path, traffic)?;
    measure::reset_peak_rss();

    let mut outcome = Outcome::default();
    let mut plain = Vec::new();
    let mut traced: Vec<TracedRep> = Vec::new();
    let started = Instant::now();
    // A traced run alternates untraced and traced builds, so the
    // overhead ratio compares neighbours under the same host load.
    while plain.len() < MIN_BUILDS
        || (ctx.trace && traced.len() < MIN_BUILDS)
        || started.elapsed().as_secs_f64() < ctx.seconds
    {
        let trace_this = ctx.trace && traced.len() < plain.len();
        measure::set_tracing(trace_this);
        let t0 = Instant::now();
        let built = if trace_this {
            traced_build(&ctx.path, traffic).map(|(s, r, l)| (s, r, Some(l)))
        } else {
            build(&ctx.path, traffic).map(|(s, r)| (s, r, None))
        };
        let seconds = t0.elapsed().as_secs_f64();
        measure::set_tracing(false);
        outcome.attempted += 1;
        let (state, report, spans) = built?;
        let got = &state.snapshot;
        if got.clean != want.clean
            || got.recon != want.recon
            || got.table != want.table
            || report != want_report
        {
            outcome.failed += 1;
        }
        match spans {
            Some(spans) => traced.push((seconds, spans)),
            None => plain.push(seconds),
        }
        black_box(state);
    }

    let m = &mut outcome.metrics;
    let build_s = median(&plain);
    if ctx.trace {
        measure::ledger(m, &LAYERS, &traced, build_s);
        m.set(
            "dataset.kept_ratio",
            want.clean.report().keep_ratio(),
            "ratio",
        );
    } else {
        m.set("setup_s", setup.setup_s, "s");
        m.set("ready_s", build_s, "s");
        m.set("op_p50_ms", build_s * 1e3, "ms");
        m.set(
            "ops_per_s",
            plain.len() as f64 / plain.iter().sum::<f64>(),
            "1/s",
        );
        m.set("peak_rss_mb", measure::peak_rss_mb()?, "MiB");
    }
    Ok((outcome, setup.digest))
}
