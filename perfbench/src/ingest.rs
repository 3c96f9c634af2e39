//! `ingest_stream`: the corpus file loaded as records (`read_any`) and
//! streamed through `IngestEngine::apply_range` in [`BATCHES`] equal
//! batches, each followed by `publish()` and a `ServeState::build` on
//! the new epoch — what the server does on an epoch flip. Many small
//! deltas, each followed by an O(corpus) publish: the same reconstruct
//! and serve layers as `cold_build`, used differently.

use std::fs::File;
use std::hint::black_box;
use std::io::BufReader;
use std::path::Path;
use std::time::Instant;

use tagdist::dataset::read_any;
use tagdist::geo::GeoDist;
use tagdist::reconstruct::{EpochSnapshot, IngestEngine};
use tagdist_serve::query::load_clean;
use tagdist_serve::ServeState;

use crate::measure::{self, median, timed, Outcome, Span, TracedRep};
use crate::{corpus, Ctx, SETUP_REPS};

/// Batches the corpus is streamed in (`tagdist ingest --batches 16`).
pub const BATCHES: usize = 16;

/// The layers a traced stream times, summed over its batches.
const LAYERS: [(&str, Option<&str>); 4] = [
    ("dataset.record_load_s", None),
    ("reconstruct.apply_s", None),
    ("reconstruct.publish_s", None),
    ("serve.state_build_s", None),
];

/// One streamed ingest of the whole corpus.
struct Stream {
    seconds: f64,
    /// Per batch: from handing it to `apply_range` until its epoch's
    /// `ServeState` is built.
    freshness: Vec<f64>,
    load: Span,
    apply: Vec<Span>,
    publish: Vec<Span>,
    state_build: Vec<Span>,
    rows_touched: u64,
}

/// Streams the corpus; returns the figures and the last epoch's state.
fn stream(path: &Path, traffic: &GeoDist) -> Result<(Stream, ServeState), String> {
    let t0 = Instant::now();
    let (dataset, load) = timed(|| -> Result<_, String> {
        let file = File::open(path).map_err(|e| format!("cannot open corpus: {e}"))?;
        read_any(BufReader::new(file)).map_err(|e| format!("cannot decode corpus: {e}"))
    });
    let dataset = dataset?;
    let mut engine = IngestEngine::new(traffic.clone());
    let size = dataset.len().div_ceil(BATCHES);
    let (mut apply, mut publish, mut state_build, mut freshness) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut state = None;
    for batch in 0..BATCHES {
        let from = (batch * size).min(dataset.len());
        let to = (from + size).min(dataset.len());
        let tb = Instant::now();
        let (applied, span) = timed(|| engine.apply_range(&dataset, from, to));
        applied.map_err(|e| format!("batch {batch}: {e}"))?;
        apply.push(span);
        let (published, span) = timed(|| engine.publish());
        let snapshot = published.map_err(|e| format!("publish {batch}: {e}"))?;
        publish.push(span);
        // The new state replaces the old one only once built, as the
        // server's flip does.
        let (next, span) = timed(|| ServeState::build(snapshot, traffic));
        state_build.push(span);
        state = Some(next);
        freshness.push(tb.elapsed().as_secs_f64());
    }
    let seconds = t0.elapsed().as_secs_f64();
    let rows_touched = engine.stats().rows_touched;
    drop(engine);
    black_box(dataset);
    let last = state.ok_or("no batch was streamed")?;
    let figures = Stream {
        seconds,
        freshness,
        load,
        apply,
        publish,
        state_build,
        rows_touched,
    };
    Ok((figures, last))
}

fn seconds(spans: &[Span]) -> Vec<f64> {
    spans.iter().map(|s| s.seconds).collect()
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
    // The cold path's state, which the final epoch must equal.
    let want = EpochSnapshot::rebuild(1, load_clean(&ctx.path.to_string_lossy())?, traffic)
        .map_err(|e| format!("cold rebuild: {e}"))?;
    measure::reset_peak_rss();

    let mut outcome = Outcome::default();
    let mut plain: Vec<Stream> = Vec::new();
    let mut traced: Vec<Stream> = Vec::new();
    let started = Instant::now();
    while plain.is_empty()
        || (ctx.trace && traced.is_empty())
        || started.elapsed().as_secs_f64() < ctx.seconds
    {
        let trace_this = ctx.trace && traced.len() < plain.len();
        measure::set_tracing(trace_this);
        let streamed = stream(&ctx.path, traffic);
        measure::set_tracing(false);
        outcome.attempted += BATCHES as u64;
        let (s, last) = streamed?;
        if !same_state(&last.snapshot, &want) {
            outcome.failed += 1;
        }
        drop(last);
        if trace_this {
            traced.push(s);
        } else {
            plain.push(s);
        }
    }

    let m = &mut outcome.metrics;
    let ingest_s = median(&plain.iter().map(|s| s.seconds).collect::<Vec<_>>());
    if ctx.trace {
        let reps: Vec<TracedRep> = traced
            .iter()
            .map(|s| {
                let sum = |spans: &[Span]| Span {
                    seconds: spans.iter().map(|x| x.seconds).sum(),
                    ..Span::default()
                };
                (
                    s.seconds,
                    vec![s.load, sum(&s.apply), sum(&s.publish), sum(&s.state_build)],
                )
            })
            .collect();
        measure::ledger(m, &LAYERS, &reps, ingest_s);
        let per_batch =
            |f: fn(&Stream) -> Vec<f64>| median(&traced.iter().flat_map(f).collect::<Vec<_>>());
        m.set(
            "reconstruct.apply_p50_ms",
            per_batch(|s| seconds(&s.apply)) * 1e3,
            "ms",
        );
        m.set(
            "reconstruct.publish_p50_ms",
            per_batch(|s| seconds(&s.publish)) * 1e3,
            "ms",
        );
        let publish_bytes: Vec<f64> = traced
            .iter()
            .map(|s| s.publish.iter().map(|x| x.bytes as f64).sum())
            .collect();
        m.set(
            "reconstruct.publish_alloc_bytes",
            median(&publish_bytes),
            "bytes",
        );
        m.set(
            "reconstruct.rows_touched",
            traced[0].rows_touched as f64,
            "count",
        );
        m.set(
            "dataset.kept_ratio",
            want.clean.report().keep_ratio(),
            "ratio",
        );
    } else {
        let freshness: Vec<f64> = plain.iter().flat_map(|s| s.freshness.clone()).collect();
        m.set("setup_s", setup.setup_s, "s");
        m.set("ready_s", ingest_s, "s");
        m.set("op_p50_ms", median(&freshness) * 1e3, "ms");
        m.set("ops_per_s", BATCHES as f64 / ingest_s, "1/s");
        m.set("peak_rss_mb", measure::peak_rss_mb()?, "MiB");
    }
    Ok((outcome, setup.digest))
}

fn same_state(got: &EpochSnapshot, want: &EpochSnapshot) -> bool {
    got.clean == want.clean && got.recon == want.recon && got.table == want.table
}
