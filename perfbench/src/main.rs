//! `perfbench` — the benchmark of record for the tagdist pipeline.
//!
//! ```text
//! perfbench --workload <cold_build|ingest_stream|serve_zipf> --seed N \
//!           --seconds S --trace <0|1> [--videos N]
//! ```
//!
//! Every workload reads one seeded synthetic corpus (1,000,000 videos
//! by default) written as a `bin v1` file during set-up, and checks
//! every output it produces. An untraced run (`--trace 0`) prints the
//! end-to-end metrics; a traced run (`--trace 1`) times each call into
//! the layer crates from this binary and prints the per-layer ledger.
//! The last line of standard output is the result object; the line
//! before it records the host and the corpus.

#![allow(unsafe_code)]

mod cold;
mod corpus;
mod ingest;
mod measure;
mod serve;

use std::path::PathBuf;
use std::process::ExitCode;

use tagdist::geo::{world, TrafficModel};
use tagdist::obs::json::Value;
use tagdist::par::{available_threads, THREADS_ENV};

use measure::Metrics;

/// End-to-end metrics every untraced run prints.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ready_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every traced run prints. A layer the workload
/// never calls reads 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("error_rate", "ratio"),
    ("dataset.load_s", "s"),
    ("dataset.filter_s", "s"),
    ("dataset.kept_ratio", "ratio"),
    ("dataset.record_load_s", "s"),
    ("reconstruct.compute_s", "s"),
    ("reconstruct.aggregate_s", "s"),
    ("reconstruct.apply_s", "s"),
    ("reconstruct.apply_p50_ms", "ms"),
    ("reconstruct.publish_s", "s"),
    ("reconstruct.publish_p50_ms", "ms"),
    ("reconstruct.publish_alloc_bytes", "bytes"),
    ("reconstruct.rows_touched", "count"),
    ("serve.state_build_s", "s"),
    ("serve.report_render_s", "s"),
    ("serve.client_p50_us.tag", "us"),
    ("serve.client_p50_us.country", "us"),
    ("serve.client_p50_us.video", "us"),
    ("serve.client_p50_us.predict", "us"),
    ("serve.client_p50_us.stats", "us"),
    ("serve.client_p99_us", "us"),
    ("serve.render_us.tag", "us"),
    ("serve.render_us.country", "us"),
    ("serve.render_us.video", "us"),
    ("serve.render_us.predict", "us"),
    ("serve.render_us.stats", "us"),
    ("serve.parse_us", "us"),
    ("serve.write_us", "us"),
    ("serve.wait_us", "us"),
    ("serve.bytes_per_request", "bytes"),
    ("serve.requests_per_connection", "count"),
    ("serve.samples", "count"),
    ("alloc.load", "count"),
    ("alloc.filter", "count"),
    ("alloc.compute", "count"),
    ("alloc.aggregate", "count"),
    ("alloc.state_build", "count"),
    ("unaccounted_s", "s"),
    ("layers_s", "s"),
    ("traced_s", "s"),
    ("trace_overhead_ratio", "ratio"),
];

/// How many times a run sets up, for a median `setup_s`.
pub const SETUP_REPS: usize = 3;

/// Everything a workload needs to run.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    pub videos: usize,
    pub seconds: f64,
    pub trace: bool,
    /// `TAGDIST_THREADS` and the server's pool size.
    pub threads: usize,
    pub traffic: TrafficModel,
    pub path: PathBuf,
}

impl Ctx {
    pub fn countries(&self) -> usize {
        self.traffic.distribution().len()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    videos: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut videos = 1_000_000;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            "--videos" => videos = usize::try_from(number()?.max(64)).map_err(|e| e.to_string())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        videos,
    })
}

/// The thread count to run with: `TAGDIST_THREADS` if set, else every
/// hardware thread. Refuses more threads than the host has, so no
/// thread-scaling figure comes from a smaller host.
fn host_threads() -> Result<(usize, usize), String> {
    let nproc = available_threads();
    let threads = match std::env::var(THREADS_ENV) {
        Ok(v) if !v.trim().is_empty() => v
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&t| t >= 1)
            .ok_or_else(|| format!("{THREADS_ENV}={v:?} is not a positive number"))?,
        _ => nproc,
    };
    if threads > nproc {
        return Err(format!(
            "{THREADS_ENV}={threads} exceeds the host's available parallelism ({nproc}); \
             refusing to measure more threads or connections than the host has"
        ));
    }
    Ok((nproc, threads))
}

/// `(commit, dirty)` of the working directory's git checkout, if it is
/// one; never searches above the working directory.
fn git_state() -> (String, Option<bool>) {
    let git = |args: &[&str]| {
        let cwd = std::env::current_dir().ok()?;
        let parent = cwd.parent().unwrap_or(&cwd).to_path_buf();
        std::process::Command::new("git")
            .args(args)
            .env("GIT_CEILING_DIRECTORIES", parent)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
    };
    match git(&["rev-parse", "HEAD"]) {
        Some(commit) => {
            let dirty = git(&["status", "--porcelain"]).map(|s| !s.is_empty());
            (commit, dirty)
        }
        None => ("unknown".to_owned(), None),
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let (nproc, threads) = host_threads()?;
    std::env::set_var(THREADS_ENV, threads.to_string());
    let work = corpus::WorkDir::create()?;
    let ctx = Ctx {
        seed: args.seed,
        videos: args.videos,
        seconds: args.seconds as f64,
        trace: args.trace,
        threads,
        traffic: TrafficModel::reference(world()),
        path: work.corpus_path(),
    };
    let (mut outcome, digest) = match args.workload.as_str() {
        "cold_build" => cold::run(&ctx)?,
        "ingest_stream" => ingest::run(&ctx)?,
        "serve_zipf" => serve::run(&ctx)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    drop(work);

    if args.trace {
        let rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
        outcome.metrics.set("error_rate", rate, "ratio");
    }
    let expected: &[(&str, &'static str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    complete(&mut outcome.metrics, expected)?;

    let connections = match args.workload.as_str() {
        "serve_zipf" => serve::CONNECTIONS,
        _ => 0,
    };
    let (commit, dirty) = git_state();
    let num = |n: u64| Value::Num(n.to_string());
    let host = Value::Obj(vec![
        ("workload".to_owned(), Value::Str(args.workload.clone())),
        ("seed".to_owned(), num(args.seed)),
        ("videos".to_owned(), num(args.videos as u64)),
        (
            "corpus_fnv1a".to_owned(),
            Value::Str(format!("{digest:016x}")),
        ),
        ("nproc".to_owned(), num(nproc as u64)),
        (THREADS_ENV.to_owned(), num(threads as u64)),
        ("connections".to_owned(), num(connections as u64)),
        ("git_commit".to_owned(), Value::Str(commit)),
        (
            "git_dirty".to_owned(),
            dirty.map_or(Value::Null, Value::Bool),
        ),
    ]);
    println!("{}", Value::Obj(vec![("provenance".to_owned(), host)]));
    println!("{}", outcome.to_json()?);
    Ok(())
}

/// Fills the declared metrics a workload did not measure with 0 (a
/// layer it never calls), and rejects any metric it emitted that is not
/// declared for this mode.
fn complete(metrics: &mut Metrics, expected: &[(&str, &'static str)]) -> Result<(), String> {
    if let Some(extra) = metrics
        .names()
        .find(|name| !expected.iter().any(|(e, _)| e == name))
    {
        return Err(format!("metric {extra} is not declared for this mode"));
    }
    let present: Vec<String> = metrics.names().map(str::to_owned).collect();
    for &(name, unit) in expected {
        if !present.iter().any(|p| p == name) {
            metrics.set(name, 0.0, unit);
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
