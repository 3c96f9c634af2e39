//! Subcommand implementations.
//!
//! Each command is a plain function from parsed [`Args`] to
//! `Result<(), String>` writing human-readable output to the given
//! writer, so the test suite can run commands end to end against
//! in-memory buffers.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

use tagdist::cache::{run_static, Placement, RequestStream};
use tagdist::crawler::{
    crawl_parallel, crawl_parallel_stepwise, crawl_parallel_with_batches, recrawl, CrawlCheckpoint,
    CrawlConfig, CrawlRun, PlatformApi,
};
use tagdist::dataset::{
    binfmt, decode_any, merge, read_any, sample_stratified, sniff, tsv, write_binary, ColumnarRead,
    Dataset, DatasetFormat, Mmap,
};
use tagdist::geo::GeoDist;
use tagdist::geo::{world, TrafficModel};
use tagdist::obs::Recorder;
use tagdist::par::Pool;
use tagdist::reconstruct::{EpochSnapshot, IngestEngine, SnapshotCell};
use tagdist::tags::Predictor;
use tagdist::ytsim::{FaultProfile, FlakyPlatform, Platform, WorldConfig};
use tagdist::{markdown_report_obs, Study, StudyConfig};
use tagdist_serve::loadgen::{self, LoadConfig};
use tagdist_serve::query;
use tagdist_serve::server::{ServeState, Server, ServerConfig};
use tagdist_serve::signal;

use crate::args::Args;

/// Top-level usage text.
pub const USAGE: &str = "\
tagdist — reproduction of “From Views to Tags Distribution in Youtube”

USAGE:
  tagdist generate [--videos N] [--seed S] [--budget B]
                   [--fault PROFILE] [--fault-seed S] --out FILE
      Generate a synthetic platform, snowball-crawl it, save the raw
      dataset as TSV. --fault off|flaky|hostile injects transient
      platform faults; faults masked by the retry budget leave the
      dataset byte-identical.
  tagdist crawl [--videos N] [--seed S] [--budget B]
                [--fault PROFILE] [--fault-seed S]
                [--checkpoint FILE [--checkpoint-every L]]
                [--stop-after-levels L] [--resume FILE]
                [--failure-report FILE]
                [--ingest [--ingest-report FILE]] --out FILE
      Fault-tolerant crawl with checkpoint/resume. --checkpoint-every
      writes the checkpoint after every L BFS levels;
      --stop-after-levels suspends the crawl into the checkpoint
      (--out may be omitted: nothing is saved on suspension);
      --resume continues from a checkpoint (world, budget and fault
      parameters are restored from it) and yields a dataset
      byte-identical to an uninterrupted crawl. --failure-report
      writes the markdown fault ledger. --ingest streams each BFS
      level through the incremental ingest engine, publishing an
      epoch snapshot per batch; --ingest-report writes the final
      epoch's deterministic report (byte-identical to
      `tagdist ingest --cold` over the saved dataset).
  tagdist stats FILE
      §2 filtering report and corpus statistics of a saved dataset.
  tagdist tag FILE NAME
      Geographic profile of one tag in a saved dataset (Figs. 2-3).
  tagdist country FILE CODE
      Signature tags of one country (most viewed + highest lift).
  tagdist video FILE KEY
      Reconstructed per-country views of one video (the §3 inversion
      applied to a single popularity map).
  tagdist predict FILE TAG...
      E6-style audience prediction for a tag set alone — what a
      proactive cache would use for a new video with no view history.
  tagdist sample FILE N --out FILE [--seed S]
      Views-stratified subsample of a saved dataset.
  tagdist cache FILE [--requests N] [--capacity-pct P]
      Proactive-caching sweep over a saved dataset (tag-predictive vs
      geo-blind vs random placements).
  tagdist report [--videos N] [--seed S] --out FILE
                 [--metrics FILE] [--fault PROFILE] [--fault-seed S]
      Run the full study on the default world (120,000 videos, seed
      2011) and write the markdown report of every experiment, E1-E7e.
      Without world flags the output is the block EXPERIMENTS.md
      carries verbatim. With --metrics, record per-stage spans and
      counters, save them as JSON and print the summary table.
  tagdist recrawl FILE [--videos N] [--seed S] --out FILE
      Incrementally extend a saved crawl against a (grown) platform
      regenerated from the same seed; only new videos are fetched.
  tagdist merge FILE... --out FILE
      Merge several saved crawls, deduplicating by key and keeping the
      richest metadata per video.
  tagdist convert FILE --to FORMAT --out FILE
      Re-encode a saved dataset. --to tsv|bin selects the text or the
      binary columnar on-disk format; the input format is sniffed from
      the file's magic line, so either direction works. Converting a
      binary file to bin verifies its checksums and copies the bytes
      through without re-encoding. Every command that reads a dataset
      accepts both formats.
  tagdist ingest FILE [--batches N] [--cold] [--out FILE]
      Re-stream a saved dataset through the incremental ingest engine
      in N fixed-size batches (default 8), publishing an epoch
      snapshot per batch, and emit the final epoch's report — or, with
      --cold, rebuild the same report from scratch. A binary file
      streams straight from its map. The two reports
      are byte-identical for the same input: the incremental engine's
      headline guarantee, and what the CI incremental-oracle lane
      `cmp`s. Without --out the report prints to stdout.
  tagdist serve FILE [--addr HOST:PORT] [--watch]
                [--read-timeout-ms MS]
      Serve the dataset's epoch snapshot over HTTP/1.1. Routes:
      /healthz, /stats, /report, /tag/NAME, /country/CODE, /video/KEY,
      /predict/TAG[/TAG...], /metrics — every 200 body byte-identical
      to the matching offline command's output. --addr defaults to
      127.0.0.1:0 (ephemeral; the bound address is printed first).
      --watch re-sniffs FILE on modification and publishes the reload
      as a new epoch under live traffic — the single-process
      composition with `tagdist crawl`/`convert` rewriting FILE
      between runs (in-flight requests keep their pinned epoch).
      Replace FILE by writing a sibling and renaming it over FILE;
      rewriting it in place is not supported.
      SIGTERM/SIGINT stop the server and exit 0.
  tagdist bench-serve FILE --addr HOST:PORT [--requests N]
                      [--concurrency C] [--seed S] [--smoke]
                      [--dump DIR] [--summary FILE]
      Replay seeded load with Zipf-distributed tag popularity against
      a running `tagdist serve`, asserting every response body
      byte-identical to the offline answer rebuilt from FILE, and
      report p50/p99 latency + throughput. --smoke replays the fixed
      named query set once instead (optionally dumping each body to
      DIR/<name>.body for CI to cmp); --summary writes the JSON
      report. Exits nonzero on any transport or identity failure.
  tagdist help
      Show this message.
";

/// Dispatches a parsed command line.
///
/// # Errors
///
/// Returns a user-facing message on any failure (bad arguments, I/O,
/// malformed dataset files).
pub fn dispatch<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    match args.command.as_str() {
        "generate" => generate(args, out),
        "crawl" => crawl_cmd(args, out),
        "stats" => stats(args, out),
        "tag" => tag(args, out),
        "country" => country(args, out),
        "video" => video(args, out),
        "predict" => predict(args, out),
        "serve" => serve_cmd(args, out),
        "bench-serve" => bench_serve_cmd(args, out),
        "sample" => sample(args, out),
        "cache" => cache_sweep(args, out),
        "report" => report(args, out),
        "recrawl" => recrawl_cmd(args, out),
        "merge" => merge_cmd(args, out),
        "convert" => convert_cmd(args, out),
        "ingest" => ingest_cmd(args, out),
        "help" | "" => {
            writeln!(out, "{USAGE}").map_err(|e| e.to_string())?;
            Ok(())
        }
        other => Err(format!("unknown command {other:?}; try `tagdist help`")),
    }
}

fn load(path: &str) -> Result<Dataset, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    // The format (TSV or binary columnar) is sniffed from the magic.
    read_any(file).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// Cold-builds `path` as epoch 1 under `traffic`: the one build every
/// offline query, `ingest --cold`, `serve`, `bench-serve` and
/// `cache` answer from. The loader is [`query::load_clean`], the
/// same one the server's `--watch` reload uses, so the CLI and the
/// socket read identical state by construction. Every caller passes the
/// reference prior: without the generating platform, the CLI is in the
/// paper's exact situation and must use the Alexa-substitute prior.
fn cold_epoch(path: &str, traffic: &TrafficModel) -> Result<EpochSnapshot, String> {
    let clean = query::load_clean(path)?;
    EpochSnapshot::rebuild(1, clean, traffic.distribution())
        .map_err(|e| format!("reconstruction failed: {e}"))
}

fn save(dataset: &Dataset, path: &str) -> Result<(), String> {
    let mut file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    tsv::write(dataset, &mut file).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Resolves the `--fault` / `--fault-seed` flags into a profile.
fn fault_from_args(args: &Args) -> Result<FaultProfile, String> {
    let mut profile = FaultProfile::by_name(args.get("fault").unwrap_or("off"))?;
    if let Some(seed) = args.get("fault-seed") {
        let seed: u64 = seed
            .parse()
            .map_err(|_| "--fault-seed must be an integer".to_owned())?;
        profile.with_seed(seed);
    }
    Ok(profile)
}

fn generate<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    let out_path = args
        .get("out")
        .ok_or("generate needs --out FILE")?
        .to_owned();
    let mut world_cfg = WorldConfig::small();
    world_cfg.with_videos(args.get_usize("videos", world_cfg.videos)?);
    world_cfg.with_seed(args.get_u64("seed", world_cfg.seed)?);
    let fault = fault_from_args(args)?;
    let platform = Platform::generate(world_cfg);
    let mut crawl_cfg = CrawlConfig::default();
    crawl_cfg.with_budget(args.get_usize("budget", usize::MAX)?);
    let outcome = if fault.is_enabled() {
        let flaky = FlakyPlatform::new(&platform, fault);
        crawl_parallel(&flaky, &crawl_cfg)
    } else {
        crawl_parallel(&platform, &crawl_cfg)
    };
    save(&outcome.dataset, &out_path)?;
    writeln!(out, "{}", outcome.stats).map_err(|e| e.to_string())?;
    writeln!(out, "saved {} records to {out_path}", outcome.dataset.len())
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// The fault-tolerant crawl command: checkpointed, resumable,
/// fault-injectable.
fn crawl_cmd<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    let checkpoint_path = args.get("checkpoint").map(str::to_owned);
    let checkpoint_every = args.get_usize("checkpoint-every", 0)?;
    let stop_after = args
        .get("stop-after-levels")
        .map(|v| {
            v.parse::<usize>()
                .map_err(|_| "--stop-after-levels must be an integer".to_owned())
        })
        .transpose()?;
    let failure_report_path = args.get("failure-report").map(str::to_owned);
    let ingest_on = args.flag("ingest");
    let ingest_report_path = args.get("ingest-report").map(str::to_owned);
    if stop_after.is_some() && checkpoint_path.is_none() {
        return Err("--stop-after-levels needs --checkpoint FILE to suspend into".into());
    }
    if ingest_report_path.is_some() && !ingest_on {
        return Err("--ingest-report needs --ingest".into());
    }
    if ingest_on && (checkpoint_path.is_some() || stop_after.is_some() || checkpoint_every > 0) {
        return Err(
            "--ingest steps the crawl internally; it cannot combine with --checkpoint, \
             --checkpoint-every or --stop-after-levels (resuming with --resume is fine)"
                .into(),
        );
    }
    // A --stop-after-levels run suspends without writing a dataset, so
    // --out is only mandatory when the crawl can run to completion.
    let out_path = match args.get("out") {
        Some(path) => path.to_owned(),
        None if stop_after.is_some() => String::new(),
        None => return Err("crawl needs --out FILE".into()),
    };

    let resume = args
        .get("resume")
        .map(|path| {
            let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
            CrawlCheckpoint::read(file).map_err(|e| format!("cannot parse {path}: {e}"))
        })
        .transpose()?;

    // World, budget and fault parameters come from the checkpoint on
    // resume (the platform must be regenerated identically); from the
    // flags otherwise.
    let (videos, world_seed, budget, mut fault);
    if let Some(cp) = &resume {
        let meta = |key: &str| {
            cp.meta
                .get(key)
                .ok_or_else(|| format!("checkpoint is missing meta key {key:?}"))
        };
        videos = meta("world_videos")?
            .parse::<usize>()
            .map_err(|e| format!("bad world_videos in checkpoint: {e}"))?;
        world_seed = meta("world_seed")?
            .parse::<u64>()
            .map_err(|e| format!("bad world_seed in checkpoint: {e}"))?;
        let b = meta("budget")?;
        budget = if b == "unlimited" {
            usize::MAX
        } else {
            b.parse::<usize>()
                .map_err(|e| format!("bad budget in checkpoint: {e}"))?
        };
        fault = FaultProfile::by_name(meta("fault")?)?;
        let fault_seed = meta("fault_seed")?
            .parse::<u64>()
            .map_err(|e| format!("bad fault_seed in checkpoint: {e}"))?;
        fault.with_seed(fault_seed);
    } else {
        let defaults = WorldConfig::small();
        videos = args.get_usize("videos", defaults.videos)?;
        world_seed = args.get_u64("seed", defaults.seed)?;
        budget = args.get_usize("budget", usize::MAX)?;
        fault = fault_from_args(args)?;
    }

    let mut meta = BTreeMap::new();
    meta.insert("world_videos".to_owned(), videos.to_string());
    meta.insert("world_seed".to_owned(), world_seed.to_string());
    meta.insert(
        "budget".to_owned(),
        if budget == usize::MAX {
            "unlimited".to_owned()
        } else {
            budget.to_string()
        },
    );
    meta.insert(
        "fault".to_owned(),
        if fault.is_enabled() {
            args.get("fault").unwrap_or("flaky").to_owned()
        } else {
            "off".to_owned()
        },
    );
    meta.insert("fault_seed".to_owned(), fault.seed.to_string());
    if let Some(cp) = &resume {
        // Resume must not silently switch worlds: the stamped meta is
        // authoritative.
        meta.clone_from(&cp.meta);
    }

    let mut world_cfg = WorldConfig::small();
    world_cfg.with_videos(videos).with_seed(world_seed);
    let platform = Platform::generate(world_cfg);
    let flaky_holder;
    let api: &(dyn PlatformApi + Sync) = if fault.is_enabled() {
        flaky_holder = FlakyPlatform::new(&platform, fault);
        &flaky_holder
    } else {
        &platform
    };
    let mut crawl_cfg = CrawlConfig::default();
    crawl_cfg.with_budget(budget);

    let step = stop_after.or(if checkpoint_every > 0 {
        Some(checkpoint_every)
    } else {
        None
    });
    let mut pending = resume;

    if ingest_on {
        return crawl_ingest(
            api,
            &crawl_cfg,
            pending,
            &out_path,
            ingest_report_path.as_deref(),
            failure_report_path.as_deref(),
            out,
        );
    }

    let outcome = loop {
        match crawl_parallel_stepwise(api, &crawl_cfg, pending.take(), step) {
            CrawlRun::Complete(outcome) => break outcome,
            CrawlRun::Suspended(mut cp) => {
                cp.meta.clone_from(&meta);
                if let Some(path) = &checkpoint_path {
                    let mut file =
                        File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
                    cp.write(&mut file)
                        .map_err(|e| format!("cannot write {path}: {e}"))?;
                    writeln!(
                        out,
                        "checkpoint at depth {} ({} fetched) -> {path}",
                        cp.depth, cp.stats.fetched
                    )
                    .map_err(|e| e.to_string())?;
                }
                if stop_after.is_some() {
                    writeln!(out, "suspended; resume with --resume").map_err(|e| e.to_string())?;
                    return Ok(());
                }
                pending = Some(*cp);
            }
        }
    };

    save(&outcome.dataset, &out_path)?;
    writeln!(out, "{}", outcome.stats).map_err(|e| e.to_string())?;
    if let Some(path) = failure_report_path {
        std::fs::write(&path, outcome.stats.failure_report_markdown())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        writeln!(out, "wrote failure report to {path}").map_err(|e| e.to_string())?;
    }
    writeln!(out, "saved {} records to {out_path}", outcome.dataset.len())
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// The `crawl --ingest` streaming path: feeds each BFS level's new
/// videos through an [`IngestEngine`], publishing an epoch snapshot
/// per batch, then saves the raw dataset exactly as a plain crawl
/// would.
fn crawl_ingest<W: Write>(
    api: &(dyn PlatformApi + Sync),
    crawl_cfg: &CrawlConfig,
    resume: Option<CrawlCheckpoint>,
    out_path: &str,
    ingest_report_path: Option<&str>,
    failure_report_path: Option<&str>,
    out: &mut W,
) -> Result<(), String> {
    use std::fmt::Write as _;
    let traffic = TrafficModel::reference(world());
    let mut engine = IngestEngine::new(traffic.distribution().clone());
    // A resumed crawl's checkpoint holds everything already fetched;
    // apply it as the first batch so the engine catches up before the
    // crawl continues. Kill-mid-stream + resume thereby converges on
    // the exact state of an uninterrupted streamed crawl (the
    // robustness suite proves it byte for byte).
    if let Some(cp) = &resume {
        engine
            .apply(&cp.dataset)
            .map_err(|e| format!("reconstruction failed: {e}"))?;
        engine
            .publish()
            .map_err(|e| format!("publish failed: {e}"))?;
    }
    let mut apply_error = None;
    let mut progress = String::new();
    let outcome = crawl_parallel_with_batches(api, crawl_cfg, resume, |dataset, from| {
        if apply_error.is_some() {
            return;
        }
        let applied = engine
            .apply_from(dataset, from)
            .and_then(|delta| engine.publish().map(|snapshot| (delta, snapshot)));
        match applied {
            Ok((delta, snapshot)) => {
                let _ = writeln!(
                    progress,
                    "epoch {}: +{} videos ({} kept), {} kept total",
                    snapshot.epoch,
                    delta.records,
                    delta.kept,
                    engine.clean().kept()
                );
            }
            Err(e) => apply_error = Some(e),
        }
    });
    if let Some(e) = apply_error {
        return Err(format!("ingest failed mid-crawl: {e}"));
    }
    // Even a crawl that fetched nothing publishes one (empty) epoch.
    let snapshot = match engine.cell().load() {
        Some(snapshot) => snapshot,
        None => engine
            .publish()
            .map_err(|e| format!("publish failed: {e}"))?,
    };
    write!(out, "{progress}").map_err(|e| e.to_string())?;
    let stats = engine.stats();
    writeln!(
        out,
        "ingest: {} batches, {} epochs, {} rows touched, kept {} of {} crawled",
        stats.batches,
        engine.epoch(),
        stats.rows_touched,
        engine.clean().kept(),
        engine.clean().crawled()
    )
    .map_err(|e| e.to_string())?;

    save(&outcome.dataset, out_path)?;
    writeln!(out, "{}", outcome.stats).map_err(|e| e.to_string())?;
    if let Some(path) = failure_report_path {
        std::fs::write(path, outcome.stats.failure_report_markdown())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        writeln!(out, "wrote failure report to {path}").map_err(|e| e.to_string())?;
    }
    if let Some(path) = ingest_report_path {
        std::fs::write(
            path,
            query::ingest_report_body(&snapshot.clean, &snapshot.table),
        )
        .map_err(|e| format!("cannot write {path}: {e}"))?;
        writeln!(out, "wrote ingest report to {path}").map_err(|e| e.to_string())?;
    }
    writeln!(out, "saved {} records to {out_path}", outcome.dataset.len())
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// Re-streams a saved dataset through the incremental ingest engine in
/// fixed-size batches — or rebuilds the identical report cold — the
/// CLI face of the incremental-equivalence oracle.
fn ingest_cmd<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    let path = args.positional(0, "dataset file")?;
    let out_path = args.get("out").map(str::to_owned);
    let batches = args.get_usize("batches", 8)?;
    if batches == 0 {
        return Err("--batches must be at least 1".into());
    }
    let traffic = TrafficModel::reference(world());

    // Both paths render [`query::ingest_report_body`], the bytes the
    // server's `/report` route serves and the CI oracle lanes `cmp`.
    let report = if args.flag("cold") {
        let epoch = cold_epoch(path, &traffic)?;
        writeln!(
            out,
            "cold rebuild: kept {} of {} crawled",
            epoch.clean.len(),
            epoch.clean.report().crawled
        )
        .map_err(|e| e.to_string())?;
        query::ingest_report_body(&epoch.clean, &epoch.table)
    } else {
        let map = Mmap::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
        if sniff(&map) == Some(DatasetFormat::Binary) {
            // Stream the mapped file in place: no record decode.
            let view =
                binfmt::decode_borrowed(&map).map_err(|e| format!("cannot parse {path}: {e}"))?;
            stream_batches(&view, path, batches, &traffic, out)?
        } else {
            let dataset = decode_any(&map).map_err(|e| format!("cannot parse {path}: {e}"))?;
            stream_batches(&dataset, path, batches, &traffic, out)?
        }
    };

    match out_path {
        Some(p) => {
            std::fs::write(&p, &report).map_err(|e| format!("cannot write {p}: {e}"))?;
            writeln!(out, "wrote ingest report to {p}").map_err(|e| e.to_string())?;
        }
        None => write!(out, "{report}").map_err(|e| e.to_string())?,
    }
    Ok(())
}

/// Streams `src` through a fresh [`IngestEngine`] in `batches` equal
/// record ranges, publishing an epoch after each, and renders the last
/// epoch's report.
fn stream_batches<C: ColumnarRead, W: Write>(
    src: &C,
    path: &str,
    batches: usize,
    traffic: &TrafficModel,
    out: &mut W,
) -> Result<String, String> {
    if src.country_count() != traffic.distribution().len() {
        return Err(format!(
            "{path} covers {} countries, the reference world has {}",
            src.country_count(),
            traffic.distribution().len()
        ));
    }
    let mut engine = IngestEngine::new(traffic.distribution().clone());
    let total = src.len();
    let size = total.div_ceil(batches).max(1);
    let mut from = 0;
    while from < total {
        let to = (from + size).min(total);
        let delta = engine
            .apply_range(src, from, to)
            .map_err(|e| format!("reconstruction failed: {e}"))?;
        let snapshot = engine
            .publish()
            .map_err(|e| format!("publish failed: {e}"))?;
        writeln!(
            out,
            "epoch {}: applied records {from}..{to} ({} kept), {} kept total",
            snapshot.epoch,
            delta.kept,
            engine.clean().kept()
        )
        .map_err(|e| e.to_string())?;
        from = to;
    }
    // An empty dataset still publishes one (empty) epoch.
    let snapshot = match engine.cell().load() {
        Some(snapshot) => snapshot,
        None => engine
            .publish()
            .map_err(|e| format!("publish failed: {e}"))?,
    };
    writeln!(
        out,
        "ingest: {} batches, {} epochs, kept {} of {} crawled",
        engine.stats().batches,
        engine.epoch(),
        engine.clean().kept(),
        engine.clean().crawled()
    )
    .map_err(|e| e.to_string())?;
    Ok(query::ingest_report_body(&snapshot.clean, &snapshot.table))
}

fn stats<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    let clean = query::load_clean(args.positional(0, "dataset file")?)?;
    write!(out, "{}", query::stats_body(&clean)).map_err(|e| e.to_string())
}

fn tag<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    let path = args.positional(0, "dataset file")?;
    let name = args.positional(1, "tag name")?;
    let traffic = TrafficModel::reference(world());
    let epoch = cold_epoch(path, &traffic)?;
    let body = query::tag_body(&epoch.clean, &epoch.table, traffic.distribution(), name)
        .map_err(|e| e.to_string())?;
    write!(out, "{body}").map_err(|e| e.to_string())
}

fn country<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    let path = args.positional(0, "dataset file")?;
    let code = args.positional(1, "country code")?;
    let traffic = TrafficModel::reference(world());
    let epoch = cold_epoch(path, &traffic)?;
    let index = query::build_geo_index(&epoch.table, traffic.distribution());
    let body =
        query::country_body(&epoch.clean, &index, &traffic, code).map_err(|e| e.to_string())?;
    write!(out, "{body}").map_err(|e| e.to_string())
}

fn video<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    let path = args.positional(0, "dataset file")?;
    let key = args.positional(1, "video key")?;
    let epoch = cold_epoch(path, &TrafficModel::reference(world()))?;
    let pos = epoch
        .clean
        .position_of(key)
        .ok_or_else(|| query::QueryError::UnknownVideo(key.to_owned()).to_string())?;
    let body = query::video_body(&epoch.clean, &epoch.recon, pos).map_err(|e| e.to_string())?;
    write!(out, "{body}").map_err(|e| e.to_string())
}

fn predict<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    let path = args.positional(0, "dataset file")?;
    if args.positional.len() < 2 {
        return Err("predict needs at least one tag".into());
    }
    let names: Vec<&str> = args.positional[1..].iter().map(String::as_str).collect();
    let traffic = TrafficModel::reference(world());
    let epoch = cold_epoch(path, &traffic)?;
    let body = query::predict_body(&epoch.clean, &epoch.table, traffic.distribution(), &names)
        .map_err(|e| e.to_string())?;
    write!(out, "{body}").map_err(|e| e.to_string())
}

/// `tagdist serve`: publish the dataset as epoch 1 and serve until
/// SIGTERM/SIGINT (or a failed bind).
fn serve_cmd<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    let path = args.positional(0, "dataset file")?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:0");
    let traffic = TrafficModel::reference(world());
    let cell = Arc::new(SnapshotCell::new());
    cell.store(Arc::new(cold_epoch(path, &traffic)?));
    let config = ServerConfig {
        read_timeout_ms: args.get_u64("read-timeout-ms", 0)?,
        watch: args.flag("watch").then(|| path.to_owned()),
    };
    let server = Server::bind(addr, cell, traffic, config)?;
    let bound = server.local_addr()?;
    signal::install();
    writeln!(out, "serving {path} on http://{bound}/").map_err(|e| e.to_string())?;
    // The CI lane backgrounds this process and reads the port from the
    // log, so the address line must land before serving starts.
    out.flush().map_err(|e| e.to_string())?;
    server.run(&Pool::from_env(), signal::shutdown_flag())
}

/// `tagdist bench-serve`: replay load against a running server, with
/// the offline state rebuilt from the same file as the identity
/// oracle.
fn bench_serve_cmd<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    let path = args.positional(0, "dataset file")?;
    let addr = args
        .get("addr")
        .ok_or("bench-serve needs --addr HOST:PORT")?;
    let traffic = TrafficModel::reference(world());
    let state = ServeState::build(
        Arc::new(cold_epoch(path, &traffic)?),
        traffic.distribution(),
    );
    let cfg = LoadConfig {
        addr: addr.to_owned(),
        requests: args.get_u64("requests", 10_000)?,
        concurrency: args.get_usize("concurrency", 4)?,
        seed: args.get_u64("seed", 42)?,
        read_timeout_ms: args.get_u64("read-timeout-ms", 10_000)?,
    };
    if !loadgen::wait_ready(addr, 400, Duration::from_millis(25)) {
        return Err(format!("server at {addr} never answered /healthz"));
    }
    let report = if args.flag("smoke") {
        loadgen::run_smoke(&cfg, &state, &traffic, args.get("dump"))?
    } else {
        loadgen::run(&cfg, &state, &traffic)?
    };
    write!(out, "{}", report.summary()).map_err(|e| e.to_string())?;
    if let Some(p) = args.get("summary") {
        std::fs::write(p, report.to_json()).map_err(|e| format!("cannot write {p}: {e}"))?;
        writeln!(out, "wrote summary to {p}").map_err(|e| e.to_string())?;
    }
    if report.failures > 0 || report.identity_failures > 0 {
        return Err(format!(
            "{} transport failures, {} identity failures",
            report.failures, report.identity_failures
        ));
    }
    Ok(())
}

fn sample<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    let path = args.positional(0, "dataset file")?;
    let n: usize = args
        .positional(1, "sample size")?
        .parse()
        .map_err(|_| "sample size must be an integer".to_owned())?;
    let out_path = args.get("out").ok_or("sample needs --out FILE")?;
    let seed = args.get_u64("seed", 7)?;
    let dataset = load(path)?;
    let sampled = sample_stratified(&dataset, n, 10, seed);
    save(&sampled, out_path)?;
    writeln!(
        out,
        "sampled {} of {} records into {out_path}",
        sampled.len(),
        dataset.len()
    )
    .map_err(|e| e.to_string())?;
    Ok(())
}

fn cache_sweep<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    let path = args.positional(0, "dataset file")?;
    let requests = args.get_usize("requests", 60_000)?;
    let capacity_pct = args
        .get("capacity-pct")
        .map(|v| {
            v.parse::<f64>()
                .map_err(|_| "bad --capacity-pct".to_owned())
        })
        .transpose()?
        .unwrap_or(2.0);
    let traffic = TrafficModel::reference(world());
    let EpochSnapshot {
        clean,
        recon,
        table,
        ..
    } = cold_epoch(path, &traffic)?;
    if clean.is_empty() {
        return Err("no usable videos after filtering".into());
    }
    let predictor = Predictor::new(&table, traffic.distribution());

    // Demand is simulated from the reconstructed distributions — the
    // only geographic signal available to a file-based analysis.
    let dists: Vec<GeoDist> = (0..clean.len())
        .map(|p| {
            recon
                .distribution(p)
                .map_err(|e| format!("row {p} does not normalize: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let weights: Vec<f64> = clean.iter().map(|v| v.total_views as f64).collect();
    let stream = RequestStream::generate(&dists, &weights, requests, 2014);
    let predicted: Vec<GeoDist> = clean
        .iter()
        .enumerate()
        .map(|(pos, v)| predictor.predict(v.tags, recon.views(pos)))
        .collect();

    let countries = world().len();
    let capacity = ((clean.len() as f64) * capacity_pct / 100.0).ceil() as usize;
    writeln!(
        out,
        "{} videos, {requests} requests, capacity {capacity}/country ({capacity_pct}%)",
        clean.len()
    )
    .map_err(|e| e.to_string())?;
    for placement in [
        Placement::predictive("tag-proactive", countries, capacity, &predicted, &weights),
        Placement::geo_blind(countries, capacity, &weights),
        Placement::random(countries, clean.len(), capacity, 99),
    ] {
        writeln!(out, "{}", run_static(&placement, &stream)).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn report<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    let out_path = args.get("out").ok_or("report needs --out FILE")?;
    let metrics_path = args.get("metrics");
    let mut config = StudyConfig::default();
    config
        .world
        .with_videos(args.get_usize("videos", config.world.videos)?);
    config
        .world
        .with_seed(args.get_u64("seed", config.world.seed)?);
    config.fault = fault_from_args(args)?;
    let obs = if metrics_path.is_some() {
        Recorder::new()
    } else {
        Recorder::disabled()
    };
    let study = Study::try_run_with(config, &obs).map_err(|e| format!("study failed: {e}"))?;
    let markdown = markdown_report_obs(&study, &obs);
    std::fs::write(out_path, &markdown).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    writeln!(out, "wrote {} bytes to {out_path}", markdown.len()).map_err(|e| e.to_string())?;
    if let Some(metrics_path) = metrics_path {
        let metrics = obs.finish();
        std::fs::write(metrics_path, metrics.to_json())
            .map_err(|e| format!("cannot write {metrics_path}: {e}"))?;
        writeln!(out, "wrote metrics to {metrics_path}").map_err(|e| e.to_string())?;
        write!(out, "{}", metrics.summary()).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn recrawl_cmd<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    let path = args.positional(0, "dataset file")?;
    let out_path = args.get("out").ok_or("recrawl needs --out FILE")?;
    let existing = load(path)?;
    let mut world_cfg = WorldConfig::small();
    world_cfg.with_videos(args.get_usize("videos", world_cfg.videos)?);
    world_cfg.with_seed(args.get_u64("seed", world_cfg.seed)?);
    let platform = Platform::generate(world_cfg);
    let outcome = recrawl(&platform, &CrawlConfig::default(), &existing);
    save(&outcome.dataset, out_path)?;
    writeln!(
        out,
        "reused {} records, fetched {} new; saved {} to {out_path}",
        outcome.reused,
        outcome.newly_fetched,
        outcome.dataset.len()
    )
    .map_err(|e| e.to_string())?;
    Ok(())
}

fn merge_cmd<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    if args.positional.is_empty() {
        return Err("merge needs at least one dataset file".into());
    }
    let out_path = args.get("out").ok_or("merge needs --out FILE")?;
    let datasets = args
        .positional
        .iter()
        .map(|p| load(p))
        .collect::<Result<Vec<_>, _>>()?;
    let refs: Vec<&Dataset> = datasets.iter().collect();
    let merged = merge(&refs).map_err(|e| format!("merge failed: {e}"))?;
    save(&merged, out_path)?;
    writeln!(
        out,
        "merged {} files ({} records) into {out_path}",
        datasets.len(),
        merged.len()
    )
    .map_err(|e| e.to_string())?;
    Ok(())
}

fn convert_cmd<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    let path = args.positional(0, "dataset file")?;
    let out_path = args.get("out").ok_or("convert needs --out FILE")?;
    let format = match args.get("to").ok_or("convert needs --to tsv|bin")? {
        "tsv" => DatasetFormat::Tsv,
        "bin" => DatasetFormat::Binary,
        other => return Err(format!("unknown format {other:?}; --to takes tsv or bin")),
    };
    let map = Mmap::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    if format == DatasetFormat::Binary && sniff(&map) == Some(DatasetFormat::Binary) {
        // Already binary: validate the image in place (magic, section
        // table, checksums, section contents) and copy the bytes
        // through — no record decode, no re-encode, and the output is
        // byte-identical to the input.
        let view =
            binfmt::decode_borrowed(&map).map_err(|e| format!("cannot verify {path}: {e}"))?;
        std::fs::write(out_path, &map[..]).map_err(|e| format!("cannot write {out_path}: {e}"))?;
        writeln!(
            out,
            "verified {} records; copied binary image through to {out_path}",
            view.len()
        )
        .map_err(|e| e.to_string())?;
        return Ok(());
    }
    let dataset = decode_any(&map).map_err(|e| format!("cannot parse {path}: {e}"))?;
    let mut file = File::create(out_path).map_err(|e| format!("cannot create {out_path}: {e}"))?;
    match format {
        DatasetFormat::Tsv => tsv::write(&dataset, &mut file),
        DatasetFormat::Binary => write_binary(&dataset, &mut file),
    }
    .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    writeln!(
        out,
        "converted {} records to {} {out_path}",
        dataset.len(),
        match format {
            DatasetFormat::Tsv => "TSV",
            DatasetFormat::Binary => "binary",
        }
    )
    .map_err(|e| e.to_string())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(tokens: &[&str]) -> Result<String, String> {
        let args = Args::parse(tokens.iter().copied())?;
        let mut out = Vec::new();
        dispatch(&args, &mut out)?;
        Ok(String::from_utf8(out).expect("commands emit UTF-8"))
    }

    fn temp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("tagdist-cli-{}-{name}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn help_prints_usage() {
        let text = run(&["help"]).unwrap();
        assert!(text.contains("USAGE"));
        assert!(text.contains("generate"));
        let empty = run(&[]).unwrap();
        assert!(empty.contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors() {
        let err = run(&["frobnicate"]).unwrap_err();
        assert!(err.contains("unknown command"));
    }

    #[test]
    fn generate_stats_tag_sample_round_trip() {
        let crawl_path = temp("crawl.tsv");
        let sample_path = temp("sample.tsv");

        let text = run(&[
            "generate",
            "--videos",
            "1500",
            "--seed",
            "5",
            "--out",
            &crawl_path,
        ])
        .unwrap();
        assert!(text.contains("saved"), "{text}");

        let text = run(&["stats", &crawl_path]).unwrap();
        assert!(text.contains("crawled"), "{text}");
        assert!(text.contains("unique tags"), "{text}");

        let text = run(&["tag", &crawl_path, "pop"]).unwrap();
        assert!(text.contains("pop:"), "{text}");
        assert!(text.contains("JS(traffic)"), "{text}");

        let text = run(&["sample", &crawl_path, "200", "--out", &sample_path]).unwrap();
        assert!(text.contains("sampled 200"), "{text}");
        let text = run(&["stats", &sample_path]).unwrap();
        assert!(text.contains("crawled 200"), "{text}");

        std::fs::remove_file(&crawl_path).ok();
        std::fs::remove_file(&sample_path).ok();
    }

    #[test]
    fn tag_command_reports_missing_tags() {
        let crawl_path = temp("crawl2.tsv");
        run(&["generate", "--videos", "800", "--out", &crawl_path]).unwrap();
        let err = run(&["tag", &crawl_path, "no-such-tag-ever"]).unwrap_err();
        assert!(err.contains("does not occur"));
        std::fs::remove_file(&crawl_path).ok();
    }

    #[test]
    fn cache_sweep_runs_on_a_saved_dataset() {
        let crawl_path = temp("crawl4.tsv");
        run(&[
            "generate",
            "--videos",
            "1500",
            "--seed",
            "7",
            "--out",
            &crawl_path,
        ])
        .unwrap();
        let text = run(&[
            "cache",
            &crawl_path,
            "--requests",
            "5000",
            "--capacity-pct",
            "2",
        ])
        .unwrap();
        assert!(text.contains("tag-proactive"), "{text}");
        assert!(text.contains("geo-blind"), "{text}");
        assert!(text.contains("random"), "{text}");
        std::fs::remove_file(&crawl_path).ok();
    }

    #[test]
    fn report_writes_markdown() {
        let report_path = temp("report.md");
        let text = run(&["report", "--videos", "1500", "--out", &report_path]).unwrap();
        assert!(text.contains("wrote"), "{text}");
        let markdown = std::fs::read_to_string(&report_path).unwrap();
        assert!(markdown.contains("# tagdist study report"));
        assert!(markdown.contains("## E6"));
        std::fs::remove_file(&report_path).ok();
    }

    #[test]
    fn report_metrics_flag_writes_span_tree() {
        let report_path = temp("report-metrics.md");
        let metrics_path = temp("metrics.json");
        let text = run(&[
            "report",
            "--videos",
            "1500",
            "--out",
            &report_path,
            "--metrics",
            &metrics_path,
        ])
        .unwrap();
        assert!(text.contains("wrote metrics to"), "{text}");
        // The printed summary shows the span tree and counter tables.
        assert!(text.contains("study"), "{text}");
        assert!(text.contains("counters"), "{text}");
        let json = std::fs::read_to_string(&metrics_path).unwrap();
        let metrics = tagdist::obs::MetricsReport::from_json(&json).unwrap();
        let names = metrics.span_names();
        for stage in [
            "study",
            "generate",
            "crawl",
            "filter",
            "reconstruct",
            "aggregate",
            "report",
            "e6_prediction",
            "e7_caching",
        ] {
            assert!(names.contains(&stage), "missing span {stage:?}: {names:?}");
        }
        assert!(metrics.counters.contains_key("cache.requests"));
        assert!(metrics.counters.contains_key("crawl.fetched"));
        assert!(metrics.counters.contains_key("par.calls"));
        // Every report renders the caching sections.
        let markdown = std::fs::read_to_string(&report_path).unwrap();
        assert!(markdown.contains("## E7"));
        std::fs::remove_file(&report_path).ok();
        std::fs::remove_file(&metrics_path).ok();
    }

    #[test]
    fn missing_required_options_error_clearly() {
        assert!(run(&["generate"]).unwrap_err().contains("--out"));
        assert!(run(&["stats"]).unwrap_err().contains("dataset file"));
        assert!(run(&["sample", "x.tsv"])
            .unwrap_err()
            .contains("sample size"));
        assert!(run(&["report"]).unwrap_err().contains("--out"));
    }

    #[test]
    fn country_command_prints_signatures() {
        let crawl_path = temp("crawl3.tsv");
        run(&[
            "generate",
            "--videos",
            "1500",
            "--seed",
            "6",
            "--out",
            &crawl_path,
        ])
        .unwrap();
        let text = run(&["country", &crawl_path, "BR"]).unwrap();
        assert!(text.contains("Brazil"), "{text}");
        assert!(text.contains("signature tags"), "{text}");
        let err = run(&["country", &crawl_path, "XX"]).unwrap_err();
        assert!(err.contains("unknown country"));
        std::fs::remove_file(&crawl_path).ok();
    }

    #[test]
    fn recrawl_and_merge_commands_work() {
        let first = temp("inc1.tsv");
        let grown = temp("inc2.tsv");
        let merged = temp("merged.tsv");
        run(&[
            "generate", "--videos", "900", "--seed", "3", "--budget", "400", "--out", &first,
        ])
        .unwrap();
        let text = run(&[
            "recrawl", &first, "--videos", "900", "--seed", "3", "--out", &grown,
        ])
        .unwrap();
        assert!(text.contains("reused 400"), "{text}");
        let text = run(&["merge", &first, &grown, "--out", &merged]).unwrap();
        assert!(text.contains("merged 2 files"), "{text}");
        for p in [&first, &grown, &merged] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn convert_round_trips_between_formats() {
        let crawl_path = temp("conv.tsv");
        let bin_path = temp("conv.bin");
        let back_path = temp("conv-back.tsv");
        run(&[
            "generate",
            "--videos",
            "1200",
            "--seed",
            "9",
            "--out",
            &crawl_path,
        ])
        .unwrap();
        let text = run(&["convert", &crawl_path, "--to", "bin", "--out", &bin_path]).unwrap();
        assert!(text.contains("binary"), "{text}");
        // Every reading command sniffs the format: stats works on the
        // binary file and reports the same corpus.
        let from_tsv = run(&["stats", &crawl_path]).unwrap();
        let from_bin = run(&["stats", &bin_path]).unwrap();
        assert_eq!(from_tsv, from_bin);
        // Converting back to TSV reproduces the original bytes.
        run(&["convert", &bin_path, "--to", "tsv", "--out", &back_path]).unwrap();
        assert_eq!(
            std::fs::read(&crawl_path).unwrap(),
            std::fs::read(&back_path).unwrap(),
            "TSV -> bin -> TSV must be byte-identical"
        );
        let err = run(&["convert", &crawl_path, "--to", "xml", "--out", &back_path]).unwrap_err();
        assert!(err.contains("tsv or bin"), "{err}");
        for p in [&crawl_path, &bin_path, &back_path] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn convert_bin_to_bin_verifies_and_copies_through() {
        let crawl_path = temp("pass.tsv");
        let bin_path = temp("pass.bin");
        let copy_path = temp("pass-copy.bin");
        run(&[
            "generate",
            "--videos",
            "1000",
            "--seed",
            "17",
            "--out",
            &crawl_path,
        ])
        .unwrap();
        run(&["convert", &crawl_path, "--to", "bin", "--out", &bin_path]).unwrap();
        let text = run(&["convert", &bin_path, "--to", "bin", "--out", &copy_path]).unwrap();
        assert!(text.contains("copied binary image through"), "{text}");
        assert_eq!(
            std::fs::read(&bin_path).unwrap(),
            std::fs::read(&copy_path).unwrap(),
            "bin -> bin must be a byte-identical passthrough"
        );
        // The passthrough still validates: a corrupted payload byte
        // breaks a section checksum and the copy is refused.
        let mut bytes = std::fs::read(&bin_path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&bin_path, &bytes).unwrap();
        let err = run(&["convert", &bin_path, "--to", "bin", "--out", &copy_path]).unwrap_err();
        assert!(err.contains("cannot verify"), "{err}");
        for p in [&crawl_path, &bin_path, &copy_path] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn stats_agree_between_tsv_and_mmapped_binary() {
        // `stats` on a binary file runs the mmap + borrowed-decode +
        // columnar-filter path; on TSV it runs the record path. Both
        // must print the same report.
        let crawl_path = temp("mmap.tsv");
        let bin_path = temp("mmap.bin");
        run(&[
            "generate",
            "--videos",
            "1000",
            "--seed",
            "19",
            "--out",
            &crawl_path,
        ])
        .unwrap();
        run(&["convert", &crawl_path, "--to", "bin", "--out", &bin_path]).unwrap();
        assert_eq!(
            run(&["stats", &crawl_path]).unwrap(),
            run(&["stats", &bin_path]).unwrap()
        );
        assert_eq!(
            run(&["tag", &crawl_path, "pop"]).unwrap(),
            run(&["tag", &bin_path, "pop"]).unwrap()
        );
        for p in [&crawl_path, &bin_path] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn load_reports_unreadable_files() {
        let err = run(&["stats", "/nonexistent/nowhere.tsv"]).unwrap_err();
        assert!(err.contains("cannot open"));
    }

    #[test]
    fn crawl_with_masked_faults_matches_generate() {
        let clean = temp("clean.tsv");
        let faulty = temp("faulty.tsv");
        let report = temp("faults.md");
        run(&[
            "generate", "--videos", "900", "--seed", "11", "--out", &clean,
        ])
        .unwrap();
        let text = run(&[
            "crawl",
            "--videos",
            "900",
            "--seed",
            "11",
            "--fault",
            "flaky",
            "--failure-report",
            &report,
            "--out",
            &faulty,
        ])
        .unwrap();
        assert!(text.contains("saved"), "{text}");
        assert_eq!(
            std::fs::read(&clean).unwrap(),
            std::fs::read(&faulty).unwrap(),
            "masked faults must leave the dataset byte-identical"
        );
        let ledger = std::fs::read_to_string(&report).unwrap();
        assert!(ledger.starts_with("# Crawl failure report"), "{ledger}");
        for p in [&clean, &faulty, &report] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn crawl_suspends_and_resumes_byte_identically() {
        let whole = temp("whole.tsv");
        let resumed = temp("resumed.tsv");
        let ckpt = temp("crawl.ckpt");
        run(&["crawl", "--videos", "900", "--seed", "12", "--out", &whole]).unwrap();
        let text = run(&[
            "crawl",
            "--videos",
            "900",
            "--seed",
            "12",
            "--checkpoint",
            &ckpt,
            "--stop-after-levels",
            "2",
            "--out",
            &resumed,
        ])
        .unwrap();
        assert!(text.contains("suspended"), "{text}");
        assert!(
            !std::path::Path::new(&resumed).exists(),
            "suspension must not write the dataset"
        );
        // World/fault parameters come from the checkpoint, not flags.
        let text = run(&["crawl", "--resume", &ckpt, "--out", &resumed]).unwrap();
        assert!(text.contains("saved"), "{text}");
        assert_eq!(
            std::fs::read(&whole).unwrap(),
            std::fs::read(&resumed).unwrap(),
            "resumed crawl must be byte-identical to the uninterrupted one"
        );
        for p in [&whole, &resumed, &ckpt] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn crawl_periodic_checkpoints_do_not_change_the_result() {
        let plain = temp("plain.tsv");
        let stepped = temp("stepped.tsv");
        let ckpt = temp("periodic.ckpt");
        run(&["crawl", "--videos", "900", "--seed", "13", "--out", &plain]).unwrap();
        let text = run(&[
            "crawl",
            "--videos",
            "900",
            "--seed",
            "13",
            "--checkpoint",
            &ckpt,
            "--checkpoint-every",
            "1",
            "--out",
            &stepped,
        ])
        .unwrap();
        assert!(text.contains("checkpoint at depth"), "{text}");
        assert_eq!(
            std::fs::read(&plain).unwrap(),
            std::fs::read(&stepped).unwrap()
        );
        for p in [&plain, &stepped, &ckpt] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn crawl_flag_validation() {
        assert!(run(&["crawl"]).unwrap_err().contains("--out"));
        let err = run(&[
            "crawl",
            "--stop-after-levels",
            "1",
            "--out",
            "/tmp/never.tsv",
        ])
        .unwrap_err();
        assert!(err.contains("--checkpoint"), "{err}");
        let err = run(&["generate", "--fault", "bogus", "--out", "/tmp/never.tsv"]).unwrap_err();
        assert!(err.contains("bogus"), "{err}");
    }

    /// The CLI face of the rebuild oracle: streaming a saved dataset in
    /// any number of batches writes the byte-identical report a cold
    /// rebuild writes.
    #[test]
    fn ingest_report_matches_cold_rebuild_byte_for_byte() {
        let data = temp("ing.tsv");
        let cold = temp("ing-cold.txt");
        let inc = temp("ing-inc.txt");
        run(&[
            "generate", "--videos", "900", "--seed", "21", "--out", &data,
        ])
        .unwrap();
        run(&["ingest", &data, "--cold", "--out", &cold]).unwrap();
        for batches in ["1", "3", "8"] {
            let text = run(&["ingest", &data, "--batches", batches, "--out", &inc]).unwrap();
            assert!(text.contains("epoch 1:"), "{text}");
            assert_eq!(
                std::fs::read(&cold).unwrap(),
                std::fs::read(&inc).unwrap(),
                "{batches}-batch ingest must equal the cold rebuild"
            );
        }
        for p in [&data, &cold, &inc] {
            std::fs::remove_file(p).ok();
        }
    }

    /// `crawl --ingest` publishes per-level epochs whose final report
    /// equals an offline cold rebuild of the dataset the crawl saved.
    #[test]
    fn crawl_ingest_matches_offline_cold_rebuild() {
        let data = temp("crawl-ing.tsv");
        let live = temp("crawl-ing-live.txt");
        let cold = temp("crawl-ing-cold.txt");
        let text = run(&[
            "crawl",
            "--videos",
            "900",
            "--seed",
            "22",
            "--ingest",
            "--ingest-report",
            &live,
            "--out",
            &data,
        ])
        .unwrap();
        assert!(text.contains("epoch 1:"), "{text}");
        assert!(text.contains("ingest:"), "{text}");
        run(&["ingest", &data, "--cold", "--out", &cold]).unwrap();
        assert_eq!(
            std::fs::read(&live).unwrap(),
            std::fs::read(&cold).unwrap(),
            "mid-crawl ingest state must equal the cold rebuild"
        );
        for p in [&data, &live, &cold] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn ingest_flag_validation() {
        let err = run(&[
            "crawl",
            "--ingest",
            "--checkpoint",
            "/tmp/never.ckpt",
            "--out",
            "/tmp/never.tsv",
        ])
        .unwrap_err();
        assert!(err.contains("--ingest"), "{err}");
        let err = run(&[
            "crawl",
            "--ingest-report",
            "/tmp/never.txt",
            "--out",
            "/tmp/never.tsv",
        ])
        .unwrap_err();
        assert!(err.contains("--ingest"), "{err}");
        let err = run(&["ingest", "/tmp/never.tsv", "--batches", "0"]).unwrap_err();
        assert!(err.contains("--batches"), "{err}");
    }

    /// Regression (PR 9): an empty dataset must round-trip through
    /// convert in both directions and through the delta path without
    /// panicking.
    #[test]
    fn empty_dataset_survives_convert_and_ingest() {
        use tagdist::dataset::{tsv, DatasetBuilder};
        let empty = temp("empty.tsv");
        let bin = temp("empty.bin");
        let back = temp("empty-back.tsv");
        let cold = temp("empty-cold.txt");
        let inc = temp("empty-inc.txt");
        let cc = tagdist::geo::world().len();
        let mut file = std::fs::File::create(&empty).unwrap();
        tsv::write(&DatasetBuilder::new(cc).build(), &mut file).unwrap();
        drop(file);
        run(&["convert", &empty, "--to", "bin", "--out", &bin]).unwrap();
        run(&["convert", &bin, "--to", "tsv", "--out", &back]).unwrap();
        assert_eq!(
            std::fs::read(&empty).unwrap(),
            std::fs::read(&back).unwrap(),
            "empty TSV -> bin -> TSV must be byte-identical"
        );
        let text = run(&["ingest", &empty, "--out", &inc]).unwrap();
        assert!(
            text.contains("0 epochs") || text.contains("1 epochs"),
            "{text}"
        );
        run(&["ingest", &bin, "--cold", "--out", &cold]).unwrap();
        assert_eq!(
            std::fs::read(&cold).unwrap(),
            std::fs::read(&inc).unwrap(),
            "empty ingest must equal the empty cold rebuild"
        );
        for p in [&empty, &bin, &back, &cold, &inc] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn video_and_predict_commands_answer_offline() {
        let crawl_path = temp("vp.tsv");
        run(&[
            "generate",
            "--videos",
            "1200",
            "--seed",
            "23",
            "--out",
            &crawl_path,
        ])
        .unwrap();
        let clean = query::load_clean(&crawl_path).unwrap();
        let key = clean.key_of(0).to_owned();
        let text = run(&["video", &crawl_path, &key]).unwrap();
        assert!(text.contains("reconstructed views by country:"), "{text}");
        assert!(text.starts_with(&key), "{text}");
        let err = run(&["video", &crawl_path, "no-such-key"]).unwrap_err();
        assert!(err.contains("not in the filtered dataset"), "{err}");
        let text = run(&["predict", &crawl_path, "pop"]).unwrap();
        assert!(text.starts_with("predicted audience for 1 tags:"), "{text}");
        let err = run(&["predict", &crawl_path]).unwrap_err();
        assert!(err.contains("at least one tag"), "{err}");
        std::fs::remove_file(&crawl_path).ok();
    }

    /// A `Write` sink the test can read while another thread (the
    /// serve loop) keeps writing.
    #[derive(Clone, Default)]
    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// End to end through the real subcommands: `serve` boots on an
    /// ephemeral port, `bench-serve --smoke` replays the fixed set and
    /// dumps bodies that match the offline commands byte for byte, a
    /// Zipf load run asserts identity on every response, and setting
    /// the shutdown flag drains the loop to a clean exit.
    #[test]
    fn serve_and_bench_serve_round_trip() {
        let crawl_path = temp("serve.tsv");
        run(&[
            "generate",
            "--videos",
            "1200",
            "--seed",
            "29",
            "--out",
            &crawl_path,
        ])
        .unwrap();
        let buf = SharedBuf::default();
        let mut writer = buf.clone();
        let path = crawl_path.clone();
        let handle = std::thread::spawn(move || {
            let args = Args::parse(["serve", path.as_str(), "--addr", "127.0.0.1:0"]).unwrap();
            dispatch(&args, &mut writer)
        });
        let mut addr = None;
        for _ in 0..1_000 {
            let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
            if let Some(a) = text
                .split("http://")
                .nth(1)
                .and_then(|r| r.split('/').next())
            {
                addr = Some(a.to_owned());
                break;
            }
            if handle.is_finished() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let addr = addr.expect("serve never printed its bound address");

        let dump = std::env::temp_dir().join(format!("tagdist-cli-smoke-{}", std::process::id()));
        std::fs::create_dir_all(&dump).unwrap();
        let text = run(&[
            "bench-serve",
            &crawl_path,
            "--addr",
            &addr,
            "--smoke",
            "--dump",
            dump.to_str().unwrap(),
        ])
        .unwrap();
        assert!(text.contains("0 identity failures"), "{text}");
        // The dumped bodies are the offline commands' bytes — the same
        // comparison the CI serve-oracle lane `cmp`s across processes.
        let offline = run(&["stats", &crawl_path]).unwrap();
        let dumped = std::fs::read_to_string(dump.join("stats.body")).unwrap();
        assert_eq!(offline, dumped);
        let offline = run(&["country", &crawl_path, "BR"]).unwrap();
        let dumped = std::fs::read_to_string(dump.join("country_BR.body")).unwrap();
        assert_eq!(offline, dumped);

        let summary = temp("bench-serve.json");
        let text = run(&[
            "bench-serve",
            &crawl_path,
            "--addr",
            &addr,
            "--requests",
            "200",
            "--concurrency",
            "2",
            "--seed",
            "5",
            "--summary",
            &summary,
        ])
        .unwrap();
        assert!(
            text.contains("200 requests, 0 failures, 0 identity failures"),
            "{text}"
        );
        let json = std::fs::read_to_string(&summary).unwrap();
        assert!(json.contains("\"identity_failures\": 0"), "{json}");

        signal::shutdown_flag().store(true, std::sync::atomic::Ordering::SeqCst);
        handle.join().unwrap().unwrap();
        signal::shutdown_flag().store(false, std::sync::atomic::Ordering::SeqCst);
        std::fs::remove_dir_all(&dump).ok();
        std::fs::remove_file(&summary).ok();
        std::fs::remove_file(&crawl_path).ok();
    }

    /// Regression (PR 9): a batch whose every record is filtered out —
    /// tags interned but never carried — must flow through the delta
    /// path and match the cold rebuild, dangling references included.
    #[test]
    fn dangling_tag_batches_survive_the_delta_path() {
        use tagdist::dataset::{tsv, DatasetBuilder, RawPopularity};
        let cc = tagdist::geo::world().len();
        let mut b = DatasetBuilder::new(cc);
        b.push_video(
            "ghost1",
            10,
            &["phantom", "specter"],
            RawPopularity::Missing,
        );
        b.push_video("ghost2", 20, &[], RawPopularity::decode(vec![1; cc], cc));
        b.push_video(
            "ghost3",
            30,
            &["phantom"],
            RawPopularity::decode(vec![0; cc], cc),
        );
        let data = temp("ghost.tsv");
        let mut file = std::fs::File::create(&data).unwrap();
        tsv::write(&b.build(), &mut file).unwrap();
        drop(file);

        let cold = temp("ghost-cold.txt");
        let inc = temp("ghost-inc.txt");
        run(&["ingest", &data, "--cold", "--out", &cold]).unwrap();
        let text = run(&["ingest", &data, "--batches", "2", "--out", &inc]).unwrap();
        assert!(text.contains("kept 0 of 3 crawled"), "{text}");
        assert_eq!(
            std::fs::read(&cold).unwrap(),
            std::fs::read(&inc).unwrap(),
            "dangling-tag batches must equal the cold rebuild"
        );
        for p in [&data, &cold, &inc] {
            std::fs::remove_file(p).ok();
        }
    }
}
