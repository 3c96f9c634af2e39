//! `bench-report` — the deterministic smoke-counter report that
//! `cargo xtask bench-gate` regresses against `bench-baseline.json`.
//!
//! Crawls and filters the tiny test world, then runs one
//! single-threaded instrumented pass through the pipeline — columnar
//! codec, both filter paths, mmap load, a fault-injected crawl,
//! reconstruction, aggregation, E6 evaluation, a three-batch
//! incremental ingest and an in-process server answering the smoke
//! query set — counting heap allocations per stage through a counting
//! global allocator. Every stage's output is asserted against its
//! oracle on the way (record = columnar filter, streamed = cold epoch,
//! served = offline bytes). The report is `{"metrics": …}`: the
//! `tagdist-obs` span tree plus the deterministic counters the gate
//! reads.
//!
//! Writes `bench-smoke.json` by default; a positional argument
//! overrides the output path. Invoke as `cargo xtask bench-report` or
//! directly: `cargo run --release -p tagdist-bench --bin bench-report`.
//! Timing lives in the benchmark of record (`perfbench/`, see
//! `BENCHMARK.json`), not here.

#![allow(
    unsafe_code,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::missing_panics_doc,
    missing_docs
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use tagdist::crawler::{crawl_parallel, crawl_parallel_obs, CrawlConfig};
use tagdist::dataset::{
    binfmt, filter, filter_columnar, write_binary, CleanDataset, ColumnarDataset, ColumnarRead,
    Dataset, Mmap,
};
use tagdist::geo::{GeoDist, TrafficModel};
use tagdist::obs::{MetricsReport, Recorder};
use tagdist::par::{Pool, THREADS_ENV};
use tagdist::reconstruct::{
    EpochSnapshot, IngestEngine, Reconstruction, SnapshotCell, TagViewTable,
};
use tagdist::tags::PredictionEvaluation;
use tagdist::ytsim::{FaultProfile, FlakyPlatform, Platform, WorldConfig};
use tagdist_serve::loadgen::{self, LoadConfig};
use tagdist_serve::server::{ServeState, Server, ServerConfig};

/// Counting allocator: every `alloc`/`alloc_zeroed`/`realloc` bumps a
/// relaxed atomic before delegating to the system allocator. Bench
/// binary only — the library crates stay `#![forbid(unsafe_code)]`.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the relaxed counter is a
// statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// An in-process `tagdist serve` instance on an ephemeral port,
/// running on a background thread with one worker.
struct LiveServer {
    addr: String,
    stats: Arc<tagdist_serve::server::ServeStats>,
    stop: Arc<AtomicBool>,
    worker: std::thread::JoinHandle<Result<(), String>>,
}

/// Publishes `snapshot` as epoch 1 and boots the server over it.
fn boot_server(snapshot: Arc<EpochSnapshot>, traffic: TrafficModel) -> LiveServer {
    let cell = Arc::new(SnapshotCell::new());
    cell.store(snapshot);
    let server = Server::bind("127.0.0.1:0", cell, traffic, ServerConfig::default())
        .expect("server binds an ephemeral port");
    let addr = server.local_addr().expect("bound address").to_string();
    let stats = server.stats();
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let worker = std::thread::spawn(move || {
        let pool = Pool::new(1);
        server.run(&pool, &flag)
    });
    LiveServer {
        addr,
        stats,
        stop,
        worker,
    }
}

impl LiveServer {
    /// Signals shutdown and joins the server thread, asserting it exits
    /// cleanly (the same contract the CI lane checks via SIGTERM).
    fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        self.worker
            .join()
            .expect("server thread joins")
            .expect("server exits cleanly");
    }
}

/// One instrumented single-threaded pass through the pipeline,
/// recorded through `tagdist-obs`. Pinned at one worker so the
/// allocation counters (`alloc.*`) are deterministic — this is the
/// subtree `cargo xtask bench-gate` compares against the checked-in
/// baseline.
///
/// Also runs a fault-injected crawl (seeded `flaky` profile) through
/// the instrumented driver so the retry/breaker/throttle counters
/// (`crawl.retries`, `crawl.breaker_trips`, `crawl.*_wait_ms`, …) are
/// part of the gated subtree. The crawl sits outside every alloc
/// window — its counters are exact functions of the fault pattern,
/// not of allocator behaviour.
fn instrumented_pass(
    platform: &Platform,
    raw: &Dataset,
    clean: &CleanDataset,
    traffic: &GeoDist,
) -> MetricsReport {
    std::env::set_var(THREADS_ENV, "1");
    let obs = Recorder::new();
    {
        let root = obs.span("bench");
        // The columnar codec, gated end to end: encode allocations,
        // decode allocations (O(sections) by construction) and the
        // `dataset.*` section-size gauges are all exact functions of
        // the seeded corpus.
        let columnar = ColumnarDataset::from_dataset(raw).expect("corpus fits bin v1 limits");
        columnar.record_gauges(&obs);
        let before = allocation_count();
        let mut bin = Vec::new();
        write_binary(raw, &mut bin).expect("binary encode");
        obs.add("alloc.dataset_bin_encode", allocation_count() - before);
        let before = allocation_count();
        let decoded = binfmt::decode(&bin).expect("binary decode");
        obs.add("alloc.dataset_bin_decode", allocation_count() - before);
        assert_eq!(decoded.len(), raw.len());
        // The two filter paths, gated against each other: the record
        // path pays record materialization, the columnar path filters
        // the borrowed sections in place. Outputs must agree exactly.
        let before = allocation_count();
        let clean_record = filter(&decoded.to_dataset());
        obs.add("alloc.filter_record", allocation_count() - before);
        let view = binfmt::decode_borrowed(&bin).expect("binary decode");
        let before = allocation_count();
        let clean_columnar = filter_columnar(&view);
        obs.add("alloc.filter_columnar", allocation_count() - before);
        assert_eq!(clean_record, clean_columnar);
        assert_eq!(&clean_record, clean);
        // The zero-copy load, gated end to end: a mapped file decodes
        // borrowed with O(sections) heap traffic, and the mapped size
        // is an exact function of the seeded corpus.
        let path =
            std::env::temp_dir().join(format!("tagdist-bench-{}-obs.bin", std::process::id()));
        std::fs::write(&path, &bin).expect("write bin corpus");
        let before = allocation_count();
        let map = Mmap::open(&path).expect("map bin corpus");
        let mapped = binfmt::decode_borrowed(&map).expect("binary decode");
        obs.add("alloc.dataset_mmap_load", allocation_count() - before);
        obs.add("dataset.mmap_bytes", map.len() as u64);
        obs.add("dataset.mmap_videos", mapped.len() as u64);
        drop(map);
        std::fs::remove_file(&path).expect("remove bin corpus");
        let mut fault = FaultProfile::flaky();
        fault.with_seed(0xBE7C_AA17);
        let flaky = FlakyPlatform::new(platform, fault);
        let faulty = crawl_parallel_obs(&flaky, &CrawlConfig::default(), &root);
        assert_eq!(
            faulty.stats.exhausted_retries, 0,
            "the flaky profile must stay within the retry budget"
        );
        let before = allocation_count();
        let recon =
            Reconstruction::compute_obs(clean, traffic, &root).expect("corpus carries views");
        obs.add("alloc.reconstruct_compute", allocation_count() - before);
        let before = allocation_count();
        let table = TagViewTable::aggregate_obs(clean, &recon, &root);
        obs.add("alloc.tag_aggregate", allocation_count() - before);
        let before = allocation_count();
        let _eval = PredictionEvaluation::evaluate_obs(clean, &recon, &table, traffic, &root);
        obs.add("alloc.e6_evaluate", allocation_count() - before);
        // The incremental ingest engine, gated end to end: stream the
        // raw corpus in three batches and record the deterministic
        // `ingest.*` counters (batches, rows touched, epoch flips are
        // exact functions of the seeded corpus). The final epoch must
        // replay the cold filter exactly.
        let before = allocation_count();
        let mut engine = IngestEngine::new(traffic.clone());
        let step = raw.len().div_ceil(3).max(1);
        let mut from = 0;
        while from < raw.len() {
            let to = (from + step).min(raw.len());
            engine.apply_range(raw, from, to).expect("batch applies");
            engine.publish().expect("epoch publishes");
            from = to;
        }
        engine.record_obs(&root);
        obs.add("alloc.incremental_ingest", allocation_count() - before);
        let streamed = engine.cell().load().expect("epochs published");
        assert_eq!(
            &streamed.clean, clean,
            "streamed clean state must equal the cold filter"
        );
        assert_eq!(
            streamed.table, table,
            "streamed aggregates must equal the cold table"
        );
        // The serve layer, gated end to end: an in-process server over
        // the epoch snapshot answers the fixed smoke query set, every
        // response byte-compared against the offline renderers. The
        // resulting `serve.*` counters are exact functions of the
        // seeded corpus — six `Connection: close` requests, no Date
        // header, so connections, requests, pins and bytes written
        // never vary across runs or hosts.
        let model = TrafficModel::from_distribution(traffic.clone());
        let snapshot = Arc::new(
            EpochSnapshot::rebuild(1, clean_columnar, traffic).expect("snapshot rebuilds"),
        );
        let state = ServeState::build(Arc::clone(&snapshot), traffic);
        let live = boot_server(snapshot, model.clone());
        let cfg = LoadConfig {
            addr: live.addr.clone(),
            ..LoadConfig::default()
        };
        let stats = Arc::clone(&live.stats);
        let smoke = loadgen::run_smoke(&cfg, &state, &model, None).expect("smoke replay completes");
        live.shutdown();
        assert_eq!(smoke.identity_failures, 0, "served bytes != offline bytes");
        stats.record_obs(&root);
    }
    std::env::remove_var(THREADS_ENV);
    obs.finish()
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "bench-smoke.json".to_owned());

    // Shared setup, outside every alloc window: the tiny test world,
    // crawled and filtered exactly as `Study::try_run` does.
    let platform = Platform::generate(WorldConfig::tiny());
    let outcome = crawl_parallel(&platform, &CrawlConfig::default());
    let clean = filter(&outcome.dataset);
    let traffic = platform.true_traffic();
    eprintln!(
        "corpus ready: {} crawled, {} filtered, {} tags",
        outcome.stats.fetched,
        clean.len(),
        clean.tags().len()
    );

    let metrics = instrumented_pass(&platform, &outcome.dataset, &clean, traffic);
    eprintln!(
        "instrumented pass: {} spans, {} deterministic counters",
        metrics.spans.len(),
        metrics.counters.len()
    );

    let json = format!("{{\"metrics\": {}}}\n", metrics.to_json());
    std::fs::write(&out_path, json).expect("write benchmark report");
    eprintln!("wrote {out_path}");
}
