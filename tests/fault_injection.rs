//! Fault-injection matrix: the crawler must absorb transient platform
//! faults without losing determinism, and degrade gracefully when the
//! fault rate exceeds the retry budget.
//!
//! The CI fault-matrix job runs this suite under
//! `TAGDIST_FAULT_PROFILE=off|flaky|hostile`; the env-driven tests
//! pick the profile up through [`FaultProfile::from_env`], so one
//! binary covers all three columns. Every run writes
//! `target/fault-report-<profile>.md` — uploaded as an artifact when
//! the job fails.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp,
    clippy::missing_panics_doc,
    missing_docs
)]

use tagdist::crawler::{crawl_parallel, CrawlConfig, CrawlStats};
use tagdist::dataset::tsv;
use tagdist::ytsim::{FaultProfile, FlakyPlatform, Platform, WorldConfig};
use tagdist::{markdown_report, Study, StudyConfig};

fn platform(videos: usize, seed: u64) -> Platform {
    let mut cfg = WorldConfig::tiny();
    cfg.with_videos(videos).with_seed(seed);
    Platform::generate(cfg)
}

fn crawl_with(profile: FaultProfile, p: &Platform, threads: usize) -> (Vec<u8>, CrawlStats) {
    let mut cfg = CrawlConfig::default();
    cfg.with_threads(threads);
    let outcome = if profile.is_enabled() {
        let flaky = FlakyPlatform::new(p, profile);
        crawl_parallel(&flaky, &cfg)
    } else {
        crawl_parallel(p, &cfg)
    };
    let mut bytes = Vec::new();
    tsv::write(&outcome.dataset, &mut bytes).unwrap();
    (bytes, outcome.stats)
}

/// The name the active profile runs under (the CI matrix column).
fn profile_name() -> String {
    std::env::var(tagdist::ytsim::FAULT_PROFILE_ENV).unwrap_or_else(|_| "off".to_owned())
}

/// The matrix entry point: crawl under the env-selected profile at
/// several thread counts; the crawl must never panic, its stats must
/// be identical across thread counts, and the dataset bytes must not
/// depend on the worker count. Always leaves
/// `target/fault-report-<profile>.md` behind for the CI artifact.
#[test]
fn env_profile_crawl_is_deterministic_across_threads() {
    let profile = FaultProfile::from_env().expect("valid TAGDIST_FAULT_PROFILE");
    let p = platform(1_200, 42);

    let (reference_bytes, reference_stats) = crawl_with(profile, &p, 1);

    // Write the failure report before asserting, so a red matrix job
    // still uploads the fault ledger.
    let report_path = format!("target/fault-report-{}.md", profile_name());
    std::fs::create_dir_all("target").ok();
    std::fs::write(&report_path, reference_stats.failure_report_markdown()).unwrap();

    for threads in [2, 8] {
        let (bytes, stats) = crawl_with(profile, &p, threads);
        assert_eq!(
            stats,
            reference_stats,
            "stats drifted at {threads} threads under profile {}",
            profile_name()
        );
        assert_eq!(
            bytes, reference_bytes,
            "dataset bytes drifted at {threads} threads"
        );
    }
    // Graceful degradation: every failed fetch is classified.
    assert_eq!(
        reference_stats.failed_fetches,
        reference_stats.dangling_references + reference_stats.exhausted_retries
    );
    if profile.is_enabled() {
        assert!(
            reference_stats.transient_faults() > 0,
            "an enabled profile must inject faults"
        );
    }
}

/// Faults that resolve within the retry budget are *masked*: the
/// dataset is byte-identical to a fault-free crawl, only the fault
/// ledger differs.
#[test]
fn masked_faults_leave_the_dataset_byte_identical() {
    let p = platform(1_000, 7);
    let (clean_bytes, clean_stats) = crawl_with(FaultProfile::off(), &p, 4);
    // flaky: max 3 faults per key, retry budget 6 — always masked.
    let (flaky_bytes, flaky_stats) = crawl_with(FaultProfile::flaky(), &p, 4);
    assert_eq!(clean_bytes, flaky_bytes);
    assert_eq!(flaky_stats.exhausted_retries, 0);
    assert!(flaky_stats.retries > 0);
    assert_eq!(clean_stats.fetched, flaky_stats.fetched);
    assert_eq!(clean_stats.per_depth, flaky_stats.per_depth);
}

/// The end-to-end acceptance criterion: a full study under a masked
/// fault profile renders a markdown report byte-identical to the
/// fault-free study.
#[test]
fn masked_faults_leave_the_study_report_byte_identical() {
    let mut cfg = StudyConfig::tiny();
    cfg.world.with_videos(900);
    let clean = Study::run(cfg.clone());
    cfg.fault = FaultProfile::flaky();
    let faulty = Study::run(cfg);
    assert!(faulty.crawl_stats().retries > 0, "faults must be injected");
    assert_eq!(
        markdown_report(&clean),
        markdown_report(&faulty),
        "masked faults must not change the report"
    );
}

/// Above the retry budget the crawl degrades deterministically:
/// videos are skipped and counted, never a panic, and repeated runs
/// agree exactly.
#[test]
fn hostile_profile_degrades_deterministically() {
    let p = platform(1_200, 42);
    // hostile injects up to 9 consecutive faults per key; the default
    // retry budget of 6 attempts cannot always mask that.
    let (bytes_a, stats_a) = crawl_with(FaultProfile::hostile(), &p, 4);
    let (bytes_b, stats_b) = crawl_with(FaultProfile::hostile(), &p, 4);
    assert_eq!(stats_a, stats_b, "hostile runs must be reproducible");
    assert_eq!(bytes_a, bytes_b);
    assert!(stats_a.exhausted_retries > 0, "hostile must exceed budget");
    assert!(stats_a.breaker_trips > 0 || stats_a.total_wait_ms() > 0);
    assert_eq!(
        stats_a.failed_fetches,
        stats_a.dangling_references + stats_a.exhausted_retries
    );
}

/// The fault pattern is a pure function of the profile seed.
#[test]
fn fault_draws_are_seeded() {
    let p = platform(800, 5);
    let (_, base) = crawl_with(FaultProfile::flaky(), &p, 2);
    let (_, same) = crawl_with(FaultProfile::flaky(), &p, 2);
    assert_eq!(base, same, "same seed, same faults");

    let mut reseeded = FaultProfile::flaky();
    reseeded.with_seed(0xDEAD_BEEF);
    let (bytes, other) = crawl_with(reseeded, &p, 2);
    assert_ne!(
        (
            other.retries,
            other.transient_faults(),
            other.backoff_wait_ms
        ),
        (base.retries, base.transient_faults(), base.backoff_wait_ms),
        "a different seed must produce a different fault pattern"
    );
    // …but never a different dataset, since flaky faults stay masked.
    let (clean_bytes, _) = crawl_with(FaultProfile::off(), &p, 2);
    assert_eq!(bytes, clean_bytes);
}
