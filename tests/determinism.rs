//! Determinism guarantees: every stochastic stage is a pure function
//! of its seeds (DESIGN.md §6). Reproducibility is the point of a
//! reproduction.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp,
    clippy::missing_panics_doc,
    missing_docs
)]

use tagdist::crawler::{crawl, crawl_parallel, CrawlConfig};
use tagdist::dataset::{ColumnarRead, Dataset, TagId};
use tagdist::geo::TrafficModel;
use tagdist::obs::Recorder;
use tagdist::par::{Pool, THREADS_ENV};
use tagdist::ytsim::{Platform, PlatformApi, WorldConfig};
use tagdist::{markdown_report, markdown_report_obs, Study, StudyConfig};

fn tiny(seed: u64) -> WorldConfig {
    let mut cfg = WorldConfig::tiny();
    cfg.with_videos(800).with_seed(seed);
    cfg
}

#[test]
fn platforms_are_reproducible() {
    let a = Platform::generate(tiny(1));
    let b = Platform::generate(tiny(1));
    assert_eq!(a.catalogue_size(), b.catalogue_size());
    for i in 0..a.catalogue_size() {
        assert_eq!(a.video(i).total_views, b.video(i).total_views);
        assert_eq!(a.video(i).tags, b.video(i).tags);
        assert_eq!(a.video(i).upload_country, b.video(i).upload_country);
        assert_eq!(a.fetch(&a.video(i).key), b.fetch(&b.video(i).key));
    }
    assert_eq!(a.true_traffic(), b.true_traffic());
}

#[test]
fn different_seeds_differ() {
    let a = Platform::generate(tiny(1));
    let b = Platform::generate(tiny(2));
    let differs = (0..a.catalogue_size()).any(|i| a.video(i).total_views != b.video(i).total_views);
    assert!(differs, "seed change must alter the world");
}

#[test]
fn crawls_are_reproducible_and_parallelism_invariant() {
    let platform = Platform::generate(tiny(3));
    let mut cfg = CrawlConfig::default();
    cfg.with_budget(400);

    let serial_a = crawl(&platform, &cfg);
    let serial_b = crawl(&platform, &cfg);
    let keys = |o: &tagdist::crawler::CrawlOutcome| -> Vec<String> {
        o.dataset.iter().map(|v| v.key.clone()).collect()
    };
    assert_eq!(keys(&serial_a), keys(&serial_b));

    for threads in [1, 2, 8] {
        let mut pcfg = cfg.clone();
        pcfg.with_threads(threads);
        let parallel = crawl_parallel(&platform, &pcfg);
        assert_eq!(
            keys(&serial_a),
            keys(&parallel),
            "{threads}-thread crawl diverged"
        );
        assert_eq!(serial_a.stats, parallel.stats);
    }
}

#[test]
fn traffic_perturbation_is_seeded() {
    let t = TrafficModel::reference(tagdist::geo::world());
    assert_eq!(t.perturbed(0.2, 9), t.perturbed(0.2, 9));
    assert_ne!(t.perturbed(0.2, 9), t.perturbed(0.2, 10));
}

#[test]
fn whole_studies_are_reproducible() {
    let mut cfg = StudyConfig::tiny();
    cfg.world.with_videos(800);
    let a = Study::run(cfg.clone());
    let b = Study::run(cfg);
    assert_eq!(a.filter_report(), b.filter_report());
    assert_eq!(a.fig1_most_viewed().key, b.fig1_most_viewed().key);
    let pa = a.tag_profile("pop").unwrap();
    let pb = b.tag_profile("pop").unwrap();
    assert_eq!(pa.dist, pb.dist);
    assert_eq!(
        a.reconstruction_error().js.mean,
        b.reconstruction_error().js.mean
    );
}

/// The PR 2 worker-pool contract on the full pipeline: the rendered
/// Study report — every section, E1 through E7e — is byte-identical
/// whether the pool runs 1, 2 or 8 threads.
#[test]
fn study_report_is_byte_identical_across_thread_counts() {
    let mut cfg = StudyConfig::tiny();
    cfg.world.with_videos(800);

    std::env::set_var(THREADS_ENV, "1");
    let reference = markdown_report(&Study::run(cfg.clone()));
    assert!(reference.contains("### E7e"), "every section renders");
    for threads in ["2", "8"] {
        std::env::set_var(THREADS_ENV, threads);
        let report = markdown_report(&Study::run(cfg.clone()));
        assert_eq!(report, reference, "report drifted at {threads} threads");
    }
    std::env::remove_var(THREADS_ENV);
}

/// The PR 4 observability contract: the deterministic subtree of the
/// metrics report — counters and gauges, every pipeline layer — is
/// byte-identical at any thread count. Wall-clock spans and scheduler
/// fan-out stats vary with the pool; they live in the segregated
/// `timing` section, which `deterministic_json` excludes.
#[test]
fn metrics_counters_are_byte_identical_across_thread_counts() {
    let mut cfg = StudyConfig::tiny();
    cfg.world.with_videos(800);
    let run = |threads: &str| {
        std::env::set_var(THREADS_ENV, threads);
        let obs = Recorder::new();
        let study = Study::try_run_with(cfg.clone(), &obs).expect("study runs");
        let _ = markdown_report_obs(&study, &obs);
        obs.finish()
    };

    let reference = run("1");
    // The span tree covers every Study stage plus the report sections.
    let names = reference.span_names();
    for stage in [
        "study",
        "generate",
        "crawl",
        "filter",
        "traffic_prior",
        "reconstruct",
        "aggregate",
        "validate",
        "report",
        "e1_accounting",
        "e1b_regional",
        "e2_fig1",
        "e3_e4_tags",
        "e5_reconstruction_error",
        "e5b_sensitivity",
        "e5c_bootstrap",
        "e6_prediction",
        "predict",
        "e6b_cold_start",
        "e6c_locality",
        "e7_caching",
        "e7b_latency",
        "e7c_byte_budget",
        "e7d_peak_load",
        "e7e_tiers",
    ] {
        assert!(names.contains(&stage), "missing span {stage:?}: {names:?}");
    }
    // ... and the counters cover pool, crawler and cache layers.
    for key in [
        "par.calls",
        "crawl.fetched",
        "crawl.frontier_items",
        "crawl.retries",
        "crawl.breaker_trips",
        "crawl.backoff_wait_ms",
        "crawl.throttle_wait_ms",
        "filter.kept",
        "reconstruct.rows_filled",
        "aggregate.postings",
        "predict.videos",
        "cache.requests",
    ] {
        assert!(
            reference.counters.contains_key(key),
            "missing counter {key:?}"
        );
    }
    assert!(reference.gauges.contains_key("crawl.frontier_peak"));

    for threads in ["2", "8"] {
        let metrics = run(threads);
        assert_eq!(
            metrics.deterministic_json(),
            reference.deterministic_json(),
            "deterministic counters drifted at {threads} threads"
        );
    }
    std::env::remove_var(THREADS_ENV);
}

/// Eq. 3 aggregation totals (the sharded par_fold) are exact across
/// thread counts — per-tag, per-country, bit for bit.
#[test]
fn tag_view_totals_are_thread_count_invariant() {
    let mut cfg = StudyConfig::tiny();
    cfg.world.with_videos(800);

    std::env::set_var(THREADS_ENV, "1");
    let reference = Study::run(cfg.clone());
    for threads in ["2", "8"] {
        std::env::set_var(THREADS_ENV, threads);
        let study = Study::run(cfg.clone());
        assert_eq!(
            study.tag_table(),
            reference.tag_table(),
            "tag totals drifted at {threads} threads"
        );
        assert_eq!(
            study.reconstruction(),
            reference.reconstruction(),
            "reconstruction drifted at {threads} threads"
        );
    }
    std::env::remove_var(THREADS_ENV);
}

/// The PR 8 columnar contract: starting from one `bin v1` corpus
/// image, the record pipeline (decode → filter) and the zero-copy
/// columnar pipeline (decode_borrowed → filter_columnar) must render
/// byte-identical tag-view reports — and both must be invariant to
/// the worker-pool size.
#[test]
fn columnar_and_record_reports_are_byte_identical_across_threads() {
    use tagdist::dataset::{binfmt, decode_any, filter, filter_columnar, write_binary};
    use tagdist::reconstruct::{Reconstruction, TagViewTable};
    use tagdist_serve::query::ingest_report_body;

    let platform = Platform::generate(tiny(11));
    let mut cfg = CrawlConfig::default();
    cfg.with_budget(600);
    let outcome = crawl(&platform, &cfg);
    let mut bin = Vec::new();
    write_binary(&outcome.dataset, &mut bin).unwrap();
    let traffic = platform.true_traffic();

    // The ingest report writes every cell as its f64 bits, so string
    // equality below is bit equality of the aggregates.
    let run = |columnar: bool| {
        let clean = if columnar {
            let view = binfmt::decode_borrowed(&bin).unwrap();
            filter_columnar(&view)
        } else {
            filter(&decode_any(&bin).unwrap())
        };
        let recon = Reconstruction::compute(&clean, traffic).unwrap();
        ingest_report_body(&clean, &TagViewTable::aggregate(&clean, &recon))
    };

    std::env::set_var(THREADS_ENV, "1");
    let reference = run(false);
    assert!(!reference.is_empty(), "corpus must aggregate to something");
    for threads in ["1", "2", "8"] {
        std::env::set_var(THREADS_ENV, threads);
        assert_eq!(
            run(false),
            reference,
            "record path drifted at {threads} threads"
        );
        assert_eq!(
            run(true),
            reference,
            "columnar path drifted at {threads} threads"
        );
    }
    std::env::remove_var(THREADS_ENV);
}

/// The PR 9 rebuild oracle: after N streamed batches the incremental
/// ingest engine's published snapshot — clean columns, reconstruction
/// matrix and tag aggregates — is byte-identical to a cold
/// filter → compute → aggregate rebuild of the dataset the same crawl
/// saves, and both sides are invariant to the worker-pool size.
#[test]
fn incremental_ingest_equals_cold_rebuild_across_threads() {
    use tagdist::crawler::crawl_parallel_with_batches;
    use tagdist::dataset::filter;
    use tagdist::reconstruct::{EpochSnapshot, IngestEngine, Reconstruction, TagViewTable};
    use tagdist_serve::query::ingest_report_body;

    let platform = Platform::generate(tiny(11));
    let mut cfg = CrawlConfig::default();
    cfg.with_budget(600);
    let traffic = platform.true_traffic();

    // The ingest report writes every cell as its f64 bits, so string
    // equality below is bit equality of the whole state.
    let incremental = || {
        let mut engine = IngestEngine::new(traffic.clone());
        let mut error = None;
        let outcome = crawl_parallel_with_batches(&platform, &cfg, None, |dataset, from| {
            if error.is_some() {
                return;
            }
            error = engine
                .apply_from(dataset, from)
                .and_then(|_| engine.publish().map(|_| ()))
                .err();
        });
        assert_eq!(error, None, "ingest must absorb every batch");
        let snapshot: std::sync::Arc<EpochSnapshot> = engine.cell().load().unwrap();
        assert!(engine.epoch() > 1, "crawl must stream several batches");
        (
            ingest_report_body(&snapshot.clean, &snapshot.table),
            outcome.dataset,
        )
    };
    let cold = |dataset: &Dataset| {
        let clean = filter(dataset);
        let recon = Reconstruction::compute(&clean, traffic).unwrap();
        let table = TagViewTable::aggregate(&clean, &recon);
        ingest_report_body(&clean, &table)
    };

    std::env::set_var(THREADS_ENV, "1");
    let (reference, reference_dataset) = incremental();
    assert!(!reference.is_empty());
    assert_eq!(
        reference,
        cold(&reference_dataset),
        "incremental state must equal the cold rebuild"
    );
    for threads in ["1", "2", "8"] {
        std::env::set_var(THREADS_ENV, threads);
        let (streamed, dataset) = incremental();
        assert_eq!(
            streamed, reference,
            "incremental state drifted at {threads} threads"
        );
        assert_eq!(
            cold(&dataset),
            reference,
            "cold rebuild drifted at {threads} threads"
        );
    }
    std::env::remove_var(THREADS_ENV);
}

/// The streamed cases the crawl-driven oracle above cannot reach: one
/// source cut at seeded random points, with repeated cuts (empty
/// batches, the first one before any record) and several applies
/// before one publish. Every epoch is checked at its publish against
/// the cold filter → compute → aggregate rebuild of the records applied
/// so far, under the source's vocabulary, field for field, at 1 and 2
/// pool threads.
#[test]
fn streamed_edge_cases_equal_the_cold_rebuild_across_threads() {
    use tagdist::dataset::filter_columnar;
    use tagdist::reconstruct::{IngestEngine, Reconstruction, TagViewTable};

    let traffic = tagdist::geo::GeoDist::from_slice(&[5.0, 2.0, 1.0]).unwrap();
    let source = stream_source("a", &vocabulary("t", 0..100), 300);
    for threads in ["1", "2"] {
        std::env::set_var(THREADS_ENV, threads);
        for seed in 1..=8u64 {
            // A 64-bit LCG: the high bits of each state.
            let mut state = seed;
            let mut next = |bound: usize| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 33) as usize % bound
            };
            let mut cuts: Vec<usize> = (0..10).map(|_| next(source.len() + 1)).collect();
            cuts.extend([0, 0, cuts[0], source.len()]);
            cuts.sort_unstable();

            let mut engine = IngestEngine::new(traffic.clone());
            let mut from = 0;
            for (k, &to) in cuts.iter().enumerate() {
                engine.apply_range(&source, from, to).unwrap();
                from = to;
                // Publish after about half the cuts, and after the last.
                if k + 1 < cuts.len() && next(2) == 0 {
                    continue;
                }
                let snapshot = engine.publish().unwrap();
                let clean = filter_columnar(&Prefix(&source, to));
                let recon = Reconstruction::compute(&clean, &traffic).unwrap();
                let table = TagViewTable::aggregate(&clean, &recon);
                let at = format!("seed {seed}, {to} records, {threads} threads");
                assert_eq!(snapshot.clean, clean, "clean columns: {at}");
                assert_eq!(snapshot.recon, recon, "reconstruction: {at}");
                assert_eq!(snapshot.table, table, "aggregates: {at}");
            }
        }
    }
    std::env::remove_var(THREADS_ENV);
}

/// Applying a source that does not continue the stream panics: here
/// the second batch starts past the records applied so far.
#[test]
#[should_panic(expected = "does not continue the stream")]
fn a_batch_that_does_not_continue_the_stream_panics() {
    use tagdist::reconstruct::IngestEngine;

    let traffic = tagdist::geo::GeoDist::from_slice(&[5.0, 2.0, 1.0]).unwrap();
    let source = stream_source("a", &vocabulary("t", 0..100), 300);
    let mut engine = IngestEngine::new(traffic);
    engine.apply_range(&source, 0, 100).unwrap();
    let _ = engine.apply_range(&source, 150, 200);
}

/// The first `.1` records of a dataset under its whole vocabulary: what
/// a stream over the dataset has applied after that many records.
struct Prefix<'a>(&'a Dataset, usize);

impl ColumnarRead for Prefix<'_> {
    fn len(&self) -> usize {
        self.1
    }
    fn country_count(&self) -> usize {
        self.0.country_count()
    }
    fn tag_count(&self) -> usize {
        self.0.tag_count()
    }
    fn key(&self, i: usize) -> &str {
        self.0.key(i)
    }
    fn title(&self, i: usize) -> &str {
        self.0.title(i)
    }
    fn total_views(&self, i: usize) -> u64 {
        ColumnarRead::total_views(self.0, i)
    }
    fn video_tags(&self, i: usize) -> impl ExactSizeIterator<Item = TagId> + '_ {
        self.0.video_tags(i)
    }
    fn pop_kind(&self, i: usize) -> u8 {
        self.0.pop_kind(i)
    }
    fn pop_payload(&self, i: usize) -> &[u8] {
        self.0.pop_payload(i)
    }
    fn tag_name(&self, t: usize) -> &str {
        self.0.tag_name(t)
    }
}

/// A publish recycles the aggregate buffer of the epoch two publishes
/// back only if no reader holds that epoch: a pinned epoch keeps its
/// own buffer and its bytes never change.
#[test]
fn a_pinned_epoch_keeps_its_aggregate_buffer() {
    use tagdist::reconstruct::{IngestEngine, TagViewTable};

    let buffer_of = |table: &TagViewTable| table.iter().next().unwrap().1.as_ptr();
    let traffic = tagdist::geo::GeoDist::from_slice(&[5.0, 2.0, 1.0]).unwrap();
    let a = stream_source("a", &vocabulary("t", 0..100), 300);
    let mut engine = IngestEngine::new(traffic);
    engine.apply_range(&a, 0, 150).unwrap();
    let held = engine.publish().unwrap();
    let pinned = held.table.clone();
    engine.apply_range(&a, 150, 300).unwrap();
    let second = buffer_of(&engine.publish().unwrap().table);
    // Epoch 3 would recycle epoch 1's buffer, but a reader holds it.
    let third = engine.publish().unwrap();
    assert_ne!(buffer_of(&third.table), buffer_of(&held.table));
    assert_eq!(held.table, pinned, "the pinned epoch's bytes changed");
    // Nobody holds epoch 2: epoch 4 writes into its buffer.
    let fourth = engine.publish().unwrap();
    assert_eq!(buffer_of(&fourth.table), second);
    assert_eq!(fourth.table, third.table);
    assert_eq!(held.table, pinned);
}

/// Tag names `{prefix}{i}` for `i` in `range`, in that order.
fn vocabulary(prefix: &str, range: std::ops::Range<usize>) -> Vec<String> {
    range.map(|i| format!("{prefix}{i}")).collect()
}

/// `videos` records keyed `{key_prefix}{i}` whose tags walk
/// `vocabulary` in order, so the dataset's interner assigns ids in
/// vocabulary order; every fifth record carries no popularity map and
/// is dropped by the filter.
fn stream_source(key_prefix: &str, vocabulary: &[String], videos: usize) -> Dataset {
    use tagdist::dataset::{DatasetBuilder, RawPopularity};

    let mut b = DatasetBuilder::new(3);
    for i in 0..videos {
        let tags: Vec<&str> = (0..=i % 3)
            .map(|k| vocabulary[(i + 7 * k) % vocabulary.len()].as_str())
            .collect();
        let pop = if i % 5 == 4 {
            RawPopularity::Missing
        } else {
            RawPopularity::decode(vec![(i % 61) as u8 + 1, 30, (i * 7 % 61) as u8], 3)
        };
        b.push_video(
            &format!("{key_prefix}{i}"),
            10 + (i * i % 997) as u64,
            &tags,
            pop,
        );
    }
    b.build()
}

mod par_fold_properties {
    use super::Pool;
    use proptest::prelude::*;

    proptest! {
        /// The sharded fold+merge equals the plain serial fold for an
        /// exact (integer) reduction, at any thread count.
        #[test]
        fn sharded_par_fold_merge_equals_serial_fold(
            items in proptest::collection::vec(0u64..1_000_000, 0..600),
            threads in 1usize..9,
        ) {
            let serial: u64 = items.iter().sum();
            let sharded = Pool::new(threads).par_fold(
                &items,
                || 0u64,
                |acc, _, &v| acc + v,
                |a, b| a + b,
            );
            prop_assert_eq!(sharded, serial);
        }
    }
}

#[test]
fn request_streams_are_seeded() {
    use tagdist::cache::RequestStream;
    let mut cfg = StudyConfig::tiny();
    cfg.world.with_videos(800);
    let s = Study::run(cfg);
    let truth = s.true_distributions();
    let weights = s.view_weights();
    let a = RequestStream::generate(&truth, &weights, 1_000, 5);
    let b = RequestStream::generate(&truth, &weights, 1_000, 5);
    assert_eq!(a, b);
    let c = RequestStream::generate(&truth, &weights, 1_000, 6);
    assert_ne!(a, c);
}
