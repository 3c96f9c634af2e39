//! Failure-injection tests: the pipeline must degrade gracefully, not
//! crash, when the platform serves pathological metadata.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp,
    clippy::missing_panics_doc,
    missing_docs
)]

use tagdist::crawler::{crawl, crawl_stepwise, CrawlCheckpoint, CrawlConfig, CrawlRun};
use tagdist::dataset::{filter, tsv, RawPopularity};
use tagdist::geo::{world, CountryId};
use tagdist::reconstruct::{Reconstruction, TagViewTable};
use tagdist::ytsim::{FetchError, PlatformApi, VideoMetadata, WorldConfig};

/// A platform where EVERY popularity vector is defective.
struct AllDefective;

impl PlatformApi for AllDefective {
    fn top_videos(&self, _country: CountryId, k: usize) -> Vec<String> {
        (0..k).map(|i| format!("bad{i}")).collect()
    }
    fn fetch(&self, key: &str) -> Result<VideoMetadata, FetchError> {
        if !key.starts_with("bad") {
            return Err(FetchError::NotFound);
        }
        let n: usize = key[3..].parse().map_err(|_| FetchError::NotFound)?;
        let popularity = match n % 3 {
            0 => None,                             // missing
            1 => Some(vec![200u8; world().len()]), // out of range
            _ => Some(vec![0u8; world().len()]),   // empty signal
        };
        Ok(VideoMetadata {
            key: key.to_owned(),
            title: format!("bad video {n}"),
            total_views: 10,
            duration_secs: 60,
            tags: vec!["tag".into()],
            popularity,
        })
    }
    fn related(&self, key: &str, _k: usize) -> Result<Vec<String>, FetchError> {
        let n: usize = key[3..].parse().unwrap_or(0);
        if n < 50 {
            Ok(vec![format!("bad{}", n + 10)])
        } else {
            Ok(Vec::new())
        }
    }
    fn catalogue_size(&self) -> usize {
        60
    }
}

#[test]
fn fully_defective_platform_filters_to_empty_without_crashing() {
    let outcome = crawl(&AllDefective, &CrawlConfig::default());
    assert!(!outcome.dataset.is_empty());
    let clean = filter(&outcome.dataset);
    assert!(clean.is_empty());
    assert_eq!(clean.report().kept, 0);
    assert_eq!(
        clean.report().bad_popularity + clean.report().no_tags,
        clean.report().crawled
    );
    // Downstream stages handle the empty set.
    let traffic = tagdist::geo::TrafficModel::reference(world());
    let recon = Reconstruction::compute(&clean, traffic.distribution()).expect("empty ok");
    assert!(recon.is_empty());
    let table = TagViewTable::aggregate(&clean, &recon);
    assert_eq!(table.populated_tags(), 0);
}

/// A platform that serves charts for a *different* world size —
/// simulating a registry/scraper mismatch.
struct WrongWorld;

impl PlatformApi for WrongWorld {
    fn top_videos(&self, _country: CountryId, k: usize) -> Vec<String> {
        (0..k).map(|i| format!("w{i}")).collect()
    }
    fn fetch(&self, key: &str) -> Result<VideoMetadata, FetchError> {
        key.starts_with('w')
            .then(|| VideoMetadata {
                key: key.to_owned(),
                title: "wrong world".into(),
                total_views: 5,
                duration_secs: 60,
                tags: vec!["x".into()],
                popularity: Some(vec![61u8; 7]), // 7 ≠ 60 countries
            })
            .ok_or(FetchError::NotFound)
    }
    fn related(&self, _key: &str, _k: usize) -> Result<Vec<String>, FetchError> {
        Ok(Vec::new())
    }
    fn catalogue_size(&self) -> usize {
        10
    }
}

#[test]
fn wrong_length_charts_are_classified_corrupt() {
    let outcome = crawl(&WrongWorld, &CrawlConfig::default());
    for video in outcome.dataset.iter() {
        assert!(matches!(video.popularity, RawPopularity::Corrupt(_)));
    }
    let clean = filter(&outcome.dataset);
    assert!(clean.is_empty());
    assert_eq!(clean.report().bad_popularity, outcome.dataset.len());
}

#[test]
fn defect_free_world_keeps_everything() {
    let mut cfg = WorldConfig::tiny();
    cfg.with_videos(500).without_defects();
    let platform = tagdist::ytsim::Platform::generate(cfg);
    let outcome = crawl(&platform, &CrawlConfig::default());
    let clean = filter(&outcome.dataset);
    assert_eq!(clean.report().no_tags, 0);
    assert_eq!(clean.report().bad_popularity, 0);
    assert_eq!(clean.report().kept, outcome.dataset.len());
}

#[test]
fn maximal_defect_rates_still_produce_a_working_study() {
    let mut cfg = WorldConfig::tiny();
    cfg.with_videos(1_000);
    cfg.defect_missing_pop = 0.4;
    cfg.defect_corrupt_pop = 0.3;
    cfg.defect_empty_pop = 0.25;
    cfg.defect_no_tags = 0.02;
    let platform = tagdist::ytsim::Platform::generate(cfg);
    let outcome = crawl(&platform, &CrawlConfig::default());
    let clean = filter(&outcome.dataset);
    // ~5 % survival expected; the pipeline must still run.
    assert!(clean.report().keep_ratio() < 0.15);
    if !clean.is_empty() {
        let recon = Reconstruction::compute(&clean, platform.true_traffic()).expect("reconstructs");
        assert_eq!(recon.len(), clean.len());
    }
}

#[test]
fn zero_budget_is_rejected_but_tiny_budget_works() {
    let mut cfg = WorldConfig::tiny();
    cfg.with_videos(300);
    let platform = tagdist::ytsim::Platform::generate(cfg);
    let mut ccfg = CrawlConfig::default();
    ccfg.with_budget(1);
    let outcome = crawl(&platform, &ccfg);
    assert_eq!(outcome.dataset.len(), 1);
    assert!(!outcome.stats.frontier_exhausted);
}

#[test]
fn churned_platform_crawls_degrade_gracefully() {
    use tagdist::ytsim::ChurnedPlatform;
    let mut cfg = WorldConfig::tiny();
    cfg.with_videos(800);
    let platform = tagdist::ytsim::Platform::generate(cfg);
    let churned = ChurnedPlatform::new(&platform, 0.25, 3);
    let outcome = crawl(&churned, &CrawlConfig::default());
    // Deleted videos surface as failed fetches, not crashes.
    assert!(outcome.stats.failed_fetches > 0);
    assert!(!outcome.dataset.is_empty());
    assert!(outcome.dataset.len() <= churned.catalogue_size());
    // Everything fetched is genuinely live.
    for video in outcome.dataset.iter() {
        assert!(churned.fetch(&video.key).is_ok());
    }
    // The analysis pipeline still runs on the survivors.
    let clean = filter(&outcome.dataset);
    assert!(!clean.is_empty());
    let recon = Reconstruction::compute(&clean, platform.true_traffic()).expect("reconstructs");
    assert_eq!(recon.len(), clean.len());
}

/// The kill/resume contract: suspend a crawl mid-flight, serialize the
/// checkpoint to bytes (simulating a process death), parse it back in
/// a "fresh process" against a regenerated platform, resume — and get
/// a dataset byte-identical to the uninterrupted crawl, with equal
/// stats.
#[test]
fn killed_and_resumed_crawl_is_byte_identical() {
    let make_platform = || {
        let mut cfg = WorldConfig::tiny();
        cfg.with_videos(1_200).with_seed(99);
        tagdist::ytsim::Platform::generate(cfg)
    };
    let crawl_cfg = CrawlConfig::default();

    let uninterrupted = crawl(&make_platform(), &crawl_cfg);

    // "Process one": crawl two levels, checkpoint, die.
    let first = make_platform();
    let CrawlRun::Suspended(checkpoint) = crawl_stepwise(&first, &crawl_cfg, None, Some(2)) else {
        panic!("a two-level stop must suspend this crawl");
    };
    let mut bytes = Vec::new();
    checkpoint.write(&mut bytes).expect("checkpoint serializes");
    drop((checkpoint, first));

    // "Process two": parse the checkpoint, regenerate the platform
    // from the same seed, run to completion.
    let restored = CrawlCheckpoint::read(bytes.as_slice()).expect("checkpoint parses");
    let resumed = match crawl_stepwise(&make_platform(), &crawl_cfg, Some(restored), None) {
        CrawlRun::Complete(outcome) => outcome,
        CrawlRun::Suspended(_) => panic!("no stop requested"),
    };

    assert_eq!(resumed.stats, uninterrupted.stats);
    let mut a = Vec::new();
    let mut b = Vec::new();
    tsv::write(&uninterrupted.dataset, &mut a).unwrap();
    tsv::write(&resumed.dataset, &mut b).unwrap();
    assert_eq!(a, b, "resumed dataset must be byte-identical");
}

/// The kill/resume contract extended to the streaming-ingest engine
/// (PR 9): kill the crawl mid-stream, round-trip the checkpoint
/// through bytes, start a FRESH engine in the "new process", catch it
/// up from the checkpoint's dataset as one batch, resume the batched
/// crawl — and end with state byte-identical to an engine that
/// streamed the uninterrupted crawl, and to a cold rebuild.
#[test]
fn killed_and_resumed_ingest_is_byte_identical() {
    use tagdist::crawler::{crawl_parallel_stepwise, crawl_parallel_with_batches};
    use tagdist::reconstruct::{EpochSnapshot, IngestEngine};

    let make_platform = || {
        let mut cfg = WorldConfig::tiny();
        cfg.with_videos(1_200).with_seed(99);
        tagdist::ytsim::Platform::generate(cfg)
    };
    let crawl_cfg = CrawlConfig::default();
    let traffic = make_platform().true_traffic().clone();

    // The ingest report writes every cell as its f64 bits, so string
    // equality is bit equality of the whole state.
    let render = |s: &EpochSnapshot| tagdist_serve::query::ingest_report_body(&s.clean, &s.table);
    let feed = |engine: &mut IngestEngine, resume| {
        let platform = make_platform();
        crawl_parallel_with_batches(&platform, &crawl_cfg, resume, |dataset, from| {
            engine.apply_from(dataset, from).expect("batch applies");
            engine.publish().expect("epoch publishes");
        })
    };

    // The uninterrupted streamed run.
    let mut whole = IngestEngine::new(traffic.clone());
    let outcome = feed(&mut whole, None);
    let reference = render(&whole.cell().load().unwrap());

    // "Process one": stream two levels, checkpoint, die.
    let first = make_platform();
    let CrawlRun::Suspended(checkpoint) =
        crawl_parallel_stepwise(&first, &crawl_cfg, None, Some(2))
    else {
        panic!("a two-level stop must suspend this crawl");
    };
    let mut bytes = Vec::new();
    checkpoint.write(&mut bytes).expect("checkpoint serializes");
    drop((checkpoint, first));

    // "Process two": fresh engine catches up from the checkpoint's
    // dataset as one batch, then the resumed crawl streams the rest.
    let restored = CrawlCheckpoint::read(bytes.as_slice()).expect("checkpoint parses");
    let mut revived = IngestEngine::new(traffic.clone());
    revived.apply(&restored.dataset).expect("catch-up applies");
    revived.publish().expect("catch-up publishes");
    let resumed = feed(&mut revived, Some(restored));

    assert_eq!(resumed.stats, outcome.stats);
    assert_eq!(
        render(&revived.cell().load().unwrap()),
        reference,
        "revived ingest state must be byte-identical"
    );

    // Both equal the cold rebuild of the saved dataset.
    let clean = filter(&outcome.dataset);
    let recon = Reconstruction::compute(&clean, &traffic).unwrap();
    let cold = EpochSnapshot {
        epoch: 0,
        table: TagViewTable::aggregate(&clean, &recon),
        clean,
        recon,
    };
    assert_eq!(render(&cold), reference, "cold rebuild must agree");
}

// ---------------------------------------------------------------------------
// The serve layer: hostile and flaky clients must degrade per
// connection — never poison the worker pool, the snapshot cell, or
// concurrent well-formed connections.
// ---------------------------------------------------------------------------

mod serve_degradation {
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    use tagdist::dataset::{filter, DatasetBuilder, RawPopularity};
    use tagdist::geo::{world, TrafficModel};
    use tagdist::par::Pool;
    use tagdist::reconstruct::{EpochSnapshot, SnapshotCell};
    use tagdist_serve::server::{Server, ServerConfig};

    /// A deterministic corpus whose view counts are offset by `salt`,
    /// so distinct salts produce distinct (but valid) epochs.
    fn snapshot(epoch: u64, salt: u64) -> Arc<EpochSnapshot> {
        let traffic = TrafficModel::reference(world());
        let cc = world().len();
        let mut b = DatasetBuilder::new(cc);
        for i in 0..200usize {
            let raw: Vec<u8> = (0..cc).map(|c| ((i * 7 + c * 5) % 62) as u8).collect();
            let tags: Vec<String> = (0..1 + i % 4)
                .map(|t| format!("t{}", (i + t) % 23))
                .collect();
            let refs: Vec<&str> = tags.iter().map(String::as_str).collect();
            b.push_video(
                &format!("vid{i}"),
                1_000 + salt + (i * 17) as u64,
                &refs,
                RawPopularity::decode(raw, cc),
            );
        }
        let clean = filter(&b.build());
        Arc::new(EpochSnapshot::rebuild(epoch, clean, traffic.distribution()).unwrap())
    }

    /// A live server over `cell`, running on a background
    /// thread. Dropping the guard without `shutdown()` would leak the
    /// thread, so every test ends with `shutdown()`.
    struct Live {
        addr: String,
        cell: Arc<SnapshotCell>,
        stop: Arc<AtomicBool>,
        worker: std::thread::JoinHandle<Result<(), String>>,
    }

    fn boot(cell: Arc<SnapshotCell>, threads: usize) -> Live {
        let traffic = TrafficModel::reference(world());
        let server = Server::bind(
            "127.0.0.1:0",
            Arc::clone(&cell),
            traffic,
            ServerConfig::default(),
        )
        .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let worker = std::thread::spawn(move || {
            let pool = Pool::new(threads);
            server.run(&pool, &flag)
        });
        Live {
            addr,
            cell,
            stop,
            worker,
        }
    }

    impl Live {
        fn shutdown(self) {
            self.stop.store(true, Ordering::SeqCst);
            self.worker.join().unwrap().unwrap();
        }
    }

    /// Writes `bytes` raw and reads the connection to EOF.
    fn raw_exchange(addr: &str, bytes: &[u8]) -> Vec<u8> {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(bytes).unwrap();
        let mut response = Vec::new();
        let _ = stream.read_to_end(&mut response);
        response
    }

    /// One well-formed request, asserting a 200 with a body.
    fn assert_healthy(addr: &str) {
        let response = raw_exchange(addr, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        let text = String::from_utf8_lossy(&response);
        assert!(
            text.starts_with("HTTP/1.1 200 OK\r\n"),
            "server unhealthy: {text:?}"
        );
    }

    #[test]
    fn malformed_request_lines_get_a_4xx_and_do_not_kill_the_server() {
        let cell = Arc::new(SnapshotCell::new());
        cell.store(snapshot(1, 0));
        let live = boot(Arc::clone(&cell), 2);

        for (garbage, want) in [
            (&b"BLARG\r\n\r\n"[..], "HTTP/1.1 400 "),
            (&b"GET\r\n\r\n"[..], "HTTP/1.1 400 "),
            (&b"POST /stats HTTP/1.1\r\n\r\n"[..], "HTTP/1.1 405 "),
            (&b"GET /stats HTTP/0.9\r\n\r\n"[..], "HTTP/1.1 505 "),
            (
                &b"GET /stats HTTP/1.1\r\nno-colon\r\n\r\n"[..],
                "HTTP/1.1 400 ",
            ),
        ] {
            let response = raw_exchange(&live.addr, garbage);
            let text = String::from_utf8_lossy(&response);
            assert!(
                text.starts_with(want),
                "{garbage:?} should answer {want}, got {text:?}"
            );
            assert_healthy(&live.addr);
        }
        live.shutdown();
    }

    #[test]
    fn oversized_heads_are_rejected_per_connection() {
        let cell = Arc::new(SnapshotCell::new());
        cell.store(snapshot(1, 0));
        let live = boot(Arc::clone(&cell), 2);

        // A single header far beyond MAX_REQUEST_BYTES (16 KiB).
        let mut big = b"GET /stats HTTP/1.1\r\nX-Flood: ".to_vec();
        big.extend(std::iter::repeat_n(b'a', 64 * 1024));
        big.extend_from_slice(b"\r\n\r\n");
        let response = raw_exchange(&live.addr, &big);
        let text = String::from_utf8_lossy(&response);
        assert!(
            text.starts_with("HTTP/1.1 431 "),
            "oversized head should answer 431, got {text:?}"
        );
        assert_healthy(&live.addr);
        live.shutdown();
    }

    #[test]
    fn premature_disconnects_leave_the_server_healthy() {
        let cell = Arc::new(SnapshotCell::new());
        cell.store(snapshot(1, 0));
        let live = boot(Arc::clone(&cell), 2);

        // Half a request line, then the client vanishes.
        for _ in 0..8 {
            let stream = TcpStream::connect(&live.addr).unwrap();
            (&stream).write_all(b"GET /sta").unwrap();
            drop(stream);
        }
        // A connection that opens and says nothing at all.
        drop(TcpStream::connect(&live.addr).unwrap());
        assert_healthy(&live.addr);
        live.shutdown();
    }

    #[test]
    fn concurrent_connections_across_an_epoch_flip_stay_consistent() {
        let cell = Arc::new(SnapshotCell::new());
        let first = snapshot(1, 0);
        let second = snapshot(2, 500);
        cell.store(Arc::clone(&first));
        let live = boot(Arc::clone(&cell), 4);

        // The only two answers /stats may ever produce.
        let body_first = tagdist_serve::query::stats_body(&first.clean);
        let body_second = tagdist_serve::query::stats_body(&second.clean);

        let flipped = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            let addr = live.addr.as_str();
            let cell = &live.cell;
            let second = &second;
            let flip_flag = Arc::clone(&flipped);
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                cell.store(Arc::clone(second));
                flip_flag.store(true, Ordering::SeqCst);
            });
            for _ in 0..4 {
                let body_first = body_first.as_str();
                let body_second = body_second.as_str();
                let flipped = Arc::clone(&flipped);
                scope.spawn(move || {
                    let mut saw_any = 0u32;
                    while !flipped.load(Ordering::SeqCst) || saw_any < 3 {
                        let response =
                            raw_exchange(addr, b"GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n");
                        let text = String::from_utf8_lossy(&response);
                        let body = text
                            .split_once("\r\n\r\n")
                            .map(|(_, b)| b.to_owned())
                            .unwrap_or_default();
                        assert!(
                            body == body_first || body == body_second,
                            "a response mixed epochs or tore: {body:?}"
                        );
                        saw_any += 1;
                    }
                });
            }
        });

        // After the flip every new connection pins epoch 2.
        let response = raw_exchange(
            &live.addr,
            b"GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        let text = String::from_utf8_lossy(&response);
        assert!(
            text.ends_with(&body_second),
            "post-flip responses must come from epoch 2"
        );
        let health = raw_exchange(
            &live.addr,
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(
            String::from_utf8_lossy(&health).ends_with("ok epoch 2\n"),
            "healthz must report the flipped epoch"
        );
        live.shutdown();

        // The cell itself survives unpoisoned: a fresh server over the
        // same cell still answers.
        let revived = boot(Arc::clone(&cell), 1);
        assert_healthy(&revived.addr);
        revived.shutdown();
    }
}
