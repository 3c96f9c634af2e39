//! `tagdist bench-serve`: a seeded load generator with Zipf-shaped tag
//! popularity, plus the fixed smoke query set the CI serve-oracle lane
//! replays.
//!
//! Measurement studies of YouTube popularity (Figueiredo et al.;
//! Barjasteh et al.) consistently find heavy-tailed view
//! concentration, so the generator does not draw tags uniformly: it
//! ranks the corpus's tags by total reconstructed views and samples
//! rank *r* with probability ∝ 1/r — a Zipf distribution over the
//! corpus's own popularity order. The request mix mirrors the study's
//! questions (mostly `/tag`, some `/country`, `/video`, `/predict`,
//! `/stats`).
//!
//! Every generated target's *expected* body is precomputed offline via
//! [`ServeState::respond`] — the same renderers the CLI prints with —
//! and every response is compared byte for byte. A load run is thus
//! simultaneously a latency benchmark and a determinism oracle at the
//! network boundary.
//!
//! This is the one serve module allowed to read the wall clock
//! (latency percentiles need real time; see the xtask `wall-clock`
//! allowlist).

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use tagdist::dataset::CleanDataset;
use tagdist::geo::{world, TrafficModel};
use tagdist::reconstruct::TagViewTable;

use crate::http::percent_encode;
use crate::server::ServeState;

/// Distinct top-ranked tags the Zipf sampler draws from.
const ZIPF_TAG_RANKS: usize = 1024;

/// Distinct video keys the `/video` mix draws from.
const VIDEO_KEY_POOL: usize = 512;

/// Requests sent per connection before reconnecting (bounds ephemeral
/// port churn without pinning a server worker forever).
const REQUESTS_PER_CONNECTION: u64 = 256;

/// Load-run parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Target address (`host:port`).
    pub addr: String,
    /// Total requests to replay.
    pub requests: u64,
    /// Concurrent client workers.
    pub concurrency: usize,
    /// Seed for the request plan (same seed → same plan, bytes and
    /// order).
    pub seed: u64,
    /// Per-response read timeout in milliseconds.
    pub read_timeout_ms: u64,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            addr: "127.0.0.1:0".to_owned(),
            requests: 10_000,
            concurrency: 4,
            seed: 42,
            read_timeout_ms: 10_000,
        }
    }
}

/// One named smoke query (the name is the dump-file stem the CI lane
/// `cmp`s against the offline answer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmokeQuery {
    /// Stable artifact stem, e.g. `country_BR`.
    pub name: String,
    /// Request target, e.g. `/country/BR`.
    pub target: String,
}

/// What a load run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Requests completed (success or failure).
    pub requests: u64,
    /// Transport-level failures (connect/read/write errors).
    pub failures: u64,
    /// Responses whose `(status, body)` differed from the offline
    /// answer — the number that must be zero.
    pub identity_failures: u64,
    /// Median request latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: u64,
    /// Slowest request latency, microseconds.
    pub max_us: u64,
    /// Wall time of the whole run, milliseconds.
    pub elapsed_ms: u64,
    /// Completed requests per wall-clock second.
    pub throughput_rps: f64,
    /// Response bytes received (bodies only).
    pub body_bytes: u64,
}

impl LoadReport {
    /// Summarizes a run from its per-request latencies (any order) and
    /// totals. Every completed or failed request counts.
    fn new(
        mut latencies: Vec<u64>,
        elapsed: Duration,
        failures: u64,
        identity_failures: u64,
        body_bytes: u64,
    ) -> LoadReport {
        latencies.sort_unstable();
        let requests = latencies.len() as u64;
        let pct = |p: u64| match requests {
            0 => 0,
            n => latencies[((n - 1) * p / 100) as usize],
        };
        let secs = elapsed.as_secs_f64();
        LoadReport {
            requests,
            failures,
            identity_failures,
            p50_us: pct(50),
            p99_us: pct(99),
            max_us: pct(100),
            elapsed_ms: elapsed.as_millis() as u64,
            throughput_rps: if secs > 0.0 {
                requests as f64 / secs
            } else {
                requests as f64
            },
            body_bytes,
        }
    }

    /// The human summary `tagdist bench-serve` prints.
    pub fn summary(&self) -> String {
        format!(
            "bench-serve: {} requests, {} failures, {} identity failures\n\
             latency: p50 {} us, p99 {} us, max {} us\n\
             throughput: {:.0} req/s over {} ms ({} body bytes)\n",
            self.requests,
            self.failures,
            self.identity_failures,
            self.p50_us,
            self.p99_us,
            self.max_us,
            self.throughput_rps,
            self.elapsed_ms,
            self.body_bytes
        )
    }

    /// The machine summary (`--summary FILE`, uploaded as a CI
    /// artifact).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"requests\": {}, \"failures\": {}, \"identity_failures\": {}, \
             \"p50_us\": {}, \"p99_us\": {}, \"max_us\": {}, \"elapsed_ms\": {}, \
             \"throughput_rps\": {:.1}, \"body_bytes\": {}}}",
            self.requests,
            self.failures,
            self.identity_failures,
            self.p50_us,
            self.p99_us,
            self.max_us,
            self.elapsed_ms,
            self.throughput_rps,
            self.body_bytes
        )
    }
}

/// The bench report's seeded LCG (splitmix-style update, top bits).
#[derive(Debug, Clone)]
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Lcg {
        Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }

    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 11
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    fn next_f64(&mut self) -> f64 {
        self.next() as f64 / (1u64 << 53) as f64
    }
}

/// The corpus-derived sampling pools: tags in view-rank order, video
/// keys, country codes.
#[derive(Debug, Clone, Default)]
struct Pools {
    /// Tag names, most viewed first (Zipf rank order).
    tags: Vec<String>,
    /// Zipf cumulative weights, aligned with `tags`.
    zipf_cdf: Vec<f64>,
    keys: Vec<String>,
    codes: Vec<String>,
}

fn pools(clean: &CleanDataset, table: &TagViewTable) -> Pools {
    let tags: Vec<String> = table
        .top_by_views(ZIPF_TAG_RANKS)
        .into_iter()
        .map(|(tag, _)| clean.tags().name(tag).to_owned())
        .collect();
    // Zipf over ranks: weight(r) = 1/(r+1); the prefix accumulation is
    // an order-fixed scalar loop, not a data reduction.
    let mut zipf_cdf = Vec::with_capacity(tags.len());
    let mut acc = 0.0f64;
    for rank in 0..tags.len() {
        acc += 1.0 / (rank as f64 + 1.0);
        zipf_cdf.push(acc);
    }
    let stride = (clean.len() / VIDEO_KEY_POOL).max(1);
    let keys: Vec<String> = (0..clean.len())
        .step_by(stride)
        .take(VIDEO_KEY_POOL)
        .map(|pos| clean.key_of(pos).to_owned())
        .collect();
    let codes: Vec<String> = world().iter().map(|c| c.code.to_owned()).collect();
    Pools {
        tags,
        zipf_cdf,
        keys,
        codes,
    }
}

/// Draws a Zipf-distributed tag rank (0 = most viewed).
fn zipf_rank(cdf: &[f64], rng: &mut Lcg) -> usize {
    let last = match cdf.last() {
        Some(&total) => total,
        None => return 0,
    };
    let needle = rng.next_f64() * last;
    cdf.partition_point(|&c| c < needle).min(cdf.len() - 1)
}

/// Builds the seeded request plan: `requests` targets over the study's
/// query mix with Zipf-shaped tag popularity. Same corpus + seed →
/// same plan, at any thread count.
pub fn zipf_plan(
    clean: &CleanDataset,
    table: &TagViewTable,
    requests: u64,
    seed: u64,
) -> Vec<String> {
    let pools = pools(clean, table);
    let mut rng = Lcg::new(seed);
    let mut plan = Vec::with_capacity(requests as usize);
    for _ in 0..requests {
        let roll = rng.next() % 100;
        let target = if roll < 60 && !pools.tags.is_empty() {
            let rank = zipf_rank(&pools.zipf_cdf, &mut rng);
            format!("/tag/{}", percent_encode(&pools.tags[rank]))
        } else if roll < 75 && !pools.codes.is_empty() {
            let i = (rng.next() % pools.codes.len() as u64) as usize;
            format!("/country/{}", pools.codes[i])
        } else if roll < 85 && !pools.keys.is_empty() {
            let i = (rng.next() % pools.keys.len() as u64) as usize;
            format!("/video/{}", percent_encode(&pools.keys[i]))
        } else if roll < 92 && pools.tags.len() >= 2 {
            let a = zipf_rank(&pools.zipf_cdf, &mut rng);
            let b = zipf_rank(&pools.zipf_cdf, &mut rng);
            format!(
                "/predict/{}/{}",
                percent_encode(&pools.tags[a]),
                percent_encode(&pools.tags[b])
            )
        } else {
            "/stats".to_owned()
        };
        plan.push(target);
    }
    plan
}

/// The fixed query set the CI lane replays: stable names, targets
/// derived only from the corpus. `/stats`, `/country/BR` and `/report`
/// are `cmp`d against offline CLI output by name; the tag/video/
/// predict entries are identity-checked in-process like every other
/// request.
pub fn smoke_queries(clean: &CleanDataset, table: &TagViewTable) -> Vec<SmokeQuery> {
    let mut queries = vec![
        SmokeQuery {
            name: "stats".to_owned(),
            target: "/stats".to_owned(),
        },
        SmokeQuery {
            name: "country_BR".to_owned(),
            target: "/country/BR".to_owned(),
        },
        SmokeQuery {
            name: "report".to_owned(),
            target: "/report".to_owned(),
        },
    ];
    let top = table.top_by_views(2);
    if let Some((tag, _)) = top.first() {
        queries.push(SmokeQuery {
            name: "tag_top".to_owned(),
            target: format!("/tag/{}", percent_encode(clean.tags().name(*tag))),
        });
    }
    if !clean.is_empty() {
        queries.push(SmokeQuery {
            name: "video_first".to_owned(),
            target: format!("/video/{}", percent_encode(clean.key_of(0))),
        });
    }
    if let [(a, _), (b, _)] = top.as_slice() {
        queries.push(SmokeQuery {
            name: "predict_top2".to_owned(),
            target: format!(
                "/predict/{}/{}",
                percent_encode(clean.tags().name(*a)),
                percent_encode(clean.tags().name(*b))
            ),
        });
    }
    queries
}

/// Polls `addr` until `GET /healthz` answers 200 (or attempts run
/// out) — how `bench-serve` waits for a separately booted server.
pub fn wait_ready(addr: &str, attempts: u32, delay: Duration) -> bool {
    for _ in 0..attempts {
        let answer = Client::connect(addr, 2_000).and_then(|mut client| {
            client.send("/healthz", false)?;
            client.read_response()
        });
        if matches!(answer, Ok((200, _))) {
            return true;
        }
        std::thread::sleep(delay);
    }
    false
}

/// A tiny blocking HTTP/1.1 client over one connection, buffering
/// across keep-alive responses.
#[derive(Debug)]
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: &str, read_timeout_ms: u64) -> Result<Client, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_millis(read_timeout_ms.max(1))))
            .map_err(|e| format!("cannot set read timeout: {e}"))?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    fn send(&mut self, target: &str, keep_alive: bool) -> Result<(), String> {
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let head = format!("GET {target} HTTP/1.1\r\nConnection: {connection}\r\n\r\n");
        self.stream
            .write_all(head.as_bytes())
            .map_err(|e| format!("write failed: {e}"))
    }

    /// Reads one full response; returns `(status, body)`.
    fn read_response(&mut self) -> Result<(u16, Vec<u8>), String> {
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("malformed status line in {head:?}"))?;
        let length: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or("response without Content-Length")?;
        while self.buf.len() < head_end + length {
            self.fill()?;
        }
        let body = self.buf[head_end..head_end + length].to_vec();
        self.buf.drain(..head_end + length);
        Ok((status, body))
    }

    fn fill(&mut self) -> Result<(), String> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self
            .stream
            .read(&mut chunk)
            .map_err(|e| format!("read failed: {e}"))?;
        if n == 0 {
            return Err("server closed the connection mid-response".to_owned());
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

/// Replays `plan` against `cfg.addr` with `cfg.concurrency` workers,
/// asserting every response against `expected` (target → offline
/// `(status, body)`).
///
/// # Errors
///
/// Returns a message when no worker completes a single request (the
/// server is unreachable); individual request failures are *counted*,
/// not fatal.
pub fn replay(
    cfg: &LoadConfig,
    plan: &[String],
    expected: &HashMap<String, (u16, Vec<u8>)>,
) -> Result<LoadReport, String> {
    let workers = cfg.concurrency.max(1);
    let failures = AtomicU64::new(0);
    let identity_failures = AtomicU64::new(0);
    let body_bytes = AtomicU64::new(0);
    let totals = (&failures, &identity_failures, &body_bytes);
    let started = Instant::now();
    let latencies: Vec<u64> = std::thread::scope(|scope| {
        let lanes: Vec<_> = (0..workers)
            .map(|w| {
                let (failures, identity_failures, body_bytes) = totals;
                scope.spawn(move || {
                    let mut latencies = Vec::new();
                    let mut client: Option<Client> = None;
                    let mut on_conn = 0u64;
                    for target in plan.iter().skip(w).step_by(workers) {
                        if on_conn >= REQUESTS_PER_CONNECTION {
                            client = None;
                        }
                        let t0 = Instant::now();
                        let outcome = exchange(
                            &mut client,
                            &mut on_conn,
                            &cfg.addr,
                            cfg.read_timeout_ms,
                            target,
                        );
                        latencies.push(t0.elapsed().as_micros() as u64);
                        match outcome {
                            Ok((status, body)) => {
                                body_bytes.fetch_add(body.len() as u64, Ordering::Relaxed);
                                if let Some((want_status, want_body)) = expected.get(target) {
                                    if status != *want_status || body != *want_body {
                                        identity_failures.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                            }
                            Err(_) => {
                                failures.fetch_add(1, Ordering::Relaxed);
                                client = None;
                            }
                        }
                    }
                    latencies
                })
            })
            .collect();
        let joined = lanes.into_iter().filter_map(|lane| lane.join().ok());
        joined.flatten().collect()
    });
    let elapsed = started.elapsed();
    if latencies.is_empty() {
        return Err(format!("no request completed against {}", cfg.addr));
    }
    Ok(LoadReport::new(
        latencies,
        elapsed,
        failures.load(Ordering::Relaxed),
        identity_failures.load(Ordering::Relaxed),
        body_bytes.load(Ordering::Relaxed),
    ))
}

/// One request over a (re)usable keep-alive connection, reconnecting
/// once if the pooled connection went stale.
fn exchange(
    client: &mut Option<Client>,
    on_conn: &mut u64,
    addr: &str,
    read_timeout_ms: u64,
    target: &str,
) -> Result<(u16, Vec<u8>), String> {
    for attempt in 0..2 {
        if client.is_none() {
            *client = Some(Client::connect(addr, read_timeout_ms)?);
            *on_conn = 0;
        }
        let Some(c) = client.as_mut() else {
            continue;
        };
        let result = c.send(target, true).and_then(|()| c.read_response());
        match result {
            Ok(answer) => {
                *on_conn += 1;
                return Ok(answer);
            }
            Err(e) => {
                // A stale pooled connection fails the first attempt;
                // retry once on a fresh one.
                *client = None;
                if attempt == 1 {
                    return Err(e);
                }
            }
        }
    }
    Err("unreachable: both attempts returned".to_owned())
}

/// Precomputes offline `(status, body)` answers for every distinct
/// target in `plan` — the identity oracle a load run checks against.
pub fn expected_bodies(
    state: &ServeState,
    traffic: &TrafficModel,
    plan: &[String],
) -> HashMap<String, (u16, Vec<u8>)> {
    let mut expected = HashMap::new();
    for target in plan {
        if !expected.contains_key(target) {
            let (status, _reason, body) = state.respond(traffic, target);
            expected.insert(target.clone(), (status, body.into_owned().into_bytes()));
        }
    }
    expected
}

/// Runs the full Zipf load: builds the plan from the offline state,
/// precomputes expected bodies, replays, and reports.
///
/// # Errors
///
/// As for [`replay`].
pub fn run(
    cfg: &LoadConfig,
    state: &ServeState,
    traffic: &TrafficModel,
) -> Result<LoadReport, String> {
    let plan = zipf_plan(
        &state.snapshot.clean,
        &state.snapshot.table,
        cfg.requests,
        cfg.seed,
    );
    let expected = expected_bodies(state, traffic, &plan);
    replay(cfg, &plan, &expected)
}

/// Replays the fixed smoke set sequentially (one `Connection: close`
/// request each), asserting identity and optionally dumping each body
/// to `dump_dir/<name>.body` for the CI lane to `cmp`.
///
/// # Errors
///
/// Returns a message on transport failure or when a dump file cannot
/// be written; identity mismatches are counted in the report.
pub fn run_smoke(
    cfg: &LoadConfig,
    state: &ServeState,
    traffic: &TrafficModel,
    dump_dir: Option<&str>,
) -> Result<LoadReport, String> {
    let queries = smoke_queries(&state.snapshot.clean, &state.snapshot.table);
    let started = Instant::now();
    let mut latencies = Vec::with_capacity(queries.len());
    let mut identity_failures = 0u64;
    let mut body_bytes = 0u64;
    for query in &queries {
        let t0 = Instant::now();
        let mut client = Client::connect(&cfg.addr, cfg.read_timeout_ms)?;
        client.send(&query.target, false)?;
        let (status, body) = client.read_response()?;
        latencies.push(t0.elapsed().as_micros() as u64);
        body_bytes += body.len() as u64;
        let (want_status, _reason, want_body) = state.respond(traffic, &query.target);
        if status != want_status || body != want_body.as_bytes() {
            identity_failures += 1;
        }
        if let Some(dir) = dump_dir {
            let path = format!("{dir}/{}.body", query.name);
            std::fs::write(&path, &body).map_err(|e| format!("cannot write {path}: {e}"))?;
        }
    }
    Ok(LoadReport::new(
        latencies,
        started.elapsed(),
        0,
        identity_failures,
        body_bytes,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use tagdist::dataset::{filter, DatasetBuilder, RawPopularity};
    use tagdist::par::Pool;
    use tagdist::reconstruct::{EpochSnapshot, SnapshotCell};

    use crate::server::{Server, ServerConfig};

    fn state() -> (ServeState, TrafficModel) {
        let traffic = TrafficModel::reference(world());
        let cc = world().len();
        let mut b = DatasetBuilder::new(cc);
        for i in 0..300usize {
            let raw: Vec<u8> = (0..cc).map(|c| ((i * 11 + c * 3) % 62) as u8).collect();
            let tags: Vec<String> = (0..1 + i % 3)
                .map(|t| format!("z{}", (i + t) % 19))
                .collect();
            let tag_refs: Vec<&str> = tags.iter().map(String::as_str).collect();
            b.push_video(
                &format!("vid{i}"),
                100 + (i * 31) as u64,
                &tag_refs,
                RawPopularity::decode(raw, cc),
            );
        }
        let clean = filter(&b.build());
        let snapshot = Arc::new(EpochSnapshot::rebuild(1, clean, traffic.distribution()).unwrap());
        (ServeState::build(snapshot, traffic.distribution()), traffic)
    }

    #[test]
    fn plans_are_seed_deterministic_and_zipf_skewed() {
        let (state, _) = state();
        let clean = &state.snapshot.clean;
        let table = &state.snapshot.table;
        let a = zipf_plan(clean, table, 2_000, 7);
        let b = zipf_plan(clean, table, 2_000, 7);
        assert_eq!(a, b);
        let c = zipf_plan(clean, table, 2_000, 8);
        assert_ne!(a, c, "different seeds must reshuffle the plan");

        // Zipf skew: the single most frequent /tag target must clearly
        // outnumber the average /tag target.
        let mut counts: HashMap<&str, u64> = HashMap::new();
        let mut tag_total = 0u64;
        for t in &a {
            if t.starts_with("/tag/") {
                *counts.entry(t.as_str()).or_default() += 1;
                tag_total += 1;
            }
        }
        let max = counts.values().copied().max().unwrap();
        let mean = tag_total / counts.len() as u64;
        assert!(
            max > mean * 4,
            "head tag ({max}) should dominate the mean ({mean})"
        );
    }

    #[test]
    fn reports_take_percentiles_and_the_maximum_from_one_sort() {
        let latencies = (1..=200).rev().collect();
        let report = LoadReport::new(latencies, Duration::from_millis(400), 3, 1, 64);
        assert_eq!((report.requests, report.failures), (200, 3));
        assert_eq!((report.identity_failures, report.body_bytes), (1, 64));
        assert_eq!(
            (report.p50_us, report.p99_us, report.max_us),
            (100, 198, 200)
        );
        assert_eq!(report.elapsed_ms, 400);
        assert_eq!(report.throughput_rps, 500.0);
        assert!(report
            .summary()
            .contains("p50 100 us, p99 198 us, max 200 us"));
        assert!(report.to_json().contains("\"max_us\": 200"));

        let empty = LoadReport::new(Vec::new(), Duration::ZERO, 0, 0, 0);
        assert_eq!(
            (empty.p50_us, empty.max_us, empty.throughput_rps),
            (0, 0, 0.0)
        );
    }

    #[test]
    fn smoke_set_is_fixed_and_named() {
        let (state, _) = state();
        let queries = smoke_queries(&state.snapshot.clean, &state.snapshot.table);
        let names: Vec<&str> = queries.iter().map(|q| q.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "stats",
                "country_BR",
                "report",
                "tag_top",
                "video_first",
                "predict_top2"
            ]
        );
    }

    #[test]
    fn load_run_against_a_live_server_is_byte_identical() {
        let (offline, traffic) = state();
        let cell = Arc::new(SnapshotCell::new());
        cell.store(Arc::clone(&offline.snapshot));
        let server = Server::bind(
            "127.0.0.1:0",
            cell,
            traffic.clone(),
            ServerConfig::default(),
        )
        .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::spawn(move || {
            let pool = Pool::new(2);
            server.run(&pool, &flag)
        });
        assert!(wait_ready(&addr, 100, Duration::from_millis(10)));

        let cfg = LoadConfig {
            addr: addr.clone(),
            requests: 400,
            concurrency: 3,
            seed: 11,
            read_timeout_ms: 5_000,
        };
        let report = run(&cfg, &offline, &traffic).unwrap();
        assert_eq!(report.requests, 400);
        assert_eq!(report.failures, 0, "transport failures against localhost");
        assert_eq!(report.identity_failures, 0, "served bytes != offline bytes");
        assert!(report.throughput_rps > 0.0);

        let tmp = std::env::temp_dir().join(format!("tagdist-smoke-{}", std::process::id()));
        std::fs::create_dir_all(&tmp).unwrap();
        let smoke = run_smoke(&cfg, &offline, &traffic, tmp.to_str()).unwrap();
        assert_eq!(smoke.identity_failures, 0);
        assert_eq!(smoke.requests, 6);
        assert!(smoke.max_us >= smoke.p99_us);
        let stats_dump = std::fs::read(tmp.join("stats.body")).unwrap();
        assert_eq!(
            stats_dump,
            crate::query::stats_body(&offline.snapshot.clean).into_bytes()
        );
        std::fs::remove_dir_all(&tmp).unwrap();

        shutdown.store(true, Ordering::SeqCst);
        handle.join().unwrap().unwrap();
    }
}
