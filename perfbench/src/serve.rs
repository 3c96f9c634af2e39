//! `serve_zipf`: the in-process `Server`, with a pool of one worker per
//! hardware thread, over the epoch-1 snapshot of the corpus, driven by
//! `loadgen`'s seeded Zipf plan (60/15/10/7/8 tag/country/video/
//! predict/stats) in a closed loop: one keep-alive connection of 256
//! requests at a time, every response byte-checked against
//! `loadgen::expected_bodies`. The read path only; no ingest work.
//!
//! One client connection keeps the client, the worker that serves it
//! and the accept loop within a two-core host, so the figures measure
//! the server rather than the scheduler. The plan is replayed with its
//! routes interleaved in the exact 60/15/10/7/8 proportion (each
//! route's targets in their seeded order), so a run's mix of cheap
//! lookups and whole-corpus `/stats` renders does not vary by seed.
//! An untraced run boots the server [`SEGMENTS`] times and drives an
//! equal share of its seconds after each boot; `ready_s` is the median
//! boot.

use std::collections::{HashMap, VecDeque};
use std::io::{Cursor, Read as _, Write as _};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tagdist::geo::TrafficModel;
use tagdist::par::Pool;
use tagdist::reconstruct::{EpochSnapshot, SnapshotCell};
use tagdist_serve::http::{write_response, RequestReader};
use tagdist_serve::loadgen::{expected_bodies, zipf_plan};
use tagdist_serve::query::load_clean;
use tagdist_serve::{ServeState, ServeStats, Server, ServerConfig};

use crate::measure::{self, median, percentile, timed, Outcome};
use crate::{corpus, Ctx, SETUP_REPS};

/// Requests per keep-alive connection before the client reconnects.
const REQUESTS_PER_CONNECTION: u64 = 256;

/// Client connections open at once.
pub const CONNECTIONS: usize = 1;

/// Server boots after set-up, timed alongside set-up's own boots for
/// the median `ready_s`.
const READY_REBOOTS: usize = 3;

/// Boots in an untraced run, each followed by an equal share of the
/// run's seconds of load.
const SEGMENTS: usize = SETUP_REPS + READY_REBOOTS;

/// Targets in the seeded plan; clients cycle through it.
const PLAN_REQUESTS: u64 = 1 << 16;

/// The plan's routes, in the order per-route metrics are named.
const ROUTES: [&str; 5] = ["tag", "country", "video", "predict", "stats"];

/// `loadgen`'s route mix in percent, in [`ROUTES`] order.
const MIX: [i64; 5] = [60, 15, 10, 7, 8];

/// Plan targets whose render, parse and write are timed by direct call.
const DIRECT_SAMPLES: usize = 256;

/// Repetitions per direct parse or write call, so one timing spans
/// well above the clock's resolution.
const DIRECT_REPEAT: u32 = 64;

fn route_of(target: &str) -> usize {
    let head = target
        .trim_start_matches('/')
        .split('/')
        .next()
        .unwrap_or("");
    ROUTES
        .iter()
        .position(|r| *r == head)
        .unwrap_or(ROUTES.len() - 1)
}

/// Reorders `plan` so every route appears in its [`MIX`] share of any
/// window of 100 requests (smooth weighted round-robin), each route's
/// targets keeping their plan order. Stops at the first route that
/// runs out.
fn interleave(plan: &[String]) -> Vec<String> {
    let mut queues: [VecDeque<&String>; 5] = Default::default();
    for target in plan {
        queues[route_of(target)].push_back(target);
    }
    let total: i64 = MIX.iter().sum();
    let mut credit = [0i64; 5];
    let mut out = Vec::with_capacity(plan.len());
    loop {
        for (c, w) in credit.iter_mut().zip(MIX) {
            *c += w;
        }
        let pick =
            (0..MIX.len()).fold(0, |best, r| if credit[r] > credit[best] { r } else { best });
        credit[pick] -= total;
        match queues[pick].pop_front() {
            Some(target) => out.push(target.clone()),
            None => return out,
        }
    }
}

/// A booted server on an ephemeral port.
struct Live {
    addr: String,
    stats: Arc<ServeStats>,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Result<(), String>>,
    snapshot: Arc<EpochSnapshot>,
}

impl Live {
    fn shutdown(self) -> Result<(), String> {
        self.stop.store(true, Ordering::SeqCst);
        self.handle
            .join()
            .map_err(|_| "server thread panicked".to_owned())?
    }
}

/// Boots the server over the corpus file as `tagdist serve` does —
/// load, rebuild epoch 1, bind, run — and waits for its first answer.
fn boot(path: &Path, traffic: &TrafficModel, threads: usize) -> Result<Live, String> {
    let clean = load_clean(&path.to_string_lossy())?;
    let snapshot = Arc::new(
        EpochSnapshot::rebuild(1, clean, traffic.distribution()).map_err(|e| e.to_string())?,
    );
    let cell = Arc::new(SnapshotCell::new());
    cell.store(Arc::clone(&snapshot));
    let server = Server::bind(
        "127.0.0.1:0",
        cell,
        traffic.clone(),
        ServerConfig::default(),
    )?;
    let addr = server.local_addr()?.to_string();
    let stats = server.stats();
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let handle = std::thread::spawn(move || server.run(&Pool::new(threads), &flag));
    let live = Live {
        addr,
        stats,
        stop,
        handle,
        snapshot,
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let answered = Client::connect(&live.addr)
            .and_then(|mut c| c.get("/healthz"))
            .is_ok_and(|(status, _)| status == 200);
        if answered {
            return Ok(live);
        }
        if Instant::now() > deadline {
            live.shutdown()?;
            return Err("server never answered /healthz".to_owned());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A blocking HTTP/1.1 keep-alive client.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| format!("read timeout: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// Sends one keep-alive GET and reads the full response.
    fn get(&mut self, target: &str) -> Result<(u16, Vec<u8>), String> {
        let head = format!("GET {target} HTTP/1.1\r\nConnection: keep-alive\r\n\r\n");
        self.stream
            .write_all(head.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|e| e.to_string())?;
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or("malformed status line")?;
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
        let mut chunk = [0u8; 64 * 1024];
        let n = self
            .stream
            .read(&mut chunk)
            .map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("server closed the connection mid-response".to_owned());
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

/// What one closed-loop drive observed.
#[derive(Debug, Default)]
struct Drive {
    /// `(route, microseconds)` per completed request.
    samples: Vec<(usize, f64)>,
    failures: u64,
    identity_failures: u64,
    seconds: f64,
}

impl Drive {
    /// Adds `other`'s requests, failures and seconds to these.
    fn absorb(&mut self, other: Drive) {
        self.samples.extend(other.samples);
        self.failures += other.failures;
        self.identity_failures += other.identity_failures;
        self.seconds += other.seconds;
    }

    fn latencies(&self, route: Option<usize>) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|(r, _)| route.is_none_or(|want| *r == want))
            .map(|(_, us)| *us)
            .collect()
    }
}

/// Runs `connections` client threads against `addr` for `seconds`, each
/// walking its share of `plan` (wrapping around), 256 requests per
/// connection.
fn drive(
    addr: &str,
    plan: &[String],
    expected: &HashMap<String, (u16, Vec<u8>)>,
    connections: usize,
    seconds: f64,
) -> Drive {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let lanes: Vec<Drive> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|lane| {
                scope.spawn(move || {
                    let mut out = Drive::default();
                    let mut client: Option<Client> = None;
                    let mut on_connection = 0;
                    let mut next = lane;
                    while Instant::now() < deadline {
                        let target = &plan[next % plan.len()];
                        next += connections;
                        if on_connection == REQUESTS_PER_CONNECTION {
                            client = None;
                        }
                        let t0 = Instant::now();
                        let answer = exchange(&mut client, &mut on_connection, addr, target);
                        let us = t0.elapsed().as_secs_f64() * 1e6;
                        match answer {
                            Ok((status, body)) => {
                                out.samples.push((route_of(target), us));
                                let want = expected.get(target);
                                if want.is_none_or(|(s, b)| *s != status || *b != body) {
                                    out.identity_failures += 1;
                                }
                            }
                            Err(_) => {
                                out.failures += 1;
                                client = None;
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| Drive {
                    failures: 1,
                    ..Drive::default()
                })
            })
            .collect()
    });
    let mut all = Drive {
        seconds: started.elapsed().as_secs_f64(),
        ..Drive::default()
    };
    for lane in lanes {
        all.absorb(lane);
    }
    all
}

/// One request over a reusable connection, reconnecting once if the
/// pooled connection went stale.
fn exchange(
    client: &mut Option<Client>,
    on_connection: &mut u64,
    addr: &str,
    target: &str,
) -> Result<(u16, Vec<u8>), String> {
    let mut last = String::new();
    for _ in 0..2 {
        if client.is_none() {
            *client = Some(Client::connect(addr)?);
            *on_connection = 0;
        }
        let Some(c) = client.as_mut() else { continue };
        match c.get(target) {
            Ok(answer) => {
                *on_connection += 1;
                return Ok(answer);
            }
            Err(e) => {
                *client = None;
                last = e;
            }
        }
    }
    Err(last)
}

/// Direct-call medians over the first [`DIRECT_SAMPLES`] plan targets:
/// render per route (`ServeState::respond`), the whole mix's render,
/// parse (`RequestReader::read_request` over in-memory bytes) and write
/// (`write_response` into a sink), all in microseconds.
struct Direct {
    render: [f64; 5],
    render_mix: f64,
    parse: f64,
    write: f64,
}

fn direct(state: &ServeState, traffic: &TrafficModel, plan: &[String]) -> Result<Direct, String> {
    let mut per_route: [Vec<f64>; 5] = Default::default();
    let (mut mix, mut parse, mut write) = (Vec::new(), Vec::new(), Vec::new());
    let mut sample = |target: &str| -> Result<(), String> {
        let ((status, reason, body), span) = timed(|| state.respond(traffic, target));
        per_route[route_of(target)].push(span.seconds * 1e6);
        mix.push(span.seconds * 1e6);

        let request = format!("GET {target} HTTP/1.1\r\nConnection: keep-alive\r\n\r\n");
        let (parsed, span) = timed(|| {
            (0..DIRECT_REPEAT).all(|_| {
                let mut reader = RequestReader::new();
                matches!(
                    reader.read_request(&mut Cursor::new(request.as_bytes())),
                    Ok(Some(_))
                )
            })
        });
        if !parsed {
            return Err(format!("request for {target} did not parse"));
        }
        parse.push(span.seconds * 1e6 / f64::from(DIRECT_REPEAT));

        let content = "text/plain; charset=utf-8";
        let (written, span) = timed(|| {
            (0..DIRECT_REPEAT).all(|_| {
                write_response(
                    &mut std::io::sink(),
                    status,
                    reason,
                    content,
                    body.as_bytes(),
                    true,
                )
                .is_ok()
            })
        });
        if !written {
            return Err(format!("response for {target} did not write"));
        }
        write.push(span.seconds * 1e6 / f64::from(DIRECT_REPEAT));
        Ok(())
    };
    for target in plan.iter().take(DIRECT_SAMPLES) {
        sample(target)?;
    }
    // Every route gets at least one sample, however the plan opens.
    for (route, name) in ROUTES.iter().enumerate() {
        if let Some(target) = plan.iter().find(|t| route_of(t) == route) {
            if !plan
                .iter()
                .take(DIRECT_SAMPLES)
                .any(|t| route_of(t) == route)
            {
                sample(target)?;
            }
        } else {
            return Err(format!("the plan has no {name} request"));
        }
    }
    Ok(Direct {
        render: per_route.map(|v| median(&v)),
        render_mix: median(&mix),
        parse: median(&parse),
        write: median(&write),
    })
}

/// The plan a run replays and the status and body each target must get.
struct Replay {
    plan: Vec<String>,
    expected: HashMap<String, (u16, Vec<u8>)>,
}

impl Replay {
    /// Built from a state dropped on return, so a later reboot never
    /// holds two snapshots at once.
    fn new(snapshot: &Arc<EpochSnapshot>, traffic: &TrafficModel, seed: u64) -> Replay {
        let state = ServeState::build(Arc::clone(snapshot), traffic.distribution());
        let plan = interleave(&zipf_plan(
            &state.snapshot.clean,
            &state.snapshot.table,
            PLAN_REQUESTS,
            seed,
        ));
        let expected = expected_bodies(&state, traffic, &plan);
        Replay { plan, expected }
    }
}

pub fn run(ctx: &Ctx) -> Result<(Outcome, u64), String> {
    let traffic = &ctx.traffic;
    let mut boots = Vec::with_capacity(SEGMENTS);
    let mut replay: Option<Replay> = None;
    let mut untraced = Drive::default();
    // An untraced run drives a share of its seconds after every boot,
    // set-up's included, so its figures span the whole run rather than
    // one stretch of a host whose speed drifts. Peak memory is taken
    // over the last share, after every boot has run.
    let mut reboot = |live: &mut Option<Live>| -> Result<f64, String> {
        if let Some(previous) = live.take() {
            previous.shutdown()?;
        }
        let (booted, span) = timed(|| boot(&ctx.path, traffic, ctx.threads));
        let booted = booted?;
        boots.push(span.seconds);
        if !ctx.trace {
            let r = replay.get_or_insert_with(|| Replay::new(&booted.snapshot, traffic, ctx.seed));
            if boots.len() == SEGMENTS {
                measure::reset_peak_rss();
            }
            let share = ctx.seconds / SEGMENTS as f64;
            untraced.absorb(drive(
                &booted.addr,
                &r.plan,
                &r.expected,
                CONNECTIONS,
                share,
            ));
        }
        *live = Some(booted);
        Ok(span.seconds)
    };
    let mut live: Option<Live> = None;
    let setup = corpus::set_up(
        ctx.seed,
        ctx.videos,
        ctx.countries(),
        &ctx.path,
        SETUP_REPS,
        |_| reboot(&mut live),
    )?;
    if !ctx.trace {
        for _ in 0..READY_REBOOTS {
            reboot(&mut live)?;
        }
    }
    let live = live.ok_or("no server was booted")?;

    let mut outcome = Outcome::default();
    let (drives, replay) = if ctx.trace {
        let r = Replay::new(&live.snapshot, traffic, ctx.seed);
        let plain = drive(
            &live.addr,
            &r.plan,
            &r.expected,
            CONNECTIONS,
            ctx.seconds / 2.0,
        );
        measure::set_tracing(true);
        let traced = drive(
            &live.addr,
            &r.plan,
            &r.expected,
            CONNECTIONS,
            ctx.seconds / 2.0,
        );
        measure::set_tracing(false);
        (vec![plain, traced], r)
    } else {
        (vec![untraced], replay.ok_or("no request was replayed")?)
    };
    let stats = Arc::clone(&live.stats);
    let snapshot = Arc::clone(&live.snapshot);
    live.shutdown()?;
    for d in &drives {
        outcome.attempted += d.samples.len() as u64 + d.failures;
        outcome.failed += d.failures + d.identity_failures;
    }

    let m = &mut outcome.metrics;
    let p50 = |d: &Drive, route: Option<usize>| median(&d.latencies(route));
    if let [plain, traced] = drives.as_slice() {
        let (state, state_build) = timed(|| ServeState::build(snapshot, traffic.distribution()));
        let calls = direct(&state, traffic, &replay.plan)?;
        let client_p50 = p50(traced, None);
        for (route, name) in ROUTES.iter().enumerate() {
            m.set(
                format!("serve.client_p50_us.{name}"),
                p50(traced, Some(route)),
                "us",
            );
            m.set(format!("serve.render_us.{name}"), calls.render[route], "us");
        }
        m.set(
            "serve.client_p99_us",
            percentile(&traced.latencies(None), 99.0),
            "us",
        );
        m.set("serve.samples", traced.samples.len() as f64, "count");
        m.set("serve.parse_us", calls.parse, "us");
        m.set("serve.write_us", calls.write, "us");
        m.set(
            "serve.wait_us",
            client_p50 - (calls.parse + calls.render_mix + calls.write),
            "us",
        );
        let requests = stats.requests.load(Ordering::Relaxed) as f64;
        let bytes = stats.bytes_written.load(Ordering::Relaxed) as f64;
        let connections = stats.connections.load(Ordering::Relaxed) as f64;
        m.set("serve.bytes_per_request", bytes / requests, "bytes");
        m.set(
            "serve.requests_per_connection",
            requests / connections,
            "count",
        );
        m.set("serve.state_build_s", state_build.seconds, "s");
        m.set(
            "dataset.kept_ratio",
            state.snapshot.clean.report().keep_ratio(),
            "ratio",
        );
        m.set(
            "trace_overhead_ratio",
            client_p50 / p50(plain, None),
            "ratio",
        );
    } else {
        let d = &drives[0];
        m.set("setup_s", setup.setup_s, "s");
        m.set("ready_s", median(&boots), "s");
        m.set("op_p50_ms", p50(d, None) / 1e3, "ms");
        m.set("ops_per_s", d.samples.len() as f64 / d.seconds, "1/s");
        m.set("peak_rss_mb", measure::peak_rss_mb()?, "MiB");
    }
    Ok((outcome, setup.digest))
}
