//! The server: a fixed set of workers, each blocking in `accept` on
//! the shared listener and serving one connection at a time, with the
//! epoch pinned per request.
//!
//! # Read path
//!
//! Before each request a worker *pins* the epoch: under one shared
//! mutex it loads the [`SnapshotCell`] and, if the published epoch
//! moved, builds its [`ServeState`] in place of the old one; then it
//! clones the state's `Arc` and answers from it with no lock held. A
//! request read after [`SnapshotCell::store`] returns is answered from
//! the stored epoch, so a keep-alive client sees each new epoch on its
//! next request, and two requests on one connection may answer from
//! different epochs. A slow or idle client holds only its own worker;
//! with one worker (`TAGDIST_THREADS=1`) it holds the server until its
//! read timeout.
//!
//! # Determinism at the socket
//!
//! Response bodies come from [`crate::query`] — the offline CLI's own
//! renderers over snapshot parts — and response heads carry no `Date`
//! or other varying header. A fixed query set therefore produces a
//! byte-fixed response stream and byte-fixed `serve.*` counters at any
//! `TAGDIST_THREADS`, which is what the CI serve-oracle lane `cmp`s
//! and the bench gate locks in.

use std::borrow::Cow;
use std::io::Write as _;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Duration;

use tagdist::geo::{GeoDist, TrafficModel};
use tagdist::obs::{Recorder, SpanGuard};
use tagdist::par::Pool;
use tagdist::reconstruct::{EpochSnapshot, SnapshotCell};
use tagdist::tags::GeoTagIndex;

use crate::http::{percent_decode, write_response, RequestReader};
use crate::query;

/// The coordinator's tick: how often the thread that called
/// [`Server::run`] re-reads the shutdown flag.
const IDLE_SLEEP: Duration = Duration::from_millis(1);

/// The default per-connection read timeout.
pub const DEFAULT_READ_TIMEOUT_MS: u64 = 5_000;

/// Coordinator ticks between `--watch` stat polls (~4 polls per
/// second).
const WATCH_POLL_ITERATIONS: u64 = 256;

/// Derived per-epoch read state: the pinned snapshot plus the
/// signature index `/country` needs (built once per epoch flip, never
/// mutated), and the `/stats` and `/report` bodies, each rendered on
/// its first request and served from memory after that. `/video` looks
/// keys up in the snapshot's own key index
/// ([`CleanDataset::position_of`](tagdist::dataset::CleanDataset::position_of)).
pub struct ServeState {
    /// The pinned epoch.
    pub snapshot: Arc<EpochSnapshot>,
    index: GeoTagIndex,
    stats: OnceLock<String>,
    report: OnceLock<String>,
}

impl std::fmt::Debug for ServeState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeState")
            .field("epoch", &self.snapshot.epoch)
            .field("videos", &self.snapshot.clean.len())
            .finish_non_exhaustive()
    }
}

impl ServeState {
    /// Builds the read state for one epoch: the canonical signature
    /// index ([`query::build_geo_index`]). The `/stats` and `/report`
    /// bodies are left to their first requests, so an epoch flip does
    /// not pay for whole-corpus passes nobody asked for.
    pub fn build(snapshot: Arc<EpochSnapshot>, traffic: &GeoDist) -> ServeState {
        let index = query::build_geo_index(&snapshot.table, traffic);
        ServeState {
            snapshot,
            index,
            stats: OnceLock::new(),
            report: OnceLock::new(),
        }
    }

    /// Routes one request target to `(status, reason, body)`. Pure:
    /// the same target against the same state yields the same bytes,
    /// and every 200 body is the corresponding offline command's
    /// output. The memoized `/stats` and `/report` bodies are borrowed
    /// from the state, so serving them copies nothing. (`/metrics` is
    /// served by the connection handler — it reads live counters, not
    /// epoch state.)
    pub fn respond(
        &self,
        traffic: &TrafficModel,
        target: &str,
    ) -> (u16, &'static str, Cow<'_, str>) {
        // Queries (`?…`) are accepted and ignored: routes are
        // path-shaped.
        let path = target.split('?').next().unwrap_or(target);
        let mut segments = path.split('/').skip(1);
        let head = segments.next().unwrap_or("");
        let clean = &self.snapshot.clean;
        let table = &self.snapshot.table;
        let answer = match (head, segments.next()) {
            ("healthz", None) => {
                let body = format!("ok epoch {}\n", self.snapshot.epoch);
                return (200, "OK", body.into());
            }
            ("stats", None) => {
                let body = self.stats.get_or_init(|| query::stats_body(clean));
                return (200, "OK", body.as_str().into());
            }
            ("report", None) => {
                let body = self
                    .report
                    .get_or_init(|| query::ingest_report_body(clean, table));
                return (200, "OK", body.as_str().into());
            }
            ("tag", Some(enc)) => match percent_decode(enc) {
                Some(name) => query::tag_body(clean, table, traffic.distribution(), &name),
                None => return bad_encoding(enc),
            },
            ("country", Some(code)) => match percent_decode(code) {
                Some(code) => query::country_body(clean, &self.index, traffic, &code),
                None => return bad_encoding(code),
            },
            ("video", Some(enc)) => match percent_decode(enc) {
                Some(key) => match clean.position_of(&key) {
                    Some(pos) => query::video_body(clean, &self.snapshot.recon, pos),
                    None => Err(query::QueryError::UnknownVideo(key)),
                },
                None => return bad_encoding(enc),
            },
            ("predict", Some(first)) => {
                let mut names = Vec::new();
                for enc in std::iter::once(first).chain(segments) {
                    match percent_decode(enc) {
                        Some(name) => names.push(name),
                        None => return bad_encoding(enc),
                    }
                }
                let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                query::predict_body(clean, table, traffic.distribution(), &refs)
            }
            _ => return (404, "Not Found", format!("no route for {path:?}\n").into()),
        };
        match answer {
            Ok(body) => (200, "OK", body.into()),
            Err(e) => (404, "Not Found", format!("{e}\n").into()),
        }
    }
}

fn bad_encoding(segment: &str) -> (u16, &'static str, Cow<'static, str>) {
    (
        400,
        "Bad Request",
        format!("bad percent-encoding in {segment:?}\n").into(),
    )
}

/// Deterministic `serve.*` counters. Totals over the server's
/// lifetime; none depends on `TAGDIST_THREADS` for a fixed query set.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Requests parsed and routed.
    pub requests: AtomicU64,
    /// Epoch pins taken (one per request answered from epoch state;
    /// `/metrics` pins nothing).
    pub epoch_pins: AtomicU64,
    /// Epoch flips observed by the workers.
    pub epoch_flips: AtomicU64,
    /// Total response bytes written (heads + bodies).
    pub bytes_written: AtomicU64,
    /// Connections that ended in a protocol error / disconnect.
    pub http_errors: AtomicU64,
    /// Successful `--watch` reloads published.
    pub reloads: AtomicU64,
    /// Failed `--watch` reload attempts (old epoch kept serving).
    pub reload_errors: AtomicU64,
}

impl ServeStats {
    /// Records the counters under a `serve` child span of `parent` —
    /// the shape the bench smoke report gates (`serve.requests`,
    /// `.epoch_pins`, `.bytes_written`, …).
    pub fn record_obs(&self, parent: &SpanGuard) {
        let span = parent.child("serve");
        let obs = span.recorder();
        for (name, counter) in [
            ("serve.connections", &self.connections),
            ("serve.requests", &self.requests),
            ("serve.epoch_pins", &self.epoch_pins),
            ("serve.epoch_flips", &self.epoch_flips),
            ("serve.bytes_written", &self.bytes_written),
            ("serve.http_errors", &self.http_errors),
            ("serve.reloads", &self.reloads),
            ("serve.reload_errors", &self.reload_errors),
        ] {
            obs.add(name, counter.load(Ordering::Relaxed));
        }
    }

    /// The live counters as the obs JSON tree — the `/metrics` body.
    pub fn metrics_json(&self) -> String {
        let recorder = Recorder::new();
        {
            let span = recorder.span("metrics");
            self.record_obs(&span);
        }
        recorder.finish().to_json()
    }
}

/// Server tunables.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Per-connection read timeout in milliseconds (0 → default).
    pub read_timeout_ms: u64,
    /// Re-sniff this file on mtime change and publish the reload as a
    /// new epoch (the cross-process composition with `tagdist crawl
    /// --ingest` / repeated `convert` runs).
    pub watch: Option<String>,
}

/// A bound listener plus everything the workers read from.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    cell: Arc<SnapshotCell>,
    traffic: TrafficModel,
    config: ServerConfig,
    stats: Arc<ServeStats>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port). The
    /// server answers from whatever epochs `cell` publishes.
    ///
    /// # Errors
    ///
    /// Returns a user-facing message when binding fails.
    pub fn bind(
        addr: &str,
        cell: Arc<SnapshotCell>,
        traffic: TrafficModel,
        config: ServerConfig,
    ) -> Result<Server, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
        Ok(Server {
            listener,
            cell,
            traffic,
            config,
            stats: Arc::new(ServeStats::default()),
        })
    }

    /// The bound address (the actual port when `:0` was requested).
    ///
    /// # Errors
    ///
    /// Propagates the OS error as a message.
    pub fn local_addr(&self) -> Result<SocketAddr, String> {
        self.listener
            .local_addr()
            .map_err(|e| format!("cannot read bound address: {e}"))
    }

    /// The live counters (shared; clone the `Arc` to read them from
    /// another thread while the server runs).
    pub fn stats(&self) -> Arc<ServeStats> {
        Arc::clone(&self.stats)
    }

    /// Serves until `shutdown` goes true, and returns cleanly then —
    /// the CI lane asserts exit code 0 after `kill -TERM`.
    ///
    /// The calling thread is the coordinator: it waits for the first
    /// published epoch (connections queue in the OS backlog until
    /// then), starts one worker per `pool` thread, and runs the
    /// `--watch` poll until shutdown. A reload publishes the file as
    /// the next epoch while the workers keep answering; a failed one
    /// keeps the old epoch serving.
    ///
    /// # Errors
    ///
    /// Returns a message when a worker thread cannot be started.
    /// Per-connection failures never stop the server.
    pub fn run(&self, pool: &Pool, shutdown: &AtomicBool) -> Result<(), String> {
        let read_timeout = match self.config.read_timeout_ms {
            0 => DEFAULT_READ_TIMEOUT_MS,
            ms => ms,
        };
        let first = loop {
            if shutdown.load(Ordering::SeqCst) {
                return Ok(());
            }
            if let Some(snapshot) = self.cell.load() {
                break snapshot;
            }
            std::thread::sleep(IDLE_SLEEP);
        };
        let state = ServeState::build(first, self.traffic.distribution());
        let current = Mutex::new(Arc::new(state));
        // Stamped before any worker answers, so a file replaced after
        // the first answer is always seen as a change.
        let mut watch_mtime = self.config.watch.as_deref().and_then(mtime_of);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let mut started = 0;
            let mut result = Ok(());
            while result.is_ok() && started < pool.threads() {
                result = std::thread::Builder::new()
                    .spawn_scoped(scope, || self.worker(&current, &stop, read_timeout))
                    .map(|_| started += 1)
                    .map_err(|e| format!("cannot start a server worker: {e}"));
            }
            let mut tick: u64 = 0;
            while result.is_ok() && !shutdown.load(Ordering::SeqCst) {
                std::thread::sleep(IDLE_SLEEP);
                tick = tick.wrapping_add(1);
                if tick % WATCH_POLL_ITERATIONS != 0 {
                    continue;
                }
                let Some(path) = self.config.watch.as_deref() else {
                    continue;
                };
                let modified = mtime_of(path);
                if modified.is_none() || modified == watch_mtime {
                    continue;
                }
                watch_mtime = modified;
                let epoch = self.cell.load().map_or(0, |s| s.epoch);
                let outcome = match reload(path, epoch + 1, &self.traffic) {
                    Ok(snapshot) => {
                        self.cell.store(snapshot);
                        &self.stats.reloads
                    }
                    Err(_) => &self.stats.reload_errors,
                };
                outcome.fetch_add(1, Ordering::Relaxed);
            }
            // One connection per worker, so each worker parked in
            // `accept` returns and sees `stop`. The flag alone would
            // not do: the signal handler is installed with `signal()`,
            // which restarts a blocked `accept`.
            stop.store(true, Ordering::SeqCst);
            if let Ok(mut addr) = self.listener.local_addr() {
                if addr.ip().is_unspecified() {
                    addr.set_ip(match addr {
                        SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                        SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                    });
                }
                for _ in 0..started {
                    let _ = TcpStream::connect(addr);
                }
            }
            result
        })
    }

    /// One worker: accept a connection, serve it to completion, repeat
    /// until `stop` is seen. The connections that wake it for shutdown
    /// are not counted.
    fn worker(&self, current: &Mutex<Arc<ServeState>>, stop: &AtomicBool, read_timeout_ms: u64) {
        loop {
            let accepted = self.listener.accept();
            if stop.load(Ordering::SeqCst) {
                return;
            }
            // Accept errors are per connection (aborted handshakes) or
            // fd exhaustion, which clears as other workers close theirs.
            if let Ok((stream, _peer)) = accepted {
                self.stats.connections.fetch_add(1, Ordering::Relaxed);
                handle_connection(&stream, self, current, read_timeout_ms);
            }
        }
    }

    /// Pins the latest published epoch for one request. The cell is
    /// read under `current`'s lock, so no worker swaps an older epoch
    /// back in, and a new epoch's state is built once while the other
    /// workers wait. A panicking build leaves the old state in place,
    /// so a poisoned lock still guards a valid state.
    fn pin(&self, current: &Mutex<Arc<ServeState>>) -> Arc<ServeState> {
        let mut state = current.lock().unwrap_or_else(PoisonError::into_inner);
        let published = self.cell.load();
        if let Some(snapshot) = published.filter(|s| s.epoch != state.snapshot.epoch) {
            *state = Arc::new(ServeState::build(snapshot, self.traffic.distribution()));
            self.stats.epoch_flips.fetch_add(1, Ordering::Relaxed);
        }
        self.stats.epoch_pins.fetch_add(1, Ordering::Relaxed);
        Arc::clone(&state)
    }
}

/// Stats a file into an opaque change fingerprint (length + the debug
/// form of its modification stamp). The stamp is only ever compared
/// for *change*, never read as a time, so no wall-clock type appears
/// here.
fn mtime_of(path: &str) -> Option<(u64, String)> {
    let meta = std::fs::metadata(path).ok()?;
    let stamp = meta.modified().ok().map(|t| format!("{t:?}"))?;
    Some((meta.len(), stamp))
}

/// Re-reads `path` and cold-builds the next epoch from it.
///
/// The file is read into memory, not mapped: a writer may truncate and
/// rewrite it in place at any moment, and a map would fault on the
/// pages cut off. A copy taken mid-rewrite fails its checksums or its
/// parse and counts as a failed reload; the rewrite's last write
/// changes the file's stamp again, so the next poll reloads it whole.
fn reload(path: &str, epoch: u64, traffic: &TrafficModel) -> Result<Arc<EpochSnapshot>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let clean = query::clean_from_bytes(&bytes, path)?;
    EpochSnapshot::rebuild(epoch, clean, traffic.distribution())
        .map(Arc::new)
        .map_err(|e| format!("reconstruction failed: {e}"))
}

/// Serves one connection to completion: requests in, responses out,
/// until close/EOF/error, each request answered from a fresh pin. Never
/// panics — a panicking worker would stop accepting and make
/// [`Server::run`] panic at shutdown, so every failure degrades to a
/// 4xx or a close on *this* connection only.
fn handle_connection(
    stream: &TcpStream,
    server: &Server,
    current: &Mutex<Arc<ServeState>>,
    read_timeout_ms: u64,
) {
    let stats = &server.stats;
    // Bound the read wait. Responses are written in one buffered
    // burst, so Nagle buys nothing and costs a delayed-ACK stall
    // (~40ms per keep-alive round trip) — disable it.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(read_timeout_ms.max(1))));
    let mut reader = RequestReader::new();
    let mut read_half = stream;
    let mut write_half = stream;
    loop {
        match reader.read_request(&mut read_half) {
            Ok(None) => break,
            Ok(Some(request)) => {
                stats.requests.fetch_add(1, Ordering::Relaxed);
                let pinned;
                let (status, reason, body, content_type) = if request.target == "/metrics" {
                    (200, "OK", stats.metrics_json().into(), "application/json")
                } else {
                    pinned = server.pin(current);
                    let (status, reason, body) = pinned.respond(&server.traffic, &request.target);
                    (status, reason, body, "text/plain; charset=utf-8")
                };
                match write_response(
                    &mut write_half,
                    status,
                    reason,
                    content_type,
                    body.as_bytes(),
                    request.keep_alive,
                ) {
                    Ok(n) => {
                        stats.bytes_written.fetch_add(n, Ordering::Relaxed);
                    }
                    Err(_) => {
                        stats.http_errors.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                }
                if !request.keep_alive {
                    break;
                }
            }
            Err(e) => {
                stats.http_errors.fetch_add(1, Ordering::Relaxed);
                if let Some((status, reason)) = e.status() {
                    let body = format!("{e}\n");
                    if let Ok(n) = write_response(
                        &mut write_half,
                        status,
                        reason,
                        "text/plain; charset=utf-8",
                        body.as_bytes(),
                        false,
                    ) {
                        stats.bytes_written.fetch_add(n, Ordering::Relaxed);
                    }
                }
                break;
            }
        }
    }
    let _ = write_half.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read as _;
    use std::path::{Path, PathBuf};
    use tagdist::dataset::{filter, write_binary, Dataset, DatasetBuilder, RawPopularity};
    use tagdist::geo::world;

    fn dataset(videos: usize) -> Dataset {
        let cc = world().len();
        let mut b = DatasetBuilder::new(cc);
        for i in 0..videos {
            let raw: Vec<u8> = (0..cc).map(|c| ((i * 17 + c * 5) % 62) as u8).collect();
            let tags: Vec<String> = (0..1 + i % 2)
                .map(|t| format!("s{}", (i + t) % 7))
                .collect();
            let tag_refs: Vec<&str> = tags.iter().map(String::as_str).collect();
            b.push_video(
                &format!("k{i}"),
                500 + i as u64,
                &tag_refs,
                RawPopularity::decode(raw, cc),
            );
        }
        b.build()
    }

    fn snapshot(videos: usize, epoch: u64) -> Arc<EpochSnapshot> {
        let traffic = TrafficModel::reference(world());
        let clean = filter(&dataset(videos));
        Arc::new(EpochSnapshot::rebuild(epoch, clean, traffic.distribution()).unwrap())
    }

    fn state() -> (ServeState, TrafficModel) {
        let traffic = TrafficModel::reference(world());
        (
            ServeState::build(snapshot(120, 1), traffic.distribution()),
            traffic,
        )
    }

    #[test]
    fn routes_answer_with_the_offline_bodies() {
        let (state, traffic) = state();
        let clean = &state.snapshot.clean;
        let table = &state.snapshot.table;

        let (status, _, body) = state.respond(&traffic, "/stats");
        assert_eq!(status, 200);
        assert_eq!(body, query::stats_body(clean));

        let (status, _, body) = state.respond(&traffic, "/tag/s0");
        assert_eq!(status, 200);
        assert_eq!(
            body,
            query::tag_body(clean, table, traffic.distribution(), "s0").unwrap()
        );

        let (status, _, body) = state.respond(&traffic, "/country/BR");
        assert_eq!(status, 200);
        let index = query::build_geo_index(table, traffic.distribution());
        assert_eq!(
            body,
            query::country_body(clean, &index, &traffic, "BR").unwrap()
        );

        let (status, _, body) = state.respond(&traffic, "/report");
        assert_eq!(status, 200);
        assert_eq!(body, query::ingest_report_body(clean, table));

        let key = clean.key_of(0);
        let target = format!("/video/{}", crate::http::percent_encode(key));
        let (status, _, body) = state.respond(&traffic, &target);
        assert_eq!(status, 200);
        assert_eq!(
            body,
            query::video_body(clean, &state.snapshot.recon, 0).unwrap()
        );

        let (status, _, body) = state.respond(&traffic, "/predict/s0/s1");
        assert_eq!(status, 200);
        assert_eq!(
            body,
            query::predict_body(clean, table, traffic.distribution(), &["s0", "s1"]).unwrap()
        );

        let (status, _, body) = state.respond(&traffic, "/healthz");
        assert_eq!(status, 200);
        assert_eq!(body, "ok epoch 1\n");
    }

    #[test]
    fn report_body_is_rendered_once_per_epoch() {
        let (state, traffic) = state();
        assert!(
            state.report.get().is_none(),
            "built without rendering /report"
        );
        let first = state.respond(&traffic, "/report");
        let memo = state.report.get().map(|body| body.as_ptr());
        assert!(memo.is_some());
        let second = state.respond(&traffic, "/report");
        assert_eq!(
            state.report.get().map(|body| body.as_ptr()),
            memo,
            "the second request is served from the first render"
        );
        assert!(
            matches!(second.2, Cow::Borrowed(body) if Some(body.as_ptr()) == memo),
            "the second response borrows the memo instead of copying it"
        );
        assert_eq!(second, first);
        let (clean, table) = (&state.snapshot.clean, &state.snapshot.table);
        assert_eq!(first.2, query::ingest_report_body(clean, table));
    }

    #[test]
    fn stats_body_is_rendered_once_per_epoch_and_never_changes() {
        let (state, traffic) = state();
        assert!(
            state.stats.get().is_none(),
            "built without rendering /stats"
        );
        let first = state.respond(&traffic, "/stats");
        assert!(state.stats.get().is_some());
        assert_eq!(state.respond(&traffic, "/stats"), first);
        assert_eq!(first.2, query::stats_body(&state.snapshot.clean));
    }

    #[test]
    fn an_empty_epoch_serves_stats_and_misses_every_video() {
        let traffic = TrafficModel::reference(world());
        let state = ServeState::build(snapshot(0, 1), traffic.distribution());
        assert_eq!(state.respond(&traffic, "/healthz").0, 200);
        let (status, _, body) = state.respond(&traffic, "/stats");
        assert_eq!(status, 200);
        assert_eq!(body, query::stats_body(&state.snapshot.clean));
        assert_eq!(state.respond(&traffic, "/video/k0").0, 404);
        assert_eq!(state.respond(&traffic, "/video/").0, 404);
    }

    #[test]
    fn unknown_routes_and_names_are_404s() {
        let (state, traffic) = state();
        assert_eq!(state.respond(&traffic, "/nope").0, 404);
        assert_eq!(state.respond(&traffic, "/tag/absent").0, 404);
        assert_eq!(state.respond(&traffic, "/country/XX").0, 404);
        assert_eq!(state.respond(&traffic, "/video/absent").0, 404);
        assert_eq!(state.respond(&traffic, "/tag/%zz").0, 400);
        assert_eq!(state.respond(&traffic, "/").0, 404);
    }

    /// Everything a socket-level test needs from a booted server:
    /// address, shutdown flag, stats handle, and the accept-loop join
    /// handle.
    type Booted = (
        SocketAddr,
        Arc<AtomicBool>,
        Arc<ServeStats>,
        std::thread::JoinHandle<Result<(), String>>,
    );

    /// Boots a real server on an ephemeral port against `cell`, with
    /// two workers.
    fn boot(cell: Arc<SnapshotCell>) -> Booted {
        boot_with(
            cell,
            ServerConfig {
                read_timeout_ms: 200,
                watch: None,
            },
        )
    }

    fn boot_with(cell: Arc<SnapshotCell>, config: ServerConfig) -> Booted {
        let traffic = TrafficModel::reference(world());
        let server = Server::bind("127.0.0.1:0", cell, traffic, config).unwrap();
        let addr = server.local_addr().unwrap();
        let stats = server.stats();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::spawn(move || {
            let pool = Pool::new(2);
            server.run(&pool, &flag)
        });
        (addr, shutdown, stats, handle)
    }

    fn get(addr: SocketAddr, target: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {target} HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let (head, body) = raw.split_once("\r\n\r\n").unwrap();
        (head.to_owned(), body.to_owned())
    }

    /// One `Connection: close` request from a client that gives up
    /// after `timeout` without an answer.
    fn get_within(addr: SocketAddr, target: &str, timeout: Duration) -> Result<String, String> {
        let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(timeout)).unwrap();
        write!(stream, "GET {target} HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream
            .read_to_string(&mut raw)
            .map_err(|e| format!("no answer within {timeout:?}: {e}"))?;
        raw.split_once("\r\n\r\n")
            .map(|(_, body)| body.to_owned())
            .ok_or_else(|| format!("malformed response {raw:?}"))
    }

    /// One request on a keep-alive connection; returns the body and
    /// leaves the connection open.
    fn keep_alive_get(stream: &mut TcpStream, target: &str) -> String {
        write!(stream, "GET {target} HTTP/1.1\r\n\r\n").unwrap();
        let mut head = Vec::new();
        while !head.ends_with(b"\r\n\r\n") {
            let mut byte = [0u8];
            stream.read_exact(&mut byte).unwrap();
            head.push(byte[0]);
        }
        let head = String::from_utf8(head).unwrap();
        let length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .parse()
            .unwrap();
        let mut body = vec![0u8; length];
        stream.read_exact(&mut body).unwrap();
        String::from_utf8(body).unwrap()
    }

    fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
        for _ in 0..2_000 {
            if done() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("timed out waiting for {what}");
    }

    #[test]
    fn idle_and_trickling_clients_do_not_stall_other_clients() {
        let cell = Arc::new(SnapshotCell::new());
        cell.store(snapshot(60, 1));
        let config = ServerConfig {
            read_timeout_ms: 30_000,
            watch: None,
        };
        let (addr, shutdown, stats, handle) = boot_with(cell, config);
        let patient = Duration::from_secs(2);

        // Answered once, then silent: its worker waits out the 30 s
        // read timeout for the next request.
        let mut idle = TcpStream::connect(addr).unwrap();
        assert_eq!(keep_alive_get(&mut idle, "/healthz"), "ok epoch 1\n");
        assert_eq!(
            get_within(addr, "/healthz", patient),
            Ok("ok epoch 1\n".to_owned())
        );
        drop(idle);

        // Answered once, then sends its next request a byte every
        // 100 ms. (Both kinds at once would hold both workers.)
        let mut trickle = TcpStream::connect(addr).unwrap();
        assert_eq!(keep_alive_get(&mut trickle, "/healthz"), "ok epoch 1\n");
        let done = AtomicBool::new(false);
        let answer = std::thread::scope(|scope| {
            scope.spawn(|| {
                for byte in b"GET /healthz HTTP/1.1\r\n" {
                    if done.load(Ordering::SeqCst) || trickle.write_all(&[*byte]).is_err() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
            });
            let answer = get_within(addr, "/healthz", patient);
            done.store(true, Ordering::SeqCst);
            answer
        });
        assert_eq!(answer, Ok("ok epoch 1\n".to_owned()));
        drop(trickle);

        shutdown.store(true, Ordering::SeqCst);
        handle.join().unwrap().unwrap();
        assert_eq!(stats.connections.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn a_keep_alive_connection_answers_each_request_from_the_latest_epoch() {
        let cell = Arc::new(SnapshotCell::new());
        cell.store(snapshot(60, 1));
        let (addr, shutdown, stats, handle) = boot(Arc::clone(&cell));

        let mut conn = TcpStream::connect(addr).unwrap();
        assert_eq!(keep_alive_get(&mut conn, "/healthz"), "ok epoch 1\n");
        cell.store(snapshot(90, 2));
        assert_eq!(keep_alive_get(&mut conn, "/healthz"), "ok epoch 2\n");
        drop(conn);

        shutdown.store(true, Ordering::SeqCst);
        handle.join().unwrap().unwrap();
        assert_eq!(stats.connections.load(Ordering::Relaxed), 1);
        assert_eq!(stats.epoch_pins.load(Ordering::Relaxed), 2);
        assert_eq!(stats.epoch_flips.load(Ordering::Relaxed), 1);
    }

    /// Replaces `path` the supported way: write a sibling, then rename
    /// it over the served file.
    fn replace(path: &Path, bytes: &[u8]) {
        let staged = path.with_extension("staged");
        std::fs::write(&staged, bytes).unwrap();
        std::fs::rename(&staged, path).unwrap();
    }

    fn corpus_bytes(videos: usize) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_binary(&dataset(videos), &mut bytes).unwrap();
        bytes
    }

    /// A `--watch` server over a fresh `corpus.bin` of 60 videos,
    /// published as epoch 1.
    fn boot_watching(name: &str) -> (PathBuf, Booted) {
        let dir = std::env::temp_dir().join(format!("tagdist-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.bin");
        replace(&path, &corpus_bytes(60));
        let traffic = TrafficModel::reference(world());
        let clean = query::load_clean(path.to_str().unwrap()).unwrap();
        let cell = Arc::new(SnapshotCell::new());
        cell.store(Arc::new(
            EpochSnapshot::rebuild(1, clean, traffic.distribution()).unwrap(),
        ));
        let config = ServerConfig {
            read_timeout_ms: 200,
            watch: Some(path.to_str().unwrap().to_owned()),
        };
        let booted = boot_with(cell, config);
        assert_eq!(get(booted.0, "/healthz").1, "ok epoch 1\n");
        (path, booted)
    }

    #[test]
    fn watch_publishes_a_renamed_replacement_as_the_next_epoch() {
        let (path, (addr, shutdown, stats, handle)) = boot_watching("watch-rename");
        replace(&path, &corpus_bytes(90));
        wait_for("the reload", || get(addr, "/healthz").1 == "ok epoch 2\n");
        let reloaded = query::load_clean(path.to_str().unwrap()).unwrap();
        assert_eq!(get(addr, "/stats").1, query::stats_body(&reloaded));

        shutdown.store(true, Ordering::SeqCst);
        handle.join().unwrap().unwrap();
        assert_eq!(stats.reloads.load(Ordering::Relaxed), 1);
        assert_eq!(stats.reload_errors.load(Ordering::Relaxed), 0);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn watch_rejects_a_torn_rewrite_and_keeps_the_old_epoch() {
        let (path, (addr, shutdown, stats, handle)) = boot_watching("watch-torn");
        let served = get(addr, "/stats").1;
        // Cut inside the section table, in section 4's checksum: the
        // magic line, four u32 counts, three whole 28-byte entries and
        // 20 bytes of the fourth.
        let cut = b"#tagdist-dataset bin v1\n".len() + 16 + 3 * 28 + 20;
        replace(&path, &corpus_bytes(90)[..cut]);
        wait_for("the failed reload", || {
            stats.reload_errors.load(Ordering::Relaxed) == 1
        });
        assert_eq!(get(addr, "/healthz").1, "ok epoch 1\n");
        assert_eq!(get(addr, "/stats").1, served);

        shutdown.store(true, Ordering::SeqCst);
        handle.join().unwrap().unwrap();
        assert_eq!(stats.reloads.load(Ordering::Relaxed), 0);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    /// Truncates `path` and writes `bytes` into the same inode.
    fn rewrite_in_place(path: &Path, bytes: &[u8]) {
        let mut file = std::fs::OpenOptions::new()
            .write(true)
            .truncate(true)
            .open(path)
            .unwrap();
        file.write_all(bytes).unwrap();
    }

    /// A writer that truncates the served file and rewrites it in
    /// place, over and over, races every reload's read. A copy read
    /// mid-rewrite must fail as a counted reload error, not fault the
    /// server. Once the writer stops, one last rewrite (its stamp a
    /// fresh one after a pause) must be served.
    #[test]
    fn watch_survives_in_place_rewrites_and_ends_on_the_final_file() {
        let (path, (addr, shutdown, stats, handle)) = boot_watching("watch-in-place");
        let bytes = corpus_bytes(1_500);
        let started = std::time::Instant::now();
        while started.elapsed() < Duration::from_millis(1_500) {
            rewrite_in_place(&path, &bytes);
        }
        std::thread::sleep(Duration::from_millis(50));
        rewrite_in_place(&path, &bytes);
        let want = query::stats_body(&query::load_clean(path.to_str().unwrap()).unwrap());
        wait_for("the final reload", || get(addr, "/stats").1 == want);

        shutdown.store(true, Ordering::SeqCst);
        handle.join().unwrap().unwrap();
        assert!(stats.reloads.load(Ordering::Relaxed) >= 1);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn end_to_end_over_a_socket_with_an_epoch_flip() {
        let cell = Arc::new(SnapshotCell::new());
        cell.store(snapshot(60, 1));
        let (addr, shutdown, stats, handle) = boot(Arc::clone(&cell));

        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert_eq!(body, "ok epoch 1\n");

        // Publish a new epoch under the running server; it must flip.
        cell.store(snapshot(90, 2));
        let deadline = 200;
        let mut flipped = false;
        for _ in 0..deadline {
            if get(addr, "/healthz").1 == "ok epoch 2\n" {
                flipped = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(flipped, "server never observed epoch 2");

        let (head, body) = get(addr, "/metrics");
        assert!(head.contains("application/json"));
        assert!(body.contains("serve.requests"));

        shutdown.store(true, Ordering::SeqCst);
        handle.join().unwrap().unwrap();
        assert!(stats.requests.load(Ordering::Relaxed) >= 3);
        assert_eq!(stats.http_errors.load(Ordering::Relaxed), 0);
        assert!(stats.epoch_flips.load(Ordering::Relaxed) >= 1);
    }
}
