//! The accept loop: non-blocking accepts drained in batches onto the
//! `tagdist-par` worker pool, every connection served from a pinned
//! epoch.
//!
//! # Read path
//!
//! The server never holds a lock while answering. Each loop iteration
//! polls the [`SnapshotCell`] (one mutex-guarded `Arc` clone — the
//! same cost a reader of the ingest engine pays); when the published
//! epoch changes, it derives a fresh [`ServeState`] (signature-tag
//! index + key index) and swaps its local `Arc`. Connections clone
//! that `Arc` — *pinning* the epoch — and keep it for their whole
//! lifetime, so an `--ingest` crawl or a `--watch` reload can publish
//! new epochs under live traffic while in-flight requests keep reading
//! a consistent, immutable state.
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
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use tagdist::geo::{GeoDist, TrafficModel};
use tagdist::obs::{Recorder, SpanGuard};
use tagdist::par::Pool;
use tagdist::reconstruct::{EpochSnapshot, SnapshotCell};
use tagdist::tags::GeoTagIndex;

use crate::http::{percent_decode, write_response, RequestReader};
use crate::keys::KeyIndex;
use crate::query;

/// How many ready connections one loop iteration drains, per pool
/// thread. Connections beyond the batch wait in the OS backlog.
const ACCEPTS_PER_THREAD: usize = 4;

/// Idle nap between empty accept polls.
const IDLE_SLEEP: Duration = Duration::from_millis(1);

/// The default per-connection read timeout.
pub const DEFAULT_READ_TIMEOUT_MS: u64 = 5_000;

/// Accept-loop iterations between `--watch` stat polls (iterations are
/// ~1 ms when idle, so ~4 polls per second).
const WATCH_POLL_ITERATIONS: u64 = 256;

/// Derived per-epoch read state: the pinned snapshot plus the two
/// indices queries need (built once per epoch flip, never mutated),
/// and the `/stats` and `/report` bodies, each rendered on its first
/// request and served from memory after that.
pub struct ServeState {
    /// The pinned epoch.
    pub snapshot: Arc<EpochSnapshot>,
    index: GeoTagIndex,
    keys: KeyIndex,
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
    /// index ([`query::build_geo_index`]) and the key → position
    /// index. The `/stats` and `/report` bodies are left to their first
    /// requests, so an epoch flip does not pay for whole-corpus passes
    /// nobody asked for.
    pub fn build(snapshot: Arc<EpochSnapshot>, traffic: &GeoDist) -> ServeState {
        let index = query::build_geo_index(&snapshot.table, traffic);
        let keys = KeyIndex::build(&snapshot.clean);
        ServeState {
            snapshot,
            index,
            keys,
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
                Some(key) => match self.keys.get(clean, &key) {
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
    /// Epoch pins taken (one per connection).
    pub epoch_pins: AtomicU64,
    /// Epoch flips observed by the accept loop.
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
        obs.add(
            "serve.connections",
            self.connections.load(Ordering::Relaxed),
        );
        obs.add("serve.requests", self.requests.load(Ordering::Relaxed));
        obs.add("serve.epoch_pins", self.epoch_pins.load(Ordering::Relaxed));
        obs.add(
            "serve.epoch_flips",
            self.epoch_flips.load(Ordering::Relaxed),
        );
        obs.add(
            "serve.bytes_written",
            self.bytes_written.load(Ordering::Relaxed),
        );
        obs.add(
            "serve.http_errors",
            self.http_errors.load(Ordering::Relaxed),
        );
        obs.add("serve.reloads", self.reloads.load(Ordering::Relaxed));
        obs.add(
            "serve.reload_errors",
            self.reload_errors.load(Ordering::Relaxed),
        );
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

/// A bound listener plus everything the accept loop reads from.
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

    /// Runs the accept loop until `shutdown` goes true: drain ready
    /// connections, dispatch the batch onto `pool`, repeat. Returns
    /// cleanly on shutdown — the CI lane asserts exit code 0 after
    /// `kill -TERM`.
    ///
    /// # Errors
    ///
    /// Returns a message when the listener cannot enter non-blocking
    /// mode. Per-connection failures never abort the loop.
    pub fn run(&self, pool: &Pool, shutdown: &AtomicBool) -> Result<(), String> {
        self.listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot set non-blocking accept: {e}"))?;
        let read_timeout = match self.config.read_timeout_ms {
            0 => DEFAULT_READ_TIMEOUT_MS,
            ms => ms,
        };
        let batch_limit = pool.threads().max(1) * ACCEPTS_PER_THREAD;
        let mut state: Option<Arc<ServeState>> = None;
        let mut watch_mtime = self.config.watch.as_deref().and_then(mtime_of);
        let mut iteration: u64 = 0;

        while !shutdown.load(Ordering::SeqCst) {
            iteration = iteration.wrapping_add(1);

            // Epoch flip check: one Arc clone under the cell's mutex.
            if let Some(snapshot) = self.cell.load() {
                let stale = state
                    .as_ref()
                    .is_none_or(|s| s.snapshot.epoch != snapshot.epoch);
                if stale {
                    if state.is_some() {
                        self.stats.epoch_flips.fetch_add(1, Ordering::Relaxed);
                    }
                    state = Some(Arc::new(ServeState::build(
                        snapshot,
                        self.traffic.distribution(),
                    )));
                }
            }

            // --watch: poll the file's mtime every few hundred
            // iterations; on change, re-sniff and publish a new epoch.
            // A failed reload keeps the old epoch serving.
            if iteration % WATCH_POLL_ITERATIONS == 0 {
                if let Some(path) = self.config.watch.as_deref() {
                    let modified = mtime_of(path);
                    if modified.is_some() && modified != watch_mtime {
                        watch_mtime = modified;
                        let epoch = state.as_ref().map_or(0, |s| s.snapshot.epoch);
                        match reload(path, epoch + 1, &self.traffic) {
                            Ok(snapshot) => {
                                self.cell.store(snapshot);
                                self.stats.reloads.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(_) => {
                                self.stats.reload_errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            }

            let Some(current) = state.as_ref() else {
                // Nothing published yet: nothing to answer from.
                std::thread::sleep(IDLE_SLEEP);
                continue;
            };

            // Drain ready connections into one batch.
            let mut batch = Vec::new();
            while batch.len() < batch_limit {
                match self.listener.accept() {
                    Ok((stream, _peer)) => batch.push(stream),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
            if batch.is_empty() {
                std::thread::sleep(IDLE_SLEEP);
                continue;
            }
            self.stats
                .connections
                .fetch_add(batch.len() as u64, Ordering::Relaxed);

            let traffic = &self.traffic;
            let stats = &self.stats;
            pool.par_map_heavy(&batch, |_, stream| {
                // Each connection pins the epoch for its lifetime.
                let pinned = Arc::clone(current);
                stats.epoch_pins.fetch_add(1, Ordering::Relaxed);
                handle_connection(stream, &pinned, traffic, stats, read_timeout);
            });
        }
        Ok(())
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

/// Re-sniffs `path` and cold-builds the next epoch from it.
fn reload(path: &str, epoch: u64, traffic: &TrafficModel) -> Result<Arc<EpochSnapshot>, String> {
    let clean = query::load_clean(path)?;
    EpochSnapshot::rebuild(epoch, clean, traffic.distribution())
        .map(Arc::new)
        .map_err(|e| format!("reconstruction failed: {e}"))
}

/// Serves one connection to completion: requests in, responses out,
/// until close/EOF/error. Never panics — a poisoned pool worker would
/// take the whole server down, so every failure degrades to a 4xx or
/// a close on *this* connection only.
fn handle_connection(
    stream: &TcpStream,
    state: &ServeState,
    traffic: &TrafficModel,
    stats: &ServeStats,
    read_timeout_ms: u64,
) {
    // Accepted sockets are blocking (O_NONBLOCK does not carry over
    // from the listener on any tier-1 platform), but make it explicit
    // and bound the read wait. Responses are written in one buffered
    // burst, so Nagle buys nothing and costs a delayed-ACK stall
    // (~40ms per keep-alive round trip) — disable it.
    let _ = stream.set_nonblocking(false);
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
                let (status, reason, body, content_type) = if request.target == "/metrics" {
                    (200, "OK", stats.metrics_json().into(), "application/json")
                } else {
                    let (status, reason, body) = state.respond(traffic, &request.target);
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
    use tagdist::dataset::{filter, DatasetBuilder, RawPopularity};
    use tagdist::geo::world;

    fn snapshot(videos: usize, epoch: u64) -> Arc<EpochSnapshot> {
        let traffic = TrafficModel::reference(world());
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
        let clean = filter(&b.build());
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

    /// Boots a real server on an ephemeral port against `cell`.
    fn boot(cell: Arc<SnapshotCell>) -> Booted {
        let traffic = TrafficModel::reference(world());
        let server = Server::bind(
            "127.0.0.1:0",
            cell,
            traffic,
            ServerConfig {
                read_timeout_ms: 200,
                watch: None,
            },
        )
        .unwrap();
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
