//! `tagdist-serve` — the online face of the study: a zero-dependency
//! HTTP/1.1 query service over published [`EpochSnapshot`]s, plus the
//! seeded Zipf load generator that stress-tests it.
//!
//! The paper's end goal is not an offline report but *serving*
//! geographic tag knowledge to online systems (proactive CDN
//! placement, §6). This crate puts real readers on the epoch machinery
//! the ingest engine publishes into:
//!
//! * [`http`] — a minimal, bounded HTTP/1.1 request parser and
//!   response writer over `std::net` (no external dependencies, GET
//!   only, hard limits on request size).
//! * [`query`] — the route renderers. Every body is produced by the
//!   *same* functions the offline CLI uses, so a served response is
//!   byte-identical to the corresponding `tagdist stats`/`tag`/
//!   `country`/`ingest --cold` output: the repo's determinism
//!   contract extended to the network boundary.
//! * [`server`] — one worker thread per pool thread, each blocking in
//!   `accept` and serving one connection at a time, so a slow client
//!   holds only its own worker. Every request pins the latest
//!   published epoch (an `Arc` clone under one shared mutex); no lock
//!   is held while a request is answered.
//! * [`signal`] — SIGTERM/SIGINT → graceful-shutdown flag (the one
//!   sanctioned `unsafe` outside `tagdist-dataset`'s mmap module).
//! * [`loadgen`] — `tagdist bench-serve`: replays seeded synthetic
//!   requests with Zipf-distributed tag popularity sampled from the
//!   corpus itself, asserts every response body against the offline
//!   answer, and reports p50/p99/max latency and throughput.
//!
//! [`EpochSnapshot`]: tagdist::reconstruct::EpochSnapshot

#![warn(missing_docs, missing_debug_implementations)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::float_cmp,
        clippy::missing_panics_doc,
        missing_docs
    )
)]

pub mod http;
pub mod loadgen;
pub mod query;
pub mod server;
pub mod signal;

pub use http::{HttpError, Request};
pub use loadgen::{LoadConfig, LoadReport, SmokeQuery};
pub use query::{load_clean, QueryError};
pub use server::{ServeState, ServeStats, Server, ServerConfig};
