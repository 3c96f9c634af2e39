//! `cargo xtask` — workspace-wide static analysis and invariant
//! enforcement for the tagdist repro.
//!
//! `cargo xtask check` scans the library crates (the ten
//! `#![forbid(unsafe_code)]` members, plus xtask's own sources) with
//! two engines: the token-level domain rules in [`rules`] and the
//! parser-backed determinism passes in [`analysis`] (wall-clock,
//! unordered-iter, unseeded-rng, float-reduction, layer-dag). It
//! honours the `xtask-allow.toml` allowlist (and flags stale entries),
//! fans file analysis out on the `tagdist-par` pool, writes machine-readable JSON and SARIF
//! reports, and exits nonzero on any unsuppressed finding.
//!
//! `cargo xtask bench-gate` compares the deterministic counters of a
//! `bench-report` run against the checked-in
//! `bench-baseline.json` — see [`benchgate`].
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

pub mod allowlist;
pub mod analysis;
pub mod benchgate;
pub mod checker;
pub mod jsonout;
pub mod lexer;
pub mod rules;

pub use allowlist::{AllowEntry, AllowList, AllowParseError};
pub use analysis::{sarif::to_sarif, ALL_RULES};
pub use benchgate::{compare, deterministic_counters, load_counters, GateDiff};
pub use checker::{
    check_files, check_source, check_workspace, check_workspace_with, load_allowlist, CheckConfig,
    CheckOutcome, CHECKED_CRATES,
};
pub use jsonout::to_json;
pub use rules::{Violation, RULES};
