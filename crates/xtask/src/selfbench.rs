//! Analyzer self-benchmark: cold-vs-warm wall-clock timing.
//!
//! This is the one xtask module allowed to read the real clock (the
//! `wall-clock` pass allowlists it by path): `cargo xtask bench-report`
//! records how long a full analyzer run takes with an empty cache and
//! how long the warm re-run takes, and appends both to the smoke
//! report as its `analyzer_self` object.

use std::fs;
use std::path::Path;
use std::time::Instant;

use crate::checker::{self, CheckConfig};

/// Timing of one cold+warm analyzer pair.
#[derive(Debug, Clone, Copy)]
pub struct SelfBench {
    /// Full run with the cache removed first, in microseconds.
    pub cold_us: u64,
    /// Immediate re-run against the populated cache, in microseconds.
    pub warm_us: u64,
    /// Files analyzed per run.
    pub files: usize,
    /// Cache hits observed on the warm run (should equal `files`).
    pub warm_hits: usize,
}

fn micros_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Runs the analyzer twice against `root` — cold (cache deleted),
/// then warm — timing both.
///
/// # Errors
///
/// Propagates analyzer I/O errors.
pub fn time_analyzer(root: &Path, cache_path: &Path) -> std::io::Result<SelfBench> {
    let allow = checker::load_allowlist(root)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let config = CheckConfig {
        cache_path: Some(cache_path.to_path_buf()),
        threads: None,
    };
    let _ = fs::remove_file(cache_path);
    let start = Instant::now();
    let cold = checker::check_workspace_with(root, &allow, &config)?;
    let cold_us = micros_since(start);
    let start = Instant::now();
    let warm = checker::check_workspace_with(root, &allow, &config)?;
    let warm_us = micros_since(start);
    Ok(SelfBench {
        cold_us,
        warm_us,
        files: cold.files_checked,
        warm_hits: warm.cache_hits,
    })
}
