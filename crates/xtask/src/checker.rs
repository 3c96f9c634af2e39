//! File discovery and the check driver.
//!
//! The driver merges three layers of findings: the token-level rules
//! ([`crate::rules`]), the per-file analysis passes
//! ([`crate::analysis::passes`]) and the workspace-level passes
//! (layer DAG, allowlist staleness). Per-file work runs on the
//! `tagdist-par` pool, which does not change the output — the final
//! report is sorted by (path, line, rule) and byte-identical at any
//! thread count.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use tagdist_par::Pool;

use crate::allowlist::AllowList;
use crate::analysis::{modgraph, parse, passes, token};
use crate::lexer;
use crate::rules::{self, Violation};

/// Library crates the domain rules apply to: every one forbids
/// `unsafe` (`#![forbid(unsafe_code)]`, or `deny` in `dataset` and
/// `serve`, whose sanctioned `mmap`/`signal` modules the
/// `unsafe-scope` rule audits). Binary/bench crates (cli, bench) are
/// intentionally out of scope — they may exit or panic at the top
/// level. The xtask sources themselves are scanned by the analysis
/// passes (but not the library-only token rules).
pub const CHECKED_CRATES: &[&str] = &[
    "cache",
    "core",
    "crawler",
    "dataset",
    "geo",
    "obs",
    "par",
    "reconstruct",
    "serve",
    "tags",
    "ytsim",
];

/// Driver knobs; [`CheckConfig::default`] means the `TAGDIST_THREADS`
/// pool.
#[derive(Debug, Clone, Default)]
pub struct CheckConfig {
    /// Worker threads; `None` reads `TAGDIST_THREADS`.
    pub threads: Option<usize>,
}

/// Result of a full tree check.
#[derive(Debug, Clone, Default)]
pub struct CheckOutcome {
    /// Number of `.rs` files scanned.
    pub files_checked: usize,
    /// Every finding (allowed ones included), sorted by path then
    /// line.
    pub violations: Vec<Violation>,
}

impl CheckOutcome {
    /// Findings not covered by the allowlist.
    pub fn active(&self) -> impl Iterator<Item = &Violation> {
        self.violations.iter().filter(|v| !v.allowed)
    }

    /// Number of active findings.
    pub fn active_count(&self) -> usize {
        self.active().count()
    }

    /// Number of allowlist-suppressed findings.
    pub fn allowed_count(&self) -> usize {
        self.violations.iter().filter(|v| v.allowed).count()
    }

    /// True when nothing (unsuppressed) was found.
    pub fn is_clean(&self) -> bool {
        self.active_count() == 0
    }
}

/// Runs the token rules (when in scope for the path) and the analysis
/// passes over one source text. Pure; safe to fan out.
fn analyze_source(path_label: &str, source: &str, token_rules: bool) -> Vec<Violation> {
    let cf = lexer::clean(source);
    let mut violations = if token_rules {
        rules::check_file(path_label, &cf)
    } else {
        Vec::new()
    };
    let sf = parse::parse(token::tokenize(&cf.code));
    violations.extend(passes::run_file_passes(path_label, &cf, &sf));
    violations.sort_by(|a, b| a.line.cmp(&b.line).then(a.rule.cmp(b.rule)));
    violations
}

/// The xtask sources are tooling: scanned by the determinism passes,
/// exempt from the library-only token rules.
fn token_rules_apply(path_label: &str) -> bool {
    !path_label.starts_with("crates/xtask/")
}

/// Checks one in-memory file against every rule and the allowlist.
pub fn check_source(path_label: &str, source: &str, allow: &AllowList) -> Vec<Violation> {
    let mut violations = analyze_source(path_label, source, token_rules_apply(path_label));
    for v in &mut violations {
        v.allowed = allow.covers(v);
    }
    violations
}

/// Checks every library source file under `root` (the workspace root)
/// with the default configuration.
///
/// # Errors
///
/// Propagates I/O errors from reading the tree; a missing crate
/// directory is an error (the scope list and the workspace must stay
/// in sync).
pub fn check_workspace(root: &Path, allow: &AllowList) -> io::Result<CheckOutcome> {
    check_workspace_with(root, allow, &CheckConfig::default())
}

/// [`check_workspace`] with an explicit thread configuration.
///
/// # Errors
///
/// Propagates I/O errors from reading the tree.
pub fn check_workspace_with(
    root: &Path,
    allow: &AllowList,
    config: &CheckConfig,
) -> io::Result<CheckOutcome> {
    let mut files = Vec::new();
    for krate in CHECKED_CRATES {
        let src = root.join("crates").join(krate).join("src");
        if !src.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("expected library source tree at {}", src.display()),
            ));
        }
        collect_rs_files(&src, &mut files)?;
    }
    // Self-analysis: xtask participates when present (fixture trees
    // model only the library crates).
    let xtask_src = root.join("crates").join("xtask").join("src");
    if xtask_src.is_dir() {
        collect_rs_files(&xtask_src, &mut files)?;
    }
    files.sort();

    struct Input {
        label: String,
        source: String,
    }
    let mut inputs = Vec::with_capacity(files.len());
    for file in &files {
        let source = fs::read_to_string(file)?;
        let label = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        inputs.push(Input { label, source });
    }

    let pool = match config.threads {
        Some(t) => Pool::new(t),
        None => Pool::from_env(),
    };
    let per_file = pool.par_map(&inputs, |_, inp| {
        analyze_source(&inp.label, &inp.source, token_rules_apply(&inp.label))
    });

    let mut outcome = CheckOutcome {
        files_checked: inputs.len(),
        violations: per_file.into_iter().flatten().collect(),
    };
    outcome
        .violations
        .extend(modgraph::check_layers(root, &modgraph::workspace_spec())?);
    finish(&mut outcome, allow);
    Ok(outcome)
}

/// Checks an explicit list of files (used by the fixture tests).
///
/// # Errors
///
/// Propagates I/O errors from reading the files.
pub fn check_files(root: &Path, files: &[PathBuf], allow: &AllowList) -> io::Result<CheckOutcome> {
    let mut outcome = CheckOutcome::default();
    for file in files {
        let source = fs::read_to_string(file)?;
        let label = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        outcome
            .violations
            .extend(analyze_source(&label, &source, token_rules_apply(&label)));
        outcome.files_checked += 1;
    }
    finish(&mut outcome, allow);
    Ok(outcome)
}

/// Applies the allowlist, appends `allow-stale` findings for entries
/// that matched nothing, and fixes the final sort order.
fn finish(outcome: &mut CheckOutcome, allow: &AllowList) {
    for v in &mut outcome.violations {
        v.allowed = allow.covers(v);
    }
    for entry in allow.entries() {
        let matched = outcome
            .violations
            .iter()
            .any(|v| AllowList::entry_covers(entry, v));
        if !matched {
            outcome.violations.push(Violation {
                rule: "allow-stale",
                path: "xtask-allow.toml".to_owned(),
                line: entry.line,
                snippet: format!("rule = \"{}\", path = \"{}\"", entry.rule, entry.path),
                message: "allowlist entry matches no current finding; prune it \
                          (the violation it sanctioned is gone)"
                    .to_owned(),
                allowed: false,
            });
        }
    }
    outcome.violations.sort_by(|a, b| {
        a.path
            .cmp(&b.path)
            .then(a.line.cmp(&b.line))
            .then(a.rule.cmp(b.rule))
    });
}

/// Recursively gathers `.rs` files.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Loads `xtask-allow.toml` from the workspace root, tolerating its
/// absence.
///
/// # Errors
///
/// Returns a descriptive error when the file exists but cannot be
/// read or parsed.
pub fn load_allowlist(root: &Path) -> Result<AllowList, String> {
    let path = root.join("xtask-allow.toml");
    if !path.exists() {
        return Ok(AllowList::empty());
    }
    let text =
        fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    AllowList::parse(&text).map_err(|e| e.to_string())
}
