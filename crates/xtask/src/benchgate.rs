//! The benchmark regression gate.
//!
//! `cargo xtask bench-gate` runs `bench-report`, extracts the
//! deterministic-counter subtree (`metrics.deterministic`) from its
//! smoke JSON, and compares it against the checked-in
//! `bench-baseline.json`. The subtree is a pure function of the tiny
//! corpus — counts of items, rows, cells and (single-threaded)
//! allocations — so any drift is a real behavioural change, not
//! noise:
//!
//! * `alloc.*` keys gate **increases** only: an allocation count that
//!   went down is an improvement the baseline should absorb, one that
//!   went up is the regression this gate exists to catch;
//! * every other key must match exactly;
//! * keys present on one side only are failures in both directions.
//!
//! `--update` rewrites the baseline from the current measurement
//! instead of comparing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use tagdist_obs::Value;

/// Gauged allocation keys: regressions are increases, decreases are
/// baseline updates.
const INCREASE_ONLY_PREFIX: &str = "alloc.";

/// One per-key verdict of the baseline comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GateDiff {
    /// Key missing from the new measurement.
    Missing(String, u64),
    /// Key absent from the baseline.
    Unexpected(String, u64),
    /// Exact-match key whose value drifted (baseline, measured).
    Changed(String, u64, u64),
    /// `alloc.*` key that increased (baseline, measured).
    Increased(String, u64, u64),
    /// `alloc.*` key that decreased — reported, but not a failure.
    Improved(String, u64, u64),
}

impl GateDiff {
    /// Whether this entry fails the gate.
    #[must_use]
    pub fn is_failure(&self) -> bool {
        !matches!(self, GateDiff::Improved(..))
    }
}

impl std::fmt::Display for GateDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GateDiff::Missing(k, b) => {
                write!(f, "{k}: present in baseline ({b}) but not measured")
            }
            GateDiff::Unexpected(k, m) => {
                write!(f, "{k}: measured ({m}) but absent from baseline")
            }
            GateDiff::Changed(k, b, m) => write!(f, "{k}: baseline {b}, measured {m}"),
            GateDiff::Increased(k, b, m) => write!(
                f,
                "{k}: baseline {b}, measured {m} (+{}) — allocation regression",
                m - b
            ),
            GateDiff::Improved(k, b, m) => write!(
                f,
                "{k}: baseline {b}, measured {m} (-{}) — improvement; \
                 run `cargo xtask bench-gate --update` to absorb it",
                b - m
            ),
        }
    }
}

/// The deterministic subtree, flattened to `section.key → value`.
type Counters = BTreeMap<String, u64>;

/// Extracts the deterministic counters from a parsed report.
///
/// Accepts either a full `bench-report` document (the subtree lives at
/// `metrics.deterministic`) or a bare baseline document (the subtree
/// *is* the document).
///
/// # Errors
///
/// Returns a message naming the missing or mistyped key when the
/// document does not carry the expected shape.
pub fn deterministic_counters(doc: &Value) -> Result<Counters, String> {
    let det = doc
        .get("metrics")
        .and_then(|m| m.get("deterministic"))
        .or_else(|| {
            // A baseline file is the deterministic object itself.
            doc.get("counters").is_some().then_some(doc)
        })
        .ok_or("no `metrics.deterministic` subtree (and not a baseline document)")?;
    let mut flat = Counters::new();
    for section in ["counters", "gauges"] {
        let obj = det
            .get(section)
            .ok_or_else(|| format!("deterministic subtree lacks `{section}`"))?;
        let entries = obj
            .entries()
            .ok_or_else(|| format!("`{section}` is not an object"))?;
        for (key, value) in entries {
            let n = value
                .as_u64()
                .ok_or_else(|| format!("`{section}.{key}` is not a u64"))?;
            flat.insert(format!("{section}.{key}"), n);
        }
    }
    Ok(flat)
}

/// Compares measured counters against the baseline.
#[must_use]
pub fn compare(baseline: &Counters, measured: &Counters) -> Vec<GateDiff> {
    let mut diffs = Vec::new();
    for (key, &b) in baseline {
        match measured.get(key) {
            None => diffs.push(GateDiff::Missing(key.clone(), b)),
            Some(&m) if m == b => {}
            Some(&m) => {
                // Strip the `counters.`/`gauges.` section prefix.
                let name = key.split_once('.').map_or(key.as_str(), |(_, k)| k);
                if name.starts_with(INCREASE_ONLY_PREFIX) {
                    if m > b {
                        diffs.push(GateDiff::Increased(key.clone(), b, m));
                    } else {
                        diffs.push(GateDiff::Improved(key.clone(), b, m));
                    }
                } else {
                    diffs.push(GateDiff::Changed(key.clone(), b, m));
                }
            }
        }
    }
    for (key, &m) in measured {
        if !baseline.contains_key(key) {
            diffs.push(GateDiff::Unexpected(key.clone(), m));
        }
    }
    diffs
}

/// Renders the baseline file: the deterministic subtree of `doc`,
/// verbatim, plus a provenance comment field.
///
/// # Errors
///
/// As for [`deterministic_counters`]: the document must carry a
/// `metrics.deterministic` subtree.
pub fn render_baseline(doc: &Value) -> Result<String, String> {
    let det = doc
        .get("metrics")
        .and_then(|m| m.get("deterministic"))
        .ok_or("no `metrics.deterministic` subtree in the smoke report")?;
    let mut out = String::new();
    det.write(&mut out);
    out.push('\n');
    Ok(out)
}

/// Loads and parses a JSON file into the flattened counter map.
///
/// # Errors
///
/// Propagates I/O, parse and shape failures as user-facing messages.
pub fn load_counters(path: &Path) -> Result<Counters, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Value::parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
    deterministic_counters(&doc)
}

/// Formats the comparison outcome for terminal output. Returns
/// `(report, clean)`.
#[must_use]
pub fn report(diffs: &[GateDiff]) -> (String, bool) {
    let mut out = String::new();
    let failures = diffs.iter().filter(|d| d.is_failure()).count();
    for d in diffs {
        let tag = if d.is_failure() { "FAIL" } else { "note" };
        let _ = writeln!(out, "  [{tag}] {d}");
    }
    if failures == 0 {
        let _ = writeln!(
            out,
            "bench-gate: deterministic counters match the baseline ({} note(s))",
            diffs.len()
        );
    } else {
        let _ = writeln!(
            out,
            "bench-gate: {failures} counter(s) regressed against the baseline; \
             if intentional, refresh it with `cargo xtask bench-gate --update`"
        );
    }
    (out, failures == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(pairs: &[(&str, u64)]) -> Counters {
        pairs.iter().map(|&(k, v)| (k.to_owned(), v)).collect()
    }

    #[test]
    fn extracts_counters_from_full_report() {
        let doc = Value::parse(
            r#"{"pr":4,"metrics":{"deterministic":{"counters":{"par.items":10,"alloc.x":5},
                "gauges":{"crawl.frontier_peak":3}},"timing":{"sched":{},"spans":[]}}}"#,
        )
        .unwrap();
        let flat = deterministic_counters(&doc).unwrap();
        assert_eq!(flat.get("counters.par.items"), Some(&10));
        assert_eq!(flat.get("counters.alloc.x"), Some(&5));
        assert_eq!(flat.get("gauges.crawl.frontier_peak"), Some(&3));
    }

    #[test]
    fn extracts_counters_from_baseline_document() {
        let doc = Value::parse(r#"{"counters":{"a":1},"gauges":{}}"#).unwrap();
        let flat = deterministic_counters(&doc).unwrap();
        assert_eq!(flat.get("counters.a"), Some(&1));
    }

    #[test]
    fn rejects_malformed_documents() {
        let doc = Value::parse(r#"{"metrics":{}}"#).unwrap();
        assert!(deterministic_counters(&doc).is_err());
        let doc = Value::parse(r#"{"counters":{"a":-1},"gauges":{}}"#).unwrap();
        assert!(deterministic_counters(&doc).is_err());
    }

    #[test]
    fn exact_keys_fail_on_any_drift() {
        let base = counters(&[("counters.par.items", 10)]);
        let meas = counters(&[("counters.par.items", 9)]);
        let diffs = compare(&base, &meas);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].is_failure());
        assert!(diffs[0].to_string().contains("baseline 10, measured 9"));
    }

    #[test]
    fn alloc_keys_fail_only_on_increase() {
        let base = counters(&[("counters.alloc.stage", 100)]);
        let up = compare(&base, &counters(&[("counters.alloc.stage", 101)]));
        assert!(up[0].is_failure());
        assert!(up[0].to_string().contains("regression"));
        let down = compare(&base, &counters(&[("counters.alloc.stage", 99)]));
        assert!(!down[0].is_failure());
        assert!(down[0].to_string().contains("improvement"));
        let same = compare(&base, &counters(&[("counters.alloc.stage", 100)]));
        assert!(same.is_empty());
    }

    #[test]
    fn missing_and_unexpected_keys_fail_both_ways() {
        let base = counters(&[("counters.gone", 1)]);
        let meas = counters(&[("counters.new", 2)]);
        let diffs = compare(&base, &meas);
        assert_eq!(diffs.len(), 2);
        assert!(diffs.iter().all(GateDiff::is_failure));
    }

    #[test]
    fn report_summarizes_cleanly() {
        let (text, clean) = report(&[]);
        assert!(clean);
        assert!(text.contains("match the baseline"));
        let diffs = vec![GateDiff::Increased("counters.alloc.x".into(), 1, 2)];
        let (text, clean) = report(&diffs);
        assert!(!clean);
        assert!(text.contains("[FAIL]"));
        assert!(text.contains("--update"));
    }

    #[test]
    fn baseline_round_trips_through_render() {
        let doc =
            Value::parse(r#"{"metrics":{"deterministic":{"counters":{"a":1},"gauges":{"b":2}}}}"#)
                .unwrap();
        let rendered = render_baseline(&doc).unwrap();
        let reparsed = Value::parse(rendered.trim()).unwrap();
        let flat = deterministic_counters(&reparsed).unwrap();
        assert_eq!(flat.get("counters.a"), Some(&1));
        assert_eq!(flat.get("gauges.b"), Some(&2));
    }
}
