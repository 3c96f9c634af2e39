//! The static-analysis subsystem behind `cargo xtask check`.
//!
//! Pipeline: [`token`] re-tokenizes the lexer's blanked lines,
//! [`parse`] builds a per-file item tree with dataflow facts (lets,
//! loops, method chains), [`passes`] runs the per-file determinism
//! lints over it, and [`modgraph`] validates the workspace crate-layer
//! DAG. [`sarif`] emits the SARIF 2.1.0 report next to the JSON one.
//!
//! Per-file work fans out on the `tagdist-par` pool; diagnostics merge
//! in deterministic (path, line, rule) order, so the report is
//! byte-identical at any `TAGDIST_THREADS`.

pub mod modgraph;
pub mod parse;
pub mod passes;
pub mod sarif;
pub mod token;

/// Every rule the checker can report, sorted: the token-level rules
/// from [`crate::rules`], the per-file passes, and the workspace-level
/// `layer-dag` and `allow-stale` checks.
pub const ALL_RULES: &[&str] = &[
    "allow-stale",
    "errors-doc",
    "float-eq",
    "float-reduction",
    "layer-dag",
    "no-panic",
    "unordered-iter",
    "unsafe-scope",
    "unseeded-rng",
    "wall-clock",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_registry_is_sorted_and_complete() {
        let mut sorted = ALL_RULES.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, ALL_RULES);
        for rule in crate::rules::RULES {
            assert!(ALL_RULES.contains(rule), "{rule} missing from registry");
        }
        for rule in passes::FILE_PASS_RULES {
            assert!(ALL_RULES.contains(rule), "{rule} missing from registry");
        }
    }
}
