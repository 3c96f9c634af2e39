//! The per-file determinism passes.
//!
//! Each pass walks the parsed [`SourceFile`] (plus the cleaned line
//! classification from the lexer) and reports [`Violation`]s using the
//! same shape as the token-level rules, so the allowlist, JSON report
//! and exit-code contract apply unchanged.
//!
//! Known limitations, accepted deliberately: chains inside call
//! arguments of another chain are not extracted (the tokens are
//! consumed as argument text), and compound assignments (`total += v`)
//! inside hash-iteration loops are invisible — the float-reduction
//! pass covers the common `sum`/`fold` idioms instead.

use crate::analysis::parse::{Body, FnItem, SourceFile};
use crate::lexer::CleanFile;
use crate::rules::Violation;

/// Rule identifiers contributed by the analysis pipeline (the
/// workspace-level `layer-dag` and `allow-stale` passes live in
/// [`crate::analysis::modgraph`] and the driver).
pub const FILE_PASS_RULES: &[&str] = &[
    "float-reduction",
    "unordered-iter",
    "unseeded-rng",
    "wall-clock",
];

/// Paths (suffix or component match) where wall-clock time is part of
/// the module's contract: the span recorder, the benchmark harness and
/// the serve load generator (latency percentiles).
const WALL_CLOCK_ALLOWED: &[&str] = &["crates/obs/src/recorder.rs", "crates/serve/src/loadgen.rs"];
const WALL_CLOCK_ALLOWED_DIRS: &[&str] = &["crates/bench/"];

/// The vetted order-fixed reduction helpers live here; the pass must
/// not flag its own implementation.
const FLOAT_KERNEL_PATH: &str = "geo/src/kernel.rs";

/// Iterator-producing methods on hash containers.
const ITER_CALLS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
];

/// Adapters that preserve the (arbitrary) element order without
/// consuming it — walking through them keeps the chain suspect.
const ADAPTERS: &[&str] = &[
    "map",
    "filter",
    "filter_map",
    "copied",
    "cloned",
    "flat_map",
    "flatten",
    "inspect",
    "by_ref",
];

/// Terminals whose result does not depend on element order (integer
/// `sum` included — order-sensitive float sums are the
/// `float-reduction` pass's job).
const INSENSITIVE_TERMINALS: &[&str] = &[
    "count",
    "sum",
    "product",
    "max",
    "min",
    "max_by",
    "max_by_key",
    "min_by",
    "min_by_key",
    "all",
    "any",
];

/// Collect targets that neutralize arbitrary order: keyed or
/// self-ordering containers.
const ORDERED_COLLECT_MARKERS: &[&str] =
    &["BTreeMap", "BTreeSet", "BinaryHeap", "HashMap", "HashSet"];

/// Sort-family methods: a binding passed through one of these is
/// considered order-fixed afterwards.
const SORT_CALLS: &[&str] = &[
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
];

/// Methods that read their receiver without order-sensitive effects
/// (or mutate it per-key): safe inside a hash-iteration loop body.
const PURE_METHODS: &[&str] = &[
    "abs",
    "and_then",
    "as_ref",
    "as_slice",
    "as_str",
    "ceil",
    "checked_add",
    "checked_div",
    "checked_sub",
    "clone",
    "cloned",
    "contains",
    "contains_key",
    "copied",
    "ends_with",
    "floor",
    "get",
    "get_mut",
    "is_empty",
    "is_finite",
    "is_nan",
    "is_none",
    "is_some",
    "len",
    "map",
    "map_or",
    "max",
    "min",
    "ok",
    "powf",
    "powi",
    "round",
    "saturating_add",
    "saturating_mul",
    "saturating_sub",
    "sqrt",
    "starts_with",
    "to_owned",
    "to_string",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "wrapping_add",
];

/// Type markers for keyed containers: accumulating into one of these
/// inside a hash loop is order-insensitive (last-write-wins per key).
const KEYED_MARKERS: &[&str] = &["HashMap", "HashSet", "BTreeMap", "BTreeSet"];
const HASH_MARKERS: &[&str] = &["HashMap", "HashSet"];

/// Runs every per-file pass; returned violations are sorted by
/// (line, rule).
pub fn run_file_passes(path: &str, cf: &CleanFile, sf: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    wall_clock(path, cf, sf, &mut out);
    unseeded_rng(path, cf, sf, &mut out);
    float_reduction(path, cf, sf, &mut out);
    unordered_iter(path, cf, sf, &mut out);
    out.sort_by(|a, b| a.line.cmp(&b.line).then(a.rule.cmp(b.rule)));
    out.dedup_by(|a, b| a.rule == b.rule && a.line == b.line);
    out
}

fn snippet(cf: &CleanFile, line1: usize) -> String {
    cf.raw
        .get(line1.wrapping_sub(1))
        .map_or(String::new(), |l| l.trim().to_owned())
}

/// Test or `#[expect]`-sanctioned lines are out of scope for every
/// pass.
fn excluded(cf: &CleanFile, line1: usize) -> bool {
    let idx = line1.wrapping_sub(1);
    cf.in_test.get(idx).copied().unwrap_or(true) || cf.sanctioned.get(idx).copied().unwrap_or(true)
}

fn push(
    out: &mut Vec<Violation>,
    rule: &'static str,
    path: &str,
    cf: &CleanFile,
    line1: usize,
    message: String,
) {
    out.push(Violation {
        rule,
        path: path.to_owned(),
        line: line1,
        snippet: snippet(cf, line1),
        message,
        allowed: false,
    });
}

/// `wall-clock`: `Instant::now()` / `SystemTime` outside the recorder
/// and bench modules. Library code takes the virtual clock instead.
fn wall_clock(path: &str, cf: &CleanFile, sf: &SourceFile, out: &mut Vec<Violation>) {
    if WALL_CLOCK_ALLOWED.iter().any(|p| path.ends_with(p))
        || WALL_CLOCK_ALLOWED_DIRS.iter().any(|d| path.contains(d))
    {
        return;
    }
    let toks = &sf.tokens;
    for (i, t) in toks.iter().enumerate() {
        if excluded(cf, t.line) {
            continue;
        }
        let hit = t.is_ident("SystemTime")
            || (t.is_ident("Instant")
                && toks.get(i + 1).is_some_and(|t| t.is_punct("::"))
                && toks.get(i + 2).is_some_and(|t| t.is_ident("now")));
        if hit {
            push(
                out,
                "wall-clock",
                path,
                cf,
                t.line,
                "wall-clock time is nondeterministic; take the virtual clock \
                 (obs::recorder and bench own the only real timers)"
                    .to_owned(),
            );
        }
    }
}

/// `unseeded-rng`: ambient randomness sources in deterministic paths.
fn unseeded_rng(path: &str, cf: &CleanFile, sf: &SourceFile, out: &mut Vec<Violation>) {
    let toks = &sf.tokens;
    for (i, t) in toks.iter().enumerate() {
        if excluded(cf, t.line) {
            continue;
        }
        let hit = t.is_ident("thread_rng")
            || t.is_ident("ThreadRng")
            || t.is_ident("RandomState")
            || t.is_ident("from_entropy")
            || (t.is_ident("rand")
                && toks.get(i + 1).is_some_and(|t| t.is_punct("::"))
                && toks.get(i + 2).is_some_and(|t| t.is_ident("random")));
        if hit {
            push(
                out,
                "unseeded-rng",
                path,
                cf,
                t.line,
                "ambient randomness breaks reproducibility; construct a \
                 seeded StdRng from the run seed instead"
                    .to_owned(),
            );
        }
    }
}

/// `float-reduction`: order-sensitive `f64`/`f32` `sum`/`product`/
/// `fold` outside the vetted `geo::kernel` helpers. Summation order
/// changes the result in the last bits, which violates byte-identical
/// output once thread counts or chunk sizes vary.
fn float_reduction(path: &str, cf: &CleanFile, sf: &SourceFile, out: &mut Vec<Violation>) {
    if path.ends_with(FLOAT_KERNEL_PATH) {
        return;
    }
    sf.for_each_fn(|item, f| {
        if item.is_test {
            return;
        }
        let Some(body) = f.body.as_ref() else { return };
        for (idx, chain) in body.chains.iter().enumerate() {
            for call in &chain.calls {
                if excluded(cf, call.line) {
                    continue;
                }
                let float_typed = |text: &str| text.contains("f64") || text.contains("f32");
                let flagged = match call.name.as_str() {
                    "sum" | "product" => {
                        float_typed(&call.turbofish)
                            || (call.turbofish.is_empty()
                                && body
                                    .lets
                                    .iter()
                                    .any(|l| l.init_chain == Some(idx) && float_typed(&l.ty)))
                    }
                    "fold" => {
                        let order_free =
                            call.args.contains(":: max") || call.args.contains(":: min");
                        !order_free && (float_typed(&call.args) || has_float_literal(&call.args))
                    }
                    _ => false,
                };
                if flagged {
                    push(
                        out,
                        "float-reduction",
                        path,
                        cf,
                        call.line,
                        "float summation order must be fixed; route through \
                         tagdist_geo::kernel (sum/dot/norm) instead of ad-hoc \
                         sum/fold"
                            .to_owned(),
                    );
                }
            }
        }
    });
}

fn has_float_literal(text: &str) -> bool {
    let chars: Vec<char> = text.chars().collect();
    chars
        .windows(3)
        .any(|w| w[0].is_ascii_digit() && w[1] == '.' && w[2].is_ascii_digit())
}

/// `unordered-iter`: hash-container iteration whose results feed
/// returns, accumulators or output writes, unless the order is fixed
/// afterwards (sorted collect, keyed destination, or an
/// order-insensitive terminal). This is the AST upgrade of the old
/// token-level `hash-iter` rule.
fn unordered_iter(path: &str, cf: &CleanFile, sf: &SourceFile, out: &mut Vec<Violation>) {
    let hash_fields = sf.fields_typed(HASH_MARKERS);
    let keyed_fields = sf.fields_typed(KEYED_MARKERS);
    sf.for_each_fn(|item, f| {
        if item.is_test {
            return;
        }
        let Some(body) = f.body.as_ref() else { return };
        let ctx = FnCtx::build(f, body, cf, &hash_fields, &keyed_fields);
        check_chains(path, cf, sf, body, &ctx, out);
        check_for_loops(path, cf, sf, body, &ctx, out);
    });
}

/// Per-function naming context for the unordered-iter pass.
struct FnCtx {
    /// Bases known to be hash containers (`m`, `self . index`, …).
    hash_bases: Vec<String>,
    /// Bases known to be keyed containers (hash or btree).
    keyed_bases: Vec<String>,
    /// Bases passed through a sort-family call somewhere in the body.
    sorted_bases: Vec<String>,
}

impl FnCtx {
    fn build(
        f: &FnItem,
        body: &Body,
        cf: &CleanFile,
        hash_fields: &[String],
        keyed_fields: &[String],
    ) -> FnCtx {
        let mut hash_bases = Vec::new();
        let mut keyed_bases = Vec::new();
        // Parameters: render() guarantees single-space separation, so
        // word-level scanning recovers `name : … HashMap < … >` pairs.
        collect_param_bases(&f.params, HASH_MARKERS, &mut hash_bases);
        collect_param_bases(&f.params, KEYED_MARKERS, &mut keyed_bases);
        // Let bindings: annotated type, or a container constructor on
        // the binding's source line.
        for l in &body.lets {
            let line_text = cf.code.get(l.line.wrapping_sub(1)).map_or("", |s| s);
            if HASH_MARKERS
                .iter()
                .any(|m| l.ty.contains(m) || line_text.contains(m))
            {
                hash_bases.push(l.name.clone());
            }
            if KEYED_MARKERS
                .iter()
                .any(|m| l.ty.contains(m) || line_text.contains(m))
            {
                keyed_bases.push(l.name.clone());
            }
        }
        for field in hash_fields {
            hash_bases.push(format!("self . {field}"));
        }
        for field in keyed_fields {
            keyed_bases.push(format!("self . {field}"));
        }
        let mut sorted_bases: Vec<String> = body
            .chains
            .iter()
            .filter(|c| {
                c.calls
                    .iter()
                    .any(|call| SORT_CALLS.contains(&call.name.as_str()))
            })
            .map(|c| c.base.clone())
            .collect();
        for list in [&mut hash_bases, &mut keyed_bases, &mut sorted_bases] {
            list.sort();
            list.dedup();
        }
        FnCtx {
            hash_bases,
            keyed_bases,
            sorted_bases,
        }
    }

    fn is_hash(&self, base: &str) -> bool {
        self.hash_bases.iter().any(|b| b == base) || HASH_MARKERS.iter().any(|m| base.contains(m))
    }

    fn is_keyed(&self, base: &str) -> bool {
        self.keyed_bases.iter().any(|b| b == base) || KEYED_MARKERS.iter().any(|m| base.contains(m))
    }

    fn is_sorted_later(&self, base: &str) -> bool {
        self.sorted_bases.iter().any(|b| b == base)
    }
}

/// Word-scans a rendered parameter list for names typed with any of
/// the given container markers.
fn collect_param_bases(params: &str, markers: &[&str], out: &mut Vec<String>) {
    let words: Vec<&str> = params.split(' ').filter(|w| !w.is_empty()).collect();
    let mut depth = 0i32;
    let mut current: Option<&str> = None;
    let mut pending: Option<&str> = None;
    for (i, w) in words.iter().enumerate() {
        match *w {
            "<" | "(" | "[" => depth += 1,
            ">" | ")" | "]" => depth -= 1,
            ">>" => depth -= 2,
            "," if depth == 0 => current = None,
            ":" if depth == 0 => {
                current = pending;
            }
            _ => {
                if depth == 0 && words.get(i + 1).is_some_and(|n| *n == ":") {
                    pending = Some(w);
                }
                if markers.contains(w) {
                    if let Some(name) = current {
                        out.push(name.to_owned());
                    }
                }
            }
        }
    }
}

/// Method-chain iteration over hash containers.
fn check_chains(
    path: &str,
    cf: &CleanFile,
    sf: &SourceFile,
    body: &Body,
    ctx: &FnCtx,
    out: &mut Vec<Violation>,
) {
    let loop_iter_chains: Vec<usize> = body.fors.iter().map(|fl| fl.iter_chain).collect();
    for (idx, chain) in body.chains.iter().enumerate() {
        if loop_iter_chains.contains(&idx) {
            continue; // judged with its loop body below
        }
        if !ctx.is_hash(&chain.base) || excluded(cf, chain.line) {
            continue;
        }
        let Some(start) = chain
            .calls
            .iter()
            .position(|c| ITER_CALLS.contains(&c.name.as_str()))
        else {
            continue;
        };
        // Something before the iterator call (e.g. `m.get(k).iter()`)
        // means the receiver is no longer the hash container.
        if start != 0 {
            continue;
        }
        let verdict = judge_chain(&chain.calls[start + 1..], idx, body, ctx);
        if let Some(detail) = verdict {
            push(
                out,
                "unordered-iter",
                path,
                cf,
                chain.line,
                format!(
                    "hash-container iteration order is arbitrary and {detail}; \
                     sort the collected results or use a keyed/ordered container"
                ),
            );
        }
        let _ = sf; // tokens not needed here, kept for symmetry
    }
}

/// Decides whether a post-iterator call sequence launders the
/// arbitrary order. Returns a human reason when it does not.
fn judge_chain(
    calls: &[crate::analysis::parse::Call],
    chain_idx: usize,
    body: &Body,
    ctx: &FnCtx,
) -> Option<String> {
    for call in calls {
        let name = call.name.as_str();
        if ADAPTERS.contains(&name) {
            continue;
        }
        if INSENSITIVE_TERMINALS.contains(&name) {
            return None;
        }
        if name == "collect" {
            let target_ty: String = body
                .lets
                .iter()
                .find(|l| l.init_chain == Some(chain_idx))
                .map(|l| l.ty.clone())
                .unwrap_or_default();
            let ordered = ORDERED_COLLECT_MARKERS
                .iter()
                .any(|m| call.turbofish.contains(m) || target_ty.contains(m));
            let sorted_after = body
                .lets
                .iter()
                .find(|l| l.init_chain == Some(chain_idx))
                .is_some_and(|l| ctx.is_sorted_later(&l.name));
            if ordered || sorted_after {
                return None;
            }
            return Some("the collected sequence keeps that order".to_owned());
        }
        return Some(format!("`.{name}(…)` consumes elements in that order"));
    }
    Some("the iterator escapes this expression un-ordered".to_owned())
}

/// `for` loops over hash containers: the body must only perform
/// order-insensitive work (keyed writes, pure reads, pushes into a
/// later-sorted vector).
fn check_for_loops(
    path: &str,
    cf: &CleanFile,
    sf: &SourceFile,
    body: &Body,
    ctx: &FnCtx,
    out: &mut Vec<Violation>,
) {
    for fl in &body.fors {
        let chain = &body.chains[fl.iter_chain];
        if !ctx.is_hash(&chain.base) || excluded(cf, fl.line) {
            continue;
        }
        // The loop must actually iterate the container (directly or
        // through iterator methods/adapters), not e.g. `m.get(k)`.
        let iterates = chain.calls.is_empty()
            || chain.calls.iter().all(|c| {
                ITER_CALLS.contains(&c.name.as_str()) || ADAPTERS.contains(&c.name.as_str())
            });
        if !iterates {
            continue;
        }
        let body_lines = span_lines(sf, fl.body_span);
        let mut reason: Option<String> = None;
        // Early `return` inside the loop selects an arbitrary element.
        for t in &sf.tokens[fl.body_span.0..fl.body_span.1] {
            if t.is_ident("return") && !excluded(cf, t.line) {
                reason = Some("an early `return` picks an arbitrary element".to_owned());
                break;
            }
        }
        if reason.is_none() {
            let local_lets: Vec<&str> = body
                .lets
                .iter()
                .filter(|l| body_lines.contains(&l.line))
                .map(|l| l.name.as_str())
                .collect();
            for inner in &body.chains {
                if inner.start < fl.body_span.0 || inner.start >= fl.body_span.1 {
                    continue;
                }
                let first_ident = inner.base.split(' ').next().unwrap_or("");
                if local_lets.contains(&first_ident) {
                    continue; // loop-local state resets every pass
                }
                if ctx.is_keyed(&inner.base) || ctx.is_sorted_later(&inner.base) {
                    continue;
                }
                if let Some(call) = inner
                    .calls
                    .iter()
                    .find(|c| !PURE_METHODS.contains(&c.name.as_str()))
                {
                    reason = Some(format!(
                        "`{}.{}(…)` accumulates in iteration order",
                        inner.base, call.name
                    ));
                    break;
                }
            }
        }
        if let Some(reason) = reason {
            push(
                out,
                "unordered-iter",
                path,
                cf,
                fl.line,
                format!(
                    "hash-container iteration order is arbitrary and {reason}; \
                     collect and sort the entries first, or use a keyed/ordered \
                     destination"
                ),
            );
        }
    }
}

/// Source-line set covered by a token span.
fn span_lines(sf: &SourceFile, span: (usize, usize)) -> std::ops::RangeInclusive<usize> {
    let lo = sf.tokens.get(span.0).map_or(usize::MAX, |t| t.line);
    let hi = sf.tokens.get(span.1.wrapping_sub(1)).map_or(0, |t| t.line);
    lo..=hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{parse::parse, token::tokenize};
    use crate::lexer::clean;

    fn hits(src: &str, path: &str) -> Vec<(&'static str, usize)> {
        let cf = clean(src);
        let sf = parse(tokenize(&cf.code));
        run_file_passes(path, &cf, &sf)
            .into_iter()
            .map(|v| (v.rule, v.line))
            .collect()
    }

    #[test]
    fn wall_clock_flags_instant_and_systemtime() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(hits(src, "crates/geo/src/vec.rs"), vec![("wall-clock", 1)]);
        assert!(hits(src, "crates/obs/src/recorder.rs").is_empty());
        assert!(hits(src, "crates/bench/benches/micro.rs").is_empty());
        assert_eq!(
            hits("fn f() { let t = SystemTime::UNIX_EPOCH; }\n", "a.rs"),
            vec![("wall-clock", 1)]
        );
        // A struct named Instant without ::now is left alone.
        assert!(hits("fn f(i: Instant) {}\n", "a.rs").is_empty());
    }

    #[test]
    fn unseeded_rng_flags_ambient_sources() {
        assert_eq!(
            hits("fn f() { let mut r = thread_rng(); }\n", "a.rs"),
            vec![("unseeded-rng", 1)]
        );
        assert_eq!(
            hits("fn f() -> u32 { rand::random() }\n", "a.rs"),
            vec![("unseeded-rng", 1)]
        );
        assert!(hits(
            "fn f(seed: u64) { let r = StdRng::seed_from_u64(seed); }\n",
            "a.rs"
        )
        .is_empty());
    }

    #[test]
    fn float_reduction_flags_sums_and_folds() {
        assert_eq!(
            hits("fn f(v: &[f64]) -> f64 { v.iter().sum::<f64>() }\n", "a.rs"),
            vec![("float-reduction", 1)]
        );
        let let_typed = "fn f(v: &[f64]) -> f64 {\n    let t: f64 = v.iter().sum();\n    t\n}\n";
        assert_eq!(hits(let_typed, "a.rs"), vec![("float-reduction", 2)]);
        assert_eq!(
            hits(
                "fn f(v: &[f64]) -> f64 { v.iter().fold(0.0, |a, b| a + b) }\n",
                "a.rs"
            ),
            vec![("float-reduction", 1)]
        );
        // max-fold is order-insensitive; integer sums are fine; the
        // kernel module itself is exempt.
        assert!(hits(
            "fn f(v: &[f64]) -> f64 { v.iter().copied().fold(f64::MIN, f64::max) }\n",
            "a.rs"
        )
        .is_empty());
        assert!(hits("fn f(v: &[u64]) -> u64 { v.iter().sum::<u64>() }\n", "a.rs").is_empty());
        assert!(hits(
            "fn f(v: &[f64]) -> f64 { v.iter().sum::<f64>() }\n",
            "crates/geo/src/kernel.rs"
        )
        .is_empty());
    }

    #[test]
    fn unordered_iter_flags_bare_collect() {
        let src = "fn f(m: &HashMap<u32, u32>) -> Vec<u32> {\n    m.keys().copied().collect()\n}\n";
        assert_eq!(hits(src, "a.rs"), vec![("unordered-iter", 2)]);
    }

    #[test]
    fn unordered_iter_accepts_sorted_collect() {
        let src = "fn f(m: &HashMap<u32, u32>) -> Vec<u32> {\n\
                   \x20   let mut v: Vec<u32> = m.keys().copied().collect();\n\
                   \x20   v.sort();\n    v\n}\n";
        assert!(hits(src, "a.rs").is_empty());
    }

    #[test]
    fn unordered_iter_accepts_insensitive_terminals() {
        let src = "fn f(m: &HashMap<u32, u32>) -> usize { m.values().count() }\n\
                   fn g(m: &HashMap<u32, u32>) -> u32 { m.values().copied().sum::<u32>() }\n";
        assert!(hits(src, "a.rs").is_empty());
    }

    #[test]
    fn unordered_iter_flags_order_sensitive_loop_body() {
        let src = "fn f(m: &HashMap<u32, u32>, acc: &mut Forest) {\n\
                   \x20   for (k, v) in m {\n        acc.union(*k, *v);\n    }\n}\n";
        assert_eq!(hits(src, "a.rs"), vec![("unordered-iter", 2)]);
    }

    #[test]
    fn unordered_iter_accepts_keyed_loop_body() {
        let src = "fn f(m: &HashMap<u32, u32>) -> BTreeMap<u32, u32> {\n\
                   \x20   let mut out: BTreeMap<u32, u32> = BTreeMap::new();\n\
                   \x20   for (k, v) in m {\n        out.insert(*k, *v);\n    }\n\
                   \x20   out\n}\n";
        assert!(hits(src, "a.rs").is_empty());
    }

    #[test]
    fn unordered_iter_accepts_push_into_sorted_vec() {
        let src = "fn f(m: &HashMap<u32, u32>) -> Vec<u32> {\n\
                   \x20   let mut v: Vec<u32> = Vec::new();\n\
                   \x20   for k in m.keys() {\n        v.push(*k);\n    }\n\
                   \x20   v.sort();\n    v\n}\n";
        assert!(hits(src, "a.rs").is_empty());
    }

    #[test]
    fn unordered_iter_flags_early_return() {
        let src = "fn f(m: &HashMap<u32, u32>) -> Option<u32> {\n\
                   \x20   for (k, v) in m.iter() {\n\
                   \x20       if *v > 3 { return Some(*k); }\n    }\n    None\n}\n";
        assert_eq!(hits(src, "a.rs"), vec![("unordered-iter", 2)]);
    }

    #[test]
    fn unordered_iter_skips_tests_and_lookups() {
        let test_src = "#[cfg(test)]\nmod tests {\n    fn f(m: &HashMap<u32, u32>) -> Vec<u32> {\n        m.keys().copied().collect()\n    }\n}\n";
        assert!(hits(test_src, "a.rs").is_empty());
        // Plain lookups never iterate.
        let lookups = "fn f(m: &HashMap<u32, u32>) -> Option<u32> { m.get(&1).copied() }\n";
        assert!(hits(lookups, "a.rs").is_empty());
    }
}
