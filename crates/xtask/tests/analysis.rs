//! Integration tests for the analysis subsystem: parser round-trip
//! over the real tree, layer-dag fixture workspaces, and thread-count
//! determinism of the full report.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp,
    clippy::missing_panics_doc,
    missing_docs
)]

use std::fs;
use std::path::{Path, PathBuf};

use xtask::analysis::modgraph::{check_layers, workspace_spec};
use xtask::analysis::{parse, token};
use xtask::{
    check_workspace_with, lexer, load_allowlist, to_json, to_sarif, CheckConfig, CHECKED_CRATES,
};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable dir") {
        let path = entry.expect("entry").path();
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Tokenizing the rendered token stream reproduces the same kinds and
/// texts for every real source file — the lexer/tokenizer round-trip
/// the parser builds on.
#[test]
fn tokenizer_round_trips_over_the_real_tree() {
    let root = workspace_root();
    let mut files = Vec::new();
    for krate in CHECKED_CRATES {
        rs_files(&root.join("crates").join(krate).join("src"), &mut files);
    }
    rs_files(&root.join("crates/xtask/src"), &mut files);
    assert!(files.len() > 50, "expected a real tree, got {files:?}");
    for file in files {
        let source = fs::read_to_string(&file).unwrap();
        let cf = lexer::clean(&source);
        let tokens = token::tokenize(&cf.code);
        let rendered = token::render(&tokens);
        let again = token::tokenize(&[rendered]);
        assert_eq!(tokens.len(), again.len(), "{}", file.display());
        for (a, b) in tokens.iter().zip(&again) {
            assert_eq!(a.kind, b.kind, "{}", file.display());
            assert_eq!(a.text, b.text, "{}", file.display());
        }
    }
}

/// The parser finds items in every real source file and its token
/// stream survives parsing unchanged.
#[test]
fn parser_walks_the_real_tree() {
    let root = workspace_root();
    let mut files = Vec::new();
    for krate in CHECKED_CRATES {
        rs_files(&root.join("crates").join(krate).join("src"), &mut files);
    }
    let mut fns = 0usize;
    for file in files {
        let source = fs::read_to_string(&file).unwrap();
        let cf = lexer::clean(&source);
        let tokens = token::tokenize(&cf.code);
        let count = tokens.len();
        let sf = parse::parse(tokens);
        assert_eq!(sf.tokens.len(), count, "{}", file.display());
        assert!(!sf.items.is_empty(), "{}", file.display());
        sf.for_each_fn(|_, _| fns += 1);
    }
    assert!(fns > 100, "expected hundreds of functions, saw {fns}");
}

#[test]
fn layer_dag_fixture_workspaces() {
    let bad = fixture_dir().join("layerdag/bad");
    let violations = check_layers(&bad, &workspace_spec()).expect("fixture tree scans");
    let messages: Vec<&str> = violations.iter().map(|v| v.message.as_str()).collect();
    assert!(
        messages.iter().any(|m| m.contains("layering violation")),
        "{messages:?}"
    );
    assert!(
        messages
            .iter()
            .any(|m| m.contains("unused declared dependency")),
        "{messages:?}"
    );
    assert!(
        messages
            .iter()
            .any(|m| m.contains("undeclared workspace dependency")),
        "{messages:?}"
    );

    let good = fixture_dir().join("layerdag/good");
    let violations = check_layers(&good, &workspace_spec()).expect("fixture tree scans");
    assert!(violations.is_empty(), "{violations:?}");
}

/// The acceptance bar: the full report over the real tree is
/// byte-identical at 1 and 8 worker threads.
#[test]
fn analyzer_output_is_thread_count_invariant() {
    let root = workspace_root();
    let allow = load_allowlist(&root).expect("allowlist loads");
    let outcomes: Vec<_> = [1usize, 8]
        .iter()
        .map(|&t| {
            let config = CheckConfig { threads: Some(t) };
            check_workspace_with(&root, &allow, &config).expect("tree scans")
        })
        .collect();
    assert_eq!(to_json(&outcomes[0]), to_json(&outcomes[1]));
    assert_eq!(
        to_sarif(&outcomes[0], xtask::ALL_RULES),
        to_sarif(&outcomes[1], xtask::ALL_RULES)
    );
}
