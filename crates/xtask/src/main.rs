//! `cargo xtask` entry point; see [`xtask`] for the library.

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::{benchgate, check_workspace, load_allowlist, to_json, to_sarif};

const USAGE: &str = "\
usage: cargo xtask <command> [options]

commands:
  check           run the workspace's domain lints and determinism
                  analysis over the library crates (and xtask itself)
  bench-report    build and run the deterministic smoke-counter report
                  (tagdist-bench's `bench-report` binary, release
                  profile)
  bench-gate      run `bench-report` and fail if its deterministic
                  counters regress against the checked-in bench-baseline.json

check options:
  --json <path>   write the JSON report here (default: target/xtask-check.json)
  --sarif <path>  also write a SARIF 2.1.0 report here
  --format <fmt>  stdout format: text (default), json, or sarif
  --root <path>   workspace root (default: auto-detected from CARGO_MANIFEST_DIR)
  --quiet         suppress per-violation output

bench-report options:
  [path]          output path (default: bench-smoke.json)

Timing is measured by the benchmark of record: see BENCHMARK.json
(`cargo run --release --manifest-path perfbench/Cargo.toml -- --workload <name>`).

bench-gate options:
  --update          rewrite bench-baseline.json from the current measurement
  --input <path>    reuse an existing smoke report instead of re-running
                    the benchmark (default: run it into target/bench-smoke.json)
  --baseline <path> baseline file (default: bench-baseline.json at the root)
  --root <path>     workspace root (default: auto-detected)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("xtask: {message}");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Returns `Ok(true)` when the tree is clean.
fn run(args: &[String]) -> Result<bool, String> {
    let mut iter = args.iter();
    let command = iter.next().ok_or("missing command")?;
    if command == "bench-report" {
        return run_bench_report(iter.as_slice());
    }
    if command == "bench-gate" {
        return run_bench_gate(iter.as_slice());
    }
    if command != "check" {
        return Err(format!("unknown command `{command}`"));
    }
    let mut json_path: Option<PathBuf> = None;
    let mut sarif_path: Option<PathBuf> = None;
    let mut format = "text".to_owned();
    let mut root: Option<PathBuf> = None;
    let mut quiet = false;
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => {
                json_path = Some(PathBuf::from(iter.next().ok_or("--json needs a path")?));
            }
            "--sarif" => {
                sarif_path = Some(PathBuf::from(iter.next().ok_or("--sarif needs a path")?));
            }
            "--format" => {
                format = iter.next().ok_or("--format needs text|json|sarif")?.clone();
                if !matches!(format.as_str(), "text" | "json" | "sarif") {
                    return Err(format!("unknown format `{format}`"));
                }
            }
            "--root" => {
                root = Some(PathBuf::from(iter.next().ok_or("--root needs a path")?));
            }
            "--quiet" => quiet = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let root = match root {
        Some(r) => r,
        None => default_root()?,
    };
    let allow = load_allowlist(&root)?;
    let outcome = check_workspace(&root, &allow).map_err(|e| e.to_string())?;

    let json = to_json(&outcome);
    let json_path = json_path.unwrap_or_else(|| root.join("target/xtask-check.json"));
    write_report(&json_path, &json)?;
    let sarif = to_sarif(&outcome, xtask::ALL_RULES);
    if let Some(sarif_path) = &sarif_path {
        write_report(sarif_path, &sarif)?;
    }

    match format.as_str() {
        "json" => print!("{json}"),
        "sarif" => print!("{sarif}"),
        _ => {
            if !quiet {
                for v in outcome.active() {
                    println!("{}:{}: [{}] {}", v.path, v.line, v.rule, v.message);
                    println!("    {}", v.snippet);
                }
            }
            println!(
                "xtask check: {} files, {} active violation(s), {} allowlisted; report at {}",
                outcome.files_checked,
                outcome.active_count(),
                outcome.allowed_count(),
                json_path.display()
            );
        }
    }
    Ok(outcome.is_clean())
}

/// Writes a report file, creating its parent directory.
fn write_report(path: &PathBuf, contents: &str) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Shells out to the release-profile benchmark binary, forwarding the
/// optional output path (so `cargo xtask bench-report out.json` works).
fn run_bench_report(extra: &[String]) -> Result<bool, String> {
    if let Some(flag) = extra.iter().find(|a| a.starts_with('-')) {
        return Err(format!("unknown option `{flag}`"));
    }
    if extra.len() > 1 {
        return Err("bench-report takes at most one output path".to_owned());
    }
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let status = std::process::Command::new(cargo)
        .args([
            "run",
            "--release",
            "-p",
            "tagdist-bench",
            "--bin",
            "bench-report",
            "--",
        ])
        .args(extra)
        .status()
        .map_err(|e| format!("cannot launch cargo: {e}"))?;
    Ok(status.success())
}

/// Runs the smoke report (unless `--input` reuses one) and
/// gates its deterministic counters against `bench-baseline.json`.
fn run_bench_gate(args: &[String]) -> Result<bool, String> {
    let mut update = false;
    let mut input: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut root: Option<PathBuf> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--update" => update = true,
            "--input" => {
                input = Some(PathBuf::from(iter.next().ok_or("--input needs a path")?));
            }
            "--baseline" => {
                baseline = Some(PathBuf::from(iter.next().ok_or("--baseline needs a path")?));
            }
            "--root" => {
                root = Some(PathBuf::from(iter.next().ok_or("--root needs a path")?));
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let root = match root {
        Some(r) => r,
        None => default_root()?,
    };
    let baseline_path = baseline.unwrap_or_else(|| root.join("bench-baseline.json"));
    let input_path = match input {
        Some(path) => path,
        None => {
            let path = root.join("target/bench-smoke.json");
            let shown = path.display().to_string();
            if !run_bench_report(std::slice::from_ref(&shown))? {
                return Err(format!("bench-report {shown} failed"));
            }
            path
        }
    };

    let text = std::fs::read_to_string(&input_path)
        .map_err(|e| format!("cannot read {}: {e}", input_path.display()))?;
    let doc = tagdist_obs::Value::parse(&text)
        .map_err(|e| format!("cannot parse {}: {e}", input_path.display()))?;
    if update {
        let rendered = benchgate::render_baseline(&doc)?;
        std::fs::write(&baseline_path, rendered)
            .map_err(|e| format!("cannot write {}: {e}", baseline_path.display()))?;
        println!(
            "bench-gate: baseline refreshed at {}",
            baseline_path.display()
        );
        return Ok(true);
    }
    let measured = benchgate::deterministic_counters(&doc)?;
    let base = benchgate::load_counters(&baseline_path)?;
    let diffs = benchgate::compare(&base, &measured);
    let (text, clean) = benchgate::report(&diffs);
    print!("{text}");
    Ok(clean)
}

/// The workspace root: two levels above this crate's manifest.
fn default_root() -> Result<PathBuf, String> {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .map_err(|_| "CARGO_MANIFEST_DIR unset; pass --root".to_owned())?;
    let path = PathBuf::from(manifest);
    path.ancestors()
        .nth(2)
        .map(PathBuf::from)
        .ok_or_else(|| "cannot locate workspace root; pass --root".to_owned())
}
