//! The benchmark's own test: every workload on a tiny corpus, untraced
//! and traced. Each run must print exactly the metrics `BENCHMARK.json`
//! declares for its mode, with their units, and fail no operation.

use std::process::Command;

use tagdist::obs::json::Value;

const WORKLOADS: [&str; 3] = ["cold_build", "ingest_stream", "serve_zipf"];

/// Runs the benchmark binary; returns its provenance and result lines.
fn run(workload: &str, seed: u64, trace: u8) -> (Value, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "1",
            "--trace",
            &trace.to_string(),
            "--videos",
            "3000",
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    let [.., provenance, result] = lines.as_slice() else {
        panic!("{workload}: expected a provenance and a result line, got {stdout:?}");
    };
    (
        Value::parse(provenance).expect("provenance is JSON"),
        Value::parse(result).expect("result is JSON"),
    )
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let spec = Value::parse(&text).expect("BENCHMARK.json is JSON");
    spec.get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_workload_emits_every_declared_metric_and_fails_nothing() {
    for (trace, key) in [(0, "end_to_end"), (1, "per_layer")] {
        let mut want = declared(key);
        want.sort();
        for workload in WORKLOADS {
            let (_, result) = run(workload, 5, trace);
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            let attempted = result
                .get("attempted")
                .and_then(Value::as_u64)
                .expect("attempted");
            let failed = result
                .get("failed")
                .and_then(Value::as_u64)
                .expect("failed");
            assert!(attempted >= 1, "{workload}: nothing attempted");
            assert_eq!(failed, 0, "{workload}: error_rate {failed}/{attempted}");
            let metrics = result
                .get("metrics")
                .and_then(Value::entries)
                .expect("metrics");
            let mut got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let value = m
                        .get("value")
                        .and_then(Value::as_f64)
                        .expect("numeric value");
                    assert!(value.is_finite(), "{workload}: {name} = {value}");
                    let unit = m.get("unit").and_then(Value::as_str).expect("unit");
                    (name.clone(), unit.to_owned())
                })
                .collect();
            got.sort();
            assert_eq!(got, want, "{workload} trace {trace}: metric set differs");
            if trace == 0 {
                for (name, m) in metrics {
                    let value = m.get("value").and_then(Value::as_f64).unwrap_or(0.0);
                    assert!(value > 0.0, "{workload}: end-to-end {name} must not be 0");
                }
            }
        }
    }
}

#[test]
fn the_seed_alone_fixes_the_corpus_bytes() {
    let digest = |workload: &str, seed: u64| {
        let (provenance, _) = run(workload, seed, 0);
        provenance
            .get("provenance")
            .and_then(|p| p.get("corpus_fnv1a"))
            .and_then(Value::as_str)
            .expect("corpus digest")
            .to_owned()
    };
    let a = digest("cold_build", 7);
    assert_eq!(a, digest("ingest_stream", 7), "same seed, different corpus");
    assert_ne!(a, digest("cold_build", 8), "different seeds, same corpus");
}

#[test]
fn more_threads_than_the_host_has_are_refused() {
    let too_many = std::thread::available_parallelism().map_or(1, |n| n.get()) + 1;
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "cold_build",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .env("TAGDIST_THREADS", too_many.to_string())
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "a refused run prints no result");
}
