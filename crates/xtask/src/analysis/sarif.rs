//! Minimal SARIF 2.1.0 output for `cargo xtask check --format sarif`.
//!
//! The document carries one run with the full rule registry and every
//! finding; allowlist-suppressed findings are emitted at `note` level
//! with a SARIF suppression object, so downstream viewers show them
//! greyed-out instead of dropping them.

use tagdist_obs::Value;

use crate::checker::CheckOutcome;

const SCHEMA: &str = "https://json.schemastore.org/sarif-2.1.0.json";

/// Serializes the outcome as a SARIF 2.1.0 document (deterministic:
/// rules and findings are pre-sorted).
pub fn to_sarif(outcome: &CheckOutcome, rules: &[&str]) -> String {
    let rule_objs = rules
        .iter()
        .map(|r| Value::Obj(vec![("id".to_owned(), Value::Str((*r).to_owned()))]))
        .collect();
    let results = outcome
        .violations
        .iter()
        .map(|v| {
            let location = Value::Obj(vec![(
                "physicalLocation".to_owned(),
                Value::Obj(vec![
                    (
                        "artifactLocation".to_owned(),
                        Value::Obj(vec![("uri".to_owned(), Value::Str(v.path.clone()))]),
                    ),
                    (
                        "region".to_owned(),
                        Value::Obj(vec![(
                            "startLine".to_owned(),
                            Value::Num(v.line.max(1).to_string()),
                        )]),
                    ),
                ]),
            )]);
            let mut fields = vec![
                ("ruleId".to_owned(), Value::Str(v.rule.to_owned())),
                (
                    "level".to_owned(),
                    Value::Str(if v.allowed { "note" } else { "error" }.to_owned()),
                ),
                (
                    "message".to_owned(),
                    Value::Obj(vec![("text".to_owned(), Value::Str(v.message.clone()))]),
                ),
                ("locations".to_owned(), Value::Arr(vec![location])),
            ];
            if v.allowed {
                fields.push((
                    "suppressions".to_owned(),
                    Value::Arr(vec![Value::Obj(vec![
                        ("kind".to_owned(), Value::Str("external".to_owned())),
                        (
                            "justification".to_owned(),
                            Value::Str("sanctioned by xtask-allow.toml".to_owned()),
                        ),
                    ])]),
                ));
            }
            Value::Obj(fields)
        })
        .collect();
    let run = Value::Obj(vec![
        (
            "tool".to_owned(),
            Value::Obj(vec![(
                "driver".to_owned(),
                Value::Obj(vec![
                    ("name".to_owned(), Value::Str("xtask-check".to_owned())),
                    (
                        "informationUri".to_owned(),
                        Value::Str("https://github.com/tagdist/tagdist".to_owned()),
                    ),
                    ("rules".to_owned(), Value::Arr(rule_objs)),
                ]),
            )]),
        ),
        ("results".to_owned(), Value::Arr(results)),
    ]);
    let doc = Value::Obj(vec![
        ("version".to_owned(), Value::Str("2.1.0".to_owned())),
        ("$schema".to_owned(), Value::Str(SCHEMA.to_owned())),
        ("runs".to_owned(), Value::Arr(vec![run])),
    ]);
    let mut out = String::new();
    doc.write(&mut out);
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Violation;

    #[test]
    fn sarif_has_schema_rules_and_levels() {
        let outcome = CheckOutcome {
            files_checked: 1,
            violations: vec![
                Violation {
                    rule: "wall-clock",
                    path: "crates/x/src/a.rs".to_owned(),
                    line: 3,
                    snippet: "Instant::now()".to_owned(),
                    message: "no wall clocks".to_owned(),
                    allowed: false,
                },
                Violation {
                    rule: "no-panic",
                    path: "crates/x/src/b.rs".to_owned(),
                    line: 9,
                    snippet: "x.unwrap()".to_owned(),
                    message: "no panics".to_owned(),
                    allowed: true,
                },
            ],
        };
        let sarif = to_sarif(&outcome, &["no-panic", "wall-clock"]);
        let doc = Value::parse(&sarif).unwrap();
        assert_eq!(doc.get("version").and_then(Value::as_str), Some("2.1.0"));
        let runs = doc.get("runs").and_then(Value::as_array).unwrap();
        let results = runs[0].get("results").and_then(Value::as_array).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(
            results[0].get("level").and_then(Value::as_str),
            Some("error")
        );
        assert_eq!(
            results[1].get("level").and_then(Value::as_str),
            Some("note")
        );
        assert!(results[1].get("suppressions").is_some());
        let start = results[0]
            .get("locations")
            .and_then(Value::as_array)
            .and_then(|l| l[0].get("physicalLocation"))
            .and_then(|p| p.get("region"))
            .and_then(|r| r.get("startLine"))
            .and_then(Value::as_u64);
        assert_eq!(start, Some(3));
    }
}
