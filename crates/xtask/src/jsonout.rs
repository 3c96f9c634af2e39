//! Machine-readable JSON report (hand-rolled writer; the workspace
//! vendors no serde).

use crate::checker::CheckOutcome;

/// Serializes the outcome to a JSON document, deterministically
/// (violations are pre-sorted by path and line).
pub fn to_json(outcome: &CheckOutcome) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"files_checked\": {},\n  \"violations_active\": {},\n  \"violations_allowed\": {},\n",
        outcome.files_checked,
        outcome.active_count(),
        outcome.allowed_count()
    ));
    out.push_str("  \"rules\": [");
    for (i, rule) in crate::analysis::ALL_RULES.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&quote(rule));
    }
    out.push_str("],\n  \"violations\": [\n");
    for (i, v) in outcome.violations.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!(
            "\"rule\": {}, \"path\": {}, \"line\": {}, \"snippet\": {}, \"message\": {}, \"allowed\": {}",
            quote(v.rule),
            quote(&v.path),
            v.line,
            quote(&v.snippet),
            quote(&v.message),
            v.allowed
        ));
        out.push('}');
        if i + 1 < outcome.violations.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// JSON string escaping.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Violation;

    #[test]
    fn escapes_and_counts() {
        let outcome = CheckOutcome {
            files_checked: 2,
            violations: vec![Violation {
                rule: "no-panic",
                path: "a\\b.rs".to_owned(),
                line: 3,
                snippet: "say \"hi\"".to_owned(),
                message: "m".to_owned(),
                allowed: false,
            }],
        };
        let json = to_json(&outcome);
        assert!(json.contains("\"files_checked\": 2"));
        assert!(json.contains("a\\\\b.rs"));
        assert!(json.contains("say \\\"hi\\\""));
        assert!(json.contains("\"violations_active\": 1"));
    }
}
