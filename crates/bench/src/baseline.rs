//! Loading and parsing of bench-harness JSON reports for the
//! `repro bench-check` gate.
//!
//! A report is `{"benchmarks": [{"name": …, "mean_ns": …}, …]}` (what
//! [`crate::harness`] writes via `TTS_BENCH_OUT`). The parser is strict
//! about the envelope — a file that is unreadable, not JSON, or missing
//! the `benchmarks` array is an `Err` with a message naming the path —
//! so the CI gate can *degrade gracefully*: a missing or malformed
//! baseline is reported and mapped to a distinct exit code instead of a
//! panic that looks like a crashed harness.

use tts_units::json::{parse, Json};

/// One benchmark entry: name and mean nanoseconds per iteration.
pub type BenchEntry = (String, f64);

/// Parses a bench report document. Entries missing `name` or `mean_ns`
/// are skipped (forward compatibility with richer reports); the envelope
/// itself is mandatory.
pub fn parse_report(origin: &str, text: &str) -> Result<Vec<BenchEntry>, String> {
    let doc = parse(text).map_err(|e| format!("{origin} is not valid JSON: {e}"))?;
    let Some(Json::Arr(benches)) = doc.get("benchmarks") else {
        return Err(format!("{origin} has no \"benchmarks\" array"));
    };
    Ok(benches
        .iter()
        .filter_map(|b| {
            let name = match b.get("name") {
                Some(Json::Str(s)) => s.clone(),
                _ => return None,
            };
            let mean = b.get("mean_ns").and_then(|v| v.as_f64())?;
            Some((name, mean))
        })
        .collect())
}

/// Reads and parses a bench report file.
pub fn load_report(path: &str) -> Result<Vec<BenchEntry>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_report(path, &text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_names_and_means_and_skips_partial_entries() {
        let text = r#"{
            "benchmarks": [
                {"name": "solver", "mean_ns": 1250.5, "samples": 3},
                {"name": "no-mean"},
                {"mean_ns": 7.0},
                {"name": "sweep", "mean_ns": 9000}
            ]
        }"#;
        let entries = parse_report("report.json", text).expect("valid report");
        assert_eq!(
            entries,
            vec![
                ("solver".to_string(), 1250.5),
                ("sweep".to_string(), 9000.0)
            ]
        );
    }

    #[test]
    fn malformed_inputs_are_errors_that_name_the_origin() {
        let not_json = parse_report("b.json", "{truncated").unwrap_err();
        assert!(not_json.contains("b.json"), "{not_json}");
        assert!(not_json.contains("not valid JSON"), "{not_json}");
        let parser_text = parse("{truncated").unwrap_err().to_string();
        assert!(not_json.contains(&parser_text), "{not_json}");
        assert!(!not_json.contains("JsonError {"), "{not_json}");

        for envelope in ["{}", "[]", r#"{"benchmarks": 3}"#, "null"] {
            let err = parse_report("b.json", envelope).unwrap_err();
            assert!(
                err.contains("no \"benchmarks\" array"),
                "{envelope} -> {err}"
            );
        }
    }

    #[test]
    fn an_empty_benchmark_list_is_valid_and_empty() {
        assert_eq!(
            parse_report("b.json", r#"{"benchmarks": []}"#).unwrap(),
            Vec::<BenchEntry>::new()
        );
    }

    #[test]
    fn a_missing_file_is_an_error_not_a_panic() {
        let err = load_report("/nonexistent/definitely-missing.json").unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
        assert!(err.contains("definitely-missing.json"), "{err}");
    }
}
