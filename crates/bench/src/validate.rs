//! Schema validation of the `BENCH_*.json` perf-trajectory artifacts.
//!
//! `bench_schema.txt` (checked in next to this crate, baked into the
//! binary) lists the metric keys every artifact must carry. CI runs the
//! `validate_bench` binary after the bench smokes: a new artifact
//! without a schema section, a missing required key, or a metric that
//! rendered as `null` (non-finite) all fail the build — headline-metric
//! drift has to be an explicit schema change, never an accident.
//!
//! The binary's `--metrics <dir>` mode parse-checks the
//! `*_metrics.jsonl` flight-recorder files node processes write (see
//! `psmr_common::export::JsonlSnapshotter`): every line must be a
//! self-contained snapshot object carrying the
//! `ts_ms`/`counters`/`gauges`/`histograms` sections, so the uploaded
//! artifacts stay machine-readable.

use std::collections::BTreeMap;
use std::path::Path;

/// The checked-in schema source.
pub const SCHEMA: &str = include_str!("../bench_schema.txt");

/// Parses the `[section]` / key-per-line schema format. Lines starting
/// with `#` and blank lines are ignored.
pub fn parse_schema(src: &str) -> BTreeMap<String, Vec<String>> {
    let mut sections: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut current: Option<String> = None;
    for line in src.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            current = Some(name.to_string());
            sections.entry(name.to_string()).or_default();
        } else if let Some(section) = &current {
            sections
                .get_mut(section)
                .expect("section registered on entry")
                .push(line.to_string());
        }
    }
    sections
}

/// One parsed metric: its key and `Some(value)`, or `None` for `null`.
pub type ParsedMetric = (String, Option<f64>);

/// Parses one `BENCH_<name>.json` artifact (the flat hand-written
/// format of [`crate::Report::metrics_json`]): the experiment name plus
/// each metric key with `Some(value)` or `None` for `null`.
pub fn parse_bench_json(body: &str) -> Option<(String, Vec<ParsedMetric>)> {
    let name = body
        .split("\"name\": \"")
        .nth(1)?
        .split('"')
        .next()?
        .to_string();
    let metrics_src = body.split("\"metrics\": {").nth(1)?;
    // Values are plain numbers or null, so the first closing brace ends
    // the metrics object.
    let metrics_src = &metrics_src[..metrics_src.find('}')?];
    let mut metrics = Vec::new();
    for entry in metrics_src.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (key, value) = entry.rsplit_once(':')?;
        let key = key.trim().trim_matches('"').to_string();
        let value = value.trim();
        let value = if value == "null" {
            None
        } else {
            Some(value.parse::<f64>().ok()?)
        };
        metrics.push((key, value));
    }
    Some((name, metrics))
}

/// Validates one artifact body against the schema. Returns the problems
/// found (empty = valid).
pub fn validate_artifact(
    schema: &BTreeMap<String, Vec<String>>,
    file: &str,
    body: &str,
) -> Vec<String> {
    let Some((name, metrics)) = parse_bench_json(body) else {
        return vec![format!("{file}: unparseable BENCH artifact")];
    };
    let mut problems = Vec::new();
    let Some(required) = schema.get(&name) else {
        return vec![format!(
            "{file}: experiment \"{name}\" has no section in bench_schema.txt — \
             new artifacts must be added to the schema"
        )];
    };
    for key in required {
        match metrics.iter().find(|(k, _)| k == key) {
            None => problems.push(format!(
                "{file}: required metric \"{key}\" is missing — schema drift"
            )),
            Some((_, None)) => problems.push(format!(
                "{file}: required metric \"{key}\" is null (non-finite)"
            )),
            Some((_, Some(_))) => {}
        }
    }
    for (key, value) in &metrics {
        if value.is_none() && !required.contains(key) {
            problems.push(format!(
                "{file}: extra metric \"{key}\" is null (non-finite)"
            ));
        }
    }
    problems
}

/// Validates every `BENCH_*.json` under `dir` against the checked-in
/// schema.
///
/// # Errors
///
/// Returns every problem found; an unreadable or empty directory is
/// itself a problem (CI must not "pass" by validating nothing).
pub fn validate_dir(dir: &Path) -> Result<Vec<String>, Vec<String>> {
    let schema = parse_schema(SCHEMA);
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) => return Err(vec![format!("cannot read {}: {e}", dir.display())]),
    };
    let mut validated = Vec::new();
    let mut problems = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        let Some(file) = path.file_name().and_then(|f| f.to_str()) else {
            continue;
        };
        if !file.starts_with("BENCH_") || !file.ends_with(".json") {
            continue;
        }
        match std::fs::read_to_string(&path) {
            Ok(body) => {
                problems.extend(validate_artifact(&schema, file, &body));
                validated.push(file.to_string());
            }
            Err(e) => problems.push(format!("{file}: unreadable: {e}")),
        }
    }
    if validated.is_empty() {
        problems.push(format!(
            "no BENCH_*.json artifacts under {} — run the bench smokes first",
            dir.display()
        ));
    }
    if problems.is_empty() {
        Ok(validated)
    } else {
        Err(problems)
    }
}

/// Parse-checks one metrics flight-recorder body (a `*_metrics.jsonl`
/// file): every line must be a self-contained JSON snapshot object with
/// the four sections the snapshotter writes. Returns the problems found
/// (empty = valid); an empty file is a problem — a node that never
/// snapshotted recorded nothing.
pub fn validate_metrics_jsonl(file: &str, body: &str) -> Vec<String> {
    let mut problems = Vec::new();
    let mut lines = 0usize;
    for (no, line) in body.lines().enumerate() {
        lines += 1;
        let shaped = line.starts_with('{') && line.ends_with('}');
        if !shaped
            || !line.contains("\"ts_ms\":")
            || !line.contains("\"counters\":{")
            || !line.contains("\"gauges\":{")
            || !line.contains("\"histograms\":{")
        {
            problems.push(format!(
                "{file}:{}: malformed metrics snapshot line",
                no + 1
            ));
        }
    }
    if lines == 0 {
        problems.push(format!("{file}: empty metrics JSONL"));
    }
    problems
}

/// Recursively parse-checks every `*_metrics.jsonl` under `dir` (node
/// data directories nest one level per node).
///
/// # Errors
///
/// Every problem found; an unreadable tree or one containing no metrics
/// JSONL at all is itself a problem — CI must not "pass" by validating
/// nothing.
pub fn validate_metrics_dir(dir: &Path) -> Result<Vec<String>, Vec<String>> {
    let mut stack = vec![dir.to_path_buf()];
    let mut validated = Vec::new();
    let mut problems = Vec::new();
    while let Some(d) = stack.pop() {
        let entries = match std::fs::read_dir(&d) {
            Ok(entries) => entries,
            Err(e) => {
                problems.push(format!("cannot read {}: {e}", d.display()));
                continue;
            }
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
                continue;
            }
            let Some(file) = path.file_name().and_then(|f| f.to_str()) else {
                continue;
            };
            if !file.ends_with("_metrics.jsonl") {
                continue;
            }
            let shown = path.display().to_string();
            match std::fs::read_to_string(&path) {
                Ok(body) => {
                    problems.extend(validate_metrics_jsonl(&shown, &body));
                    validated.push(shown);
                }
                Err(e) => problems.push(format!("{shown}: unreadable: {e}")),
            }
        }
    }
    if validated.is_empty() {
        problems.push(format!(
            "no *_metrics.jsonl under {} — did the nodes run?",
            dir.display()
        ));
    }
    if problems.is_empty() {
        Ok(validated)
    } else {
        Err(problems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Report;

    #[test]
    fn checked_in_schema_parses_and_covers_every_emitting_experiment() {
        let schema = parse_schema(SCHEMA);
        for name in [
            "fig3",
            "fig4",
            "ckpt_load",
            "wal_overhead",
            "pipeline",
            "stage_breakdown",
        ] {
            let keys = schema
                .get(name)
                .unwrap_or_else(|| panic!("[{name}] section"));
            assert!(!keys.is_empty(), "[{name}] lists required keys");
        }
    }

    #[test]
    fn report_artifacts_round_trip_through_the_parser() {
        let mut report = Report::new("walx");
        report.metric("baseline_kcps", 124.5);
        report.metric("dip_pct", f64::NAN);
        let (name, metrics) = parse_bench_json(&report.metrics_json()).expect("parses");
        assert_eq!(name, "walx");
        assert_eq!(metrics[0], ("baseline_kcps".into(), Some(124.5)));
        assert_eq!(metrics[1], ("dip_pct".into(), None));
    }

    #[test]
    fn drift_and_null_metrics_fail_validation() {
        let mut schema = BTreeMap::new();
        schema.insert("exp".to_string(), vec!["a_kcps".to_string()]);

        let ok = "{\n  \"name\": \"exp\",\n  \"metrics\": {\n    \"a_kcps\": 10\n  }\n}\n";
        assert!(validate_artifact(&schema, "f", ok).is_empty());

        let missing = "{\n  \"name\": \"exp\",\n  \"metrics\": {\n    \"b_kcps\": 10\n  }\n}\n";
        let problems = validate_artifact(&schema, "f", missing);
        assert!(
            problems.iter().any(|p| p.contains("missing")),
            "{problems:?}"
        );

        let null = "{\n  \"name\": \"exp\",\n  \"metrics\": {\n    \"a_kcps\": null\n  }\n}\n";
        let problems = validate_artifact(&schema, "f", null);
        assert!(problems.iter().any(|p| p.contains("null")), "{problems:?}");

        let unknown = "{\n  \"name\": \"new\",\n  \"metrics\": {\n    \"a_kcps\": 1\n  }\n}\n";
        let problems = validate_artifact(&schema, "f", unknown);
        assert!(
            problems.iter().any(|p| p.contains("no section")),
            "{problems:?}"
        );
    }

    #[test]
    fn metrics_jsonl_lines_are_parse_checked() {
        let good = concat!(
            "{\"ts_ms\":1,\"counters\":{\"a\":1},\"gauges\":{},\"histograms\":{}}\n",
            "{\"ts_ms\":2,\"counters\":{},\"gauges\":{},\"histograms\":{}}\n"
        );
        assert!(validate_metrics_jsonl("f", good).is_empty());

        let truncated = "{\"ts_ms\":1,\"counters\":{\"a\":1},\"gaug";
        let problems = validate_metrics_jsonl("f", truncated);
        assert!(
            problems.iter().any(|p| p.contains("f:1: malformed")),
            "{problems:?}"
        );

        let problems = validate_metrics_jsonl("f", "");
        assert!(problems.iter().any(|p| p.contains("empty")), "{problems:?}");
    }

    #[test]
    fn metrics_dir_walk_finds_nested_recorders() {
        let root = std::env::temp_dir().join(format!("psmr-validate-{}", std::process::id()));
        let nested = root.join("data-n1");
        std::fs::create_dir_all(&nested).expect("mkdir");
        std::fs::write(
            nested.join("node1_metrics.jsonl"),
            "{\"ts_ms\":1,\"counters\":{},\"gauges\":{},\"histograms\":{}}\n",
        )
        .expect("write");
        std::fs::write(nested.join("flight.jsonl"), "not checked here\n").expect("write");
        let validated = validate_metrics_dir(&root).expect("valid tree");
        assert_eq!(validated.len(), 1, "{validated:?}");

        std::fs::write(nested.join("node2_metrics.jsonl"), "garbage\n").expect("write");
        let problems = validate_metrics_dir(&root).expect_err("malformed file fails");
        assert!(
            problems.iter().any(|p| p.contains("malformed")),
            "{problems:?}"
        );

        let empty = root.join("no-nodes");
        std::fs::create_dir_all(&empty).expect("mkdir");
        assert!(validate_metrics_dir(&empty).is_err(), "empty tree fails");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn extra_finite_metrics_are_allowed() {
        let mut schema = BTreeMap::new();
        schema.insert("exp".to_string(), vec!["a_kcps".to_string()]);
        let body =
            "{\n  \"name\": \"exp\",\n  \"metrics\": {\n    \"a_kcps\": 10,\n    \"extra\": 1.5\n  }\n}\n";
        assert!(validate_artifact(&schema, "f", body).is_empty());
    }
}
