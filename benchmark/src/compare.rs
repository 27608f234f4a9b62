//! `compare A.json B.json`: one row per (workload, end-to-end metric)
//! of two `result.json` files, A being the parent and B the change.

use crate::json::Value;
use crate::spec::{self, Better};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median beats A's by more than A's own spread.
    Better,
    /// No worse than the bound allows.
    Within,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound: this many runs
    /// cannot tell a regression of that size from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B's values against A's. Spread is the distance between the
/// quartiles as a share of the median, as the driver takes it.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (med_a, med_b) = (stats::median(a), stats::median(b));
    if med_a == 0.0 {
        return Verdict::Unresolved;
    }
    let spread_a = stats::iqr_share(a);
    if spread_a.max(stats::iqr_share(b)) > bound {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => (med_b - med_a) / med_a,
        Better::Higher => (med_a - med_b) / med_a,
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < 0.0 && -worse_by > spread_a {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

fn values_of(doc: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let values: Vec<f64> = doc
        .at(&["end_to_end", workload, metric, "values"])?
        .as_arr()?
        .iter()
        .filter_map(Value::as_f64)
        .collect();
    (!values.is_empty()).then_some(values)
}

fn failed_of(doc: &Value) -> f64 {
    doc.get("runs").and_then(Value::as_arr).map_or(0.0, |runs| {
        runs.iter().filter_map(|r| r.get("failed")?.as_f64()).sum()
    })
}

/// The comparison table and whether any row is `worse`.
pub fn compare(a: &Value, b: &Value) -> (String, bool) {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<14} {:<11} {:>10} {:>21} {:>10} {:>21} {:>6}  verdict",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "bound"
    );
    for w in &spec::WORKLOADS {
        for m in &spec::END_TO_END {
            let (Some(va), Some(vb)) = (values_of(a, w.name, m.name), values_of(b, w.name, m.name))
            else {
                let _ = writeln!(out, "{:<14} {:<11} missing in one file", w.name, m.name);
                continue;
            };
            let verdict = judge(&va, &vb, m.better, m.bound);
            any_worse |= verdict == Verdict::Worse;
            let (qa1, ma, qa3) = stats::quartiles(&va);
            let (qb1, mb, qb3) = stats::quartiles(&vb);
            let _ = writeln!(
                out,
                "{:<14} {:<11} {:>10.4} {:>10.4}..{:<9.4} {:>10.4} {:>10.4}..{:<9.4} {:>5.0}%  {}",
                w.name,
                m.name,
                ma,
                qa1,
                qa3,
                mb,
                qb1,
                qb3,
                m.bound * 100.0,
                verdict.as_str()
            );
        }
    }
    let (failed_a, failed_b) = (failed_of(a), failed_of(b));
    let _ = writeln!(out, "failed operations: A {failed_a}, B {failed_b}");
    // A gain does not count, and a change is worse, when more
    // operations fail than at the parent.
    any_worse |= failed_b > failed_a;
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_logic() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        // Lower is better, bound 10 %.
        assert_eq!(
            judge(&steady, &[10.5; 5], Better::Lower, 0.10),
            Verdict::Within
        );
        assert_eq!(
            judge(&steady, &[11.5; 5], Better::Lower, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            judge(&steady, &[9.0; 5], Better::Lower, 0.10),
            Verdict::Better
        );
        // Higher is better: the same numbers read the other way.
        assert_eq!(
            judge(&steady, &[11.5; 5], Better::Higher, 0.10),
            Verdict::Better
        );
        assert_eq!(
            judge(&steady, &[8.5; 5], Better::Higher, 0.10),
            Verdict::Worse
        );
        // An improvement inside A's own spread is not a gain.
        assert_eq!(
            judge(&steady, &[9.95; 5], Better::Lower, 0.10),
            Verdict::Within
        );
        // Spread wider than the bound, on either side: unresolved, even
        // when the medians look far apart.
        let noisy = [8.0, 10.0, 12.0, 9.0, 11.0];
        assert_eq!(
            judge(&noisy, &[20.0; 5], Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&steady, &noisy, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Single runs have no spread; the bound still applies.
        assert_eq!(judge(&[10.0], &[11.5], Better::Lower, 0.10), Verdict::Worse);
    }

    fn doc(lat: &[f64], failed: f64) -> Value {
        let mut metrics = Value::obj();
        for m in &spec::END_TO_END {
            metrics.set(
                m.name,
                Value::obj().with(
                    "values",
                    lat.iter().map(|v| Value::Num(*v)).collect::<Vec<_>>(),
                ),
            );
        }
        let mut e2e = Value::obj();
        for w in &spec::WORKLOADS {
            e2e.set(w.name, metrics.clone());
        }
        Value::obj()
            .with("end_to_end", e2e)
            .with("runs", vec![Value::obj().with("failed", failed)])
    }

    #[test]
    fn table_has_a_row_per_pair_and_flags_worse() {
        let a = doc(&[1.0, 1.01, 0.99], 0.0);
        let (table, worse) = compare(&a, &a);
        assert!(!worse, "{table}");
        let rows = spec::WORKLOADS.len() * spec::END_TO_END.len();
        assert_eq!(table.matches("within").count(), rows, "{table}");
        // Lower-is-better metrics got 50 % worse (sat_kcps "improved").
        let (table, worse) = compare(&a, &doc(&[1.5, 1.5, 1.5], 0.0));
        assert!(worse, "{table}");
        // Same numbers but operations failed: worse.
        assert!(compare(&a, &doc(&[1.0, 1.01, 0.99], 3.0)).1);
        // A file without the section reports rows as missing, not worse.
        let (table, worse) = compare(&a, &Value::obj());
        assert!(!worse && table.contains("missing"));
    }
}
