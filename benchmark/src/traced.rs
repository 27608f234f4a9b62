//! Per-layer numbers read from what the program already exposes: the
//! lifecycle trace (`trace::global().report()` in process, the admin
//! `trace` payload for nodes) and the counter registry
//! (`metrics::global()` in process, `metrics.json` for nodes).
//!
//! Parsing is tolerant: a row or counter the program no longer prints
//! is left out, one it newly prints is carried along.

use crate::json::Value;
use psmr_common::metrics::{self, counters, MetricsBaseline, MetricsSnapshot};
use psmr_common::trace::{self, TraceReport, CHAIN_INTERVALS, INTERVAL_NAMES};
use std::collections::BTreeMap;

pub type Layer = BTreeMap<String, f64>;

#[derive(Debug, Clone, PartialEq)]
pub struct IntervalRow {
    pub name: String,
    pub count: u64,
    pub mean_ns: f64,
}

/// The trace report, reduced to what the benchmark uses.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceRows {
    pub rows: Vec<IntervalRow>,
}

impl TraceRows {
    pub fn from_report(report: &TraceReport) -> Self {
        Self {
            rows: report
                .intervals
                .iter()
                .map(|s| IntervalRow {
                    name: s.name.to_string(),
                    count: s.count,
                    mean_ns: s.mean.as_nanos() as f64,
                })
                .collect(),
        }
    }

    /// Reads the admin `trace` payload: one
    /// `interval NAME count=N mean_ns=N ...` line per interval. Lines of
    /// any other shape, and fields it does not know, are skipped.
    pub fn parse_admin(text: &str) -> Self {
        let rows = text
            .lines()
            .filter_map(|line| {
                let mut words = line.split_whitespace();
                if words.next()? != "interval" {
                    return None;
                }
                let name = words.next()?.to_string();
                let field = |key: &str| {
                    line.split_whitespace()
                        .find_map(|w| w.strip_prefix(key)?.strip_prefix('=')?.parse::<f64>().ok())
                };
                Some(IntervalRow {
                    name,
                    count: field("count")? as u64,
                    mean_ns: field("mean_ns")?,
                })
            })
            .collect();
        Self { rows }
    }

    /// The lifecycles folded in since `earlier`: a node's trace cannot
    /// be reset from outside, but `count x mean` is a running sum.
    pub fn since(&self, earlier: &TraceRows) -> TraceRows {
        let rows = self
            .rows
            .iter()
            .map(|now| {
                let (count0, sum0) = earlier
                    .rows
                    .iter()
                    .find(|r| r.name == now.name)
                    .map_or((0, 0.0), |r| (r.count, r.count as f64 * r.mean_ns));
                let count = now.count.saturating_sub(count0);
                let sum = now.count as f64 * now.mean_ns - sum0;
                IntervalRow {
                    name: now.name.clone(),
                    count,
                    mean_ns: if count == 0 {
                        0.0
                    } else {
                        (sum / count as f64).max(0.0)
                    },
                }
            })
            .collect();
        TraceRows { rows }
    }

    /// One `trace.<interval>_us` per interval in the report, plus the
    /// share of `measured_mean_ns` (the generator's own mean latency
    /// over the same period) that the chain of stages accounts for.
    pub fn layer(&self, measured_mean_ns: f64) -> Layer {
        let mut out = Layer::new();
        for row in &self.rows {
            out.insert(format!("trace.{}_us", row.name), row.mean_ns / 1e3);
        }
        let chain = &INTERVAL_NAMES[..CHAIN_INTERVALS];
        let chain_sum: f64 = self
            .rows
            .iter()
            .filter(|r| chain.contains(&r.name.as_str()))
            .map(|r| r.mean_ns)
            .sum();
        if measured_mean_ns > 0.0 && chain_sum > 0.0 {
            out.insert(
                "trace.attributed_pct".to_string(),
                chain_sum / measured_mean_ns * 100.0,
            );
        }
        out
    }
}

/// The `counters` object of a `metrics.json` payload, labelled rows
/// (`name{peer=1}`) included; empty when the payload does not parse.
pub fn parse_counters(metrics_json: &str) -> BTreeMap<String, f64> {
    Value::parse(metrics_json.trim())
        .ok()
        .as_ref()
        .and_then(|doc| doc.get("counters"))
        .and_then(Value::as_obj)
        .map(|fields| {
            fields
                .iter()
                .filter_map(|(name, v)| Some((name.clone(), v.as_f64()?)))
                .collect()
        })
        .unwrap_or_default()
}

/// Counter deltas over a period, per thousand commands the generator
/// completed in it. `delta` returns `None` for a counter the program
/// does not have; its metric is then left out.
pub fn counter_layer(delta: &dyn Fn(&str) -> Option<f64>, commands: f64) -> Layer {
    let mut out = Layer::new();
    if commands <= 0.0 {
        return out;
    }
    let kcmd = commands / 1e3;
    for (metric, counter, per) in [
        ("wal.fsyncs_per_kcmd", counters::WAL_FSYNCS, kcmd),
        ("wal.appends_per_kcmd", counters::WAL_APPENDS, kcmd),
        (
            "core.responses_held_frac",
            counters::RESPONSES_HELD,
            commands,
        ),
        (
            "multicast.backpressure_stalls_per_kcmd",
            counters::DELIVERY_BACKPRESSURE_STALLS,
            kcmd,
        ),
        (
            "core.exec_stalls_per_kcmd",
            counters::EXEC_BACKPRESSURE_STALLS,
            kcmd,
        ),
        ("net.frames_per_cmd", counters::NET_FRAMES_SENT, commands),
        ("net.bytes_per_cmd", counters::NET_BYTES_SENT, commands),
    ] {
        if let Some(value) = delta(counter) {
            out.insert(metric.to_string(), value / per);
        }
    }
    out
}

/// Reads the in-process trace and counters around the phases of a run.
pub struct InprocCapture {
    baseline: MetricsBaseline,
    lat: Option<TraceRows>,
}

/// What [`InprocCapture`] gathered.
pub struct InprocSide {
    lat: TraceRows,
    deltas: MetricsSnapshot,
}

impl InprocCapture {
    /// Call with nothing in flight, before the lat phase.
    pub fn begin() -> Self {
        trace::global().reset();
        Self {
            baseline: metrics::global().baseline(),
            lat: None,
        }
    }

    /// The trace is read at the end of the lat phase: one command per
    /// batch, so the stage means decompose the latency the lat phase
    /// reports.
    pub fn end_of_lat(&mut self) {
        self.lat = Some(TraceRows::from_report(&trace::global().report()));
    }

    pub fn end_of_sat(self) -> InprocSide {
        InprocSide {
            lat: self.lat.unwrap_or_default(),
            deltas: metrics::global().snapshot_deltas(&self.baseline),
        }
    }
}

impl InprocSide {
    /// `lat_mean_ns`: the generator's mean lat-phase latency;
    /// `commands`: completions over both phases.
    pub fn layer(&self, lat_mean_ns: f64, commands: f64) -> Layer {
        let mut out = self.lat.layer(lat_mean_ns);
        // In process every counter exists from the start (a missing one
        // reads 0) — except the network's, which no in-process run has.
        let delta =
            |name: &str| (!name.starts_with("net_")).then(|| self.deltas.counter(name) as f64);
        out.extend(counter_layer(&delta, commands));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: &str = "traced 40\ndropped 0\nchain_sum_ns 900\n\
        interval submit_to_ordered count=40 mean_ns=500 p50_ns=480 p99_ns=900 max_ns=1000\n\
        interval exec count=40 mean_ns=400 p50_ns=1 p99_ns=1 max_ns=1\n\
        interval brand_new_stage count=40 mean_ns=100 extra=field\n\
        interval broken count=x mean_ns=1\n\
        some future row\n";

    #[test]
    fn admin_trace_parsing_keeps_unknown_rows_and_skips_broken_ones() {
        let rows = TraceRows::parse_admin(TRACE);
        let names: Vec<&str> = rows.rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["submit_to_ordered", "exec", "brand_new_stage"]);
        let layer = rows.layer(1000.0);
        assert_eq!(layer["trace.submit_to_ordered_us"], 0.5);
        assert_eq!(layer["trace.brand_new_stage_us"], 0.1);
        // Only the program's chain intervals count towards attribution.
        assert_eq!(layer["trace.attributed_pct"], 90.0);
        // A missing interval omits its metric; nothing fails.
        assert!(!layer.contains_key("trace.delivered_to_exec_us"));
        assert!(TraceRows::parse_admin("").layer(1000.0).is_empty());
    }

    #[test]
    fn since_recovers_the_mean_of_the_period() {
        let row = |count, mean_ns| TraceRows {
            rows: vec![IntervalRow {
                name: "exec".into(),
                count,
                mean_ns,
            }],
        };
        // 10 lifecycles at 100 ns, then 30 more at 200 ns → mean 175.
        let delta = row(40, 175.0).since(&row(10, 100.0));
        assert_eq!(delta.rows[0].count, 30);
        assert!((delta.rows[0].mean_ns - 200.0).abs() < 1e-9);
        // An interval absent earlier counts from zero.
        assert_eq!(row(5, 50.0).since(&TraceRows::default()), row(5, 50.0));
    }

    #[test]
    fn counters_parse_tolerantly() {
        let payload = r#"{"ts_ms":1,"counters":{"wal_fsyncs":12,"net_frames_sent{peer=1}":7,"odd":"x"},"gauges":{},"new_section":[1]}"#;
        let counters = parse_counters(payload);
        assert_eq!(counters["wal_fsyncs"], 12.0);
        assert_eq!(counters["net_frames_sent{peer=1}"], 7.0);
        assert!(!counters.contains_key("odd"));
        assert!(parse_counters("not json").is_empty());
        assert!(parse_counters("{}").is_empty());
    }

    #[test]
    fn missing_counters_omit_their_metric() {
        let delta = |name: &str| (name == counters::WAL_FSYNCS).then_some(50.0);
        let layer = counter_layer(&delta, 10_000.0);
        assert_eq!(layer.len(), 1);
        assert_eq!(layer["wal.fsyncs_per_kcmd"], 5.0);
        assert!(counter_layer(&delta, 0.0).is_empty());
    }
}
