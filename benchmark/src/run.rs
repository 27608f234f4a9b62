//! What one workload run records, and how the named metrics are taken
//! from it. Shared by the in-process and the socket load generators.

use crate::spec;
use crate::stats;
use std::collections::BTreeMap;

/// Lengths of the phases of one run, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    /// Load before anything is recorded, at the sat phase's window.
    pub warmup_s: f64,
    /// Light load: where `lat_p50_ms` and `lat_p95_ms` come from.
    pub lat_s: f64,
    /// Saturation: where `sat_kcps` comes from.
    pub sat_s: f64,
    /// How many times the system is set up; `setup_s` is the median of
    /// the set-up times. All but the last are stopped again at once, the
    /// last one is measured.
    ///
    /// (Measuring every one of three deployments for a third of the
    /// time was tried, to average out what is fixed when a deployment
    /// starts. It made every metric worse: with phases of a few seconds
    /// a single slow fsync or a cold cache weighs three times as much.)
    pub setups: usize,
}

impl Phases {
    /// The end-to-end run: `seconds` of measuring, half per phase, after
    /// `setups` set-ups (the workload says how many it can afford).
    pub fn end_to_end(seconds: f64, setups: usize) -> Self {
        Self {
            warmup_s: 2.0,
            lat_s: seconds / 2.0,
            sat_s: seconds / 2.0,
            setups,
        }
    }

    /// The traced run is shorter: it reads the program's own trace, which
    /// needs far fewer samples than a p99.
    pub fn traced(seconds: f64) -> Self {
        Self {
            warmup_s: 1.0,
            lat_s: seconds * 0.2,
            sat_s: seconds * 0.4,
            setups: 1,
        }
    }

    /// Only a sat phase: the untraced reference `trace.overhead_pct` is
    /// taken against.
    pub fn sat_only(seconds: f64) -> Self {
        Self {
            warmup_s: 1.0,
            lat_s: 0.0,
            sat_s: seconds * 0.2,
            setups: 1,
        }
    }
}

/// One request the benchmark followed across its own layer crossings
/// (traced run only). Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub due_ns: u64,
    pub sent_ns: u64,
    pub received_ns: u64,
    /// `(name, start, end)` of each crossing made on the request's behalf.
    pub children: Vec<(&'static str, u64, u64)>,
}

/// Every `SPAN_EVERY`-th request of a traced run leaves a span.
pub const SPAN_EVERY: u64 = 64;

/// Measurements of one generator thread (or connection).
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Lat-phase latencies; the flag marks dependent commands
    /// (insert/delete), which pay the cross-worker barrier.
    pub lat_ns: Vec<(u64, bool)>,
    /// How late each lat-phase request left, open loop only.
    pub late_ns: Vec<u64>,
    pub sat_ns: Vec<u64>,
    /// Sat-phase completion times since the phase began.
    pub sat_done_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub spans: Vec<Span>,
}

impl ClientLog {
    pub fn merge(&mut self, other: ClientLog) {
        self.lat_ns.extend(other.lat_ns);
        self.late_ns.extend(other.late_ns);
        self.sat_ns.extend(other.sat_ns);
        self.sat_done_ns.extend(other.sat_done_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.spans.extend(other.spans);
    }
}

/// Everything one workload run measured.
#[derive(Debug)]
pub struct RunData {
    /// Seconds each set-up took (spawn or boot, preload, first reply).
    pub setups_s: Vec<f64>,
    pub phases: Phases,
    pub log: ClientLog,
    /// CPU the generator process itself used, % of one core.
    pub loadgen_cpu_pct: f64,
    /// Per-layer numbers the run gathered on the side (traced run).
    pub layer: BTreeMap<String, f64>,
    /// Notes for `result.json`, e.g. why a check failed.
    pub notes: Vec<String>,
}

/// A named value with its unit and the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

pub type Metrics = BTreeMap<String, Metric>;

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

impl RunData {
    pub fn new(phases: Phases) -> Self {
        Self {
            setups_s: Vec::new(),
            phases,
            log: ClientLog::default(),
            loadgen_cpu_pct: 0.0,
            layer: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    pub fn correct(&self) -> bool {
        self.log.failed == 0 && self.log.attempted > 0
    }

    fn sorted_lat(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.log.lat_ns.iter().map(|(ns, _)| *ns as f64).collect();
        stats::sort(&mut v);
        v
    }

    fn sat_counts(&self) -> Vec<f64> {
        stats::per_second_counts(&self.log.sat_done_ns, self.phases.sat_s)
    }

    /// Thousand completions in each whole second of the sat phase: shows
    /// drift or mode switches the median hides.
    pub fn sat_series_kcps(&self) -> Vec<f64> {
        self.sat_counts().iter().map(|c| c / 1e3).collect()
    }

    /// Median latency (ms) of each tenth of the lat-phase samples, in the
    /// order they were recorded (per generator thread, then by time).
    pub fn lat_series_p50_ms(&self) -> Vec<f64> {
        let chunk = self.log.lat_ns.len().div_ceil(10).max(1);
        self.log
            .lat_ns
            .chunks(chunk)
            .map(|part| {
                let v: Vec<f64> = part.iter().map(|(ns, _)| *ns as f64).collect();
                ms(stats::median(&v))
            })
            .collect()
    }

    /// Lat-phase latency (ms) at a few percentiles, for the eye.
    pub fn lat_percentiles_ms(&self) -> Vec<(f64, f64)> {
        let lat = self.sorted_lat();
        [50.0, 90.0, 95.0, 99.0, 99.9]
            .into_iter()
            .map(|p| (p, ms(stats::percentile(&lat, p))))
            .collect()
    }

    pub fn sat_kcps(&self) -> f64 {
        stats::median(&self.sat_counts()) / 1e3
    }

    /// The end-to-end metrics of this run.
    pub fn end_to_end(&self) -> Metrics {
        let lat = self.sorted_lat();
        let counts = self.sat_counts();
        let mut out = Metrics::new();
        let mut put = |name: &str, value: f64, samples: usize| {
            let unit = spec::end_to_end(name).expect("a listed metric").unit;
            out.insert(
                name.to_string(),
                Metric {
                    value,
                    unit,
                    samples,
                },
            );
        };
        put(
            spec::LAT_P50_MS,
            ms(stats::percentile(&lat, 50.0)),
            lat.len(),
        );
        put(
            spec::LAT_P95_MS,
            ms(stats::percentile(&lat, 95.0)),
            lat.len(),
        );
        put(spec::SAT_KCPS, stats::median(&counts) / 1e3, counts.len());
        put(
            spec::SETUP_S,
            stats::median(&self.setups_s),
            self.setups_s.len(),
        );
        out
    }

    /// The generator's report on itself, as per-layer values.
    pub fn loadgen_layer(&self) -> BTreeMap<String, f64> {
        let lat = self.sorted_lat();
        let mut sat: Vec<f64> = self.log.sat_ns.iter().map(|ns| *ns as f64).collect();
        stats::sort(&mut sat);
        let late: Vec<f64> = self.log.late_ns.iter().map(|ns| *ns as f64).collect();
        let (q1, _, q3) = stats::quartiles(&self.sat_counts());
        let tail = stats::tail_percentile(lat.len());
        let mut out = BTreeMap::new();
        let mut put = |name: &str, value: f64| {
            out.insert(name.to_string(), value);
        };
        put("loadgen.samples", lat.len() as f64);
        put("loadgen.late_mean_us", stats::mean(&late) / 1e3);
        put(
            "loadgen.late_max_ms",
            ms(late.iter().copied().fold(0.0, f64::max)),
        );
        put(
            "loadgen.lat_tail_ms",
            tail.map_or(0.0, |p| ms(stats::percentile(&lat, p))),
        );
        put("loadgen.lat_tail_pctl", tail.unwrap_or(0.0));
        put("loadgen.lat_p99_ms", ms(stats::percentile(&lat, 99.0)));
        put("loadgen.sat_p99_ms", ms(stats::percentile(&sat, 99.0)));
        put("loadgen.sat_kcps_iqr", (q3 - q1) / 1e3);
        put("loadgen.cpu_pct", self.loadgen_cpu_pct);
        put(
            "loadgen.failed_frac",
            self.log.failed as f64 / self.log.attempted.max(1) as f64,
        );
        out
    }

    /// Lat-phase median of dependent commands minus that of independent
    /// ones — what the barrier costs. `None` unless both kinds ran.
    pub fn dep_extra_us(&self) -> Option<f64> {
        let of = |dependent: bool| -> Vec<f64> {
            self.log
                .lat_ns
                .iter()
                .filter(|(_, d)| *d == dependent)
                .map(|(ns, _)| *ns as f64)
                .collect()
        };
        let (dep, indep) = (of(true), of(false));
        if dep.is_empty() || indep.is_empty() {
            return None;
        }
        Some((stats::median(&dep) - stats::median(&indep)) / 1e3)
    }

    pub fn lat_mean_ns(&self) -> f64 {
        let v: Vec<f64> = self.log.lat_ns.iter().map(|(ns, _)| *ns as f64).collect();
        stats::mean(&v)
    }
}
