//! The repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! psmr-benchmark                       every workload, traced pass, result.json
//! psmr-benchmark --repeat 3            ... with three end-to-end runs per workload
//! psmr-benchmark --workload W --seed N --seconds S --trace 0|1
//!                                      one run, as the driver asks for it
//! psmr-benchmark compare A.json B.json
//! psmr-benchmark manifest              prints BENCHMARK.json
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod cluster;
mod compare;
mod guard;
mod host;
mod inproc;
mod json;
mod ops;
mod probes;
mod run;
mod spec;
mod stats;
mod tcp3;
mod tcpload;
mod traced;

use json::Value;
use run::{Phases, RunData};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;
use traced::Layer;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    out: PathBuf,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: psmr-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] [--trace 0|1] \
         [--repeat <n>] [--out <result.json>]\n\
         \u{20}      psmr-benchmark compare <A.json> <B.json>\n\
         \u{20}      psmr-benchmark manifest\n\
         workloads: {}",
        spec::WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Option<Args> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        repeat: 1,
        out: Path::new(guard::OUT_DIR).join("result.json"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => {
                spec::workload(value)?;
                parsed.workload = Some(value.clone());
            }
            "--seed" => parsed.seed = value.parse().ok()?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 1.0 && *s <= 600.0)?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--repeat" => parsed.repeat = value.parse().ok().filter(|n| (1..=20).contains(n))?,
            "--out" => parsed.out = PathBuf::from(value),
            _ => return None,
        }
    }
    Some(parsed)
}

/// Builds `psmr-node` next to this executable and returns its path. The
/// node is a second binary of this package (the repository's own
/// `main`), so the build shares everything this executable already
/// compiled; when up to date the call costs a fraction of a second.
fn build_node() -> Result<PathBuf, String> {
    let manifest = Path::new("benchmark/Cargo.toml");
    if !manifest.exists() {
        return Err("run from the repository root (benchmark/Cargo.toml not found)".into());
    }
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "--manifest-path"])
        .arg(manifest)
        .args(["--bin", "psmr-node"])
        .status()
        .map_err(|e| format!("run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building psmr-node failed: {status}"));
    }
    let node = std::env::current_exe()
        .map_err(|e| format!("locate this executable: {e}"))?
        .with_file_name("psmr-node");
    if node.exists() {
        Ok(node)
    } else {
        Err(format!("{} was not built", node.display()))
    }
}

fn end_to_end_phases(workload: &str, seconds: f64) -> Phases {
    let setups = if inproc::is_inproc(workload) {
        inproc::SETUPS
    } else {
        tcp3::SETUPS
    };
    Phases::end_to_end(seconds, setups)
}

/// Everything a run needs besides its arguments.
struct Bench {
    node_bin: Option<PathBuf>,
}

impl Bench {
    fn node_bin(&self) -> &Path {
        self.node_bin.as_deref().expect("built before a tcp3 run")
    }

    fn run(&self, workload: &str, seed: u64, phases: Phases, traced: bool) -> RunData {
        if inproc::is_inproc(workload) {
            inproc::run(workload, seed, phases, traced)
        } else {
            tcp3::run(self.node_bin(), seed, phases, traced)
        }
    }

    /// The end-to-end run: tracing off.
    fn end_to_end(&self, workload: &str, seed: u64, seconds: f64) -> RunData {
        self.run(workload, seed, end_to_end_phases(workload, seconds), false)
    }

    /// The traced run of one workload: an untraced saturation reference
    /// (for `trace.overhead_pct`), then the workload with tracing on and
    /// every side measurement. `probes` is the probe pass, which does
    /// not depend on the workload.
    fn per_layer(&self, workload: &str, seed: u64, seconds: f64, probes: &Layer) -> Traced {
        let reference = self.run(workload, seed, Phases::sat_only(seconds), false);
        let traced = self.run(workload, seed, Phases::traced(seconds), true);
        let mut layer = probes.clone();
        layer.extend(traced.layer.clone());
        layer.extend(traced.loadgen_layer());
        if let Some(extra) = traced.dep_extra_us() {
            layer.insert("core.dep_extra_us".into(), extra);
        }
        let (untraced_kcps, traced_kcps) = (reference.sat_kcps(), traced.sat_kcps());
        layer.insert("loadgen.traced_sat_kcps".into(), traced_kcps);
        if untraced_kcps > 0.0 {
            layer.insert(
                "trace.overhead_pct".into(),
                (untraced_kcps - traced_kcps) / untraced_kcps * 100.0,
            );
        }
        write_spans(workload, &traced);
        Traced {
            layer,
            attempted: reference.log.attempted + traced.log.attempted,
            failed: reference.log.failed + traced.log.failed,
            notes: [reference.notes, traced.notes].concat(),
        }
    }
}

struct Traced {
    layer: Layer,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

/// One root span per sampled request, child spans where the benchmark
/// itself crossed a layer. Spans inside the program are a later issue.
fn write_spans(workload: &str, data: &RunData) {
    use std::fmt::Write as _;
    let mut out = String::new();
    for span in &data.log.spans {
        let children: Vec<Value> = span
            .children
            .iter()
            .map(|(name, start, end)| {
                Value::obj()
                    .with("name", *name)
                    .with("parent", span.id)
                    .with("start_ns", *start)
                    .with("end_ns", *end)
            })
            .collect();
        let line = Value::obj()
            .with("id", span.id)
            .with("name", "request")
            .with("workload", workload)
            .with("due_ns", span.due_ns)
            .with("sent_ns", span.sent_ns)
            .with("received_ns", span.received_ns)
            .with("children", children);
        let _ = writeln!(out, "{}", line.render());
    }
    let path = Path::new(guard::OUT_DIR).join(format!("spans_{workload}.jsonl"));
    if let Err(e) =
        std::fs::create_dir_all(guard::OUT_DIR).and_then(|()| std::fs::write(&path, out))
    {
        eprintln!("psmr-benchmark: write {}: {e}", path.display());
    }
}

fn metric_json(value: f64, unit: &str) -> Value {
    Value::obj().with("value", value).with("unit", unit)
}

/// Prints the line the driver reads — last on standard output — and
/// returns whether the run was correct: something ran and nothing failed.
fn print_result_line(attempted: u64, failed: u64, metrics: Value) -> bool {
    let correct = failed == 0 && attempted > 0;
    let line = Value::obj()
        .with("correct", correct)
        .with("attempted", attempted.max(1))
        .with("failed", failed)
        .with("metrics", metrics);
    println!("{}", line.render());
    correct
}

fn print_end_to_end(workload: &str, seed: u64, data: &RunData) {
    println!(
        "== {workload}  seed {seed}  lat {:.1} s + sat {:.1} s  tracing off ==",
        data.phases.lat_s, data.phases.sat_s
    );
    for (name, m) in data.end_to_end() {
        println!(
            "  {name:<12} {:>12.4} {:<7} (n={})",
            m.value, m.unit, m.samples
        );
    }
    println!(
        "  {:<12} {:>12.6} {:<7} ({} of {} failed)",
        "failed_frac",
        data.log.failed as f64 / data.log.attempted.max(1) as f64,
        "ratio",
        data.log.failed,
        data.log.attempted
    );
    let series = |v: Vec<f64>| {
        v.iter()
            .map(|x| format!("{x:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let percentiles: Vec<String> = data
        .lat_percentiles_ms()
        .iter()
        .map(|(p, v)| format!("p{p} {v:.3}"))
        .collect();
    println!(
        "  lat percentiles, ms:             {}",
        percentiles.join("  ")
    );
    println!(
        "  lat p50 by tenth of samples, ms: {}",
        series(data.lat_series_p50_ms())
    );
    println!(
        "  sat by second, kcmd/s:           {}",
        series(data.sat_series_kcps())
    );
    for note in &data.notes {
        println!("  note: {note}");
    }
}

/// One per-layer metric of the manifest with this run's value.
struct Listed {
    def: &'static spec::LayerDef,
    value: f64,
    measured: bool,
}

/// Every per-layer metric of the manifest, in its order; one that was
/// not measured on this workload reads 0 (the driver wants all of them
/// on every traced run).
fn listed_per_layer(layer: &Layer) -> Vec<Listed> {
    spec::PER_LAYER
        .iter()
        .map(|def| match layer.get(def.name) {
            Some(v) if v.is_finite() => Listed {
                def,
                value: *v,
                measured: true,
            },
            _ => Listed {
                def,
                value: 0.0,
                measured: false,
            },
        })
        .collect()
}

/// What the run produced beyond the manifest: a trace stage a later
/// change added. Printed and written to `result.json`, but not part of
/// the driver's result line until it is listed in `spec.rs`.
fn unlisted_per_layer(layer: &Layer) -> Vec<(&str, f64)> {
    layer
        .iter()
        .filter(|(name, _)| spec::PER_LAYER.iter().all(|d| d.name != name.as_str()))
        .map(|(name, v)| (name.as_str(), *v))
        .collect()
}

fn print_per_layer(workload: &str, seed: u64, layer: &Layer) {
    println!("== {workload}  seed {seed}  per-layer (probe pass + traced run) ==");
    for Listed {
        def,
        value,
        measured,
    } in listed_per_layer(layer)
    {
        let note = match (measured, def.scope.covers(workload)) {
            (true, _) => "",
            (false, false) => "  (does not apply to this workload)",
            // E.g. a counter the program never incremented, or no
            // longer has: it is absent from what the program exposes.
            (false, true) => "  (not exposed by the program in this run)",
        };
        println!("  {:<40} {value:>14.4} {}{note}", def.name, def.unit);
    }
    for (name, value) in unlisted_per_layer(layer) {
        println!("  {name:<40} {value:>14.4} (not in BENCHMARK.json)");
    }
}

/// The manifest's per-layer metrics as the `metrics` object of a result.
fn per_layer_json(layer: &Layer) -> Value {
    let mut out = Value::obj();
    for listed in listed_per_layer(layer) {
        out.set(listed.def.name, metric_json(listed.value, listed.def.unit));
    }
    out
}

/// One end-to-end metric of one workload over the repeats of a full
/// pass: each run's value and the number of samples behind it.
#[derive(Default)]
struct Series {
    values: Vec<f64>,
    samples: Vec<usize>,
}

/// One run for the driver.
fn driver_run(args: &Args, workload: &str) -> Result<bool, String> {
    guard::install(Duration::from_secs(170));
    let bench = Bench {
        node_bin: (!inproc::is_inproc(workload))
            .then(build_node)
            .transpose()?,
    };
    let (attempted, failed, metrics) = if args.trace {
        let probes = probes::run_all();
        let traced = bench.per_layer(workload, args.seed, args.seconds, &probes);
        print_per_layer(workload, args.seed, &traced.layer);
        for note in &traced.notes {
            println!("  note: {note}");
        }
        (
            traced.attempted,
            traced.failed,
            per_layer_json(&traced.layer),
        )
    } else {
        let data = bench.end_to_end(workload, args.seed, args.seconds);
        print_end_to_end(workload, args.seed, &data);
        let mut metrics = Value::obj();
        for (name, m) in data.end_to_end() {
            metrics.set(&name, metric_json(m.value, m.unit));
        }
        (data.log.attempted, data.log.failed, metrics)
    };
    guard::release_all();
    Ok(print_result_line(attempted, failed, metrics))
}

/// Every workload end to end (`repeat` times), then the traced pass;
/// prints every metric and writes `result.json`.
fn full_pass(args: &Args) -> Result<bool, String> {
    let workloads = spec::WORKLOADS.len() as u64;
    let budget = 120
        + args.repeat as u64 * workloads * (args.seconds as u64 + 25)
        + workloads * (2 * args.seconds as u64 + 60);
    guard::install(Duration::from_secs(budget));
    let bench = Bench {
        node_bin: Some(build_node()?),
    };
    let scratch = guard::scratch_dir("probe").map_err(|e| format!("create scratch: {e}"))?;
    let host = host::describe(&scratch);
    guard::remove_scratch(&scratch);

    let mut series: BTreeMap<(&str, String), Series> = BTreeMap::new();
    let mut runs = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for r in 0..args.repeat {
        for w in &spec::WORKLOADS {
            let seed = args.seed + r as u64;
            let data = bench.end_to_end(w.name, seed, args.seconds);
            print_end_to_end(w.name, seed, &data);
            for (name, m) in data.end_to_end() {
                let slot = series.entry((w.name, name)).or_default();
                slot.values.push(m.value);
                slot.samples.push(m.samples);
            }
            attempted += data.log.attempted;
            failed += data.log.failed;
            runs.push(
                Value::obj()
                    .with("workload", w.name)
                    .with("seed", seed)
                    .with("trace", false)
                    .with("attempted", data.log.attempted)
                    .with("failed", data.log.failed)
                    .with("correct", data.correct())
                    .with(
                        "notes",
                        data.notes
                            .iter()
                            .map(|n| Value::from(n.as_str()))
                            .collect::<Vec<_>>(),
                    ),
            );
        }
    }

    let probes = probes::run_all();
    let mut per_layer = Value::obj();
    for w in &spec::WORKLOADS {
        let traced = bench.per_layer(w.name, args.seed, args.seconds, &probes);
        print_per_layer(w.name, args.seed, &traced.layer);
        let mut layer_json = per_layer_json(&traced.layer);
        // Only trace intervals can appear unlisted, and those are in µs.
        for (name, value) in unlisted_per_layer(&traced.layer) {
            layer_json.set(name, metric_json(value, "us"));
        }
        per_layer.set(w.name, layer_json);
        attempted += traced.attempted;
        failed += traced.failed;
        runs.push(
            Value::obj()
                .with("workload", w.name)
                .with("seed", args.seed)
                .with("trace", true)
                .with("attempted", traced.attempted)
                .with("failed", traced.failed)
                .with("correct", traced.failed == 0 && traced.attempted > 0)
                .with(
                    "notes",
                    traced
                        .notes
                        .iter()
                        .map(|n| Value::from(n.as_str()))
                        .collect::<Vec<_>>(),
                ),
        );
    }

    let mut end_to_end = Value::obj();
    let mut summary = Value::obj();
    println!(
        "== end-to-end summary ({} run(s) per workload) ==",
        args.repeat
    );
    for w in &spec::WORKLOADS {
        let mut metrics = Value::obj();
        for m in &spec::END_TO_END {
            let Some(Series {
                values: vals,
                samples,
            }) = series.get(&(w.name, m.name.to_string()))
            else {
                continue;
            };
            let (q1, median, q3) = stats::quartiles(vals);
            println!(
                "  {:<14} {:<11} {median:>10.4} {:<7} q1 {q1:.4} q3 {q3:.4} bound {:.0}%",
                w.name,
                m.name,
                m.unit,
                m.bound * 100.0
            );
            metrics.set(
                m.name,
                Value::obj()
                    .with("unit", m.unit)
                    .with("better", m.better.as_str())
                    .with("bound", m.bound)
                    .with(
                        "values",
                        vals.iter().map(|v| Value::Num(*v)).collect::<Vec<_>>(),
                    )
                    .with(
                        "samples",
                        samples.iter().map(|n| Value::from(*n)).collect::<Vec<_>>(),
                    )
                    .with("median", median)
                    .with("q1", q1)
                    .with("q3", q3),
            );
            summary.set(
                &format!("{}.{}", w.name, m.name),
                metric_json(median, m.unit),
            );
        }
        end_to_end.set(w.name, metrics);
    }

    let e2e = end_to_end_phases(spec::KV_INDEP, args.seconds);
    let traced = Phases::traced(args.seconds);
    let config = Value::obj()
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("repeat", args.repeat)
        .with("inproc_setups_per_run", inproc::SETUPS)
        .with("tcp3_setups_per_run", tcp3::SETUPS)
        .with("warmup_s", e2e.warmup_s)
        .with("lat_s", e2e.lat_s)
        .with("sat_s", e2e.sat_s)
        .with("traced_lat_s", traced.lat_s)
        .with("traced_sat_s", traced.sat_s)
        .with("preloaded_keys", ops::KEYS)
        .with("inproc_clients", inproc::CLIENTS)
        .with("inproc_sat_window", inproc::SAT_WINDOW)
        .with("tcp3_lat_rate_per_s", tcp3::LAT_RATE)
        .with("tcp3_sat_window", tcp3::SAT_WINDOW)
        .with("tcp3_fault_rate_per_s", tcp3::FAULT_RATE)
        .with(
            "tcp3_ladder_rates_per_s",
            tcp3::LADDER_RATES
                .iter()
                .map(|r| Value::Num(*r))
                .collect::<Vec<_>>(),
        )
        .with("trace_sample", tcp3::TRACE_SAMPLE);
    let result = Value::obj()
        .with("schema", 1u64)
        .with("host", host)
        .with("config", config)
        .with("end_to_end", end_to_end)
        .with("per_layer", per_layer)
        .with("runs", runs);
    if let Some(dir) = args.out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&args.out, result.render_pretty())
        .map_err(|e| format!("write {}: {e}", args.out.display()))?;
    println!("wrote {}", args.out.display());
    guard::release_all();
    Ok(print_result_line(attempted, failed, summary))
}

fn compare_files(a: &str, b: &str) -> ExitCode {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("read {path}: {e}"))
            .and_then(|text| Value::parse(&text).map_err(|e| format!("parse {path}: {e}")))
    };
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => {
            let (table, any_worse) = compare::compare(&a, &b);
            print!("{table}");
            if any_worse {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("psmr-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => {
            return match &args[1..] {
                [a, b] => compare_files(a, b),
                _ => usage(),
            }
        }
        Some("manifest") => {
            print!("{}", spec::manifest().render_pretty());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let Some(args) = parse_args(&args) else {
        return usage();
    };
    let outcome = match args.workload.clone() {
        Some(workload) => driver_run(&args, &workload),
        None => full_pass(&args),
    };
    match outcome {
        // A run whose outputs were wrong still reports its result line
        // (the driver reads `correct`), but a person or a script looking
        // only at the exit code must see it too.
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("psmr-benchmark: {e}");
            guard::release_all();
            ExitCode::from(2)
        }
    }
}
