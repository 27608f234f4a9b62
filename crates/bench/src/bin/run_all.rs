//! Runs every table/figure experiment in sequence, writing all reports
//! to `target/experiments/` — human-readable `<name>.txt` plus the
//! machine-readable `BENCH_<name>.json` perf-trajectory artifacts. Use
//! `--quick` for a CI-sized pass.

use psmr_bench::experiments;

fn main() {
    let args = psmr_bench::BenchArgs::from_env();
    let _ = experiments::table1();
    let _ = experiments::fig3(&args);
    let _ = experiments::fig4(&args);
    let _ = experiments::fig5(&args);
    let _ = experiments::fig6(&args);
    let _ = experiments::fig7(&args);
    let _ = experiments::fig8(&args);
    let _ = experiments::ckpt_load(&args);
    let _ = experiments::wal_overhead(&args);
    let _ = experiments::pipeline(&args, false);
    let _ = experiments::stage_breakdown(&args, false);
    println!("all experiments written to target/experiments/ (BENCH_*.json for machines)");
}
