//! One node of a multi-process deployment.
//!
//! ```text
//! psmr-node --config cluster.toml --id 0 [--keys 8] [--checkpoint-ms 200] [--trace-sample 32] \
//!           [--degraded-after-ms 3000]
//! ```
//!
//! `--id` indexes the `[[node]]` sections of the config; node 0 hosts
//! the orderer. `--checkpoint-ms 0` disables the periodic checkpoint
//! driver (node 0 only; other nodes ignore the flag). `--trace-sample n`
//! stamps one stream sequence in `n` (chosen by a hash of the sequence)
//! with the lifecycle trace (0 disables tracing). `--degraded-after-ms`
//! sets how long a follower may go without hearing from the orderer
//! before its admin `status` reports `degraded` (keep it well above the
//! checkpoint interval — on an idle cluster the periodic checkpoints are
//! the heartbeat).
//!
//! Panics in any thread are routed through the structured logger (so
//! they land in the node's flight recorder) and then exit the process
//! with a nonzero code — a wedged half-dead node never lingers.

use psmr_net::ClusterConfig;
use psmr_node::{logger, run_node, NodeOptions};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: psmr-node --config <cluster.toml> --id <n> [--keys <k>] [--checkpoint-ms <ms>] \
         [--trace-sample <n>] [--degraded-after-ms <ms>]"
    );
    std::process::exit(2);
}

fn main() {
    let mut config = None;
    let mut id = None;
    let mut opts = NodeOptions::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { usage() };
        match flag.as_str() {
            "--config" => config = Some(value),
            "--id" => id = value.parse::<usize>().ok(),
            "--keys" => opts.keys = value.parse().unwrap_or_else(|_| usage()),
            "--checkpoint-ms" => {
                let ms: u64 = value.parse().unwrap_or_else(|_| usage());
                opts.checkpoint_interval = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--trace-sample" => opts.trace_sample = value.parse().unwrap_or_else(|_| usage()),
            "--degraded-after-ms" => {
                opts.degraded_after =
                    Duration::from_millis(value.parse().unwrap_or_else(|_| usage()));
            }
            _ => usage(),
        }
    }
    let (Some(config), Some(id)) = (config, id) else {
        usage();
    };
    logger::install_panic_hook(id);
    let cluster = match ClusterConfig::load(&config) {
        Ok(cluster) => cluster,
        Err(e) => {
            eprintln!("psmr-node: {e}");
            std::process::exit(1);
        }
    };
    match run_node(&cluster, id, &opts) {
        Ok(node) => node.park(),
        Err(e) => {
            eprintln!("psmr-node[{id}]: {e}");
            std::process::exit(1);
        }
    }
}
