//! Process CPU-utilization sampling and a per-thread census.
//!
//! Figures 3 and 4 of the paper report CPU usage per technique (in percent,
//! where 100% is one fully used core — the paper shows values up to 800% on
//! its 8-core servers). On Linux we obtain the same metric by sampling the
//! process' utime+stime from `/proc/self/stat` against wall-clock time.
//!
//! [`ThreadCensus`] splits the same cost by thread role (an ordering
//! thread, the workers, the clients): nanoseconds on CPU and waiting on a
//! run queue from `/proc/self/task/*/schedstat`, and voluntary context
//! switches (parks) from `status`.
//!
//! On non-Linux platforms (or if `/proc` is unavailable) sampling degrades
//! gracefully: [`CpuSampler::sample_pct`] and [`ThreadCensus::take`]
//! return `None`.

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::time::Instant;

/// Samples the CPU time consumed by the current process.
///
/// # Example
///
/// ```
/// use psmr_common::cpu::CpuSampler;
///
/// let sampler = CpuSampler::start();
/// // ... run a workload ...
/// if let Some(pct) = sampler.sample_pct() {
///     assert!(pct >= 0.0);
/// }
/// ```
#[derive(Debug)]
pub struct CpuSampler {
    started_wall: Instant,
    started_ticks: Option<u64>,
    ticks_per_sec: f64,
}

impl CpuSampler {
    /// Starts a sampler at the current instant.
    pub fn start() -> Self {
        Self {
            started_wall: Instant::now(),
            started_ticks: read_process_ticks(),
            ticks_per_sec: clock_ticks_per_sec(),
        }
    }

    /// Returns the average CPU utilization since [`CpuSampler::start`], in
    /// percent of one core (e.g. `350.0` means 3.5 cores busy on average).
    ///
    /// Returns `None` when `/proc` accounting is unavailable.
    pub fn sample_pct(&self) -> Option<f64> {
        let start = self.started_ticks?;
        let now = read_process_ticks()?;
        let wall = self.started_wall.elapsed().as_secs_f64();
        if wall <= 0.0 {
            return Some(0.0);
        }
        let cpu_secs = (now.saturating_sub(start)) as f64 / self.ticks_per_sec;
        Some(cpu_secs / wall * 100.0)
    }
}

/// Reads cumulative utime+stime (in clock ticks) of the current process.
fn read_process_ticks() -> Option<u64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    parse_stat_ticks(&stat)
}

/// Parses fields 14 (utime) and 15 (stime) out of a `/proc/<pid>/stat` line.
///
/// The second field (`comm`) may contain spaces and parentheses, so parsing
/// must resume after the *last* `)` rather than split naively.
fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    // after_comm starts at field 3 ("state"), so utime/stime are at
    // positions 11 and 12 of this slice.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// `sysconf(_SC_CLK_TCK)` is almost universally 100 on Linux; we avoid a
/// libc dependency and use that constant, which only scales the report.
fn clock_ticks_per_sec() -> f64 {
    100.0
}

/// Scheduler counters of one thread, cumulative since it started.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadCost {
    /// Nanoseconds on a CPU.
    pub cpu_ns: u64,
    /// Nanoseconds runnable but waiting for a CPU.
    pub wait_ns: u64,
    /// Times the thread gave up its CPU to block (a park, a sleep, a
    /// blocking read).
    pub voluntary_switches: u64,
}

impl ThreadCost {
    fn since(self, earlier: ThreadCost) -> ThreadCost {
        ThreadCost {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
            voluntary_switches: self
                .voluntary_switches
                .saturating_sub(earlier.voluntary_switches),
        }
    }
}

/// What the threads of one role cost between two censuses.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoleCost {
    /// The role: a thread name with every run of digits shown as `*`
    /// (`psmr-r0-t1` and `psmr-r1-t0` are both `psmr-r*-t*`).
    pub role: String,
    /// Threads of the role alive at the later census.
    pub threads: usize,
    /// Their summed counters.
    pub cost: ThreadCost,
}

/// A snapshot of every thread of this process: name and [`ThreadCost`],
/// keyed by thread id.
#[derive(Debug, Clone, Default)]
pub struct ThreadCensus {
    threads: HashMap<u32, (String, ThreadCost)>,
}

impl ThreadCensus {
    /// Reads every live thread of the process. Returns `None` when
    /// `/proc/self/task` is unavailable (non-Linux hosts).
    pub fn take() -> Option<Self> {
        let mut threads = HashMap::new();
        for entry in fs::read_dir("/proc/self/task").ok()? {
            let Ok(entry) = entry else { continue };
            let Some(tid) = entry.file_name().to_str().and_then(|t| t.parse().ok()) else {
                continue;
            };
            // A thread that exits between the listing and the reads is
            // simply left out.
            let read = |file: &str| fs::read_to_string(entry.path().join(file)).ok();
            let (Some(sched), Some(status)) = (read("schedstat"), read("status")) else {
                continue;
            };
            if let (Some((cpu_ns, wait_ns)), Some((name, voluntary_switches))) =
                (parse_schedstat(&sched), parse_status(&status))
            {
                let cost = ThreadCost {
                    cpu_ns,
                    wait_ns,
                    voluntary_switches,
                };
                threads.insert(tid, (name, cost));
            }
        }
        Some(Self { threads })
    }

    /// The cost of each role between `earlier` and this census, sorted
    /// by role. A thread born in between counts from zero; one that
    /// exited in between is not counted at all.
    pub fn since(&self, earlier: &ThreadCensus) -> Vec<RoleCost> {
        let mut roles: BTreeMap<String, RoleCost> = BTreeMap::new();
        for (tid, (name, now)) in &self.threads {
            let before = earlier
                .threads
                .get(tid)
                .map(|(_, c)| *c)
                .unwrap_or_default();
            let delta = now.since(before);
            let role = role_of(name);
            let entry = roles.entry(role.clone()).or_insert_with(|| RoleCost {
                role,
                ..RoleCost::default()
            });
            entry.threads += 1;
            entry.cost.cpu_ns += delta.cpu_ns;
            entry.cost.wait_ns += delta.wait_ns;
            entry.cost.voluntary_switches += delta.voluntary_switches;
        }
        roles.into_values().collect()
    }
}

/// A thread name with every run of digits replaced by `*`.
fn role_of(name: &str) -> String {
    let mut role = String::with_capacity(name.len());
    for c in name.chars() {
        if !c.is_ascii_digit() {
            role.push(c);
        } else if !role.ends_with('*') {
            role.push('*');
        }
    }
    role
}

/// Parses `/proc/<pid>/task/<tid>/schedstat`: time on CPU and time
/// waiting on a run queue, both in nanoseconds.
fn parse_schedstat(schedstat: &str) -> Option<(u64, u64)> {
    let mut fields = schedstat.split_whitespace().map(str::parse::<u64>);
    Some((fields.next()?.ok()?, fields.next()?.ok()?))
}

/// Parses the thread name and `voluntary_ctxt_switches` out of a
/// `/proc/<pid>/task/<tid>/status` file.
fn parse_status(status: &str) -> Option<(String, u64)> {
    let field = |key: &str| {
        status
            .lines()
            .find_map(|line| line.strip_prefix(key))
            .map(str::trim)
    };
    let name = field("Name:")?.to_string();
    let switches = field("voluntary_ctxt_switches:")?.parse().ok()?;
    Some((name, switches))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn roles_fold_digit_runs() {
        assert_eq!(role_of("psmr-r0-t1"), "psmr-r*-t*");
        assert_eq!(role_of("psmr-r12-t3"), "psmr-r*-t*");
        assert_eq!(role_of("order-rounds"), "order-rounds");
    }

    #[test]
    fn parse_schedstat_and_status() {
        assert_eq!(
            parse_schedstat("49713649 19926430 24\n"),
            Some((49_713_649, 19_926_430))
        );
        assert_eq!(parse_schedstat("garbage"), None);
        let status = "Name:\tpsmr-r0-t1\nState:\tS (sleeping)\n\
                      voluntary_ctxt_switches:\t13\nnonvoluntary_ctxt_switches:\t10\n";
        assert_eq!(parse_status(status), Some(("psmr-r0-t1".to_string(), 13)));
        assert_eq!(parse_status("Name:\tx\n"), None);
    }

    #[test]
    fn census_counts_a_named_thread_by_role() {
        let Some(before) = ThreadCensus::take() else {
            return; // no /proc: degrade gracefully
        };
        let worker = std::thread::Builder::new()
            .name("census-probe-7".into())
            .spawn(|| {
                let start = Instant::now();
                let mut acc = 0u64;
                while start.elapsed() < Duration::from_millis(30) {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                std::thread::sleep(Duration::from_millis(5));
                let census = ThreadCensus::take().expect("/proc was readable");
                (std::hint::black_box(acc), census)
            })
            .unwrap();
        let (_, after) = worker.join().unwrap();
        let roles = after.since(&before);
        let probe = roles
            .iter()
            .find(|r| r.role == "census-probe-*")
            .expect("the probe thread is counted under its role");
        assert_eq!(probe.threads, 1);
        assert!(probe.cost.cpu_ns >= 10_000_000, "{probe:?}");
        assert!(probe.cost.voluntary_switches >= 1, "the sleep parked it");
    }

    #[test]
    fn parse_stat_handles_spaces_in_comm() {
        let line = "1234 (my (weird) proc) S 1 1 1 0 -1 4194560 100 0 0 0 \
                    777 333 0 0 20 0 8 0 12345 1000000 100 18446744073709551615";
        // Fields after comm: S 1 1 1 0 -1 4194560 100 0 0 0 777 333 ...
        //                    0 1 2 3 4  5       6   7 8 9 10 11  12
        assert_eq!(parse_stat_ticks(line), Some(777 + 333));
    }

    #[test]
    fn parse_stat_rejects_garbage() {
        assert_eq!(parse_stat_ticks("no parens here"), None);
        assert_eq!(parse_stat_ticks("1 (x) S"), None);
    }

    #[test]
    fn sampler_measures_busy_work_on_linux() {
        let sampler = CpuSampler::start();
        // Burn some CPU so the sample is nonzero with /proc available.
        let mut acc = 0u64;
        let start = Instant::now();
        while start.elapsed() < Duration::from_millis(60) {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        std::hint::black_box(acc);
        // None on non-Linux or without /proc: degrade gracefully.
        if let Some(pct) = sampler.sample_pct() {
            assert!(pct >= 0.0, "pct = {pct}");
        }
    }
}
