//! The repository benchmark: the live runtime (in-memory, durable,
//! hedged) and the paper's simulators, end to end and per layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload live_mem --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A failed output
//! check makes the command exit non-zero. See `perfbench/README.md`.

mod host;
mod live;
mod metrics;
mod sim;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use metrics::{result_line, Failures, Metric};

/// End-to-end metrics, `(name, unit)`, in output order.
const END_TO_END: &[(&str, &str)] = &[
    ("verdicts_per_s", "1/s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p99_ms", "ms"),
    ("recover_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("jobs_per_task", "jobs/task"),
    ("reliability", "frac"),
];

/// Per-layer metrics, `(name, unit)`, in output order. A workload that
/// does not reach a layer reports it as 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("runtime.coordinator.submit_us_p50", "us"),
    ("runtime.coordinator.submit_us_p99", "us"),
    ("runtime.coordinator.dispatch_to_verdict_ms_p50", "ms"),
    ("runtime.coordinator.dispatch_to_verdict_ms_p99", "ms"),
    ("runtime.coordinator.admit_wait_ms_p50", "ms"),
    ("runtime.coordinator.timeouts", "1/ktask"),
    ("runtime.coordinator.retries", "1/ktask"),
    ("runtime.coordinator.stale_replies", "1/ktask"),
    ("runtime.shard.submit_us_p50", "us"),
    ("runtime.shard.submit_us_p99", "us"),
    ("runtime.shard.shed", "1/ktask"),
    ("runtime.worker.execute_calls", "calls/task"),
    ("runtime.worker.execute_us_p50", "us"),
    ("runtime.worker.execute_us_p99", "us"),
    ("runtime.worker.busy_frac", "frac"),
    ("desim.journal.events_per_task", "events/task"),
    ("desim.journal.wal_bytes_per_task", "B/task"),
    ("desim.wal.sync_append_us_p50", "us"),
    ("desim.wal.sync_append_us_p99", "us"),
    ("runtime.report.fold_s", "s"),
    ("runtime.recovery.recover_call_s", "s"),
    ("runtime.recovery.events_replayed", "count"),
    ("core.hedge.launched", "1/ktask"),
    ("core.hedge.won", "1/ktask"),
    ("core.hedge.wasted", "1/ktask"),
    ("core.hedge.win_ratio", "frac"),
    ("client.recv_wait_frac", "frac"),
    ("runtime.lifecycle.start_s", "s"),
    ("runtime.lifecycle.finish_s", "s"),
    ("dca.sim.run_s", "s"),
    ("volunteer.server.run_s", "s"),
    ("dag.sim.monte_carlo_s", "s"),
    ("dca.sim.jobs", "jobs/task"),
    ("volunteer.server.jobs", "jobs/task"),
    ("dag.sim.jobs", "jobs/task"),
    ("dca_tasks_per_s", "1/s"),
    ("volunteer_tasks_per_s", "1/s"),
    ("dag_tasks_per_s", "1/s"),
    ("trace.overhead_frac", "frac"),
    ("trace.unattributed_frac", "frac"),
];

/// Where the benchmark writes: WAL segments (removed at exit) and trace
/// files, relative to the directory it runs from.
const OUT_DIR: &str = ".perfbench";
/// A run still going after this long exits non-zero without a result.
const WATCHDOG: Duration = Duration::from_secs(170);

/// One named output check.
#[derive(Debug, Clone)]
pub struct Check {
    name: &'static str,
    ok: bool,
}

impl Check {
    /// A check named `name` that passed when `ok`.
    pub fn new(name: &'static str, ok: bool) -> Self {
        Self { name, ok }
    }
}

/// What a workload measured.
#[derive(Debug)]
pub struct Outcome {
    /// Tasks attempted.
    pub attempted: u64,
    /// Tasks that failed (checks are added on top).
    pub failures: Failures,
    /// Every output check made.
    pub checks: Vec<Check>,
    /// `(name, value)` of the metrics this workload reaches.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the result.
    pub report: Vec<String>,
}

/// SplitMix64 finalizer: decorrelated seeds from structured inputs.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// The metrics of `table`, in its order, from `measured`; a name the
/// workload does not reach reads 0.
fn ordered(table: &[(&'static str, &'static str)], measured: &BTreeMap<&str, f64>) -> Vec<Metric> {
    table
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: measured.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect()
}

/// The benchmark runs in a child process with these malloc settings.
/// With an arena per thread and glibc's sliding mmap threshold, peak RSS
/// swings by up to a third between runs with how many arenas the threads
/// create and which large buffers land on the heap; with one arena and a
/// fixed threshold it tracks the program's own data.
const MALLOC_ENV: [(&str, &str); 2] = [
    ("MALLOC_ARENA_MAX", "1"),
    ("MALLOC_MMAP_THRESHOLD_", "131072"),
];

fn main() {
    if MALLOC_ENV
        .iter()
        .any(|(k, v)| std::env::var(k).as_deref() != Ok(*v))
    {
        let status = std::env::current_exe().and_then(|exe| {
            std::process::Command::new(exe)
                .args(std::env::args_os().skip(1))
                .envs(MALLOC_ENV)
                .status()
        });
        match status {
            Ok(status) => std::process::exit(status.code().unwrap_or(1)),
            Err(err) => {
                eprintln!("perfbench: cannot re-run with {MALLOC_ENV:?}: {err}");
                std::process::exit(2);
            }
        }
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            eprintln!(
                "usage: perfbench --workload <live_mem|live_wal|live_hedge|sim_paper> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    // Deliberately detached: it only ever ends the process.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!(
            "perfbench: no result after {} s, giving up",
            WATCHDOG.as_secs()
        );
        std::process::exit(3);
    });

    let out = PathBuf::from(OUT_DIR);
    let wal_dir = out.join(format!("wal-{}", std::process::id()));
    if let Err(err) = std::fs::create_dir_all(&wal_dir) {
        eprintln!("perfbench: cannot create {}: {err}", wal_dir.display());
        std::process::exit(2);
    }
    println!("host {}", host::host_json(&wal_dir));
    let trace_file = out.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    let live = match args.workload.as_str() {
        "live_mem" => Some(live::Live::Mem),
        "live_wal" => Some(live::Live::Wal),
        "live_hedge" => Some(live::Live::Hedge),
        "sim_paper" => None,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            let _ = std::fs::remove_dir_all(&wal_dir);
            std::process::exit(2);
        }
    };
    let outcome = match live {
        Some(live) => live::run(
            live,
            args.seed,
            args.seconds,
            args.trace,
            &wal_dir,
            &trace_file,
        ),
        None => sim::run(args.seed, args.seconds, args.trace, &trace_file),
    };
    let _ = std::fs::remove_dir_all(&wal_dir);

    let mut by_name: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for c in &outcome.checks {
        let e = by_name.entry(c.name).or_default();
        e.0 += usize::from(c.ok);
        e.1 += 1;
    }
    let failed_checks = outcome.checks.iter().filter(|c| !c.ok).count() as u64;
    for line in &outcome.report {
        println!("{line}");
    }
    for (name, (ok, total)) in &by_name {
        println!(
            "check {}: {ok}/{total} {name}",
            if ok == total { "ok" } else { "FAILED" }
        );
    }
    if args.trace {
        println!("trace written to {}", trace_file.display());
    }
    let mut failures = outcome.failures;
    failures.checks += failed_checks;
    let measured: BTreeMap<&str, f64> = outcome.metrics.iter().copied().collect();
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics = ordered(table, &measured);
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let unknown: Vec<&str> = measured
        .keys()
        .filter(|k| !table.iter().any(|(n, _)| n == *k))
        .copied()
        .collect();
    for m in &metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "failed_frac = {} ({} of {} attempted: {:?})",
        failures.frac(outcome.attempted.max(1)),
        failures.total(),
        outcome.attempted,
        failures
    );
    if !unknown.is_empty() {
        eprintln!("perfbench: metrics missing from the table: {unknown:?}");
    }
    let correct = failed_checks == 0 && finite && unknown.is_empty();
    println!(
        "{}",
        result_line(
            correct,
            outcome.attempted.max(1),
            failures.total(),
            &metrics
        )
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric `BENCHMARK.json` lists is one this program prints,
    /// with the same unit, in the same group.
    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at =
                            entry.find(&format!("\"{f}\"")).expect("field present") + f.len() + 2;
                        let rest = &entry[at..];
                        let open = rest.find('"').expect("string value") + 1;
                        let close = rest[open..].find('"').expect("string closes") + open;
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let listed = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), listed(END_TO_END));
        assert_eq!(section("per_layer"), listed(PER_LAYER));
    }

    #[test]
    fn unreached_layers_read_zero_in_table_order() {
        let measured: BTreeMap<&str, f64> = [("setup_s", 0.25)].into_iter().collect();
        let m = ordered(END_TO_END, &measured);
        assert_eq!(m.len(), END_TO_END.len());
        assert_eq!(m[4].value, 0.25);
        assert_eq!(m[0].value, 0.0);
    }
}
