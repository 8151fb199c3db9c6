//! The `sim_paper` workload: the paper's three simulators called through
//! their public entry points, one after another on one thread.
//!
//! A suite is the Fig. 5(a) technique grid on `dca::sim`, TR/PR/IR
//! volunteer deployments on `volunteer::server`, and a map→shuffle→reduce
//! Monte-Carlo on `dag::monte_carlo`. The three legs are sized to take
//! comparable host time, so a slowdown of any one of them moves the
//! suite's throughput by about a third of its size.

use std::rc::Rc;
use std::time::Instant;

use smartred_core::analysis;
use smartred_core::parallel::Threads;
use smartred_core::params::{KVotes, Reliability, VoteMargin};
use smartred_core::strategy::{Iterative, Progressive, RedundancyStrategy, Traditional};
use smartred_dag::{DagSimConfig, DagSpec, PoisonAdversary, StageStrategy};
use smartred_dca::DcaConfig;
use smartred_volunteer::VolunteerConfig;

use crate::live::{MARGIN, PEAK_AFTER_ROUNDS, WRONG_RATE};
use crate::metrics::{median, samples_beyond, Failures, Sample};
use crate::trace::{Layer, Tracer};
use crate::{mix, Check, Outcome};

/// Tasks per DCA grid cell.
const DCA_TASKS: usize = 2_000;
/// DCA node pool.
const DCA_NODES: usize = 1_000;
/// 3-SAT variables of each volunteer deployment (the paper used 22).
const VOL_VARS: u32 = 20;
/// DAG pipeline instances per suite.
const DAG_RUNS: usize = 400;
/// Tasks of the journaled DCA run whose replay stands in for recovery.
const REPLAY_TASKS: usize = 2_000;
/// Votes of the TR/PR comparison points (the IR d = 4 reliability match).
const K_MATCH: usize = 19;
/// z of the binomial interval around each Eq. 2/4/6 prediction that the
/// simulated reliability, pooled over a run's suites, must fall in.
const Z: f64 = 4.5;

type Shared = Rc<dyn RedundancyStrategy<bool>>;

/// One configured technique: label, parameter, strategy, Eq. 2/4/6
/// reliability.
struct Technique {
    label: &'static str,
    param: usize,
    strategy: Shared,
    predicted: f64,
}

fn techniques(r: Reliability) -> Vec<Technique> {
    let mut out = Vec::new();
    for k in [3usize, 5, 9, 13, 19] {
        let kv = KVotes::new(k).expect("odd k");
        out.push(Technique {
            label: "TR",
            param: k,
            strategy: Rc::new(Traditional::new(kv)),
            predicted: analysis::traditional::reliability(kv, r),
        });
        out.push(Technique {
            label: "PR",
            param: k,
            strategy: Rc::new(Progressive::new(kv)),
            predicted: analysis::progressive::reliability(kv, r),
        });
    }
    for d in 1..=6usize {
        let dv = VoteMargin::new(d).expect("d >= 1");
        out.push(Technique {
            label: "IR",
            param: d,
            strategy: Rc::new(Iterative::new(dv)),
            predicted: analysis::iterative::reliability(dv, r),
        });
    }
    out
}

/// Everything a suite needs, built before the first simulator call.
struct Suite {
    grid: Vec<(Technique, DcaConfig)>,
    volunteer: Vec<(&'static str, Shared, VolunteerConfig)>,
    dag: (DagSpec, DagSimConfig),
    replay: (Shared, DcaConfig),
}

fn build(seed: u64) -> Suite {
    let r = Reliability::new(1.0 - WRONG_RATE).expect("r in (0.5, 1)");
    let grid = techniques(r)
        .into_iter()
        .map(|t| {
            let cell_seed =
                mix(seed ^ (u64::from(t.label.as_bytes()[0]) << 16) ^ ((t.param as u64) << 8));
            let cfg = DcaConfig::paper_baseline(DCA_TASKS, DCA_NODES, WRONG_RATE, cell_seed);
            (t, cfg)
        })
        .collect();
    let k = KVotes::new(K_MATCH).expect("odd k");
    let d = VoteMargin::new(MARGIN).expect("d >= 1");
    let vol_cfg = VolunteerConfig::paper_deployment(VOL_VARS, seed);
    let volunteer: Vec<(&'static str, Shared, VolunteerConfig)> = vec![
        ("TR", Rc::new(Traditional::new(k)), vol_cfg.clone()),
        ("PR", Rc::new(Progressive::new(k)), vol_cfg.clone()),
        ("IR", Rc::new(Iterative::new(d)), vol_cfg),
    ];
    // The poisoned pipeline of the DAG wedge bench: the wide map cut is
    // attacked at 30%, everything else at 2%, under the ir8/ir2/ir2 mix.
    let ir = |d: usize| StageStrategy::ir(d).expect("d >= 1");
    let spec = DagSpec::map_shuffle_reduce(16, 2, ir(8), ir(2), ir(2)).expect("static spec");
    let dag_cfg = DagSimConfig {
        seed,
        adversary: PoisonAdversary::targeting(0, 0.3, 0.02),
        hedge_after_units: 1.0,
        ..DagSimConfig::default()
    };
    let replay = (
        Rc::new(Iterative::new(d)) as Shared,
        DcaConfig::paper_baseline(REPLAY_TASKS, DCA_NODES, WRONG_RATE, mix(seed ^ 0x5eed)),
    );
    Suite {
        grid,
        volunteer,
        dag: (spec, dag_cfg),
        replay,
    }
}

/// What one suite measured.
#[derive(Default)]
struct SuiteRun {
    traced: bool,
    setup_s: f64,
    wall_s: f64,
    /// Host seconds, tasks decided, and jobs of the DCA, volunteer and DAG
    /// legs.
    leg_s: [f64; 3],
    leg_tasks: [u64; 3],
    leg_jobs: [f64; 3],
    decided: u64,
    correct: u64,
    call_ms: Vec<f64>,
    replay_s: f64,
}

/// One DCA grid cell's reliability, pooled over a run's suites.
struct Cell {
    label: &'static str,
    param: usize,
    predicted: f64,
    correct: u64,
    done: u64,
}

impl Cell {
    /// Whether the pooled reliability lies within `Z` binomial standard
    /// errors of the prediction.
    fn agrees(&self) -> bool {
        let p = self.predicted;
        let se = (p * (1.0 - p) / self.done.max(1) as f64).sqrt();
        (self.correct as f64 / self.done.max(1) as f64 - p).abs() <= Z * se
    }
}

/// Runs suite `index`, recording its spans into a fresh tracer (times
/// relative to `began`) when `traced`.
fn suite(
    index: u64,
    seed: u64,
    traced: bool,
    began: Instant,
    checks: &mut Vec<Check>,
    cells: &mut Vec<Cell>,
) -> (SuiteRun, Tracer) {
    let seed = mix(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut tracer = Tracer::new(traced, began);
    let origin = Instant::now();
    let s = build(seed);
    let mut run = SuiteRun {
        traced,
        setup_s: origin.elapsed().as_secs_f64(),
        ..SuiteRun::default()
    };

    let cost = |label: &str, param: usize, list: &[(&str, usize, f64)]| {
        list.iter()
            .find(|(l, p, _)| *l == label && *p == param)
            .map_or(f64::NAN, |c| c.2)
    };
    let mut dca_costs = Vec::new();
    for (cell, (t, cfg)) in s.grid.iter().enumerate() {
        let (report, secs) =
            tracer.time(Layer::DcaRun, || smartred_dca::run(t.strategy.clone(), cfg));
        let report = report.expect("valid DCA config");
        run.leg_s[0] += secs;
        run.call_ms.push(secs * 1e3);
        let done = report.tasks_completed as u64;
        run.leg_tasks[0] += done;
        run.leg_jobs[0] += report.total_jobs as f64;
        run.decided += done;
        run.correct += report.tasks_correct as u64;
        if cells.len() <= cell {
            cells.push(Cell {
                label: t.label,
                param: t.param,
                predicted: t.predicted,
                correct: 0,
                done: 0,
            });
        }
        cells[cell].correct += report.tasks_correct as u64;
        cells[cell].done += done;
        checks.push(Check::new(
            "every DCA task is decided",
            done == DCA_TASKS as u64,
        ));
        dca_costs.push((t.label, t.param, report.jobs_per_task.mean()));
    }
    let ordered = |c: &[(&str, usize, f64)]| {
        cost("IR", MARGIN, c) < cost("PR", K_MATCH, c)
            && cost("PR", K_MATCH, c) < cost("TR", K_MATCH, c)
    };
    checks.push(Check::new(
        "DCA cost ordering IR < PR < TR",
        ordered(&dca_costs),
    ));

    let mut vol_costs = Vec::new();
    for (label, strategy, cfg) in &s.volunteer {
        let (report, secs) = tracer.time(Layer::VolunteerRun, || {
            smartred_volunteer::run(strategy.clone(), cfg)
        });
        let report = report.expect("valid volunteer config");
        run.leg_s[1] += secs;
        run.call_ms.push(secs * 1e3);
        let done = report
            .verdicts
            .iter()
            .filter(|v| v.accepted.is_some())
            .count() as u64;
        run.leg_tasks[1] += done;
        run.leg_jobs[1] += report.total_jobs as f64;
        run.decided += done;
        run.correct += report.verdicts.iter().filter(|v| v.correct).count() as u64;
        let param = if *label == "IR" { MARGIN } else { K_MATCH };
        vol_costs.push((*label, param, report.cost_factor()));
        checks.push(Check::new(
            "every volunteer workunit is decided",
            done == cfg.tasks as u64,
        ));
    }
    checks.push(Check::new(
        "volunteer cost ordering IR < PR < TR",
        ordered(&vol_costs),
    ));

    let (spec, cfg) = &s.dag;
    let (stats, secs) = tracer.time(Layer::DagMonteCarlo, || {
        smartred_dag::monte_carlo(spec, cfg, DAG_RUNS, Threads::fixed(1))
    });
    run.leg_s[2] = secs;
    run.call_ms.push(secs * 1e3);
    let dag_tasks = DAG_RUNS as u64 * u64::from(spec.total_tasks());
    run.leg_tasks[2] = dag_tasks;
    run.leg_jobs[2] = stats.mean_cost * DAG_RUNS as f64;
    checks.push(Check::new(
        "DAG Monte-Carlo escape rate is a rate and every task costs a job",
        (0.0..=1.0).contains(&stats.escape_rate)
            && stats.mean_cost >= f64::from(spec.total_tasks()),
    ));
    run.wall_s = origin.elapsed().as_secs_f64();

    // The simulators' analogue of recovery: rebuild a run's report from
    // its journal.
    let (strategy, cfg) = &s.replay;
    let journaled = smartred_dca::run_journaled(strategy.clone(), cfg).expect("valid DCA config");
    let (replayed, replay_s) = tracer.time(Layer::Fold, || {
        smartred_dca::report_from_journal(&journaled.journal, cfg)
    });
    run.replay_s = replay_s;
    checks.push(Check::new(
        "dca::report_from_journal(&run.journal) == run.report",
        replayed == journaled.report,
    ));
    (run, tracer)
}

/// Runs suites for `seconds`; a traced run alternates untraced and
/// traced suites.
pub fn run(seed: u64, seconds: f64, traced: bool, trace_file: &std::path::Path) -> Outcome {
    let began = Instant::now();
    let mut checks = Vec::new();
    let mut runs: Vec<SuiteRun> = Vec::new();
    let mut tracer_all = Tracer::new(traced, began);
    let min_suites = if traced { 4 } else { 3 };
    let mut cells = Vec::new();
    let mut peak_rss_mb = None;
    let mut index = 0u64;
    while runs.len() < min_suites || began.elapsed().as_secs_f64() < seconds {
        let trace_this = traced && index % 2 == 1;
        let (run, tracer) = suite(index, seed, trace_this, began, &mut checks, &mut cells);
        tracer_all.extend(tracer.spans().to_vec());
        runs.push(run);
        index += 1;
        if runs.len() == PEAK_AFTER_ROUNDS {
            peak_rss_mb = crate::metrics::peak_rss_mb();
        }
    }
    for cell in &cells {
        if !cell.agrees() {
            eprintln!(
                "perfbench: DCA {}{} reliability {}/{} is not within {Z} standard errors of {}",
                cell.label, cell.param, cell.correct, cell.done, cell.predicted
            );
        }
        checks.push(Check::new(
            "DCA TR/PR/IR reliabilities agree with Eqs. 2/4/6",
            cell.agrees(),
        ));
    }
    if traced {
        let header = format!(
            "{{\"workload\": \"sim_paper\", \"seed\": {seed}, \"spans\": {}}}",
            tracer_all.spans().len()
        );
        if let Err(err) = tracer_all.write_jsonl(trace_file, &header, usize::MAX) {
            eprintln!("perfbench: cannot write {}: {err}", trace_file.display());
        }
    }
    summarize(&runs, traced, checks, peak_rss_mb.unwrap_or(0.0))
}

fn summarize(runs: &[SuiteRun], traced: bool, checks: Vec<Check>, peak_rss_mb: f64) -> Outcome {
    let plain: Vec<&SuiteRun> = runs.iter().filter(|r| !r.traced).collect();
    let rate = |rs: &[&SuiteRun]| {
        median(
            &rs.iter()
                .map(|r| r.leg_tasks.iter().sum::<u64>() as f64 / r.leg_s.iter().sum::<f64>())
                .collect::<Vec<_>>(),
        )
    };
    let of = |f: &dyn Fn(&SuiteRun) -> f64, rs: &[&SuiteRun]| {
        median(&rs.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let calls = Sample::new(
        plain
            .iter()
            .flat_map(|r| r.call_ms.iter().copied())
            .collect(),
    );
    let (tail_q, tail) = calls.tail();
    let decided: u64 = runs.iter().map(|r| r.decided).sum();
    let correct: u64 = runs.iter().map(|r| r.correct).sum();
    let tasks: u64 = runs.iter().map(|r| r.leg_tasks.iter().sum::<u64>()).sum();
    let jobs: f64 = runs.iter().map(|r| r.leg_jobs.iter().sum::<f64>()).sum();
    let mut report = vec![format!(
        "sim_paper: {} suites ({} traced), {} simulator calls timed, tail = p{} ({} beyond)",
        runs.len(),
        runs.len() - plain.len(),
        calls.len(),
        tail_q * 100.0,
        samples_beyond(calls.len(), tail_q),
    )];
    let metrics = if !traced {
        // The per-leg rates are per-layer metrics (gated through the suite's
        // `verdicts_per_s`); the untraced run prints them too.
        for (i, name) in [
            "dca_tasks_per_s",
            "volunteer_tasks_per_s",
            "dag_tasks_per_s",
        ]
        .iter()
        .enumerate()
        {
            let leg_rate = of(&|r| r.leg_tasks[i] as f64 / r.leg_s[i], &plain);
            report.push(format!("{name} = {leg_rate} 1/s"));
        }
        vec![
            ("verdicts_per_s", rate(&plain)),
            ("verdict_p50_ms", calls.p50()),
            ("verdict_p99_ms", tail),
            ("recover_s", of(&|r| r.replay_s, &plain)),
            ("setup_s", of(&|r| r.setup_s, &plain)),
            ("peak_rss_mb", peak_rss_mb),
            ("jobs_per_task", jobs / tasks.max(1) as f64),
            ("reliability", correct as f64 / decided.max(1) as f64),
        ]
    } else {
        let t: Vec<&SuiteRun> = runs.iter().filter(|r| r.traced).collect();
        let leg = |i: usize| {
            (
                of(&|r| r.leg_s[i], &t),
                t.iter().map(|r| r.leg_jobs[i]).sum::<f64>()
                    / t.iter().map(|r| r.leg_tasks[i]).sum::<u64>().max(1) as f64,
                of(&|r| r.leg_tasks[i] as f64 / r.leg_s[i], &t),
            )
        };
        let (dca, vol, dag) = (leg(0), leg(1), leg(2));
        let wall: f64 = t.iter().map(|r| r.wall_s).sum();
        let covered: f64 = t.iter().map(|r| r.leg_s.iter().sum::<f64>()).sum();
        let unattributed = 1.0 - covered / wall;
        let (plain_rate, traced_rate) = (rate(&plain), rate(&t));
        let overhead = 1.0 - traced_rate / plain_rate;
        report.push(format!(
            "unattributed: suite wall {:.4} s, substrate spans {:.4} s, unattributed {:.4} s ({:.2}%)",
            wall / t.len() as f64,
            covered / t.len() as f64,
            (wall - covered) / t.len() as f64,
            unattributed * 100.0
        ));
        report.push(format!(
            "tracing overhead: {:.2}% of tasks/s ({plain_rate:.1} untraced vs {traced_rate:.1} traced)",
            overhead * 100.0
        ));
        vec![
            ("dca.sim.run_s", dca.0),
            ("volunteer.server.run_s", vol.0),
            ("dag.sim.monte_carlo_s", dag.0),
            ("dca.sim.jobs", dca.1),
            ("volunteer.server.jobs", vol.1),
            ("dag.sim.jobs", dag.1),
            ("dca_tasks_per_s", dca.2),
            ("volunteer_tasks_per_s", vol.2),
            ("dag_tasks_per_s", dag.2),
            ("trace.overhead_frac", overhead),
            ("trace.unattributed_frac", unattributed),
        ]
    };
    Outcome {
        attempted: tasks,
        failures: Failures::default(),
        checks,
        metrics,
        report,
    }
}
