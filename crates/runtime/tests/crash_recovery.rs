//! Chaos tests for the crash-recoverable runtime: coordinator kills at
//! seeded WAL points, double crashes, torn tails, recovery-from-any-prefix
//! properties, worker-crash supervision, task poisoning, and hung-worker
//! respawn with epoch-based stale-reply rejection.
//!
//! The golden-comparison tests rely on the determinism contract: fault
//! draws (lies *and* injected panics) are a pure function of
//! `(seed, task, replica)`, so an uninterrupted run and a crash+recover
//! run face identical adversity and must produce identical verdicts and
//! per-task job counts — only wall-clock stamps and cross-task
//! interleaving may differ.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use smartred_core::params::{KVotes, VoteMargin};
use smartred_core::resilience::PoisonPolicy;
use smartred_core::strategy::{Iterative, Traditional};
use smartred_desim::journal::{Journal, RunEvent};
use smartred_runtime::{
    report_from_journal, Client, FaultProfile, FaultyWorker, JobAssignment, Payload, RecoveryError,
    Runtime, RuntimeConfig, RuntimeRun, SubmitOutcome, TaskVerdict, Worker,
};

/// Keep injected-panic backtraces out of the test output while letting
/// real panics (including test assertion failures) through.
fn quiet_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.starts_with("injected worker crash") || s.starts_with("poison"));
            if !injected {
                default_hook(info);
            }
        }));
    });
}

fn roster(n: usize) -> Vec<(u32, Payload)> {
    (0..n as u32)
        .map(|task| {
            (
                task,
                Payload::Synthetic {
                    answer: true,
                    work: Duration::ZERO,
                },
            )
        })
        .collect()
}

/// Lies and panics, no hangs: hang recovery is schedule-dependent, so the
/// golden-comparison tests keep deadlines generous and hang_rate zero.
fn chaos_profile() -> FaultProfile {
    FaultProfile {
        wrong_rate: 0.25,
        hang_rate: 0.0,
        crash_rate: 0.15,
        think: Duration::ZERO,
    }
}

fn chaos_cfg(wal: Option<PathBuf>) -> RuntimeConfig {
    RuntimeConfig {
        workers: None, // honor SMARTRED_THREADS (the CI chaos matrix axis)
        queue_cap: 512,
        max_active: 16,
        deadline: Duration::from_secs(30),
        poison: Some(PoisonPolicy { crash_limit: 2 }),
        wal,
        ..RuntimeConfig::default()
    }
}

const SEED: u64 = 0x5eed_cafe;
const MARGIN: usize = 3;

fn start_chaos(cfg: RuntimeConfig) -> Runtime {
    Runtime::start(
        cfg,
        Iterative::new(VoteMargin::new(MARGIN).unwrap()),
        |_| Box::new(FaultyWorker::new(SEED, chaos_profile())),
    )
}

fn submit_all(client: &Client, tasks: &[(u32, Payload)]) {
    for (task, payload) in tasks {
        match client.submit(payload.clone()) {
            SubmitOutcome::Shed => panic!("queue_cap admits the whole roster"),
            SubmitOutcome::Accepted { task: id } | SubmitOutcome::Queued { task: id } => {
                assert_eq!(id, *task, "submission order must assign roster ids");
            }
        }
    }
}

fn drain_verdicts(client: &Client) -> Vec<TaskVerdict> {
    let mut verdicts = Vec::new();
    while let Some(v) = client.recv_timeout(Duration::from_millis(400)) {
        verdicts.push(v);
    }
    verdicts
}

/// Runs the roster to completion (or to the configured chaos crash),
/// returning the run and every verdict the client actually received.
fn run_roster(cfg: RuntimeConfig, tasks: &[(u32, Payload)]) -> (RuntimeRun, Vec<TaskVerdict>) {
    let runtime = start_chaos(cfg);
    let client = runtime.client();
    submit_all(&client, tasks);
    let verdicts = drain_verdicts(&client);
    drop(client);
    (runtime.finish(), verdicts)
}

fn recover_chaos(
    cfg: RuntimeConfig,
    tasks: &[(u32, Payload)],
) -> (
    RuntimeRun,
    Vec<TaskVerdict>,
    smartred_runtime::RecoveryReport,
) {
    let (runtime, client, report) = Runtime::recover(
        cfg,
        Iterative::new(VoteMargin::new(MARGIN).unwrap()),
        |_| Box::new(FaultyWorker::new(SEED, chaos_profile())),
        tasks,
    )
    .expect("WAL recovery");
    let verdicts = drain_verdicts(&client);
    drop(client);
    (runtime.finish(), verdicts, report)
}

/// Schedule-independent run structure: `(task, kind, vote, jobs)` sorted
/// by task, where kind is 0 = verdict, 1 = capped, 2 = poisoned.
fn shape(journal: &Journal) -> Vec<(u32, u8, Option<bool>, u64)> {
    let mut jobs: HashMap<u32, u64> = HashMap::new();
    let mut out = Vec::new();
    for e in journal.events() {
        match e.event {
            RunEvent::JobDispatched { task, .. } => *jobs.entry(task).or_default() += 1,
            RunEvent::VerdictReached { task, value, .. } => out.push((task, 0, Some(value))),
            RunEvent::TaskCapped { task } => out.push((task, 1, None)),
            RunEvent::TaskPoisoned { task, .. } => out.push((task, 2, None)),
            _ => {}
        }
    }
    out.sort_unstable();
    out.into_iter()
        .map(|(task, kind, vote)| (task, kind, vote, jobs.get(&task).copied().unwrap_or(0)))
        .collect()
}

/// How many decision events (verdict, cap, poison) each task has.
fn decisions_per_task(journal: &Journal) -> HashMap<u32, u32> {
    let mut counts = HashMap::new();
    for e in journal.events() {
        if let RunEvent::VerdictReached { task, .. }
        | RunEvent::TaskCapped { task }
        | RunEvent::TaskPoisoned { task, .. } = e.event
        {
            *counts.entry(task).or_insert(0) += 1;
        }
    }
    counts
}

fn wal_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "smartred-crash-recovery-{}-{name}.wal.jsonl",
        std::process::id()
    ))
}

/// The tentpole acceptance test: kill the coordinator at a sweep of
/// seeded WAL points; recovery must converge to a final journal whose
/// verdicts and per-task job counts are identical to the uninterrupted
/// golden run, every task must be decided exactly once across the
/// combined log, no verdict may be delivered twice, and the on-disk WAL
/// must equal the final journal byte for byte.
#[test]
fn coordinator_killed_at_seeded_points_recovers_to_the_golden_run() {
    quiet_injected_panics();
    let tasks = roster(10);
    let (golden, golden_verdicts) = run_roster(chaos_cfg(None), &tasks);
    assert!(!golden.crashed);
    assert_eq!(golden_verdicts.len(), tasks.len());
    assert_eq!(report_from_journal(&golden.journal), golden.report);
    let golden_shape = shape(&golden.journal);
    let events = golden.journal.events().len() as u64;

    let stride = (events / 6).max(1);
    let mut points: Vec<u64> = (1..events).step_by(stride as usize).collect();
    points.push(events - 1);
    for (round, mut crash_at) in points.into_iter().enumerate() {
        let wal = wal_path(&format!("sweep-{round}"));
        // A schedule's event count can fall short of the golden's by a
        // record or two: a reply that races its task's poisoning is
        // tallied (two records) in one schedule and dropped as stale (one
        // record) in another. A point past the end of this schedule moves
        // to its last record before `RunEnded`, as the final golden point
        // is.
        let pre_crash_verdicts = loop {
            let mut cfg = chaos_cfg(Some(wal.clone()));
            cfg.crash_after_events = Some(crash_at);
            let runtime = start_chaos(cfg);
            let client = runtime.client();
            submit_all(&client, &tasks);
            let pre_crash_verdicts = drain_verdicts(&client);
            drop(client);
            let crashed = runtime.finish();
            if crashed.crashed {
                break pre_crash_verdicts;
            }
            let logged = crashed.journal.len() as u64;
            assert!(
                logged < crash_at,
                "crash point {crash_at} must trip within the {logged} records logged"
            );
            crash_at = logged - 1;
        };

        let (run, post_verdicts, rec) = recover_chaos(chaos_cfg(Some(wal.clone())), &tasks);
        assert!(!run.crashed);
        assert!(!rec.torn_tail, "event-boundary crashes leave no torn tail");
        assert_eq!(rec.events_replayed as u64, crash_at);
        assert_eq!(
            report_from_journal(&run.journal),
            run.report,
            "crash point {crash_at}: replayed report must equal the live one"
        );
        assert_eq!(
            shape(&run.journal),
            golden_shape,
            "crash point {crash_at}: recovered run diverged from golden"
        );
        for (task, count) in decisions_per_task(&run.journal) {
            assert_eq!(count, 1, "task {task} must be decided exactly once");
        }
        // Exactly-once delivery across the crash: no task's verdict
        // reaches a client twice. (A verdict logged right at the crash
        // boundary may reach *no* client — decisions are exactly-once,
        // delivery is at-most-once.)
        let before: HashSet<u32> = pre_crash_verdicts.iter().map(|v| v.task).collect();
        let after: HashSet<u32> = post_verdicts.iter().map(|v| v.task).collect();
        assert!(
            before.is_disjoint(&after),
            "crash point {crash_at}: tasks {:?} were delivered twice",
            before.intersection(&after).collect::<Vec<_>>()
        );
        // Durable WAL == final journal, byte for byte.
        let on_disk = std::fs::read_to_string(&wal).unwrap();
        assert_eq!(on_disk, run.journal.to_jsonl());
        let _ = std::fs::remove_file(&wal);
    }
}

/// A coordinator that crashes *again* during the recovered run is
/// recovered again, and the twice-interrupted run still converges to the
/// golden shape.
#[test]
fn double_crash_still_converges() {
    quiet_injected_panics();
    let tasks = roster(10);
    let (golden, _) = run_roster(chaos_cfg(None), &tasks);
    let golden_shape = shape(&golden.journal);
    let events = golden.journal.events().len() as u64;

    let wal = wal_path("double");
    let mut cfg = chaos_cfg(Some(wal.clone()));
    cfg.crash_after_events = Some(events / 4);
    let (first, _) = run_roster(cfg, &tasks);
    assert!(first.crashed);

    // Second incarnation: dies again after a quarter of fresh appends.
    let mut cfg = chaos_cfg(Some(wal.clone()));
    cfg.crash_after_events = Some(events / 4);
    let (second, _, _) = recover_chaos(cfg, &tasks);
    assert!(second.crashed, "the second chaos point must trip too");

    let (run, _, rec) = recover_chaos(chaos_cfg(Some(wal.clone())), &tasks);
    assert!(!run.crashed);
    // Both incarnations' appends survive: a quarter of the golden count
    // each.
    assert_eq!(rec.events_replayed as u64, 2 * (events / 4));
    assert_eq!(shape(&run.journal), golden_shape);
    for (task, count) in decisions_per_task(&run.journal) {
        assert_eq!(count, 1, "task {task} must be decided exactly once");
    }
    assert_eq!(report_from_journal(&run.journal), run.report);
    let _ = std::fs::remove_file(&wal);
}

/// A torn final record — the write that was in flight when the process
/// died — is detected, truncated away, and the run still converges.
#[test]
fn torn_wal_tail_is_truncated_and_recovered() {
    quiet_injected_panics();
    let tasks = roster(8);
    let (golden, _) = run_roster(chaos_cfg(None), &tasks);
    let golden_shape = shape(&golden.journal);
    let events = golden.journal.events().len() as u64;

    let wal = wal_path("torn");
    let mut cfg = chaos_cfg(Some(wal.clone()));
    cfg.crash_after_events = Some(events / 3);
    let (crashed, _) = run_roster(cfg, &tasks);
    assert!(crashed.crashed);

    // Simulate the torn in-flight append a real kill would leave.
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
    write!(file, "{{\"at\":999999,\"seq\":77,\"kind\":\"job_ret").unwrap();
    drop(file);

    let (run, _, rec) = recover_chaos(chaos_cfg(Some(wal.clone())), &tasks);
    assert!(rec.torn_tail, "the partial record must be seen as torn");
    assert_eq!(rec.events_replayed as u64, events / 3);
    assert!(!run.crashed);
    assert_eq!(shape(&run.journal), golden_shape);
    assert_eq!(report_from_journal(&run.journal), run.report);
    // The resume truncated the torn bytes: the healed file is valid JSONL.
    let on_disk = std::fs::read_to_string(&wal).unwrap();
    assert_eq!(on_disk, run.journal.to_jsonl());
    let _ = std::fs::remove_file(&wal);
}

/// Recovery error paths: no WAL configured, a roster missing an open
/// task's payload, and interior (non-tail) corruption are all reported,
/// never silently patched.
#[test]
fn recovery_rejects_missing_wal_roster_gaps_and_interior_corruption() {
    quiet_injected_panics();
    let tasks = roster(6);
    fn recover_err(cfg: RuntimeConfig, tasks: &[(u32, Payload)]) -> RecoveryError {
        match Runtime::recover(
            cfg,
            Iterative::new(VoteMargin::new(MARGIN).unwrap()),
            |_| Box::new(FaultyWorker::new(SEED, chaos_profile())) as Box<dyn Worker>,
            tasks,
        ) {
            Ok(_) => panic!("recovery was expected to fail"),
            Err(err) => err,
        }
    }

    let err = recover_err(chaos_cfg(None), &tasks);
    assert!(matches!(err, RecoveryError::NoWal));

    let wal = wal_path("errors");
    let mut cfg = chaos_cfg(Some(wal.clone()));
    cfg.crash_after_events = Some(40);
    let (crashed, _) = run_roster(cfg, &tasks);
    assert!(crashed.crashed);

    // Every open task's payload is missing from an empty roster.
    let err = recover_err(chaos_cfg(Some(wal.clone())), &[]);
    assert!(matches!(err, RecoveryError::Corrupt(_)), "got {err:?}");

    // Interior corruption (not the final record) is a hard parse error.
    let text = std::fs::read_to_string(&wal).unwrap();
    let second_line_start = text.find('\n').unwrap() + 1;
    let mut corrupted = text.clone();
    corrupted.replace_range(second_line_start..second_line_start + 1, "garbage ");
    std::fs::write(&wal, corrupted).unwrap();
    let err = recover_err(chaos_cfg(Some(wal.clone())), &tasks);
    assert!(matches!(err, RecoveryError::Parse(_)), "got {err:?}");
    let _ = std::fs::remove_file(&wal);
}

/// The WAL is outside input: a log that contradicts the deterministic
/// strategy replay is refused as `Corrupt`, never patched. Each case edits
/// a golden prefix into one such log; the unedited prefix recovers, so the
/// edit alone causes the refusal.
#[test]
fn replay_refuses_every_log_the_strategy_contradicts() {
    quiet_injected_panics();
    let tasks = roster(6);
    let (golden, _) = run_roster(chaos_cfg(None), &tasks);
    let events = golden.journal.events();
    let opened = events
        .iter()
        .position(|e| matches!(e.event, RunEvent::WaveOpened { .. }))
        .expect("the golden run opens a wave");
    let RunEvent::WaveOpened { task, wave, jobs } = events[opened].event else {
        unreachable!()
    };
    let (decided, decided_task) = events
        .iter()
        .enumerate()
        .find_map(|(i, e)| match e.event {
            RunEvent::VerdictReached { task, .. }
            | RunEvent::TaskCapped { task }
            | RunEvent::TaskPoisoned { task, .. } => Some((i, task)),
            _ => None,
        })
        .expect("the golden run decides a task");
    // A task id no event of the log ever opened, and job ids past every
    // logged one.
    let ghost = 1_000;
    let fresh = 10_000;
    let eta = events[opened].at;
    let dispatch = |job: u32, task: u32| RunEvent::JobDispatched {
        job,
        task,
        node: 0,
        eta,
    };
    // (case, golden events kept, edited events appended after them)
    let cases: Vec<(&str, usize, Vec<RunEvent>)> = vec![
        (
            "wave opened for a decided task",
            decided + 1,
            vec![RunEvent::WaveOpened {
                task: decided_task,
                wave: 1,
                jobs,
            }],
        ),
        (
            "wave with a job count the strategy would not open",
            opened,
            vec![RunEvent::WaveOpened {
                task,
                wave,
                jobs: jobs + 1,
            }],
        ),
        (
            "wave number the strategy would not open",
            opened,
            vec![RunEvent::WaveOpened {
                task,
                wave: wave + 1,
                jobs,
            }],
        ),
        (
            "job dispatched for an unknown task",
            opened + 1,
            vec![dispatch(fresh, ghost)],
        ),
        (
            "job dispatched beyond the opened replicas",
            opened + 1,
            (0..=jobs).map(|i| dispatch(fresh + i, task)).collect(),
        ),
        (
            "job returned for an unknown task",
            opened + 1,
            vec![RunEvent::JobReturned {
                job: fresh,
                task: ghost,
                node: 0,
                value: true,
            }],
        ),
        (
            "job timed out for an unknown task",
            opened + 1,
            vec![RunEvent::JobTimedOut {
                job: fresh,
                task: ghost,
                node: 0,
            }],
        ),
        (
            "verdict voided for an unknown task",
            opened + 1,
            vec![RunEvent::VerdictVoided { task: ghost }],
        ),
        (
            "task re-tallied for an unknown task",
            opened + 1,
            vec![RunEvent::TaskRetallied { task: ghost }],
        ),
    ];

    let wal = wal_path("refusals");
    let recover = |kept: usize, edits: &[RunEvent]| {
        let mut log = Journal::new();
        for e in &events[..kept] {
            log.record(e.at, e.event);
        }
        let at = log.events().last().map_or(eta, |e| e.at);
        for &event in edits {
            log.record(at, event);
        }
        std::fs::write(&wal, log.to_jsonl()).unwrap();
        Runtime::recover(
            chaos_cfg(Some(wal.clone())),
            Iterative::new(VoteMargin::new(MARGIN).unwrap()),
            |_| Box::new(FaultyWorker::new(SEED, chaos_profile())) as Box<dyn Worker>,
            &tasks,
        )
        .map(|(runtime, client, _)| {
            drop(client);
            runtime.finish()
        })
    };
    for (case, kept, edits) in &cases {
        let control = recover(*kept, &[]).unwrap_or_else(|err| {
            panic!("{case}: the unedited {kept}-event prefix must recover, got {err:?}")
        });
        assert!(!control.crashed, "{case}: control run crashed");
        match recover(*kept, edits) {
            Err(RecoveryError::Corrupt(_)) => {}
            Err(err) => panic!("{case}: expected Corrupt, got {err:?}"),
            Ok(_) => panic!("{case}: recovery accepted the edited log"),
        }
    }
    let _ = std::fs::remove_file(&wal);
}

/// A resolution (return, timeout or worker crash) of a task with no
/// replica outstanding is a log no coordinator writes: refused as
/// `Corrupt`, never a panic inside the strategy machine.
#[test]
fn replay_refuses_a_resolution_with_no_replica_outstanding() {
    let at = smartred_desim::time::SimTime::from_micros;
    let wal = wal_path("nothing-outstanding");
    let resolutions = [
        RunEvent::JobReturned {
            job: 3,
            task: 0,
            node: 0,
            value: true,
        },
        RunEvent::JobTimedOut {
            job: 3,
            task: 0,
            node: 0,
        },
        RunEvent::WorkerCrashed {
            node: 0,
            job: 3,
            task: 0,
        },
    ];
    for last in resolutions {
        let mut log = Journal::new();
        log.record(
            at(10),
            RunEvent::WaveOpened {
                task: 0,
                wave: 1,
                jobs: 3,
            },
        );
        for job in 0..3 {
            log.record(
                at(20),
                RunEvent::JobReturned {
                    job,
                    task: 0,
                    node: 0,
                    value: job != 1,
                },
            );
        }
        log.record(at(30), last);
        std::fs::write(&wal, log.to_jsonl()).unwrap();
        let recovered = Runtime::recover(
            chaos_cfg(Some(wal.clone())),
            Iterative::new(VoteMargin::new(MARGIN).unwrap()),
            |_| Box::new(FaultyWorker::new(SEED, chaos_profile())) as Box<dyn Worker>,
            &roster(1),
        );
        match recovered {
            Err(RecoveryError::Corrupt(_)) => {}
            Err(err) => panic!("{last:?}: expected Corrupt, got {err:?}"),
            Ok(_) => panic!("{last:?}: recovery accepted the log"),
        }
    }
    let _ = std::fs::remove_file(&wal);
}

/// Worker panics are caught and healed in place: with a never-poisoning
/// policy, a heavily crash-prone pool still completes every task, one
/// restart per caught panic, and the journal folds to the live report.
#[test]
fn worker_crashes_are_supervised_and_every_task_completes() {
    quiet_injected_panics();
    let tasks = roster(30);
    let mut cfg = chaos_cfg(None);
    cfg.workers = Some(4);
    cfg.poison = Some(PoisonPolicy {
        crash_limit: u32::MAX,
    });
    let runtime = Runtime::start(cfg, Traditional::new(KVotes::new(3).unwrap()), |_| {
        Box::new(FaultyWorker::new(
            SEED,
            FaultProfile {
                wrong_rate: 0.0,
                hang_rate: 0.0,
                crash_rate: 0.4,
                think: Duration::ZERO,
            },
        ))
    });
    let client = runtime.client();
    submit_all(&client, &tasks);
    let verdicts = drain_verdicts(&client);
    drop(client);
    let run = runtime.finish();
    assert_eq!(run.report.tasks_completed, tasks.len());
    assert_eq!(run.report.tasks_poisoned, 0);
    assert_eq!(verdicts.len(), tasks.len());
    assert!(verdicts.iter().all(|v| v.vote == Some(true) && !v.poisoned));
    assert!(
        run.report.worker_crashes > 0,
        "a 40% crash rate must panic some workers"
    );
    assert_eq!(run.report.worker_crashes, run.report.worker_restarts);
    assert_eq!(report_from_journal(&run.journal), run.report);
}

/// A payload that kills every worker that touches it is *poisoned* after
/// the crash limit — a failed, vote-less, `poisoned` verdict — instead of
/// being reissued forever; healthy tasks on the same runtime are
/// untouched.
#[test]
fn poison_tasks_fail_fast_with_a_poisoned_verdict() {
    quiet_injected_panics();
    struct PanicsOnTaskZero;
    impl Worker for PanicsOnTaskZero {
        fn execute(&mut self, job: &JobAssignment) -> Option<(bool, bool)> {
            assert!(job.payload.execute(), "payload must still be executable");
            if job.task == 0 {
                panic!("poisoned payload");
            }
            Some((true, true))
        }
    }
    let mut cfg = chaos_cfg(None);
    cfg.workers = Some(2);
    cfg.poison = Some(PoisonPolicy { crash_limit: 3 });
    let runtime = Runtime::start(cfg, Traditional::new(KVotes::new(3).unwrap()), |_| {
        Box::new(PanicsOnTaskZero)
    });
    let client = runtime.client();
    let tasks = roster(5);
    submit_all(&client, &tasks);
    let verdicts = drain_verdicts(&client);
    drop(client);
    let run = runtime.finish();

    assert_eq!(verdicts.len(), tasks.len(), "poisoned tasks still deliver");
    let poisoned: Vec<_> = verdicts.iter().filter(|v| v.poisoned).collect();
    assert_eq!(poisoned.len(), 1);
    assert_eq!(poisoned[0].task, 0);
    assert_eq!(poisoned[0].vote, None);
    assert_eq!(run.report.tasks_poisoned, 1);
    assert_eq!(run.report.tasks_completed, tasks.len() - 1);
    assert_eq!(
        run.report.worker_crashes, 3,
        "exactly crash_limit crashes before poisoning"
    );
    let has_poison_event = run.journal.events().iter().any(|e| {
        matches!(
            e.event,
            RunEvent::TaskPoisoned {
                task: 0,
                crashes: 3
            }
        )
    });
    assert!(has_poison_event);
    assert_eq!(report_from_journal(&run.journal), run.report);
}

/// Hung-worker supervision: a thread stuck inside `execute` is respawned,
/// its in-flight jobs are re-dispatched under a fresh epoch, and the old
/// thread's eventual late reply is rejected by epoch — never tallied, so
/// the task still sees exactly k votes.
#[test]
fn hung_worker_is_respawned_and_its_late_reply_is_rejected_by_epoch() {
    quiet_injected_panics();
    /// The first execution anywhere sleeps far past the hang threshold
    /// (then answers anyway — the late reply); all later executions,
    /// including the respawned incarnation's, answer promptly.
    struct SleepyOnce {
        slept: Arc<AtomicBool>,
    }
    impl Worker for SleepyOnce {
        fn execute(&mut self, job: &JobAssignment) -> Option<(bool, bool)> {
            if !self.slept.swap(true, Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(400));
            }
            Some((true, job.payload.execute()))
        }
    }
    let slept = Arc::new(AtomicBool::new(false));
    let k = 3;
    let mut cfg = chaos_cfg(None);
    cfg.workers = Some(1);
    cfg.hang_after = Some(Duration::from_millis(40));
    cfg.deadline = Duration::from_secs(30); // hang supervision, not timeout
    let runtime = Runtime::start(cfg, Traditional::new(KVotes::new(k).unwrap()), move |_| {
        Box::new(SleepyOnce {
            slept: slept.clone(),
        })
    });
    let client = runtime.client();
    submit_all(&client, &roster(1));
    let verdict = client.recv().expect("the task must still complete");
    assert_eq!(verdict.vote, Some(true));

    // Keep the runtime alive past the sleeper's wake-up so its late reply
    // is observed (and rejected) rather than lost at shutdown.
    std::thread::sleep(Duration::from_millis(500));
    match client.submit(Payload::Synthetic {
        answer: true,
        work: Duration::ZERO,
    }) {
        SubmitOutcome::Shed => panic!("queue has room"),
        SubmitOutcome::Accepted { .. } | SubmitOutcome::Queued { .. } => {}
    }
    assert_eq!(client.recv().expect("second verdict").vote, Some(true));
    drop(client);
    let run = runtime.finish();

    assert!(
        run.report.worker_restarts >= 1,
        "the stuck worker must be respawned"
    );
    assert_eq!(run.report.worker_crashes, 0, "a hang is not a panic");
    assert!(
        run.report.stale_replies >= 1,
        "the sleeper's late reply must be dropped as stale"
    );
    let epoch_advanced = run
        .journal
        .events()
        .iter()
        .any(|e| matches!(e.event, RunEvent::EpochAdvanced { task: 0, epoch: 1 }));
    assert!(epoch_advanced, "re-dispatch must bump the task epoch");
    let tallies = run
        .journal
        .events()
        .iter()
        .filter(|e| matches!(e.event, RunEvent::VoteTallied { task, .. } if task == 0))
        .count();
    assert_eq!(tallies, k, "exactly k votes despite the late duplicate");
    assert_eq!(report_from_journal(&run.journal), run.report);
}

mod audit_prefix_property {
    //! Satellite property: a crash at any WAL prefix with audits in
    //! flight recovers to the same audit verdicts and voided-verdict set
    //! as the uncrashed run.

    use super::*;
    use proptest::prelude::*;
    use smartred_core::audit::AuditPolicy;
    use std::sync::OnceLock;

    /// Audit chaos keeps the comparison schedule-independent: one task in
    /// flight at a time (retaliation re-tallies whatever else is open at
    /// conviction time, which is a scheduling artifact), a single worker,
    /// and equal spot/escalated rates (selection stays a pure function of
    /// `(audit_seed, task)` even when the crash lands between the first
    /// caught lie and the next selection draw).
    fn audit_cfg(wal: Option<PathBuf>) -> RuntimeConfig {
        let mut cfg = chaos_cfg(wal);
        cfg.workers = Some(1);
        cfg.max_active = 1;
        cfg.audit = AuditPolicy {
            spot_rate: 0.5,
            escalated_rate: 0.5,
            probation_audits: 0,
            strike_weight: 3,
        };
        cfg.audit_seed = SEED;
        cfg
    }

    /// Liars often enough that some verdicts are swung and voided.
    fn liar_profile() -> FaultProfile {
        FaultProfile {
            wrong_rate: 0.4,
            hang_rate: 0.0,
            crash_rate: 0.1,
            think: Duration::ZERO,
        }
    }

    fn start_audit_chaos(cfg: RuntimeConfig) -> Runtime {
        Runtime::start(
            cfg,
            Iterative::new(VoteMargin::new(MARGIN).unwrap()),
            |_| Box::new(FaultyWorker::new(SEED, liar_profile())),
        )
    }

    /// Schedule- and crash-independent audit structure: per decided task,
    /// the decision kind and vote, whether any audit touched/convicted it,
    /// and how many of its verdicts were voided. Raw audit *event counts*
    /// are excluded on purpose: a crash inside an audit group makes
    /// recovery re-run the whole group (same outcome, extra
    /// `AuditScheduled`/`AuditFailed` records), and worker ids are
    /// scheduling artifacts.
    fn audit_shape(journal: &Journal) -> Vec<(u32, u8, Option<bool>, bool, bool, u32)> {
        let mut audited: HashSet<u32> = HashSet::new();
        let mut convicted: HashSet<u32> = HashSet::new();
        let mut voids: HashMap<u32, u32> = HashMap::new();
        let mut out = Vec::new();
        for e in journal.events() {
            match e.event {
                RunEvent::AuditScheduled { task } => {
                    audited.insert(task);
                }
                RunEvent::AuditFailed { task, .. } => {
                    convicted.insert(task);
                }
                RunEvent::VerdictVoided { task } => *voids.entry(task).or_default() += 1,
                RunEvent::VerdictReached { task, value, .. } => out.push((task, 0u8, Some(value))),
                RunEvent::TaskCapped { task } => out.push((task, 1, None)),
                RunEvent::TaskPoisoned { task, .. } => out.push((task, 2, None)),
                _ => {}
            }
        }
        out.sort_unstable();
        out.into_iter()
            .map(|(task, kind, vote)| {
                (
                    task,
                    kind,
                    vote,
                    audited.contains(&task),
                    convicted.contains(&task),
                    voids.get(&task).copied().unwrap_or(0),
                )
            })
            .collect()
    }

    struct GoldenFixture {
        tasks: Vec<(u32, Payload)>,
        shape: Vec<(u32, u8, Option<bool>, bool, bool, u32)>,
        events: u64,
    }

    fn golden() -> &'static GoldenFixture {
        static GOLDEN: OnceLock<GoldenFixture> = OnceLock::new();
        GOLDEN.get_or_init(|| {
            quiet_injected_panics();
            let tasks = roster(12);
            let runtime = start_audit_chaos(audit_cfg(None));
            let client = runtime.client();
            submit_all(&client, &tasks);
            let verdicts = drain_verdicts(&client);
            drop(client);
            let run = runtime.finish();
            assert!(!run.crashed);
            assert_eq!(verdicts.len(), tasks.len());
            // The fixture only proves the property if audits actually
            // fired and voided something.
            assert!(run.report.audits > 0, "no audits in the golden run");
            assert!(
                run.report.verdicts_voided > 0,
                "no voided verdicts in the golden run"
            );
            // One task in flight at a time leaves retaliation nothing to
            // re-tally (cross-task re-tallies are covered by the DCA and
            // volunteer audit tests).
            assert_eq!(run.report.tasks_retallied, 0);
            assert_eq!(report_from_journal(&run.journal), run.report);
            GoldenFixture {
                tasks,
                shape: audit_shape(&run.journal),
                events: run.journal.events().len() as u64,
            }
        })
    }

    proptest! {
        // Each case is a full crash + recovery run; keep the count modest.
        #![proptest_config(ProptestConfig::with_cases(10))]

        #[test]
        fn crash_at_any_prefix_preserves_audit_verdicts(crash_seed in 1u64..10_000) {
            let fixture = golden();
            let crash_at = 1 + crash_seed % (fixture.events - 1);
            let wal = wal_path(&format!("audit-prefix-{crash_at}"));
            let mut cfg = audit_cfg(Some(wal.clone()));
            cfg.crash_after_events = Some(crash_at);
            let runtime = start_audit_chaos(cfg);
            let client = runtime.client();
            submit_all(&client, &fixture.tasks);
            drain_verdicts(&client);
            drop(client);
            let crashed = runtime.finish();
            prop_assert!(crashed.crashed);

            let (runtime, client, _) = Runtime::recover(
                audit_cfg(Some(wal.clone())),
                Iterative::new(VoteMargin::new(MARGIN).unwrap()),
                |_| Box::new(FaultyWorker::new(SEED, liar_profile())),
                &fixture.tasks,
            )
            .expect("WAL recovery");
            drain_verdicts(&client);
            drop(client);
            let run = runtime.finish();
            prop_assert!(!run.crashed);
            prop_assert_eq!(audit_shape(&run.journal), fixture.shape.clone());
            for (task, count) in decisions_per_task(&run.journal) {
                prop_assert_eq!(count, 1, "task {} decided more than once", task);
            }
            prop_assert_eq!(report_from_journal(&run.journal), run.report.clone());
            let on_disk = std::fs::read_to_string(&wal).unwrap();
            prop_assert_eq!(on_disk, run.journal.to_jsonl());
            let _ = std::fs::remove_file(&wal);
        }
    }
}

mod prefix_property {
    //! Property test: recovery from *any* event-stream prefix — not just
    //! the swept points — yields a coordinator whose continued run matches
    //! the golden shape and decides every task exactly once.

    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    struct GoldenFixture {
        tasks: Vec<(u32, Payload)>,
        shape: Vec<(u32, u8, Option<bool>, u64)>,
        events: u64,
    }

    fn golden() -> &'static GoldenFixture {
        static GOLDEN: OnceLock<GoldenFixture> = OnceLock::new();
        GOLDEN.get_or_init(|| {
            quiet_injected_panics();
            let tasks = roster(8);
            let (run, _) = run_roster(chaos_cfg(None), &tasks);
            assert!(!run.crashed);
            GoldenFixture {
                tasks,
                shape: shape(&run.journal),
                events: run.journal.events().len() as u64,
            }
        })
    }

    proptest! {
        // 12 cases: each is a full crash + recovery run, so this is the
        // most expensive property in the workspace.
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn recovery_from_any_prefix_converges_to_golden(crash_seed in 1u64..10_000) {
            let fixture = golden();
            let crash_at = 1 + crash_seed % (fixture.events - 1);
            let wal = wal_path(&format!("prefix-{crash_at}"));
            let mut cfg = chaos_cfg(Some(wal.clone()));
            cfg.crash_after_events = Some(crash_at);
            let (crashed, _) = run_roster(cfg, &fixture.tasks);
            prop_assert!(crashed.crashed);

            let (run, _, _) = recover_chaos(chaos_cfg(Some(wal.clone())), &fixture.tasks);
            prop_assert!(!run.crashed);
            prop_assert_eq!(shape(&run.journal), fixture.shape.clone());
            for (task, count) in decisions_per_task(&run.journal) {
                prop_assert_eq!(count, 1, "task {} decided more than once", task);
            }
            prop_assert_eq!(report_from_journal(&run.journal), run.report.clone());
            let _ = std::fs::remove_file(&wal);
        }
    }
}

mod sharded_crash_matrix {
    //! Crash-point matrix for the sharded runtime: kill all N=4 shard
    //! coordinators at 20/50/80% of each shard's golden event count —
    //! with torn tails injected on *two different* shard WAL segments
    //! simultaneously — and require parallel recovery to converge to the
    //! golden verdicts with exactly-once decisions per shard.

    use super::*;
    use smartred_core::execution::shard_of;
    use smartred_runtime::{ShardedClient, ShardedConfig, ShardedRun, ShardedRuntime};

    /// Shard count under test: the CI `shard-chaos` matrix axis
    /// (`SMARTRED_SHARDS` ∈ {1, 4}), defaulting to 4.
    fn shard_count() -> usize {
        std::env::var("SMARTRED_SHARDS")
            .ok()
            .and_then(|s| s.parse().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(4)
    }

    fn sharded_chaos_cfg(wal_dir: Option<PathBuf>) -> ShardedConfig {
        ShardedConfig {
            base: chaos_cfg(None),
            shards: shard_count(),
            wal_dir,
            admission_cap: 512,
            crash_after: None,
        }
    }

    fn start_sharded(cfg: ShardedConfig) -> ShardedRuntime {
        ShardedRuntime::start(
            cfg,
            Iterative::new(VoteMargin::new(MARGIN).unwrap()),
            |_| Box::new(FaultyWorker::new(SEED, chaos_profile())),
        )
    }

    fn drain_sharded(client: &ShardedClient) -> Vec<TaskVerdict> {
        let mut verdicts = Vec::new();
        while let Some(v) = client.recv_timeout(Duration::from_millis(400)) {
            verdicts.push(v);
        }
        verdicts
    }

    fn run_sharded(cfg: ShardedConfig, tasks: &[(u32, Payload)]) -> (ShardedRun, Vec<TaskVerdict>) {
        let runtime = start_sharded(cfg);
        let client = runtime.client();
        for (task, payload) in tasks {
            match client.submit(payload.clone()) {
                SubmitOutcome::Shed => panic!("admission_cap admits the whole roster"),
                SubmitOutcome::Accepted { task: id } | SubmitOutcome::Queued { task: id } => {
                    assert_eq!(id, *task, "submission order must assign roster ids");
                }
            }
        }
        let verdicts = drain_sharded(&client);
        drop(client);
        (runtime.finish(), verdicts)
    }

    /// WAL directories live under `target/tmp` so a failing CI run can
    /// upload the per-shard segments as artifacts (they are removed on
    /// success).
    fn wal_dir(name: &str) -> PathBuf {
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smartred-sharded-crash-{name}"))
    }

    /// The matrix itself. Each round kills every shard coordinator at
    /// `pct`% of that shard's golden event count, injects torn tails on
    /// the WAL segments of shards 0 and 2 simultaneously, and recovers
    /// all shards in parallel.
    #[test]
    fn shards_killed_at_matrix_points_recover_to_the_golden_run() {
        quiet_injected_panics();
        let shards = shard_count();
        // With N=1 both torn tails land on the only segment; the torn
        // set still describes which *segments* end mid-record.
        let torn_shards: HashSet<usize> = [0, 2 % shards].into_iter().collect();
        let tasks = roster(24);
        let (golden, golden_verdicts) = run_sharded(sharded_chaos_cfg(None), &tasks);
        assert!(!golden.crashed);
        assert_eq!(golden_verdicts.len(), tasks.len());
        let golden_shape = shape(&golden.journal);
        let per_shard_events: Vec<u64> = golden
            .shards
            .iter()
            .map(|s| s.journal.events().len() as u64)
            .collect();
        assert!(per_shard_events.iter().all(|&n| n > 1), "every shard works");

        for pct in [20u64, 50, 80] {
            let dir = wal_dir(&format!("pct-{pct}"));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let mut cfg = sharded_chaos_cfg(Some(dir.clone()));
            cfg.crash_after = Some(
                per_shard_events
                    .iter()
                    .map(|&n| Some((n * pct / 100).max(1)))
                    .collect(),
            );
            let (crashed, pre_verdicts) = run_sharded(cfg, &tasks);
            assert!(crashed.crashed, "pct {pct}: at least one shard must trip");

            // A real kill tears whatever appends were in flight — on two
            // *different* shard segments at once.
            use std::io::Write;
            for &torn in &torn_shards {
                let path = ShardedConfig::wal_segment(&dir, torn);
                let mut file = std::fs::OpenOptions::new()
                    .append(true)
                    .open(&path)
                    .unwrap();
                write!(file, "{{\"at\":999999,\"seq\":77,\"kind\":\"job_ret").unwrap();
            }

            let (runtime, client, reports) = ShardedRuntime::recover(
                sharded_chaos_cfg(Some(dir.clone())),
                Iterative::new(VoteMargin::new(MARGIN).unwrap()),
                |_| Box::new(FaultyWorker::new(SEED, chaos_profile())),
                &tasks,
            )
            .expect("parallel shard recovery");
            let post_verdicts = drain_sharded(&client);
            drop(client);
            let run = runtime.finish();
            assert!(!run.crashed);

            assert_eq!(reports.len(), shards);
            for (k, rec) in reports.iter().enumerate() {
                assert_eq!(
                    rec.torn_tail,
                    torn_shards.contains(&k),
                    "pct {pct}: only segments {torn_shards:?} were torn, shard {k} disagrees"
                );
            }

            // Convergence: the merged recovered journal carries the
            // golden verdicts and per-task job counts.
            assert_eq!(
                shape(&run.journal),
                golden_shape,
                "pct {pct}: recovered run diverged from golden"
            );
            assert_eq!(report_from_journal(&run.journal), run.report);

            // Exactly-once decisions, globally and per shard — and every
            // decision lives in its owning shard's journal.
            for (task, count) in decisions_per_task(&run.journal) {
                assert_eq!(count, 1, "pct {pct}: task {task} decided more than once");
            }
            for (k, shard_run) in run.shards.iter().enumerate() {
                for (task, count) in decisions_per_task(&shard_run.journal) {
                    assert_eq!(shard_of(task, shards), k, "decision routed to wrong shard");
                    assert_eq!(count, 1, "pct {pct}: shard {k} re-decided task {task}");
                }
            }

            // At-most-once delivery across the crash: no verdict reaches
            // a client twice (a verdict logged right at a crash boundary
            // may reach no client at all).
            let before: HashSet<u32> = pre_verdicts.iter().map(|v| v.task).collect();
            let after: HashSet<u32> = post_verdicts.iter().map(|v| v.task).collect();
            assert!(
                before.is_disjoint(&after),
                "pct {pct}: a verdict was delivered both before and after the crash"
            );

            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

mod precursor_sweep {
    //! Deterministic sweep over every WAL prefix of a golden run that ends
    //! on a decision precursor: a `WorkerCrashed` (whose charge may reach
    //! the poison limit, or whose abandon may drain the wave) or the
    //! `WorkerRestarted` logged right after it. Each prefix is written to
    //! disk as-is — a durable log a killed coordinator could have left —
    //! so every cut is exercised, not just the ones a live crash happens
    //! to land on. Runs for the flat, sharded-with-hedging and
    //! checkpointed configurations. A failure names the cut, the last
    //! durable event and the first task whose outcome diverged.

    use super::*;
    use smartred_core::hedge::HedgePolicy;
    use smartred_runtime::{checkpoint_path, ShardedConfig, ShardedRuntime};

    /// Prefix lengths of `journal` that end on a decision precursor.
    fn precursor_cuts(journal: &Journal) -> Vec<usize> {
        journal
            .events()
            .iter()
            .enumerate()
            .filter(|(_, e)| {
                matches!(
                    e.event,
                    RunEvent::WorkerCrashed { .. } | RunEvent::WorkerRestarted { .. }
                )
            })
            .map(|(i, _)| i + 1)
            .collect()
    }

    /// The first `cut` records of `journal`, as WAL text.
    fn prefix_text(journal: &Journal, cut: usize) -> String {
        let mut text = String::new();
        for e in &journal.events()[..cut] {
            text.push_str(&e.to_jsonl_line());
            text.push('\n');
        }
        text
    }

    /// Asserts the recovered run decided every task of `want` exactly
    /// once, with the golden outcome and job count.
    fn assert_converged(
        label: &str,
        cut: usize,
        golden: &Journal,
        want: &[(u32, u8, Option<bool>, u64)],
        run: &Journal,
    ) {
        let got = shape(run);
        if got != want {
            let first = want
                .iter()
                .zip(&got)
                .find(|(w, g)| w != g)
                .map(|(w, g)| format!("golden {w:?}, recovered {g:?}"))
                .unwrap_or_else(|| format!("{} tasks vs {}", want.len(), got.len()));
            panic!(
                "{label}: recovery from the {cut}-event prefix (last durable event {:?}) \
                 diverged from golden at {first}",
                golden.events()[cut - 1].event
            );
        }
        for (task, count) in decisions_per_task(run) {
            assert_eq!(
                count, 1,
                "{label} cut {cut}: task {task} decided {count} times"
            );
        }
    }

    fn iterative() -> Iterative {
        Iterative::new(VoteMargin::new(MARGIN).unwrap())
    }

    fn chaos_worker(_: u32) -> Box<dyn Worker> {
        Box::new(FaultyWorker::new(SEED, chaos_profile()))
    }

    #[test]
    fn flat_recovers_from_every_precursor_prefix() {
        quiet_injected_panics();
        let tasks = roster(8);
        let (golden, _) = run_roster(chaos_cfg(None), &tasks);
        let want = shape(&golden.journal);
        let cuts = precursor_cuts(&golden.journal);
        assert!(!cuts.is_empty(), "the chaos profile crashes workers");
        for cut in cuts {
            let wal = wal_path(&format!("precursor-flat-{cut}"));
            std::fs::write(&wal, prefix_text(&golden.journal, cut)).unwrap();
            let (runtime, client, _) = Runtime::recover(
                chaos_cfg(Some(wal.clone())),
                iterative(),
                chaos_worker,
                &tasks,
            )
            .expect("WAL recovery");
            drop(client);
            let run = runtime.finish();
            assert!(!run.crashed);
            assert_converged("flat", cut, &golden.journal, &want, &run.journal);
            assert_eq!(report_from_journal(&run.journal), run.report);
            let _ = std::fs::remove_file(&wal);
        }
    }

    /// Every cut that ends on a `JobReturned`: the crash fell between a
    /// vote and its tally. Recovery tallies the vote itself, so the run
    /// converges and, as in any live run, each task logs one
    /// `VoteTallied` per `JobReturned`.
    #[test]
    fn flat_tallies_the_vote_of_every_returned_prefix() {
        quiet_injected_panics();
        let tasks = roster(8);
        let (golden, _) = run_roster(chaos_cfg(None), &tasks);
        let want = shape(&golden.journal);
        let cuts: Vec<usize> = golden
            .journal
            .events()
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e.event, RunEvent::JobReturned { .. }))
            .map(|(i, _)| i + 1)
            .collect();
        assert!(!cuts.is_empty(), "the golden run returns votes");
        for cut in cuts {
            let wal = wal_path(&format!("precursor-returned-{cut}"));
            std::fs::write(&wal, prefix_text(&golden.journal, cut)).unwrap();
            let (runtime, client, _) = Runtime::recover(
                chaos_cfg(Some(wal.clone())),
                iterative(),
                chaos_worker,
                &tasks,
            )
            .expect("WAL recovery");
            drop(client);
            let run = runtime.finish();
            assert!(!run.crashed);
            assert_converged("flat returned", cut, &golden.journal, &want, &run.journal);
            let mut untallied: HashMap<u32, i64> = HashMap::new();
            for e in run.journal.events() {
                match e.event {
                    RunEvent::JobReturned { task, .. } => *untallied.entry(task).or_default() += 1,
                    RunEvent::VoteTallied { task, .. } => *untallied.entry(task).or_default() -= 1,
                    _ => {}
                }
            }
            untallied.retain(|_, n| *n != 0);
            assert!(
                untallied.is_empty(),
                "cut {cut}: returns minus tallies per task {untallied:?}"
            );
            assert_eq!(report_from_journal(&run.journal), run.report);
            let _ = std::fs::remove_file(&wal);
        }
    }

    /// A chaos worker on a straggler-prone machine: a fixed sixteenth of
    /// `(worker, task, replica)` placements run 30x slow, so hedge twins
    /// launch, while the vote and the crash stay the placement-free
    /// `(seed, task, replica)` draw.
    struct Straggling {
        index: u32,
        inner: FaultyWorker,
    }

    impl Worker for Straggling {
        fn execute(&mut self, job: &JobAssignment) -> Option<(bool, bool)> {
            let placement = (self.index.wrapping_mul(0x9e37_79b9)
                ^ job.task.wrapping_mul(0x85eb_ca6b)
                ^ job.replica.wrapping_mul(0xc2b2_ae35))
            .wrapping_mul(0x27d4_eb2f);
            let slow = placement >> 28 == 0;
            std::thread::sleep(Duration::from_millis(if slow { 30 } else { 1 }));
            self.inner.execute(job)
        }
    }

    fn straggling_worker(index: u32) -> Box<dyn Worker> {
        Box::new(Straggling {
            index,
            inner: FaultyWorker::new(SEED, chaos_profile()),
        })
    }

    fn hedged_cfg(wal_dir: Option<PathBuf>) -> ShardedConfig {
        let mut base = chaos_cfg(None);
        base.workers = Some(4);
        base.hedge = Some(HedgePolicy {
            quantile: 0.9,
            min_samples: 5,
            multiplier: 3.0,
            max_per_task: 2,
        });
        ShardedConfig {
            base,
            shards: 2,
            wal_dir,
            admission_cap: 512,
            crash_after: None,
        }
    }

    /// One shard's log is cut at a precursor; the other shard's segment
    /// is empty, so its tasks re-run from scratch.
    #[test]
    fn sharded_hedged_recovers_from_every_precursor_prefix() {
        quiet_injected_panics();
        let tasks = roster(12);
        let runtime = ShardedRuntime::start(hedged_cfg(None), iterative(), straggling_worker);
        let client = runtime.client();
        for (_, payload) in &tasks {
            assert!(!matches!(
                client.submit(payload.clone()),
                SubmitOutcome::Shed
            ));
        }
        while client.recv_timeout(Duration::from_millis(400)).is_some() {}
        drop(client);
        let golden = runtime.finish();
        assert!(!golden.crashed);
        let want = shape(&golden.journal);
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("smartred-precursor-sharded-{}", std::process::id()));
        let mut swept = 0;
        for (k, shard) in golden.shards.iter().enumerate() {
            for cut in precursor_cuts(&shard.journal) {
                let _ = std::fs::remove_dir_all(&dir);
                std::fs::create_dir_all(&dir).unwrap();
                for j in 0..golden.shards.len() {
                    let text = if j == k {
                        prefix_text(&shard.journal, cut)
                    } else {
                        String::new()
                    };
                    std::fs::write(ShardedConfig::wal_segment(&dir, j), text).unwrap();
                }
                let (runtime, client, _) = ShardedRuntime::recover(
                    hedged_cfg(Some(dir.clone())),
                    iterative(),
                    straggling_worker,
                    &tasks,
                )
                .expect("parallel shard recovery");
                drop(client);
                let run = runtime.finish();
                assert!(!run.crashed);
                let label = format!("sharded+hedged shard {k}");
                assert_converged(&label, cut, &shard.journal, &want, &run.journal);
                swept += 1;
            }
        }
        assert!(swept > 0, "the chaos profile crashes workers");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The WAL segment begins with a checkpoint seal: a first burst is
    /// decided and compacted into a snapshot, then the golden run resumes
    /// from snapshot + seal, and every precursor cut of that suffix is
    /// recovered against the same snapshot.
    #[test]
    fn checkpointed_recovers_from_every_precursor_prefix() {
        quiet_injected_panics();
        let ckpt_cfg = |wal: &PathBuf| {
            let mut cfg = chaos_cfg(Some(wal.clone()));
            cfg.checkpoint_every = Some(1);
            cfg
        };
        let tasks = roster(8);
        let first = wal_path("precursor-ckpt-first");
        let runtime = start_chaos(ckpt_cfg(&first));
        let client = runtime.client();
        submit_all(&client, &tasks[..3]);
        assert_eq!(drain_verdicts(&client).len(), 3);
        drop(client);
        assert!(!runtime.finish().crashed);
        // Keep only the seal: the state of a coordinator killed right
        // after its checkpoint.
        let text = std::fs::read_to_string(&first).unwrap();
        let seal = text.lines().next().unwrap().to_string() + "\n";
        assert!(seal.contains("\"checkpoint_taken\""), "{seal}");
        let snapshot = std::fs::read(checkpoint_path(&first)).unwrap();
        let stage = |wal: &PathBuf, text: &str| {
            std::fs::write(wal, text).unwrap();
            std::fs::write(checkpoint_path(wal), &snapshot).unwrap();
        };
        let cleanup = |wal: &PathBuf| {
            let _ = std::fs::remove_file(wal);
            let _ = std::fs::remove_file(checkpoint_path(wal));
        };

        let golden_wal = wal_path("precursor-ckpt-golden");
        stage(&golden_wal, &seal);
        let (runtime, client, rec) =
            Runtime::recover(ckpt_cfg(&golden_wal), iterative(), chaos_worker, &tasks)
                .expect("checkpoint recovery");
        assert_eq!(rec.tasks_decided, 3);
        drop(client);
        let golden = runtime.finish();
        assert!(!golden.crashed);
        let want = shape(&golden.journal);
        assert_eq!(want.len(), tasks.len() - 3);
        let cuts = precursor_cuts(&golden.journal);
        assert!(!cuts.is_empty(), "the chaos profile crashes workers");
        for cut in cuts {
            let wal = wal_path(&format!("precursor-ckpt-{cut}"));
            stage(&wal, &prefix_text(&golden.journal, cut));
            let (runtime, client, _) =
                Runtime::recover(ckpt_cfg(&wal), iterative(), chaos_worker, &tasks)
                    .expect("checkpoint recovery");
            drop(client);
            let run = runtime.finish();
            assert!(!run.crashed);
            assert_converged("checkpointed", cut, &golden.journal, &want, &run.journal);
            cleanup(&wal);
        }
        cleanup(&first);
        cleanup(&golden_wal);
    }
}

mod owed_reactions {
    //! A crash between a logged timeout and the reactions it triggers —
    //! the node's strike, the retry — leaves them owed. Recovery performs
    //! them, in live order, before anything else: each is a pure function
    //! of the log.

    use super::*;
    use smartred_core::resilience::QuarantinePolicy;
    use smartred_desim::time::SimTime;

    /// One task's first wave of three replicas on workers 0, 1 and 0, and
    /// the timeout of job 0 on worker 0: the last durable event.
    fn timed_out_prefix() -> Journal {
        let at = SimTime::from_micros;
        let mut log = Journal::new();
        log.record(
            at(10),
            RunEvent::WaveOpened {
                task: 0,
                wave: 1,
                jobs: 3,
            },
        );
        for (job, node) in [(0, 0), (1, 1), (2, 0)] {
            let eta = at(30_000_020);
            log.record(
                at(20),
                RunEvent::JobDispatched {
                    job,
                    task: 0,
                    node,
                    eta,
                },
            );
        }
        log.record(
            at(40),
            RunEvent::JobTimedOut {
                job: 0,
                task: 0,
                node: 0,
            },
        );
        log
    }

    fn honest_worker(_: u32) -> Box<dyn Worker> {
        Box::new(FaultyWorker::new(
            SEED,
            FaultProfile {
                wrong_rate: 0.0,
                hang_rate: 0.0,
                crash_rate: 0.0,
                think: Duration::ZERO,
            },
        ))
    }

    /// Recovers a two-worker runtime from the timed-out prefix and returns
    /// the events it logged after the prefix.
    fn recover_after_timeout(name: &str, discipline: Option<QuarantinePolicy>) -> Vec<RunEvent> {
        let prefix = timed_out_prefix();
        let wal = wal_path(name);
        std::fs::write(&wal, prefix.to_jsonl()).unwrap();
        let mut cfg = chaos_cfg(Some(wal.clone()));
        cfg.workers = Some(2);
        cfg.discipline = discipline;
        let (runtime, client, _) = Runtime::recover(
            cfg,
            Iterative::new(VoteMargin::new(MARGIN).unwrap()),
            honest_worker,
            &roster(1),
        )
        .expect("WAL recovery");
        let verdict = client
            .recv_timeout(Duration::from_secs(10))
            .expect("the resumed task is decided");
        assert_eq!(verdict.vote, Some(true));
        drop(client);
        let run = runtime.finish();
        assert!(!run.crashed);
        assert_eq!(report_from_journal(&run.journal), run.report);
        let _ = std::fs::remove_file(&wal);
        run.journal.events()[prefix.len()..]
            .iter()
            .map(|e| e.event)
            .collect()
    }

    #[test]
    fn recovery_logs_the_retry_a_timeout_owes() {
        let after = recover_after_timeout("owed-retry", None);
        assert_eq!(
            after.first(),
            Some(&RunEvent::JobRetried {
                task: 0,
                attempt: 1
            }),
            "{after:?}"
        );
    }

    #[test]
    fn recovery_quarantines_the_node_a_logged_strike_demands() {
        let policy = QuarantinePolicy {
            strike_limit: 1,
            ..QuarantinePolicy::default()
        };
        let after = recover_after_timeout("owed-quarantine", Some(policy));
        assert_eq!(
            after[..2],
            [
                RunEvent::NodeQuarantined { node: 0 },
                RunEvent::JobRetried {
                    task: 0,
                    attempt: 1
                },
            ],
            "{after:?}"
        );
    }
}
