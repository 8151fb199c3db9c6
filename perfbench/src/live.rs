//! The three live workloads: closed-loop serving through the runtime's
//! public client API, one load-generating thread, IR with d = 4 over a
//! pool where 30% of replicas vote the colluding wrong value.
//!
//! A run is a sequence of rounds. Each round starts a fresh runtime,
//! serves a fixed number of tasks, drains, finishes, checks its outputs
//! and then restarts (from the WAL on `live_wal`) to serve one fresh task.
//! Fixed-size rounds keep peak memory and set-up independent of how fast
//! the host is; rounds repeat until the run's time is spent.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::SeedableRng;
use smartred_core::execution::{Assignment, TaskExecution};
use smartred_core::hedge::HedgePolicy;
use smartred_core::parallel::Threads;
use smartred_core::params::VoteMargin;
use smartred_core::strategy::Iterative;
use smartred_desim::journal::{Journal, RunEvent, WalWriter};
use smartred_runtime::{
    report_from_journal, Client, FaultProfile, FaultyWorker, JobAssignment, Payload, Runtime,
    RuntimeConfig, RuntimeRun, ShardedClient, ShardedConfig, ShardedRuntime, SubmitOutcome,
    TaskVerdict, Worker,
};
use smartred_sat::{decompose, random_3sat, ThreeSatConfig};

use crate::metrics::{median, samples_beyond, tail_quantile, Failures, Sample};
use crate::trace::{Layer, SpanSink, TracedWorker, Tracer, NO_TASK};
use crate::{mix, Check, Outcome};

/// IR vote margin: d = 4 predicts R ≈ 0.967 at r = 0.7 (Eq. 6).
pub const MARGIN: usize = 4;
/// The paper's r = 0.7: 30% of replicas vote the colluding wrong value.
pub const WRONG_RATE: f64 = 0.3;
/// A verdict later than this counts the task as verdict-less.
const RECV_TIMEOUT: Duration = Duration::from_secs(30);
/// Peak memory is read after this many rounds: rounds are alike, so later
/// ones would only add the samples the benchmark itself keeps.
pub const PEAK_AFTER_ROUNDS: usize = 3;
/// Cold restarts per round of a WAL-less workload.
const COLD_RESTARTS: usize = 20;
/// Events appended by the synced-WAL probe of a traced `live_wal` round.
const SYNC_PROBE_EVENTS: usize = 200;
/// Spans written to the trace file (the first traced round only).
const TRACE_FILE_SPANS: usize = 200_000;

/// Which live workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Live {
    /// One in-memory `Runtime` serving 3-SAT blocks.
    Mem,
    /// `ShardedRuntime`, one shard per core, a flush-only WAL per shard.
    Wal,
    /// One in-memory `Runtime` over a straggler pool, with hedging.
    Hedge,
}

/// Round shape per workload.
struct Shape {
    /// Tasks served per round.
    tasks: usize,
    /// Tasks kept outstanding by the closed loop.
    window: usize,
    /// Worker threads (`None`: the runtime default, one per core).
    workers: Option<usize>,
}

impl Live {
    fn shape(self) -> Shape {
        match self {
            // 2^20 assignments over 10k tasks: ~105 assignments per block, so
            // execute is a real share of the per-task work.
            Live::Mem => Shape {
                tasks: 10_000,
                window: 128,
                workers: None,
            },
            Live::Wal => Shape {
                tasks: 2_000,
                window: 64,
                workers: None,
            },
            // Workers sleep rather than compute, so a pool much wider than
            // the window's replicas keeps queueing out of the latencies and
            // the hedge trigger sees true service-time stragglers.
            Live::Hedge => Shape {
                tasks: 1_000,
                window: 4,
                workers: Some(24),
            },
        }
    }
}

/// 3-SAT variables of the `live_mem` formula.
const SAT_VARS: u32 = 20;

/// The hedge trigger of the straggler workload: once 10 latencies are in,
/// a job outliving 3× the online p90 gets a twin, up to four per task.
fn hedge_policy() -> HedgePolicy {
    HedgePolicy {
        quantile: 0.9,
        min_samples: 10,
        multiplier: 3.0,
        max_per_task: 4,
    }
}

fn profile() -> FaultProfile {
    FaultProfile {
        wrong_rate: WRONG_RATE,
        ..FaultProfile::default()
    }
}

fn strategy() -> Iterative {
    Iterative::new(VoteMargin::new(MARGIN).expect("d = 4 is a valid margin"))
}

/// A worker whose vote is the pure `(seed, task, replica)` draw of
/// [`FaultyWorker`] and whose service time depends on the placement: a
/// seeded 1% of `(worker, task, replica)` triples take 100 ms, the rest
/// 1 ms. A hedge twin redraws the delay on its own worker but votes the
/// same, so hedging moves latency and never verdicts.
struct StragglerWorker {
    index: u32,
    seed: u64,
    inner: FaultyWorker,
}

impl Worker for StragglerWorker {
    fn execute(&mut self, job: &JobAssignment) -> Option<(bool, bool)> {
        let x = mix(self.seed
            ^ (u64::from(self.index) << 40)
            ^ (u64::from(job.task) << 16)
            ^ u64::from(job.replica));
        let slow = ((x >> 11) as f64 / (1u64 << 53) as f64) < 0.01;
        std::thread::sleep(Duration::from_millis(if slow { 100 } else { 1 }));
        self.inner.execute(job)
    }
}

/// The expected `(jobs, vote)` of `task` under `seed`: the strategy run
/// against the same pure vote draws the pool's workers make.
fn reference(seed: u64, task: u32) -> (u32, bool) {
    let mut worker = FaultyWorker::new(seed, profile());
    let payload = Arc::new(Payload::Synthetic {
        answer: true,
        work: Duration::ZERO,
    });
    let mut replica = 0u32;
    let report = TaskExecution::new(strategy())
        .run_with(|n| {
            (0..n)
                .map(|_| {
                    let job = JobAssignment {
                        job: 0,
                        task,
                        replica,
                        epoch: 0,
                        payload: payload.clone(),
                    };
                    replica += 1;
                    worker.execute(&job).expect("the profile never hangs").0
                })
                .collect()
        })
        .expect("no job cap");
    (report.jobs as u32, report.verdict.expect("IR decides"))
}

enum Rt {
    One(Runtime),
    Sharded(ShardedRuntime),
}

enum Cl {
    One(Client),
    Sharded(ShardedClient),
}

impl Rt {
    fn client(&self) -> Cl {
        match self {
            Rt::One(r) => Cl::One(r.client()),
            Rt::Sharded(r) => Cl::Sharded(r.client()),
        }
    }

    /// Finishes; returns each coordinator's run.
    fn finish(self) -> Vec<RuntimeRun> {
        match self {
            Rt::One(r) => vec![r.finish()],
            Rt::Sharded(r) => r.finish().shards,
        }
    }
}

impl Cl {
    fn submit(&self, payload: Payload) -> SubmitOutcome {
        match self {
            Cl::One(c) => c.submit(payload),
            Cl::Sharded(c) => c.submit(payload),
        }
    }

    fn recv(&self) -> Option<TaskVerdict> {
        match self {
            Cl::One(c) => c.recv_timeout(RECV_TIMEOUT),
            Cl::Sharded(c) => c.recv_timeout(RECV_TIMEOUT),
        }
    }
}

/// Client-side timestamps of one task, in seconds since the round origin.
#[derive(Clone, Copy)]
struct Sent {
    submit_start: f64,
    submit_end: f64,
}

/// What one served task looked like from the client.
struct Served {
    sent: Sent,
    recv_end: f64,
    verdict: TaskVerdict,
}

/// Everything one round measured.
#[derive(Default)]
struct Round {
    traced: bool,
    attempted: u64,
    failures: Failures,
    decided: u64,
    correct: u64,
    jobs: u64,
    setup_s: f64,
    start_s: f64,
    serve_s: f64,
    finish_s: f64,
    fold_s: f64,
    /// `(time to the fresh task's verdict, restart call, events
    /// replayed)` of each restart.
    restarts: Vec<(f64, f64, f64)>,
    latency_ms: Vec<f64>,
    d2v_ms: Vec<f64>,
    journal_events: u64,
    wal_bytes: u64,
    timeouts: u64,
    retries: u64,
    stale: u64,
    hedges: [u64; 3],
    // Traced rounds only.
    sync_append_us: Vec<f64>,
    submit_us: Vec<f64>,
    execute_us: Vec<f64>,
    recv_blocked_s: f64,
    workers: usize,
    split_ms: [f64; 4],
}

/// One live run's configuration.
struct Bench {
    live: Live,
    seed: u64,
    wal_dir: PathBuf,
    shards: usize,
}

impl Bench {
    fn runtime_cfg(&self) -> RuntimeConfig {
        let shape = self.live.shape();
        let mut cfg = RuntimeConfig {
            workers: shape.workers,
            ..RuntimeConfig::default()
        };
        if self.live == Live::Hedge {
            cfg.hedge = Some(hedge_policy());
            cfg.assignment = Assignment::LeastLoaded;
        }
        if self.live == Live::Wal {
            // Flush-only: with an fdatasync per append, throughput tracks
            // the host disk's fsync latency, which moves by 2x from one
            // minute to the next on shared storage. The synced append cost
            // is probed on its own in the traced run.
            cfg.wal_sync = false;
        }
        cfg
    }

    fn sharded_cfg(&self) -> ShardedConfig {
        ShardedConfig {
            base: self.runtime_cfg(),
            shards: self.shards,
            wal_dir: Some(self.wal_dir.clone()),
            admission_cap: self.live.shape().window,
            crash_after: None,
        }
    }

    fn factory(
        &self,
        seed: u64,
        trace: Option<(Instant, SpanSink)>,
    ) -> impl Fn(u32) -> Box<dyn Worker> + Send + Sync + 'static {
        let live = self.live;
        move |index| {
            let inner: Box<dyn Worker> = match live {
                Live::Hedge => Box::new(StragglerWorker {
                    index,
                    seed,
                    inner: FaultyWorker::new(seed, profile()),
                }),
                Live::Mem | Live::Wal => Box::new(FaultyWorker::new(seed, profile())),
            };
            match &trace {
                Some((origin, sink)) => {
                    Box::new(TracedWorker::new(inner, index, *origin, sink.clone()))
                }
                None => inner,
            }
        }
    }

    fn start(&self, seed: u64, trace: Option<(Instant, SpanSink)>) -> Rt {
        let factory = self.factory(seed, trace);
        match self.live {
            Live::Wal => Rt::Sharded(ShardedRuntime::start(
                self.sharded_cfg(),
                strategy(),
                factory,
            )),
            Live::Mem | Live::Hedge => {
                Rt::One(Runtime::start(self.runtime_cfg(), strategy(), factory))
            }
        }
    }

    /// The payloads of one round.
    fn payloads(&self, seed: u64) -> Vec<Payload> {
        let tasks = self.live.shape().tasks;
        match self.live {
            Live::Mem => {
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
                let formula = Arc::new(random_3sat(
                    ThreeSatConfig {
                        num_vars: SAT_VARS,
                        clause_ratio: 4.26,
                    },
                    &mut rng,
                ));
                decompose(SAT_VARS, tasks)
                    .into_iter()
                    .map(|block| Payload::Sat {
                        formula: formula.clone(),
                        block,
                    })
                    .collect()
            }
            Live::Wal | Live::Hedge => vec![zero_work(); tasks],
        }
    }

    fn round(&self, index: u64, traced: bool, checks: &mut Vec<Check>) -> (Round, Tracer) {
        let seed = mix(self.seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let origin = Instant::now();
        let mut tracer = Tracer::new(traced, origin);
        let sink: SpanSink = Arc::new(Mutex::new(Vec::new()));
        let mut round = Round {
            traced,
            workers: match self.live.shape().workers {
                Some(n) => n,
                None => Threads::Auto.get(),
            },
            ..Round::default()
        };

        let payloads = self.payloads(seed);
        if self.live == Live::Wal {
            reset_dir(&self.wal_dir);
        }
        let trace = traced.then(|| (origin, sink.clone()));
        let (runtime, start_s) = tracer.time(Layer::Start, || self.start(seed, trace));
        round.start_s = start_s;
        round.setup_s = origin.elapsed().as_secs_f64();
        let epoch_s = round.setup_s;

        let client = runtime.client();
        let served_from = Instant::now();
        let served = serve(
            &client,
            payloads,
            self.live.shape().window,
            &mut tracer,
            &mut round,
        );
        round.serve_s = served_from.elapsed().as_secs_f64();
        drop(client);

        let (runs, finish_s) = tracer.time(Layer::Finish, || runtime.finish());
        round.finish_s = finish_s;
        if traced {
            let spans = std::mem::take(&mut *sink.lock().expect("no worker panicked"));
            tracer.extend(spans);
        }

        self.check_round(seed, &served, &runs, &mut tracer, &mut round, checks);
        if traced {
            self.layer_stats(&served, &runs, epoch_s, &tracer, &mut round);
            if self.live == Live::Wal {
                round.sync_append_us = self.probe_synced_appends(&runs[0].journal, &mut tracer);
            }
        }
        // A cold restart is short and jittery, so it is repeated; WAL
        // recovery replays the whole round and runs once.
        if self.live == Live::Wal {
            let sample = self.restart(seed, &mut tracer, &mut round, checks);
            round.restarts.push(sample);
        } else {
            // Each cold restart draws other votes, so the pooled median
            // covers the spread of wave counts a fresh task can take.
            for i in 0..COLD_RESTARTS {
                let seed = mix(seed ^ (i as u64 + 1));
                let sample = self.restart(seed, &mut tracer, &mut round, checks);
                round.restarts.push(sample);
            }
        }
        (round, tracer)
    }

    fn check_round(
        &self,
        seed: u64,
        served: &[Served],
        runs: &[RuntimeRun],
        tracer: &mut Tracer,
        round: &mut Round,
        checks: &mut Vec<Check>,
    ) {
        let mut mismatched = 0u64;
        for s in served {
            let v = &s.verdict;
            match v.vote {
                Some(vote) => {
                    round.decided += 1;
                    round.correct += u64::from(vote);
                    round.jobs += u64::from(v.jobs);
                    if (v.jobs, vote) != reference(seed, v.task) {
                        mismatched += 1;
                    }
                }
                None if v.poisoned => round.failures.poisoned += 1,
                None => round.failures.capped += 1,
            }
        }
        checks.push(Check::new(
            "verdicts match the pure (seed, task, replica) vote draws",
            mismatched == 0,
        ));
        let admitted = round.attempted - round.failures.shed;
        checks.push(Check::new(
            "each admitted task gets exactly one verdict",
            served.len() as u64 == admitted && round.failures.verdictless == 0,
        ));

        let mut replay_ok = true;
        for run in runs {
            let (replayed, fold_s) = tracer.time(Layer::Fold, || report_from_journal(&run.journal));
            round.fold_s += fold_s;
            replay_ok &= replayed == run.report && !run.crashed;
            round.journal_events += run.journal.len() as u64;
            round.timeouts += run.report.timeouts;
            round.retries += run.report.retries;
            round.stale += run.report.stale_replies;
            round.hedges[0] += run.report.hedges_launched;
            round.hedges[1] += run.report.hedges_won;
            round.hedges[2] += run.report.hedges_wasted;
        }
        checks.push(Check::new(
            "report_from_journal(&run.journal) == run.report",
            replay_ok,
        ));
        let decided: u64 = runs
            .iter()
            .map(|r| {
                (r.report.tasks_completed + r.report.tasks_capped + r.report.tasks_poisoned) as u64
            })
            .sum();
        checks.push(Check::new(
            "the runtime decided exactly the tasks the client saw",
            decided == served.len() as u64,
        ));
        if self.live == Live::Wal {
            round.wal_bytes = dir_bytes(&self.wal_dir);
        }
    }

    /// Restarts and serves one fresh task: from the WAL on `live_wal`, a
    /// cold start otherwise. Returns the time to that task's verdict, the
    /// time of the restart call, and the events replayed.
    fn restart(
        &self,
        seed: u64,
        tracer: &mut Tracer,
        round: &mut Round,
        checks: &mut Vec<Check>,
    ) -> (f64, f64, f64) {
        let t0 = Instant::now();
        let (runtime, client, replayed, call_s) = match self.live {
            Live::Wal => {
                let (recovered, call_s) = tracer.time(Layer::Recover, || {
                    ShardedRuntime::recover(
                        self.sharded_cfg(),
                        strategy(),
                        self.factory(seed, None),
                        &[],
                    )
                });
                match recovered {
                    Ok((runtime, client, reports)) => {
                        let replayed = reports.iter().map(|r| r.events_replayed).sum::<usize>();
                        (Rt::Sharded(runtime), Cl::Sharded(client), replayed, call_s)
                    }
                    Err(err) => {
                        eprintln!("perfbench: recovery failed: {err}");
                        checks.push(Check::new("the WAL recovers", false));
                        round.failures.verdictless += 1;
                        return (0.0, call_s, 0.0);
                    }
                }
            }
            Live::Mem | Live::Hedge => {
                let (runtime, call_s) = tracer.time(Layer::Recover, || self.start(seed, None));
                let client = runtime.client();
                (runtime, client, 0, call_s)
            }
        };
        round.attempted += 1;
        let outcome = client.submit(zero_work());
        let task = match outcome {
            SubmitOutcome::Accepted { task } | SubmitOutcome::Queued { task } => task,
            SubmitOutcome::Shed => NO_TASK,
        };
        let verdict = if task == NO_TASK { None } else { client.recv() };
        let recover_s = t0.elapsed().as_secs_f64();
        drop(client);
        let runs = runtime.finish();
        let expected = reference(seed, task);
        let ok = verdict
            .is_some_and(|v| v.task == task && (v.jobs, v.vote) == (expected.0, Some(expected.1)));
        if !ok {
            round.failures.verdictless += 1;
        }
        checks.push(Check::new(
            "the restarted runtime serves a fresh task correctly",
            ok && runs.iter().all(|r| !r.crashed),
        ));
        (recover_s, call_s, replayed as f64)
    }

    /// Appends the first events of `journal` to a fresh WAL that
    /// `fdatasync`s every append, and returns each append's time in us:
    /// the durable-append cost the flush-only workload leaves out.
    fn probe_synced_appends(&self, journal: &Journal, tracer: &mut Tracer) -> Vec<f64> {
        let path = self.wal_dir.join("synced-probe.jsonl");
        let mut times = Vec::with_capacity(SYNC_PROBE_EVENTS);
        match WalWriter::create(&path, true) {
            Ok(mut wal) => {
                for event in journal.events().iter().take(SYNC_PROBE_EVENTS) {
                    let (appended, secs) = tracer.time(Layer::WalAppend, || wal.append(event));
                    if let Err(err) = appended {
                        eprintln!("perfbench: synced WAL append failed: {err}");
                        break;
                    }
                    times.push(secs * 1e6);
                }
            }
            Err(err) => eprintln!("perfbench: cannot create {}: {err}", path.display()),
        }
        let _ = std::fs::remove_file(&path);
        times
    }

    /// Per-layer numbers of a traced round: span durations, and the split
    /// of client latency. The coordinators' journal clocks start inside
    /// `start`; `epoch_s` (when `start` returned, on the round's clock)
    /// stands in for their zero, off by at most the `start` call's length.
    fn layer_stats(
        &self,
        served: &[Served],
        runs: &[RuntimeRun],
        epoch_s: f64,
        tracer: &Tracer,
        round: &mut Round,
    ) {
        round.submit_us = tracer
            .durations(Layer::Submit)
            .iter()
            .map(|s| s * 1e6)
            .collect();
        round.execute_us = tracer
            .durations(Layer::Execute)
            .iter()
            .map(|s| s * 1e6)
            .collect();
        round.recv_blocked_s = tracer.durations(Layer::Recv).iter().sum();

        let sent: HashMap<u32, &Served> = served.iter().map(|s| (s.verdict.task, s)).collect();
        let mut split = [0.0f64; 4];
        let mut n = 0usize;
        for run in runs {
            for (task, (dispatch, verdict)) in decision_stamps(&run.journal) {
                let Some(s) = sent.get(&task) else { continue };
                let submit = s.sent.submit_end - s.sent.submit_start;
                let admit = epoch_s + dispatch - s.sent.submit_end;
                let d2v = verdict - dispatch;
                let rest = s.recv_end - (epoch_s + verdict);
                for (acc, part) in split.iter_mut().zip([submit, admit, d2v, rest]) {
                    *acc += part;
                }
                n += 1;
            }
        }
        if n > 0 {
            round.split_ms = split.map(|s| s * 1e3 / n as f64);
        }
    }
}

/// First-dispatch and decision stamps (journal seconds) of every decided
/// task.
fn decision_stamps(journal: &Journal) -> HashMap<u32, (f64, f64)> {
    let mut first: HashMap<u32, f64> = HashMap::new();
    let mut out = HashMap::new();
    for e in journal.events() {
        match e.event {
            RunEvent::JobDispatched { task, .. } => {
                first.entry(task).or_insert(e.at.as_units());
            }
            RunEvent::VerdictReached { task, .. } => {
                if let Some(&d) = first.get(&task) {
                    out.insert(task, (d, e.at.as_units()));
                }
            }
            _ => {}
        }
    }
    out
}

/// Closed loop: keep `window` tasks outstanding, one submission per
/// received verdict, then drain.
fn serve(
    client: &Cl,
    payloads: Vec<Payload>,
    window: usize,
    tracer: &mut Tracer,
    round: &mut Round,
) -> Vec<Served> {
    let mut pending: HashMap<u32, Sent> = HashMap::with_capacity(window * 2);
    let mut served = Vec::with_capacity(payloads.len());
    for payload in payloads {
        while pending.len() >= window {
            if !receive(client, tracer, &mut pending, round, &mut served) {
                return served;
            }
        }
        round.attempted += 1;
        let t0 = Instant::now();
        let outcome = client.submit(payload);
        let t1 = Instant::now();
        match outcome {
            SubmitOutcome::Accepted { task } | SubmitOutcome::Queued { task } => {
                tracer.record(Layer::Submit, task, t0, t1);
                let origin = tracer.origin();
                pending.insert(
                    task,
                    Sent {
                        submit_start: (t0 - origin).as_secs_f64(),
                        submit_end: (t1 - origin).as_secs_f64(),
                    },
                );
            }
            SubmitOutcome::Shed => round.failures.shed += 1,
        }
    }
    while !pending.is_empty() {
        if !receive(client, tracer, &mut pending, round, &mut served) {
            break;
        }
    }
    served
}

/// Receives one verdict; `false` when none came (every pending task is
/// then counted verdict-less).
fn receive(
    client: &Cl,
    tracer: &mut Tracer,
    pending: &mut HashMap<u32, Sent>,
    round: &mut Round,
    served: &mut Vec<Served>,
) -> bool {
    let t0 = Instant::now();
    let Some(verdict) = client.recv() else {
        round.failures.verdictless += pending.len() as u64;
        pending.clear();
        return false;
    };
    let t1 = Instant::now();
    tracer.record(Layer::Recv, verdict.task, t0, t1);
    match pending.remove(&verdict.task) {
        Some(sent) => {
            let recv_end = (t1 - tracer.origin()).as_secs_f64();
            round.latency_ms.push((recv_end - sent.submit_start) * 1e3);
            round.d2v_ms.push(verdict.latency_units * 1e3);
            served.push(Served {
                sent,
                recv_end,
                verdict,
            });
        }
        // A second verdict for a task, or one never submitted.
        None => round.failures.verdictless += 1,
    }
    true
}

fn zero_work() -> Payload {
    Payload::Synthetic {
        answer: true,
        work: Duration::ZERO,
    }
}

fn reset_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create the WAL directory");
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn per_k(count: u64, tasks: u64) -> f64 {
    if tasks == 0 {
        0.0
    } else {
        count as f64 * 1000.0 / tasks as f64
    }
}

/// Runs `live` for `seconds`; in a traced run, rounds alternate between
/// untraced and traced so both see the same conditions.
pub fn run(
    live: Live,
    seed: u64,
    seconds: f64,
    traced: bool,
    wal_dir: &Path,
    trace_file: &Path,
) -> Outcome {
    let bench = Bench {
        live,
        seed,
        wal_dir: wal_dir.to_path_buf(),
        shards: Threads::Auto.get().max(1),
    };
    let began = Instant::now();
    let mut checks = Vec::new();
    let mut rounds: Vec<Round> = Vec::new();
    let mut trace_written = false;
    let mut peak_rss_mb = None;
    let min_rounds = if traced { 4 } else { 3 };
    let mut index = 0u64;
    while rounds.len() < min_rounds || began.elapsed().as_secs_f64() < seconds {
        let trace_this = traced && index % 2 == 1;
        let (round, tracer) = bench.round(index, trace_this, &mut checks);
        if trace_this && !trace_written {
            let header = format!(
                "{{\"workload\": \"{}\", \"seed\": {seed}, \"round\": {index}, \"spans\": {}}}",
                name(live),
                tracer.spans().len()
            );
            if let Err(err) = tracer.write_jsonl(trace_file, &header, TRACE_FILE_SPANS) {
                eprintln!("perfbench: cannot write {}: {err}", trace_file.display());
            }
            trace_written = true;
        }
        rounds.push(round);
        index += 1;
        if rounds.len() == PEAK_AFTER_ROUNDS {
            peak_rss_mb = crate::metrics::peak_rss_mb();
        }
    }
    summarize(live, &rounds, traced, checks, peak_rss_mb.unwrap_or(0.0))
}

/// The workload's name on the command line.
pub fn name(live: Live) -> &'static str {
    match live {
        Live::Mem => "live_mem",
        Live::Wal => "live_wal",
        Live::Hedge => "live_hedge",
    }
}

fn summarize(
    live: Live,
    rounds: &[Round],
    traced: bool,
    checks: Vec<Check>,
    peak_rss_mb: f64,
) -> Outcome {
    let mut failures = Failures::default();
    let mut attempted = 0;
    for r in rounds {
        failures.add(r.failures);
        attempted += r.attempted;
    }
    let plain: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let rate = |rs: &[&Round]| {
        median(
            &rs.iter()
                .map(|r| r.decided as f64 / r.serve_s)
                .collect::<Vec<_>>(),
        )
    };
    // Latency percentiles are taken per round and their median reported:
    // rounds are alike in size, so the tail percentile is the same in
    // every round and every run, and one stalled round cannot set it.
    let per_round = |f: &dyn Fn(&Sample) -> f64| {
        median(
            &plain
                .iter()
                .map(|r| f(&Sample::new(r.latency_ms.clone())))
                .collect::<Vec<_>>(),
        )
    };
    let samples = live.shape().tasks;
    let tail_q = tail_quantile(samples);
    let decided: u64 = rounds.iter().map(|r| r.decided).sum();
    let correct: u64 = rounds.iter().map(|r| r.correct).sum();
    let jobs: u64 = rounds.iter().map(|r| r.jobs).sum();
    let of =
        |f: fn(&Round) -> f64, rs: &[&Round]| median(&rs.iter().map(|r| f(r)).collect::<Vec<_>>());

    let mut report = vec![format!(
        "{}: {} rounds ({} traced), {} tasks attempted, {} latency samples per round, \
         tail = p{} ({} beyond)",
        name(live),
        rounds.len(),
        rounds.len() - plain.len(),
        attempted,
        samples,
        tail_q * 100.0,
        samples_beyond(samples, tail_q),
    )];
    let metrics = if !traced {
        vec![
            ("verdicts_per_s", rate(&plain)),
            ("verdict_p50_ms", per_round(&Sample::p50)),
            ("verdict_p99_ms", per_round(&|s| s.quantile(tail_q))),
            (
                "recover_s",
                median(
                    &plain
                        .iter()
                        .flat_map(|r| r.restarts.iter().map(|s| s.0))
                        .collect::<Vec<_>>(),
                ),
            ),
            ("setup_s", of(|r| r.setup_s, &plain)),
            ("peak_rss_mb", peak_rss_mb),
            ("jobs_per_task", jobs as f64 / decided.max(1) as f64),
            ("reliability", correct as f64 / decided.max(1) as f64),
        ]
    } else {
        let t: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
        let tasks: u64 = t.iter().map(|r| r.decided).sum();
        let sum = |f: fn(&Round) -> u64| t.iter().map(|r| f(r)).sum::<u64>();
        let submit = Sample::new(t.iter().flat_map(|r| r.submit_us.iter().copied()).collect());
        let execute = Sample::new(
            t.iter()
                .flat_map(|r| r.execute_us.iter().copied())
                .collect(),
        );
        let sync_append = Sample::new(
            t.iter()
                .flat_map(|r| r.sync_append_us.iter().copied())
                .collect(),
        );
        let d2v = Sample::new(t.iter().flat_map(|r| r.d2v_ms.iter().copied()).collect());
        let admit = Sample::new(
            t.iter()
                .flat_map(|r| r.latency_ms.iter().zip(&r.d2v_ms).map(|(l, d)| l - d))
                .collect(),
        );
        let serve_s: f64 = t.iter().map(|r| r.serve_s).sum();
        let busy: f64 = t
            .iter()
            .map(|r| r.execute_us.iter().sum::<f64>() * 1e-6)
            .sum::<f64>()
            / t.iter().map(|r| r.serve_s * r.workers as f64).sum::<f64>();
        let hedges = |i: usize| t.iter().map(|r| r.hedges[i]).sum::<u64>();
        let win_ratio = if hedges(0) == 0 {
            0.0
        } else {
            hedges(1) as f64 / hedges(0) as f64
        };
        let (plain_rate, traced_rate) = (rate(&plain), rate(&t));
        let overhead = 1.0 - traced_rate / plain_rate;
        let mut split = [0.0; 4];
        for r in &t {
            for (acc, part) in split.iter_mut().zip(r.split_ms) {
                *acc += part / t.len() as f64;
            }
        }
        let total: f64 = split.iter().sum();
        report.push(format!(
            "unattributed: mean client latency {total:.4} ms = submit call {:.4} + admission {:.4} \
             + dispatch->verdict {:.4} + unattributed {:.4} ms ({:.1}%: verdict delivery and \
             client pickup)",
            split[0],
            split[1],
            split[2],
            split[3],
            100.0 * split[3] / total.max(f64::MIN_POSITIVE),
        ));
        report.push(format!(
            "tracing overhead: {:.1}% of verdicts/s ({plain_rate:.1} untraced vs {traced_rate:.1} traced)",
            overhead * 100.0
        ));
        let (coord_submit, shard_submit) = match live {
            Live::Wal => ((0.0, 0.0), (submit.p50(), submit.quantile(0.99))),
            Live::Mem | Live::Hedge => ((submit.p50(), submit.quantile(0.99)), (0.0, 0.0)),
        };
        let m = vec![
            ("runtime.coordinator.submit_us_p50", coord_submit.0),
            ("runtime.coordinator.submit_us_p99", coord_submit.1),
            ("runtime.coordinator.dispatch_to_verdict_ms_p50", d2v.p50()),
            (
                "runtime.coordinator.dispatch_to_verdict_ms_p99",
                d2v.quantile(0.99),
            ),
            ("runtime.coordinator.admit_wait_ms_p50", admit.p50()),
            (
                "runtime.coordinator.timeouts",
                per_k(sum(|r| r.timeouts), tasks),
            ),
            (
                "runtime.coordinator.retries",
                per_k(sum(|r| r.retries), tasks),
            ),
            (
                "runtime.coordinator.stale_replies",
                per_k(sum(|r| r.stale), tasks),
            ),
            ("runtime.shard.submit_us_p50", shard_submit.0),
            ("runtime.shard.submit_us_p99", shard_submit.1),
            ("runtime.shard.shed", per_k(sum(|r| r.failures.shed), tasks)),
            (
                "runtime.worker.execute_calls",
                execute.len() as f64 / tasks.max(1) as f64,
            ),
            ("runtime.worker.execute_us_p50", execute.p50()),
            ("runtime.worker.execute_us_p99", execute.quantile(0.99)),
            ("runtime.worker.busy_frac", busy),
            (
                "desim.journal.events_per_task",
                sum(|r| r.journal_events) as f64 / tasks.max(1) as f64,
            ),
            ("desim.wal.sync_append_us_p50", sync_append.p50()),
            ("desim.wal.sync_append_us_p99", sync_append.quantile(0.99)),
            (
                "desim.journal.wal_bytes_per_task",
                sum(|r| r.wal_bytes) as f64 / tasks.max(1) as f64,
            ),
            ("runtime.report.fold_s", of(|r| r.fold_s, &t)),
            (
                "runtime.recovery.recover_call_s",
                median(
                    &t.iter()
                        .flat_map(|r| r.restarts.iter().map(|s| s.1))
                        .collect::<Vec<_>>(),
                ),
            ),
            (
                "runtime.recovery.events_replayed",
                median(
                    &t.iter()
                        .flat_map(|r| r.restarts.iter().map(|s| s.2))
                        .collect::<Vec<_>>(),
                ),
            ),
            ("core.hedge.launched", per_k(hedges(0), tasks)),
            ("core.hedge.won", per_k(hedges(1), tasks)),
            ("core.hedge.wasted", per_k(hedges(2), tasks)),
            ("core.hedge.win_ratio", win_ratio),
            (
                "client.recv_wait_frac",
                t.iter().map(|r| r.recv_blocked_s).sum::<f64>() / serve_s,
            ),
            ("runtime.lifecycle.start_s", of(|r| r.start_s, &t)),
            ("runtime.lifecycle.finish_s", of(|r| r.finish_s, &t)),
            ("trace.overhead_frac", overhead),
            (
                "trace.unattributed_frac",
                split[3] / total.max(f64::MIN_POSITIVE),
            ),
        ];
        m
    };
    Outcome {
        attempted,
        failures,
        checks,
        metrics,
        report,
    }
}
