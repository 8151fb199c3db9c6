//! The event-driven DCA model of Figure 1.
//!
//! A task server subdivides the computation into tasks, creates jobs, and
//! assigns each job to a random idle node; nodes return results after a
//! stochastic duration (or hang until the server's timeout); the strategy
//! decides wave by wave whether to deploy more jobs or accept a verdict.
//!
//! Two modeling choices worth calling out:
//!
//! * **Retry priority.** Top-up waves (wave ≥ 2) jump the job queue. In a
//!   saturated system (tasks ≫ nodes, as in the paper's runs) this keeps a
//!   task's response time equal to its own execution waves rather than
//!   coupling it to global queue depth — matching both BOINC's retry
//!   prioritization and the 1–3 time-unit response times of Figure 6.
//! * **Slow jobs time out.** A job whose execution would outlast the server
//!   timeout is indistinguishable from a hang, so it resolves via the
//!   timeout path.

use rand::Rng;
use smartred_core::analysis::confidence::confidence;
use smartred_core::audit::Cartel;
use smartred_core::error::ParamError;
use smartred_core::params::Reliability;
use smartred_core::resilience::DisciplineAction;
use smartred_core::task::{self, Lifecycle, Reply, Rules, TaskHost};
use smartred_desim::engine::Simulator;
use smartred_desim::journal::{DepartureReason, FaultKind, Journal, RunEvent};
use smartred_desim::network::NetworkModel;
use smartred_desim::rng::{seeded_rng, SimRng};
use smartred_desim::time::{SimDuration, SimTime};
use smartred_desim::trace::Trace;

use crate::config::{DcaConfig, FailureConfig, TimeoutPolicy};
use crate::faults::FaultEvent;
use crate::job::{JobId, JobOutcome, JobRegistry};
use crate::metrics::DcaReport;
use crate::pool::{NodeIndex, NodePool};

/// A shared, immutable redundancy strategy driving every task of a run.
pub type SharedStrategy = task::SharedStrategy;

/// Active fault-plan effects, updated by injected events and consulted at
/// every dispatch/outcome draw. Per-node vectors are indexed by
/// [`NodeIndex`] and grown on demand (churn can add nodes after a window
/// opened; latecomers are unaffected by node-targeted windows).
#[derive(Default)]
struct ChaosState {
    hang_until: Vec<SimTime>,
    slow_until: Vec<(SimTime, f64)>,
    colluding: Vec<bool>,
    collusion_until: SimTime,
    blackout_until: SimTime,
}

impl ChaosState {
    fn hang_active(&self, node: NodeIndex, now: SimTime) -> bool {
        self.hang_until.get(node).is_some_and(|&until| until > now)
    }

    fn slow_factor(&self, node: NodeIndex, now: SimTime) -> f64 {
        match self.slow_until.get(node) {
            Some(&(until, factor)) if until > now => factor,
            _ => 1.0,
        }
    }

    fn is_colluding(&self, node: NodeIndex, now: SimTime) -> bool {
        self.collusion_until > now && self.colluding.get(node).copied().unwrap_or(false)
    }

    fn set_hang(&mut self, node: NodeIndex, until: SimTime) {
        if self.hang_until.len() <= node {
            self.hang_until.resize(node + 1, SimTime::ZERO);
        }
        if until > self.hang_until[node] {
            self.hang_until[node] = until;
        }
    }

    fn set_slow(&mut self, node: NodeIndex, until: SimTime, factor: f64) {
        if self.slow_until.len() <= node {
            self.slow_until.resize(node + 1, (SimTime::ZERO, 1.0));
        }
        self.slow_until[node] = (until, factor);
    }
}

/// The mutable world threaded through every event.
struct World {
    cfg: DcaConfig,
    pool: NodePool,
    /// Every task's lifecycle, the job queue (top-up waves jump it: retry
    /// priority) and the hedge book.
    lc: Lifecycle,
    /// Per-task common-shock draw (`FailureConfig::CommonShock`).
    shocked: Vec<bool>,
    jobs: JobRegistry,
    rng: SimRng,
    report: DcaReport,
    next_unstarted: usize,
    /// Per-region outage end times (empty unless `RegionalOutages` is
    /// configured). Node `i` belongs to region `i % regions.len()`.
    region_down_until: Vec<SimTime>,
    /// Active fault-plan effects.
    chaos: ChaosState,
    /// The adaptive cartel, prebuilt from `cfg.cartel` (lie schedule is a
    /// pure function of `(seed, task)`).
    cartel: Option<Cartel>,
    /// Cartel dormancy: members answer honestly until this time after an
    /// audit catches one of them.
    cartel_dormant_until: SimTime,
    /// Scheduler load trace (`queue_depth`, `idle_nodes`), sampled at every
    /// dispatch and resolution. Recorded only for journaled runs.
    trace: Trace,
    /// Transfer-charging network model (`cfg.network`); `None` keeps
    /// communication free and the event stream bit-identical to runs
    /// predating the model.
    network: Option<NetworkModel>,
}

type Sim = Simulator<World>;

/// Runs one DCA simulation and returns its metrics.
///
/// All randomness derives from `config.seed`; identical inputs produce
/// identical reports.
///
/// # Errors
///
/// Returns [`ParamError`] if the configuration fails
/// [`DcaConfig::validate`].
///
/// # Examples
///
/// ```
/// use std::rc::Rc;
/// use smartred_core::params::KVotes;
/// use smartred_core::strategy::Traditional;
/// use smartred_dca::config::DcaConfig;
/// use smartred_dca::sim::run;
///
/// let cfg = DcaConfig::paper_baseline(200, 50, 0.3, 42);
/// let report = run(Rc::new(Traditional::new(KVotes::new(3)?)), &cfg)?;
/// assert_eq!(report.tasks_completed, 200);
/// assert_eq!(report.cost_factor(), 3.0);
/// # Ok::<(), smartred_core::error::ParamError>(())
/// ```
pub fn run(strategy: SharedStrategy, config: &DcaConfig) -> Result<DcaReport, ParamError> {
    run_inner(strategy, config, false).map(|r| r.report)
}

/// A journaled run: the aggregate report plus the structured event journal
/// and the scheduler load trace.
#[derive(Debug)]
pub struct JournaledRun {
    /// Aggregate metrics — identical to what [`run`] returns for the same
    /// configuration (journaling never perturbs the simulation).
    pub report: DcaReport,
    /// Every state transition of the run as typed, timestamped events.
    pub journal: Journal,
    /// `queue_depth` / `idle_nodes` samples taken at each dispatch and
    /// resolution.
    pub trace: Trace,
}

/// Runs one DCA simulation with event journaling enabled.
///
/// The returned [`JournaledRun::report`] is bit-identical to [`run`] on the
/// same inputs; the journal is a pure observer.
///
/// # Errors
///
/// Returns [`ParamError`] if the configuration fails
/// [`DcaConfig::validate`].
pub fn run_journaled(
    strategy: SharedStrategy,
    config: &DcaConfig,
) -> Result<JournaledRun, ParamError> {
    run_inner(strategy, config, true)
}

fn run_inner(
    strategy: SharedStrategy,
    config: &DcaConfig,
    journaled: bool,
) -> Result<JournaledRun, ParamError> {
    config.validate()?;
    let mut rng = seeded_rng(config.seed);
    let pool = NodePool::from_config(&config.pool, &mut rng);
    let rules = Rules {
        seed: config.seed,
        timeout_units: config.timeout_units,
        reissue: config.timeout_policy == TimeoutPolicy::Reissue,
        job_cap: config.job_cap,
        retry: config.retry,
        audit: config.audit,
        // Vote-loser strikes at finalization read the votes too.
        keep_votes: config.quarantine.is_some() || config.audit.is_enabled(),
    };
    let mut world = World {
        cfg: config.clone(),
        pool,
        lc: Lifecycle::new(strategy, rules, config.hedge, config.tasks),
        shocked: Vec::with_capacity(config.tasks.min(1 << 20)),
        jobs: JobRegistry::new(),
        rng,
        report: DcaReport::new(),
        next_unstarted: 0,
        region_down_until: match config.failure {
            FailureConfig::RegionalOutages { regions, .. } => vec![SimTime::ZERO; regions],
            _ => Vec::new(),
        },
        chaos: ChaosState::default(),
        cartel: config
            .cartel
            .map(|c| Cartel::new(c.members as u32, c.lie_rate)),
        cartel_dormant_until: SimTime::ZERO,
        trace: Trace::new(),
        network: config.network.map(|n| NetworkModel::uniform(n.link)),
    };
    let mut sim = Sim::new();
    if journaled {
        sim.enable_journal();
    }
    if world.cartel.is_some() {
        // Make the standing adversary visible in the journal (and in
        // `faults_injected`), like any scheduled fault.
        world.report.faults_injected += 1;
        sim.emit(RunEvent::FaultInjected {
            kind: FaultKind::Cartel,
        });
    }
    if let FailureConfig::RegionalOutages { outage_rate, .. } = config.failure {
        if outage_rate > 0.0 {
            schedule_outage(&mut world, &mut sim);
        }
    }
    if let Some(churn) = config.churn {
        if churn.leave_rate > 0.0 {
            schedule_departure(&mut world, &mut sim);
        }
        if churn.join_rate > 0.0 {
            schedule_arrival(&mut world, &mut sim);
        }
    }
    // Inject the fault plan as first-class events: each entry becomes one
    // scheduled event that flips the corresponding chaos state (or departs
    // the crashed node) at its planned time.
    if let Some(plan) = &config.faults {
        for event in plan.events().iter().copied() {
            sim.schedule_at(SimTime::from_units(event.at()), move |world, sim| {
                inject_fault(world, sim, event);
            });
        }
    }
    task::pump(&mut world, &mut sim);
    sim.run(&mut world);
    // Graceful degradation for a starved pool: tasks that never reached a
    // verdict (every node departed/blacklisted with work still queued) are
    // settled on their best-available vote leader.
    if config.degraded_accept {
        for t in 0..world.lc.tasks.len() {
            if !world.lc.tasks[t].finished {
                accept_degraded(&mut world, &mut sim, t);
            }
        }
    }
    sim.emit(RunEvent::RunEnded);
    let c = world.lc.counters;
    let r = &mut world.report;
    (r.total_jobs, r.busy_node_units, r.timeouts, r.retries) =
        (c.jobs, c.busy_units, c.timeouts, c.retries);
    (
        r.audits,
        r.audit_failures,
        r.verdicts_voided,
        r.tasks_retallied,
    ) = (c.audits, c.audit_failures, c.verdicts_voided, c.retallied);
    (r.hedges_launched, r.hedges_won, r.hedges_wasted) =
        (c.hedges_launched, c.hedges_won, c.hedges_wasted);
    world.report.tasks_stranded =
        config.tasks - world.report.tasks_completed - world.report.tasks_capped;
    world.report.makespan_units = sim.now().as_units();
    world.report.capacity_node_units = config.pool.size as f64 * world.report.makespan_units;
    audit(&world);
    Ok(JournaledRun {
        report: world.report,
        journal: sim.take_journal(),
        trace: world.trace,
    })
}

/// End-of-run consistency audit: no task lost, the pool's idle set intact.
///
/// # Panics
///
/// Panics on violation — these are internal invariants, not user errors.
fn audit(world: &World) {
    if let Err(violation) = world.pool.check_invariants() {
        panic!("node pool invariant violated: {violation}");
    }
    let started_unfinished = world.lc.tasks.iter().filter(|t| !t.finished).count();
    let never_started = world.cfg.tasks - world.next_unstarted;
    assert_eq!(
        world.lc.unfinished,
        started_unfinished + never_started,
        "task accounting lost track of {} tasks",
        world.lc.unfinished as i64 - (started_unfinished + never_started) as i64
    );
}

/// Applies one fault-plan event to the running world.
fn inject_fault(world: &mut World, sim: &mut Sim, event: FaultEvent) {
    world.report.faults_injected += 1;
    sim.emit(RunEvent::FaultInjected {
        kind: match event {
            FaultEvent::NodeCrash { .. } => FaultKind::Crash,
            FaultEvent::HangWindow { .. } => FaultKind::Hang,
            FaultEvent::Straggler { .. } => FaultKind::Straggler,
            FaultEvent::CollusionBurst { .. } => FaultKind::Collusion,
            FaultEvent::Blackout { .. } => FaultKind::Blackout,
        },
    });
    let now = sim.now();
    match event {
        FaultEvent::NodeCrash { node, .. } => {
            if world.pool.node(node).alive {
                world.report.crashes += 1;
                sim.emit(RunEvent::NodeDeparted {
                    node: node as u32,
                    reason: DepartureReason::Crash,
                });
                let orphaned = world.pool.depart(node);
                if let Some(job) = orphaned {
                    // The node vanished mid-job: the server sees a timeout.
                    task::resolve(world, sim, job.get(), true);
                }
            }
        }
        FaultEvent::HangWindow { duration, node, .. } => {
            world
                .chaos
                .set_hang(node, now + SimDuration::from_units(duration));
        }
        FaultEvent::Straggler {
            duration,
            node,
            factor,
            ..
        } => {
            world
                .chaos
                .set_slow(node, now + SimDuration::from_units(duration), factor);
        }
        FaultEvent::CollusionBurst {
            duration, fraction, ..
        } => {
            let until = now + SimDuration::from_units(duration);
            if until > world.chaos.collusion_until {
                world.chaos.collusion_until = until;
            }
            // Draw the colluders from the seeded stream at burst start so
            // the cartel is reproducible but varies with the seed.
            world.chaos.colluding = (0..world.pool.capacity())
                .map(|_| world.rng.gen_bool(fraction))
                .collect();
        }
        FaultEvent::Blackout { duration, .. } => {
            let until = now + SimDuration::from_units(duration);
            if until > world.chaos.blackout_until {
                world.chaos.blackout_until = until;
            }
        }
    }
}

/// Creates the next task, if any remain, and queues its first wave.
fn start_next_task(world: &mut World, sim: &mut Sim) -> bool {
    if world.next_unstarted >= world.cfg.tasks {
        return false;
    }
    world.next_unstarted += 1;
    let shocked = match world.cfg.failure {
        FailureConfig::Independent | FailureConfig::RegionalOutages { .. } => false,
        FailureConfig::CommonShock { shock_probability } => world.rng.gen_bool(shock_probability),
    };
    world.shocked.push(shocked);
    // The honest value is `true`: a vote's value is whether it was correct.
    task::open(world, sim, true);
    true
}

/// Graceful degradation: settles a task on its current vote leader with
/// the Bayesian confidence `q(r, a, b)` of that verdict attached to the
/// report. Invoked at the job cap and at pool starvation under
/// [`DcaConfig::degraded_accept`]. Returns `false` (task untouched) when
/// there is no leader to accept.
fn accept_degraded(world: &mut World, sim: &mut Sim, t: usize) -> bool {
    let tally = world.lc.tasks[t].exec.tally();
    let Some((&v, a)) = tally.leader() else {
        return false;
    };
    let b = tally.runner_up_count();
    // The server never knows true per-node reliability; the pool's mean is
    // its best estimate of r. A fully starved pool gives no information, so
    // fall back to the uninformative prior r = 1/2 (confidence 1/2).
    let r_est = if world.pool.alive_count() == 0 {
        0.5
    } else {
        world.pool.mean_reliability().clamp(0.0, 1.0)
    };
    let r = Reliability::new(r_est).expect("mean reliability lies in [0, 1]");
    let q = confidence(r, a, b);
    world.report.tasks_degraded += 1;
    world.report.degraded_confidence.record(q);
    task::finalize(world, sim, t, Some(v), Some(q));
    true
}

impl TaskHost for World {
    fn lifecycle(&mut self) -> &mut Lifecycle {
        &mut self.lc
    }

    fn has_idle(&self) -> bool {
        self.pool.idle_count() > 0
    }

    fn claim(&mut self, t: usize) -> Option<NodeIndex> {
        let used = &self.lc.tasks[t].used_nodes;
        self.pool
            .claim_idle(self.cfg.assignment, used, &mut self.rng)
    }

    /// Draws the job's outcome and duration (slowed by the node's speed and
    /// any straggler window) and registers it on the node.
    fn place(
        &mut self,
        now: SimTime,
        t: usize,
        node: NodeIndex,
        epoch: u32,
    ) -> (usize, Option<f64>) {
        let outcome = draw_outcome(self, now, t, node);
        let (lo, hi) = self.cfg.duration_window;
        let base = if lo == hi {
            lo
        } else {
            self.rng.gen_range(lo..=hi)
        };
        let service = base * self.pool.node(node).speed * self.chaos.slow_factor(node, now);
        let job = self.jobs.dispatch(t, node, outcome, epoch);
        self.pool.node_mut(node).current_job = Some(job);
        (
            job.get(),
            (outcome != JobOutcome::NoResponse).then_some(service),
        )
    }

    /// Charges the job's input transfer when a network model is
    /// configured, journaling the `TransferStarted`/`TransferCompleted`
    /// pair; without one communication is free (the legacy event stream,
    /// bit for bit).
    fn transfer(&mut self, sim: &mut Sim, job: usize, t: usize, node: NodeIndex) -> SimDuration {
        let (Some(net), Some(cfg)) = (self.network.as_mut(), self.cfg.network) else {
            return SimDuration::ZERO;
        };
        let start = sim.now();
        let bytes = cfg.payload_bytes;
        let eta = net.begin(sim, job as u32, t as u32, node as u32, bytes, |_, _| {});
        self.report.transfers += 1;
        self.report.bytes_moved += bytes;
        eta.since(start)
    }

    fn take_job(&mut self, job: usize) -> Option<Reply> {
        self.jobs.resolve(JobId(job)).map(|slot| Reply {
            task: slot.task,
            node: slot.node,
            epoch: slot.attempt,
            value: slot.outcome == JobOutcome::Correct,
        })
    }

    fn is_resolved(&self, job: usize) -> bool {
        self.jobs.get(JobId(job)).resolved
    }

    fn release(&mut self, node: NodeIndex) {
        self.pool.release(node);
    }

    fn strike(&mut self, sim: &mut Sim, node: NodeIndex) {
        strike_node(self, sim, node);
    }

    fn consume_probation(&mut self, node: NodeIndex) -> bool {
        self.pool.node_mut(node).discipline.consume_probation()
    }

    fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    fn start_next(&mut self, sim: &mut Sim) -> bool {
        start_next_task(self, sim)
    }

    fn capped(&mut self, sim: &mut Sim, t: usize) -> bool {
        self.cfg.degraded_accept && accept_degraded(self, sim, t)
    }

    /// The cartel notices a member was caught and lies low for a while.
    fn liars_caught(&mut self, sim: &mut Sim, liars: &[NodeIndex]) {
        if let Some(cartel) = self.cfg.cartel {
            if cartel.dormancy_units > 0.0 && liars.iter().any(|&n| n < cartel.members) {
                let until = sim.now() + SimDuration::from_units(cartel.dormancy_units);
                if until > self.cartel_dormant_until {
                    self.cartel_dormant_until = until;
                }
            }
        }
    }

    fn record_decided(&mut self, sim: &mut Sim, t: usize, verdict: Option<bool>, audited: bool) {
        let state = &mut self.lc.tasks[t];
        let Some(v) = verdict else {
            self.report.tasks_capped += 1;
            return;
        };
        let report = &mut self.report;
        report.tasks_completed += 1;
        if v {
            report.tasks_correct += 1;
        }
        report
            .jobs_per_task
            .record(state.exec.jobs_deployed() as f64);
        report.waves_per_task.record(state.exec.waves() as f64);
        let started = state.started_at.unwrap_or_else(|| sim.now());
        report
            .response_time
            .record(sim.now().since(started).as_units());
        // Under a quarantine policy, nodes whose vote lost the election earn
        // a strike: repeated vote-losers are the simulation's stand-in for
        // the server's result-validation blacklist. An audited task already
        // charged its liars weighted strikes, so it is exempt.
        if self.cfg.quarantine.is_some() && !audited {
            for (node, voted) in std::mem::take(&mut state.votes) {
                if voted != v {
                    strike_node(self, sim, node);
                }
            }
        }
    }

    fn sample_load(&mut self, sim: &Sim) {
        if sim.journal().is_enabled() {
            let now = sim.now();
            self.trace
                .record(now, "queue_depth", self.lc.queue.len() as f64);
            self.trace
                .record(now, "idle_nodes", self.pool.idle_count() as f64);
        }
    }
}

/// Registers a strike against a node and applies the discipline the
/// quarantine policy demands. No-op without a policy or for departed
/// nodes.
fn strike_node(world: &mut World, sim: &mut Sim, node: NodeIndex) {
    let Some(policy) = world.cfg.quarantine else {
        return;
    };
    if !world.pool.node(node).alive {
        return;
    }
    match world.pool.node_mut(node).discipline.strike(&policy) {
        DisciplineAction::None => {}
        DisciplineAction::Quarantine => {
            world.report.quarantines += 1;
            sim.emit(RunEvent::NodeQuarantined { node: node as u32 });
            world.pool.quarantine(node);
            sim.schedule_in(
                SimDuration::from_units(policy.quarantine_units),
                move |world, sim| {
                    sim.emit(RunEvent::NodeReleased { node: node as u32 });
                    world.pool.unquarantine(node);
                    // Re-admission is probationary: the node's next results
                    // each flag their task for a mandatory audit.
                    if world.cfg.audit.is_enabled() {
                        world
                            .pool
                            .node_mut(node)
                            .discipline
                            .begin_probation(world.cfg.audit.probation_audits);
                    }
                    task::pump(world, sim);
                },
            );
        }
        DisciplineAction::Blacklist => {
            world.report.blacklisted += 1;
            sim.emit(RunEvent::NodeDeparted {
                node: node as u32,
                reason: DepartureReason::Blacklist,
            });
            let orphaned = world.pool.depart(node);
            if let Some(job) = orphaned {
                // The blacklisted node's in-flight job (for some other
                // task) is discarded; the server sees a timeout.
                task::resolve(world, sim, job.get(), true);
            }
        }
    }
}

/// Draws a job's outcome from the node's fault parameters, the task's
/// shock state, and any active regional outage.
fn draw_outcome(world: &mut World, now: SimTime, task: usize, node: NodeIndex) -> JobOutcome {
    if world.chaos.blackout_until > now || world.chaos.hang_active(node, now) {
        return JobOutcome::NoResponse;
    }
    if !world.region_down_until.is_empty() {
        let region = node % world.region_down_until.len();
        if world.region_down_until[region] > now {
            return JobOutcome::NoResponse;
        }
    }
    if world.chaos.is_colluding(node, now) {
        return JobOutcome::Wrong;
    }
    if let Some(cartel) = world.cartel {
        if cartel.is_member(node as u32)
            && now >= world.cartel_dormant_until
            && cartel.lies_on(world.cfg.seed, task as u64)
        {
            return JobOutcome::Wrong;
        }
    }
    let n = world.pool.node(node);
    if world.shocked[task] && n.wrong_rate > 0.0 {
        return JobOutcome::Wrong;
    }
    let u: f64 = world.rng.gen();
    if u < n.unresponsive_rate {
        JobOutcome::NoResponse
    } else if u < n.unresponsive_rate + n.wrong_rate {
        JobOutcome::Wrong
    } else {
        JobOutcome::Correct
    }
}

/// Schedules the next regional outage (Poisson process): a random region
/// goes silent for the configured duration.
fn schedule_outage(world: &mut World, sim: &mut Sim) {
    let FailureConfig::RegionalOutages {
        outage_rate,
        outage_duration,
        ..
    } = world.cfg.failure
    else {
        unreachable!("outages scheduled only under RegionalOutages");
    };
    let delay = exponential_delay(&mut world.rng, outage_rate);
    sim.schedule_in(delay, move |world, sim| {
        if world.lc.unfinished == 0 {
            return;
        }
        let region = world.rng.gen_range(0..world.region_down_until.len());
        let until = sim.now() + SimDuration::from_units(outage_duration);
        world.report.outages += 1;
        sim.emit(RunEvent::OutageStarted {
            region: region as u32,
        });
        if until > world.region_down_until[region] {
            world.region_down_until[region] = until;
        }
        schedule_outage(world, sim);
    });
}

fn exponential_delay(rng: &mut SimRng, rate: f64) -> SimDuration {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    SimDuration::from_units(-u.ln() / rate)
}

/// Schedules the next volunteer departure (Poisson process).
fn schedule_departure(world: &mut World, sim: &mut Sim) {
    let rate = world.cfg.churn.expect("churn configured").leave_rate;
    let delay = exponential_delay(&mut world.rng, rate);
    sim.schedule_in(delay, |world, sim| {
        if world.lc.unfinished == 0 {
            return; // computation over; stop the churn process
        }
        if let Some(idx) = world.pool.random_alive(&mut world.rng) {
            let orphaned = world.pool.depart(idx);
            world.report.departures += 1;
            sim.emit(RunEvent::NodeDeparted {
                node: idx as u32,
                reason: DepartureReason::Churn,
            });
            if let Some(job) = orphaned {
                // The node vanished mid-job: the server sees a timeout.
                task::resolve(world, sim, job.get(), true);
            }
        }
        schedule_departure(world, sim);
    });
}

/// Schedules the next volunteer arrival (Poisson process).
fn schedule_arrival(world: &mut World, sim: &mut Sim) {
    let rate = world.cfg.churn.expect("churn configured").join_rate;
    let delay = exponential_delay(&mut world.rng, rate);
    sim.schedule_in(delay, |world, sim| {
        if world.lc.unfinished == 0 {
            return;
        }
        let pool_cfg = world.cfg.pool;
        let idx = world.pool.spawn_node(&pool_cfg, &mut world.rng);
        world.report.arrivals += 1;
        sim.emit(RunEvent::NodeJoined { node: idx as u32 });
        task::pump(world, sim);
        schedule_arrival(world, sim);
    });
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use super::*;
    use smartred_core::analysis;
    use smartred_core::params::{KVotes, Reliability, VoteMargin};
    use smartred_core::resilience::{QuarantinePolicy, RetryPolicy};
    use smartred_core::strategy::{Iterative, Progressive, Traditional};

    use crate::config::ChurnConfig;
    use crate::faults::FaultPlan;

    fn r07() -> Reliability {
        Reliability::new(0.7).unwrap()
    }

    #[test]
    fn traditional_cost_is_exactly_k() {
        let cfg = DcaConfig::paper_baseline(500, 100, 0.3, 1);
        let report = run(Rc::new(Traditional::new(KVotes::new(5).unwrap())), &cfg).unwrap();
        assert_eq!(report.tasks_completed, 500);
        assert_eq!(report.cost_factor(), 5.0);
        assert_eq!(report.total_jobs, 2500);
        assert_eq!(report.tasks_stranded, 0);
    }

    #[test]
    fn simulated_reliability_tracks_eq2() {
        let cfg = DcaConfig::paper_baseline(20_000, 500, 0.3, 2);
        let k = KVotes::new(9).unwrap();
        let report = run(Rc::new(Traditional::new(k)), &cfg).unwrap();
        let expected = analysis::traditional::reliability(k, r07());
        assert!(
            (report.reliability() - expected).abs() < 0.015,
            "{} vs {expected}",
            report.reliability()
        );
    }

    #[test]
    fn progressive_cost_tracks_eq3() {
        let cfg = DcaConfig::paper_baseline(20_000, 500, 0.3, 3);
        let k = KVotes::new(9).unwrap();
        let report = run(Rc::new(Progressive::new(k)), &cfg).unwrap();
        let expected = analysis::progressive::cost_series(k, r07());
        assert!(
            (report.cost_factor() - expected).abs() < 0.1,
            "{} vs {expected}",
            report.cost_factor()
        );
    }

    #[test]
    fn iterative_cost_and_reliability_track_eq5_eq6() {
        let cfg = DcaConfig::paper_baseline(20_000, 500, 0.3, 4);
        let d = VoteMargin::new(4).unwrap();
        let report = run(Rc::new(Iterative::new(d)), &cfg).unwrap();
        let cost = analysis::iterative::cost(d, r07());
        let rel = analysis::iterative::reliability(d, r07());
        assert!(
            (report.cost_factor() - cost).abs() < 0.15,
            "{} vs {cost}",
            report.cost_factor()
        );
        assert!((report.reliability() - rel).abs() < 0.015);
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = DcaConfig::paper_baseline(300, 50, 0.3, 77);
        let s = || Rc::new(Iterative::new(VoteMargin::new(3).unwrap()));
        let a = run(s(), &cfg).unwrap();
        let b = run(s(), &cfg).unwrap();
        assert_eq!(a, b);
    }

    /// A config with enough node-speed spread to make stragglers, and a
    /// hedge trigger warm enough to fire on them.
    fn hedged_config(seed: u64) -> DcaConfig {
        use smartred_core::hedge::HedgePolicy;
        let mut cfg = DcaConfig::paper_baseline(300, 60, 0.3, seed);
        cfg.pool.speed_window = (1.0, 4.0);
        cfg.timeout_units = 10.0;
        cfg.hedge = Some(HedgePolicy {
            quantile: 0.7,
            min_samples: 10,
            multiplier: 1.0,
            max_per_task: 2,
        });
        cfg
    }

    #[test]
    fn hedging_fires_and_every_twin_settles() {
        let cfg = hedged_config(21);
        let report = run(Rc::new(Iterative::new(VoteMargin::new(3).unwrap())), &cfg).unwrap();
        assert_eq!(report.tasks_completed, 300);
        assert!(report.hedges_launched > 0, "no hedges fired");
        assert_eq!(
            report.hedges_launched,
            report.hedges_won + report.hedges_wasted,
            "every launched twin must settle exactly once"
        );
        assert!(report.total_cost() >= report.total_jobs + report.hedges_launched);
    }

    #[test]
    fn hedged_journal_replays_to_identical_report() {
        let cfg = hedged_config(22);
        let s = || Rc::new(Iterative::new(VoteMargin::new(3).unwrap()));
        let run_a = run_journaled(s(), &cfg).unwrap();
        assert!(run_a.report.hedges_launched > 0);
        assert_eq!(
            crate::replay::report_from_journal(&run_a.journal, &cfg),
            run_a.report
        );
        // Journaling is a pure observer even with hedging enabled.
        assert_eq!(run(s(), &cfg).unwrap(), run_a.report);
        // The hedged journal round-trips through JSONL bit for bit.
        let restored =
            smartred_desim::journal::Journal::from_jsonl(&run_a.journal.to_jsonl()).unwrap();
        assert_eq!(restored.digest(), run_a.journal.digest());
    }

    #[test]
    fn hedging_never_fires_before_the_estimator_warms() {
        use smartred_core::hedge::HedgePolicy;
        let mut cfg = hedged_config(23);
        // More samples demanded than the run can ever produce.
        cfg.hedge = Some(HedgePolicy {
            min_samples: u64::MAX,
            ..HedgePolicy::default()
        });
        let report = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        assert_eq!(report.hedges_launched, 0);
        assert_eq!(report.cost_factor(), 3.0);
    }

    #[test]
    fn assignment_policies_preserve_verdict_metrics() {
        use smartred_core::execution::Assignment;
        let k = KVotes::new(5).unwrap();
        for policy in Assignment::ALL {
            let mut cfg = DcaConfig::paper_baseline(200, 40, 0.3, 31);
            cfg.assignment = policy;
            let s = || Rc::new(Traditional::new(k));
            let a = run(s(), &cfg).unwrap();
            // Deterministic per policy, cost structure untouched.
            assert_eq!(a, run(s(), &cfg).unwrap(), "{}", policy.name());
            assert_eq!(a.tasks_completed, 200, "{}", policy.name());
            assert_eq!(a.cost_factor(), 5.0, "{}", policy.name());
            // Replay agrees under every policy.
            let journaled = run_journaled(s(), &cfg).unwrap();
            assert_eq!(
                crate::replay::report_from_journal(&journaled.journal, &cfg),
                journaled.report,
                "{}",
                policy.name()
            );
        }
    }

    #[test]
    fn response_time_orders_tr_pr_ir() {
        // §5.2: TR responds fastest; PR and IR pay for their waves.
        let cfg = DcaConfig::paper_baseline(5_000, 2_000, 0.3, 5);
        let k = KVotes::new(9).unwrap();
        let tr = run(Rc::new(Traditional::new(k)), &cfg).unwrap();
        let pr = run(Rc::new(Progressive::new(k)), &cfg).unwrap();
        let d = analysis::improvement::matched_margin(
            k,
            r07(),
            analysis::improvement::MarginMatch::Nearest,
        )
        .unwrap();
        let ir = run(Rc::new(Iterative::new(d)), &cfg).unwrap();
        assert!(
            tr.mean_response() < pr.mean_response(),
            "TR {} !< PR {}",
            tr.mean_response(),
            pr.mean_response()
        );
        assert!(pr.mean_response() <= ir.mean_response() * 1.05);
        // Fig. 6 magnitudes: single-wave TR sits in [1, 1.5].
        assert!(tr.mean_response() > 0.9 && tr.mean_response() < 1.6);
    }

    #[test]
    fn unresponsive_nodes_cause_timeouts() {
        let mut cfg = DcaConfig::paper_baseline(1_000, 200, 0.2, 6);
        cfg.pool.unresponsive_rate = 0.1;
        let report = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        assert!(report.timeouts > 0);
        // Timeouts count as wrong votes: effective r ≈ 0.7.
        let expected = analysis::traditional::reliability(KVotes::new(3).unwrap(), r07());
        assert!((report.reliability() - expected).abs() < 0.05);
    }

    #[test]
    fn reissue_policy_keeps_reliability_at_cost() {
        let mut cfg = DcaConfig::paper_baseline(2_000, 200, 0.0, 7);
        cfg.pool.unresponsive_rate = 0.3;
        cfg.timeout_policy = TimeoutPolicy::Reissue;
        let report = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        // Only hangs exist; re-issue hides them from the vote, so every
        // verdict is correct, at > k jobs per task.
        assert_eq!(report.reliability(), 1.0);
        assert!(report.cost_factor() > 3.0);
    }

    #[test]
    fn job_cap_caps_tasks() {
        let mut cfg = DcaConfig::paper_baseline(2_000, 200, 0.5, 8);
        cfg.job_cap = Some(6);
        let report = run(Rc::new(Iterative::new(VoteMargin::new(5).unwrap())), &cfg).unwrap();
        assert!(report.tasks_capped > 0);
        assert_eq!(report.tasks_capped + report.tasks_completed, 2_000);
    }

    #[test]
    fn common_shock_defeats_redundancy() {
        let mut cfg = DcaConfig::paper_baseline(4_000, 300, 0.3, 9);
        cfg.failure = FailureConfig::CommonShock {
            shock_probability: 0.2,
        };
        let k = KVotes::new(9).unwrap();
        let shocked = run(Rc::new(Traditional::new(k)), &cfg).unwrap();
        let baseline = run(
            Rc::new(Traditional::new(k)),
            &DcaConfig::paper_baseline(4_000, 300, 0.3, 9),
        )
        .unwrap();
        // Perfectly correlated failures are unfixable by redundancy (§2.2):
        // reliability drops by roughly the shock probability.
        assert!(shocked.reliability() < baseline.reliability() - 0.1);
    }

    #[test]
    fn churn_departures_and_arrivals_happen() {
        let mut cfg = DcaConfig::paper_baseline(3_000, 100, 0.3, 10);
        cfg.churn = Some(ChurnConfig {
            leave_rate: 0.5,
            join_rate: 0.5,
        });
        let report = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        assert!(report.departures > 0);
        assert!(report.arrivals > 0);
        assert_eq!(report.tasks_completed + report.tasks_capped, 3_000);
    }

    #[test]
    fn pool_smaller_than_wave_still_completes() {
        // k = 9 but only 4 nodes: node reuse is waived after exhaustion.
        let cfg = DcaConfig::paper_baseline(50, 4, 0.3, 11);
        let report = run(Rc::new(Traditional::new(KVotes::new(9).unwrap())), &cfg).unwrap();
        assert_eq!(report.tasks_completed, 50);
        assert_eq!(report.cost_factor(), 9.0);
    }

    #[test]
    fn rejects_invalid_config() {
        let cfg = DcaConfig::paper_baseline(0, 10, 0.3, 1);
        assert!(run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).is_err());
    }

    #[test]
    fn makespan_scales_with_load() {
        let small = DcaConfig::paper_baseline(100, 100, 0.3, 12);
        let large = DcaConfig::paper_baseline(2_000, 100, 0.3, 12);
        let s = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &small).unwrap();
        let l = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &large).unwrap();
        assert!(l.makespan_units > s.makespan_units * 5.0);
    }

    #[test]
    fn utilization_is_near_one_under_task_heavy_load() {
        // §5.2: tasks ≫ nodes means no node is ever idle. Only the final
        // drain-out (when fewer jobs remain than nodes) leaves slack.
        let cfg = DcaConfig::paper_baseline(20_000, 100, 0.3, 14);
        let report = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        assert!(
            report.utilization() > 0.97,
            "utilization {}",
            report.utilization()
        );
    }

    #[test]
    fn utilization_is_low_when_nodes_outnumber_work() {
        let cfg = DcaConfig::paper_baseline(50, 5_000, 0.3, 15);
        let report = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        assert!(
            report.utilization() < 0.2,
            "utilization {}",
            report.utilization()
        );
    }

    #[test]
    fn regional_outages_cause_correlated_timeouts() {
        let mut cfg = DcaConfig::paper_baseline(10_000, 300, 0.3, 16);
        cfg.failure = FailureConfig::RegionalOutages {
            regions: 5,
            outage_rate: 0.5,
            outage_duration: 5.0,
        };
        let report = run(Rc::new(Iterative::new(VoteMargin::new(4).unwrap())), &cfg).unwrap();
        assert!(report.outages > 0, "outages should occur");
        assert!(report.timeouts > 0, "outaged jobs hang to timeout");
        // Every task still terminates.
        assert_eq!(
            report.tasks_completed + report.tasks_capped + report.tasks_stranded,
            10_000
        );
        // Outages act as extra unreliability: cost exceeds the calm run.
        let calm = run(
            Rc::new(Iterative::new(VoteMargin::new(4).unwrap())),
            &DcaConfig::paper_baseline(10_000, 300, 0.3, 16),
        )
        .unwrap();
        assert!(report.cost_factor() > calm.cost_factor());
    }

    #[test]
    fn retry_hides_transient_timeouts_from_the_vote() {
        let mut cfg = DcaConfig::paper_baseline(1_000, 100, 0.0, 20);
        cfg.pool.unresponsive_rate = 0.2;
        // Count-as-wrong charges every hang straight to the vote…
        let base = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        // …retry-with-backoff re-deploys hangs instead of charging them.
        cfg.retry = Some(RetryPolicy::default());
        let retried = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        assert!(retried.retries > 0);
        assert!(
            retried.reliability() > base.reliability(),
            "retry {} !> base {}",
            retried.reliability(),
            base.reliability()
        );
        assert!(retried.reliability() > 0.99);
    }

    #[test]
    fn exhausted_retry_budget_falls_back_to_timeout_policy() {
        let mut cfg = DcaConfig::paper_baseline(300, 20, 0.0, 21);
        cfg.pool.unresponsive_rate = 0.5;
        cfg.retry = Some(RetryPolicy {
            max_retries: 1,
            ..RetryPolicy::default()
        });
        let report = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        // Half the jobs hang; one retry per task cannot absorb them all, so
        // post-budget timeouts land as wrong votes and cost reliability.
        assert!(report.retries > 0);
        assert!(report.reliability() < 1.0);
        assert_eq!(report.tasks_completed, 300);
    }

    #[test]
    fn quarantine_pulls_repeat_offenders_from_the_pool() {
        let mut cfg = DcaConfig::paper_baseline(2_000, 50, 0.0, 22);
        cfg.pool.unresponsive_rate = 0.3;
        cfg.quarantine = Some(QuarantinePolicy {
            strike_limit: 2,
            quarantine_units: 5.0,
            blacklist_after: 1_000,
        });
        let report = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        assert!(report.quarantines > 0);
        assert_eq!(report.blacklisted, 0);
        assert_eq!(report.tasks_completed, 2_000);
    }

    #[test]
    fn blacklisting_removes_persistent_hangers() {
        let mut cfg = DcaConfig::paper_baseline(500, 40, 0.0, 23);
        cfg.quarantine = Some(QuarantinePolicy {
            strike_limit: 1,
            quarantine_units: 0.5,
            blacklist_after: 2,
        });
        // Node 0 hangs for the whole run: every job it gets times out.
        cfg.faults = Some(FaultPlan::new().hang_window(0.0, 1e9, 0));
        let report = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        assert!(
            report.blacklisted >= 1,
            "blacklisted {}",
            report.blacklisted
        );
        assert_eq!(report.tasks_completed, 500);
        assert_eq!(report.reliability(), 1.0);
    }

    #[test]
    fn vote_losers_earn_strikes() {
        // Perfectly reliable except for colluders, so every strike comes
        // from losing a vote, not from timeouts.
        let mut cfg = DcaConfig::paper_baseline(2_000, 50, 0.3, 24);
        cfg.pool.unresponsive_rate = 0.0;
        cfg.quarantine = Some(QuarantinePolicy {
            strike_limit: 3,
            quarantine_units: 2.0,
            blacklist_after: 1_000,
        });
        let report = run(Rc::new(Traditional::new(KVotes::new(5).unwrap())), &cfg).unwrap();
        assert_eq!(report.timeouts, 0);
        assert!(report.quarantines > 0);
        // Quarantining liars raises reliability over the undisciplined run.
        let base = run(
            Rc::new(Traditional::new(KVotes::new(5).unwrap())),
            &DcaConfig::paper_baseline(2_000, 50, 0.3, 24),
        )
        .unwrap();
        assert!(
            report.reliability() >= base.reliability(),
            "disciplined {} < undisciplined {}",
            report.reliability(),
            base.reliability()
        );
    }

    #[test]
    fn degraded_accept_converts_capped_tasks_into_confident_verdicts() {
        let mut cfg = DcaConfig::paper_baseline(2_000, 200, 0.5, 8);
        cfg.job_cap = Some(6);
        let capped = run(Rc::new(Iterative::new(VoteMargin::new(5).unwrap())), &cfg).unwrap();
        assert!(capped.tasks_capped > 0);
        cfg.degraded_accept = true;
        let report = run(Rc::new(Iterative::new(VoteMargin::new(5).unwrap())), &cfg).unwrap();
        assert!(report.tasks_degraded > 0);
        assert!(report.tasks_capped < capped.tasks_capped);
        assert_eq!(report.tasks_completed + report.tasks_capped, 2_000);
        let q = report.mean_degraded_confidence();
        assert!(q > 0.0 && q <= 1.0, "confidence {q}");
    }

    #[test]
    fn fault_plan_crashes_depart_nodes_once() {
        let mut cfg = DcaConfig::paper_baseline(1_000, 50, 0.3, 25);
        cfg.faults = Some(
            FaultPlan::new()
                .crash_at(1.0, 0)
                .crash_at(1.0, 1)
                .crash_at(2.0, 0),
        );
        let report = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        assert_eq!(report.faults_injected, 3);
        // The second crash of node 0 finds it already gone.
        assert_eq!(report.crashes, 2);
        assert_eq!(report.tasks_completed, 1_000);
    }

    #[test]
    fn blackout_stalls_every_job_in_the_window() {
        let mut cfg = DcaConfig::paper_baseline(1_000, 100, 0.0, 26);
        cfg.timeout_policy = TimeoutPolicy::Reissue;
        cfg.faults = Some(FaultPlan::new().blackout(1.0, 3.0));
        let report = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        assert!(report.timeouts > 0);
        assert_eq!(report.reliability(), 1.0);
        let calm = run(
            Rc::new(Traditional::new(KVotes::new(3).unwrap())),
            &DcaConfig::paper_baseline(1_000, 100, 0.0, 26),
        )
        .unwrap();
        assert_eq!(calm.timeouts, 0);
    }

    #[test]
    fn collusion_burst_injects_correlated_wrong_votes() {
        let mut cfg = DcaConfig::paper_baseline(2_000, 100, 0.0, 27);
        cfg.faults = Some(FaultPlan::new().collusion_burst(0.5, 5.0, 0.8));
        let report = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        // Perfect nodes never lose a vote — only the cartel can.
        assert!(report.reliability() < 1.0);
        assert_eq!(report.tasks_completed, 2_000);
    }

    #[test]
    fn stragglers_run_into_the_timeout() {
        let mut cfg = DcaConfig::paper_baseline(500, 10, 0.0, 28);
        // 50× slowdown pushes durations (0.5–1.5) far past the 3-unit
        // timeout: every job node 0 receives in the window times out.
        cfg.faults = Some(FaultPlan::new().straggler(0.0, 1e9, 0, 50.0));
        let report = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        assert!(report.timeouts > 0);
        assert_eq!(report.tasks_completed, 500);
    }

    #[test]
    fn chaotic_runs_are_deterministic() {
        let mut cfg = DcaConfig::paper_baseline(800, 60, 0.3, 29);
        cfg.retry = Some(RetryPolicy::default());
        cfg.quarantine = Some(QuarantinePolicy::default());
        cfg.degraded_accept = true;
        cfg.job_cap = Some(12);
        cfg.churn = Some(ChurnConfig {
            leave_rate: 0.3,
            join_rate: 0.3,
        });
        cfg.faults = Some(
            FaultPlan::new()
                .crash_at(1.0, 3)
                .hang_window(2.0, 4.0, 5)
                .straggler(1.5, 6.0, 7, 8.0)
                .collusion_burst(3.0, 2.0, 0.4)
                .blackout(6.0, 1.0),
        );
        let s = || Rc::new(Iterative::new(VoteMargin::new(3).unwrap()));
        let a = run(s(), &cfg).unwrap();
        let b = run(s(), &cfg).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.faults_injected, 5);
    }

    #[test]
    fn audit_catches_cartel_that_replication_misses() {
        use smartred_core::audit::AuditPolicy;

        use crate::config::CartelConfig;

        // Honest nodes are perfect; the only wrong votes come from a 40%
        // coalition lying in concert on a quarter of the tasks — rarely
        // enough that vote-loser discipline cannot pin down who lied
        // (when the cartel wins the vote, the honest voters are the ones
        // struck).
        let base_cfg = |audit: AuditPolicy| {
            let mut cfg = DcaConfig::paper_baseline(2_000, 50, 0.0, 40);
            cfg.cartel = Some(CartelConfig {
                members: 20,
                lie_rate: 0.25,
                dormancy_units: 10.0,
            });
            cfg.quarantine = Some(QuarantinePolicy::default());
            cfg.audit = audit;
            cfg
        };
        let s = || Rc::new(Traditional::new(KVotes::new(3).unwrap()));
        let unaudited = run(s(), &base_cfg(AuditPolicy::disabled())).unwrap();
        assert_eq!(unaudited.audits, 0);
        assert_eq!(unaudited.verdicts_voided, 0);
        assert!(
            unaudited.reliability() < 0.97,
            "the cartel should swing verdicts, got {}",
            unaudited.reliability()
        );

        let audited = run(s(), &base_cfg(AuditPolicy::spot(0.15))).unwrap();
        assert!(audited.audits > 0);
        assert!(audited.audit_failures > 0);
        assert!(audited.verdicts_voided > 0);
        assert!(
            audited.reliability() > unaudited.reliability() + 0.02,
            "audited {} !> unaudited {} + margin",
            audited.reliability(),
            unaudited.reliability()
        );

        // Matched cost: raising replication instead (TR-5, audit-free)
        // costs more than TR-3 plus a 15% audit budget, yet the coalition
        // still beats it — the audit layer wins the frontier.
        let tr5 = run(
            Rc::new(Traditional::new(KVotes::new(5).unwrap())),
            &base_cfg(AuditPolicy::disabled()),
        )
        .unwrap();
        assert!(
            audited.total_cost() <= tr5.total_cost(),
            "audited cost {} !<= TR-5 cost {}",
            audited.total_cost(),
            tr5.total_cost()
        );
        assert!(
            audited.reliability() > tr5.reliability(),
            "audited {} !> TR-5 {}",
            audited.reliability(),
            tr5.reliability()
        );
    }

    #[test]
    fn probation_forces_audits_after_quarantine_release() {
        use smartred_core::audit::AuditPolicy;

        // spot_rate 0: every audit on the report must come from a
        // probation flag. Timeout strikes quarantine hangers; releases put
        // them on probation; their next results force audits.
        let mut cfg = DcaConfig::paper_baseline(2_000, 40, 0.0, 41);
        cfg.pool.unresponsive_rate = 0.2;
        cfg.quarantine = Some(QuarantinePolicy {
            strike_limit: 2,
            quarantine_units: 1.0,
            blacklist_after: 1_000,
        });
        cfg.audit = AuditPolicy {
            spot_rate: 0.0,
            escalated_rate: 0.0,
            probation_audits: 2,
            strike_weight: 3,
        };
        let report = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        assert!(report.quarantines > 0);
        assert!(
            report.audits > 0,
            "probationary results must flag their tasks for audit"
        );
        // Hangs never record a value, so no one can be convicted of lying
        // — but audits still void verdicts that timeouts swung to wrong
        // (CountAsWrong), rescuing those tasks.
        assert_eq!(report.audit_failures, 0);
        assert!(report.verdicts_voided > 0);
    }

    #[test]
    fn caught_cartel_dormancy_evades_further_detection() {
        use smartred_core::audit::AuditPolicy;

        use crate::config::CartelConfig;

        let run_with_dormancy = |dormancy_units: f64| {
            let mut cfg = DcaConfig::paper_baseline(2_000, 50, 0.0, 42);
            cfg.cartel = Some(CartelConfig {
                members: 20,
                lie_rate: 0.3,
                dormancy_units,
            });
            cfg.quarantine = Some(QuarantinePolicy::default());
            cfg.audit = AuditPolicy::spot(0.2);
            run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap()
        };
        let brazen = run_with_dormancy(0.0);
        let adaptive = run_with_dormancy(30.0);
        // An adaptive cartel that lies low after a member is caught gives
        // the auditor far less evidence than one that keeps lying.
        assert!(brazen.audit_failures > 0);
        assert!(
            adaptive.audit_failures < brazen.audit_failures,
            "adaptive {} !< brazen {}",
            adaptive.audit_failures,
            brazen.audit_failures
        );
    }

    #[test]
    fn audited_runs_are_deterministic() {
        use smartred_core::audit::AuditPolicy;

        use crate::config::CartelConfig;

        let mut cfg = DcaConfig::paper_baseline(800, 60, 0.2, 43);
        cfg.pool.unresponsive_rate = 0.05;
        cfg.retry = Some(RetryPolicy::default());
        cfg.quarantine = Some(QuarantinePolicy::default());
        cfg.audit = AuditPolicy::spot(0.2);
        cfg.cartel = Some(CartelConfig {
            members: 15,
            lie_rate: 0.3,
            dormancy_units: 5.0,
        });
        let s = || Rc::new(Iterative::new(VoteMargin::new(3).unwrap()));
        let a = run(s(), &cfg).unwrap();
        let b = run(s(), &cfg).unwrap();
        assert_eq!(a, b);
        assert!(a.audits > 0);
    }

    #[test]
    fn zero_outage_rate_matches_independent() {
        let mut cfg = DcaConfig::paper_baseline(2_000, 100, 0.3, 17);
        cfg.failure = FailureConfig::RegionalOutages {
            regions: 4,
            outage_rate: 0.0,
            outage_duration: 1.0,
        };
        let with = run(Rc::new(Traditional::new(KVotes::new(3).unwrap())), &cfg).unwrap();
        let without = run(
            Rc::new(Traditional::new(KVotes::new(3).unwrap())),
            &DcaConfig::paper_baseline(2_000, 100, 0.3, 17),
        )
        .unwrap();
        assert_eq!(with.outages, 0);
        assert_eq!(with.reliability(), without.reliability());
        assert_eq!(with.total_jobs, without.total_jobs);
    }
}
