//! One task lifecycle for the discrete-event simulators.
//!
//! The DCA simulator and the volunteer deployment run the same machine per
//! task: open a wave, tally the votes its jobs return, hedge a straggling
//! job with a twin, retry or charge a timeout, spot-check a verdict before
//! accepting it, and void or re-tally what an audit finds tainted. This
//! module is that machine, written once.
//!
//! A simulator embeds a [`Lifecycle`] in its world and implements
//! [`TaskHost`] for the rules that stay its own: node placement, the job
//! table, node discipline, and what a decided task means for its report.
//! Its scheduled events then drive the lifecycle through the free
//! functions here ([`open`], [`pump`], [`resolve`], [`finalize`]).
//!
//! Hooks run synchronously, at the point where the step needs them. A
//! strike that blacklists a node may resolve that node's orphaned job
//! re-entrantly, in the middle of an audit or a finalization, and the
//! journal records its events right there; a queue of deferred actions
//! would reorder them.

use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use smartred_desim::engine::Simulator;
use smartred_desim::journal::RunEvent;
use smartred_desim::rng::{backoff_duration, SimRng};
use smartred_desim::time::{SimDuration, SimTime};

use crate::audit::AuditPolicy;
use crate::execution::{TaskExecution, WaveStep};
use crate::hedge::{HedgePolicy, HedgeTrigger};
use crate::resilience::RetryPolicy;
use crate::strategy::RedundancyStrategy;

/// A shared, immutable redundancy strategy driving every task of a run.
pub type SharedStrategy = Rc<dyn RedundancyStrategy<bool>>;

/// A task suffers at most this many audit voids: a verdict that keeps
/// coming back tainted (a majority cartel with no discipline to thin it)
/// is eventually accepted as-is rather than looping forever. The live
/// runtime's coordinator applies the same cap.
pub const MAX_VOIDS: u32 = 4;

/// The per-run rules the lifecycle applies to every task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rules {
    /// Root seed (audit selection is a pure function of seed and task).
    pub seed: u64,
    /// Server timeout: a job whose service outlasts it lapses.
    pub timeout_units: f64,
    /// A lapse is abandoned and re-deployed (`true`) or charged to the
    /// vote as the wrong value (`false`).
    pub reissue: bool,
    /// Optional per-task job cap.
    pub job_cap: Option<usize>,
    /// Optional retry-with-backoff for lapses, tried before `reissue`.
    pub retry: Option<RetryPolicy>,
    /// Verdict spot-checking.
    pub audit: AuditPolicy,
    /// Record each returned vote as `(node, honest)` (audits and the
    /// host's own discipline read them).
    pub keep_votes: bool,
}

/// One task's lifecycle state.
pub struct Task {
    /// Wave-by-wave execution under the shared strategy.
    pub exec: TaskExecution<bool, SharedStrategy>,
    /// The honest value an audit recomputes.
    pub truth: bool,
    /// Bumped when an audit voids or re-tallies the task; jobs from an
    /// older epoch resolve as stale.
    epoch: u32,
    /// Lapses retried with backoff so far.
    retries: u32,
    /// Recorded `(node, honest)` votes (see [`Rules::keep_votes`]).
    pub votes: Vec<(usize, bool)>,
    /// A probation node's result landed: the verdict must be audited.
    must_audit: bool,
    /// Audit voids suffered so far (see [`MAX_VOIDS`]).
    voids: u32,
    /// Nodes that ran a job (or twin) of this task.
    pub used_nodes: Vec<usize>,
    /// First dispatch; response time spans every epoch.
    pub started_at: Option<SimTime>,
    /// Verdict reached or capped.
    pub finished: bool,
}

impl std::fmt::Debug for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Task")
            .field("epoch", &self.epoch)
            .field("jobs", &self.exec.jobs_deployed())
            .field("votes", &self.votes)
            .field("finished", &self.finished)
            .finish_non_exhaustive()
    }
}

/// Counters the lifecycle keeps for the host's report.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Jobs dispatched (hedge twins excluded).
    pub jobs: u64,
    /// Node time the dispatched jobs occupy, transfer included.
    pub busy_units: f64,
    /// Lapses charged (suppressed hedge-pair lapses excluded).
    pub timeouts: u64,
    /// Lapses retried with backoff.
    pub retries: u64,
    /// Audits performed.
    pub audits: u64,
    /// Votes an audit caught lying.
    pub audit_failures: u64,
    /// Verdicts voided by an audit.
    pub verdicts_voided: u64,
    /// Open tasks re-tallied because a caught liar touched them.
    pub retallied: u64,
    /// Hedge twins launched.
    pub hedges_launched: u64,
    /// Twins that supplied their replica's vote.
    pub hedges_won: u64,
    /// Twins whose work was discarded.
    pub hedges_wasted: u64,
}

/// Every task's lifecycle state, the job queue and the hedge book.
pub struct Lifecycle {
    rules: Rules,
    /// Tasks in creation order.
    pub tasks: Vec<Task>,
    /// Pending jobs as task indices; retry priority pushes to the front.
    pub queue: VecDeque<usize>,
    /// Report counters.
    pub counters: Counters,
    /// Tasks not yet finished, counting ones not yet opened.
    pub unfinished: usize,
    strategy: SharedStrategy,
    hedge: Option<HedgeTrigger>,
    /// Dispatch time of every job and twin, by job id.
    dispatched_at: Vec<SimTime>,
    /// Racing hedge pairs, both directions, until the first resolution.
    hedge_pair: HashMap<usize, usize>,
    /// Twins (mapped to their origin) until they settle as won or wasted.
    twin_origin: HashMap<usize, usize>,
}

impl std::fmt::Debug for Lifecycle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lifecycle")
            .field("rules", &self.rules)
            .field("tasks", &self.tasks.len())
            .field("queue", &self.queue.len())
            .field("counters", &self.counters)
            .field("unfinished", &self.unfinished)
            .finish_non_exhaustive()
    }
}

impl Lifecycle {
    /// A lifecycle for `tasks` tasks, none opened yet.
    ///
    /// # Panics
    ///
    /// Panics if `hedge` is an invalid policy (hosts validate first).
    pub fn new(
        strategy: SharedStrategy,
        rules: Rules,
        hedge: Option<HedgePolicy>,
        tasks: usize,
    ) -> Self {
        Self {
            rules,
            tasks: Vec::with_capacity(tasks.min(1 << 20)),
            queue: VecDeque::new(),
            counters: Counters::default(),
            unfinished: tasks,
            strategy,
            hedge: hedge.map(|p| HedgeTrigger::new(p).expect("hedge policy validated")),
            dispatched_at: Vec::new(),
            hedge_pair: HashMap::new(),
            twin_origin: HashMap::new(),
        }
    }

    /// Journals the tally snapshot after `value` landed in task `t`.
    fn emit_tally<H>(&self, sim: &mut Simulator<H>, t: usize, value: bool) {
        if sim.journal().is_enabled() {
            let (leader_count, runner_up) = self.tasks[t].exec.leader_counts();
            sim.emit(RunEvent::VoteTallied {
                task: t as u32,
                value,
                leader_count: leader_count as u32,
                runner_up: runner_up as u32,
            });
        }
    }

    /// Journals a wave close when task `t`'s wave has just drained.
    fn emit_wave_closed<H>(&self, sim: &mut Simulator<H>, t: usize) {
        if sim.journal().is_enabled() && self.tasks[t].exec.wave_boundary() {
            sim.emit(RunEvent::WaveClosed {
                task: t as u32,
                wave: self.tasks[t].exec.waves() as u32,
            });
        }
    }

    /// Settles a hedge twin exactly once: `won` means its result supplied
    /// the replica's vote; otherwise its work was discarded.
    fn settle_twin<H>(&mut self, sim: &mut Simulator<H>, twin: usize, t: usize, won: bool) {
        let removed = self.twin_origin.remove(&twin);
        debug_assert!(removed.is_some(), "twin settled twice");
        let (job, task) = (twin as u32, t as u32);
        if won {
            self.counters.hedges_won += 1;
            sim.emit(RunEvent::HedgeWon { job, task });
        } else {
            self.counters.hedges_wasted += 1;
            sim.emit(RunEvent::HedgeWasted { job, task });
        }
    }

    /// Feeds a genuinely resolved job's latency to the hedge estimator.
    fn observe_latency(&mut self, now: SimTime, job: usize) {
        if let Some(trigger) = self.hedge.as_mut() {
            trigger.observe(now.since(self.dispatched_at[job]).as_units());
        }
    }

    /// Books a placed job or twin on its task and returns when its result
    /// (or its lapse) is due and whether it lapses.
    fn book(
        &mut self,
        now: SimTime,
        job: usize,
        t: usize,
        node: usize,
        service: Option<f64>,
    ) -> (SimDuration, bool) {
        debug_assert_eq!(self.dispatched_at.len(), job);
        self.dispatched_at.push(now);
        self.tasks[t].used_nodes.push(node);
        let timeout = self.rules.timeout_units;
        match service {
            Some(units) if units <= timeout => (SimDuration::from_units(units), false),
            _ => (SimDuration::from_units(timeout), true),
        }
    }
}

/// A resolved job as the host's job table recorded it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reply {
    /// The job's task.
    pub task: usize,
    /// The node that ran it.
    pub node: usize,
    /// The task's epoch at dispatch.
    pub epoch: u32,
    /// The value it reports if it answers in time.
    pub value: bool,
}

/// What a simulator supplies to the lifecycle: placement, its job table,
/// node discipline, and its report. Every hook runs synchronously.
pub trait TaskHost: Sized + 'static {
    /// The lifecycle this host embeds.
    fn lifecycle(&mut self) -> &mut Lifecycle;
    /// Whether any node is idle.
    fn has_idle(&self) -> bool;
    /// Claims an idle node for a job of task `t`, if one fits.
    fn claim(&mut self, t: usize) -> Option<usize>;
    /// Draws a job of task `t` on the claimed `node`, registers it under
    /// `epoch` in the job table, and returns its id with its service time
    /// (`None`: it never answers). Ids are dense, in placement order.
    fn place(&mut self, now: SimTime, t: usize, node: usize, epoch: u32) -> (usize, Option<f64>);
    /// Starts the job's input transfer and returns how long it takes; the
    /// job's service and hedge clocks start when it lands.
    fn transfer(
        &mut self,
        _sim: &mut Simulator<Self>,
        _job: usize,
        _t: usize,
        _node: usize,
    ) -> SimDuration {
        SimDuration::ZERO
    }
    /// Marks `job` resolved and returns it, or `None` if it already was.
    fn take_job(&mut self, job: usize) -> Option<Reply>;
    /// Whether `job` has resolved.
    fn is_resolved(&self, job: usize) -> bool;
    /// Frees a node whose job resolved.
    fn release(&mut self, node: usize);
    /// Charges one strike against `node` and applies the discipline.
    fn strike(&mut self, sim: &mut Simulator<Self>, node: usize);
    /// Consumes one probation audit owed by `node`; `true` if it owed one.
    fn consume_probation(&mut self, node: usize) -> bool;
    /// The run's random stream (retry backoff jitter).
    fn rng(&mut self) -> &mut SimRng;
    /// Opens the next task when the queue runs dry; `false` if none is left.
    fn start_next(&mut self, _sim: &mut Simulator<Self>) -> bool {
        false
    }
    /// Task `t` hit its job cap; `true` if the host settled it itself.
    fn capped(&mut self, _sim: &mut Simulator<Self>, _t: usize) -> bool {
        false
    }
    /// An audit caught `liars` and has struck them.
    fn liars_caught(&mut self, _sim: &mut Simulator<Self>, _liars: &[usize]) {}
    /// Task `t` finished with `verdict` (`None`: capped); `audited` means
    /// an audit already charged its liars.
    fn record_decided(
        &mut self,
        sim: &mut Simulator<Self>,
        t: usize,
        verdict: Option<bool>,
        audited: bool,
    );
    /// Samples scheduler load after a dispatch or resolution.
    fn sample_load(&mut self, _sim: &Simulator<Self>) {}
}

/// Opens a new task with honest value `truth` and queues its first wave.
pub fn open<H: TaskHost>(w: &mut H, sim: &mut Simulator<H>, truth: bool) {
    let lc = w.lifecycle();
    let mut exec = TaskExecution::new(lc.strategy.clone());
    if let Some(cap) = lc.rules.job_cap {
        exec = exec.with_job_cap(cap);
    }
    lc.tasks.push(Task {
        exec,
        truth,
        epoch: 0,
        retries: 0,
        votes: Vec::new(),
        must_audit: false,
        voids: 0,
        used_nodes: Vec::new(),
        started_at: None,
        finished: false,
    });
    let t = lc.tasks.len() - 1;
    poll(w, sim, t, /* priority = */ false);
}

/// Greedily places queued jobs on idle nodes, opening new tasks as the
/// queue runs dry.
pub fn pump<H: TaskHost>(w: &mut H, sim: &mut Simulator<H>) {
    loop {
        if !w.has_idle() {
            return;
        }
        if w.lifecycle().queue.is_empty() && !w.start_next(sim) {
            return;
        }
        let mut placed_any = false;
        for _ in 0..w.lifecycle().queue.len() {
            if !w.has_idle() {
                return;
            }
            let Some(t) = w.lifecycle().queue.pop_front() else {
                break;
            };
            debug_assert!(
                !w.lifecycle().tasks[t].finished,
                "finished task left jobs queued"
            );
            match w.claim(t) {
                Some(node) => {
                    dispatch(w, sim, t, node);
                    placed_any = true;
                }
                None => w.lifecycle().queue.push_back(t),
            }
        }
        if !placed_any && !w.start_next(sim) {
            return;
        }
    }
}

/// Asks task `t`'s strategy what to do next and queues any new wave.
fn poll<H: TaskHost>(w: &mut H, sim: &mut Simulator<H>, t: usize, priority: bool) {
    let lc = w.lifecycle();
    if lc.tasks[t].finished {
        return;
    }
    match lc.tasks[t].exec.step_wave() {
        WaveStep::Wave { wave, jobs } => {
            sim.emit(RunEvent::WaveOpened {
                task: t as u32,
                wave: wave as u32,
                jobs: jobs as u32,
            });
            for _ in 0..jobs {
                if priority {
                    lc.queue.push_front(t);
                } else {
                    lc.queue.push_back(t);
                }
            }
        }
        WaveStep::Verdict(v) => finalize(w, sim, t, Some(v), None),
        WaveStep::Pending => {}
        WaveStep::Capped { .. } => {
            if !w.capped(sim, t) {
                finalize(w, sim, t, None, None);
            }
        }
    }
}

/// Dispatches one job of task `t` on the claimed `node`: places it,
/// schedules its resolution, and arms a hedge check once the latency
/// estimator is warm.
fn dispatch<H: TaskHost>(w: &mut H, sim: &mut Simulator<H>, t: usize, node: usize) {
    let now = sim.now();
    let epoch = w.lifecycle().tasks[t].epoch;
    let (job, service) = w.place(now, t, node, epoch);
    let lc = w.lifecycle();
    let (delay, times_out) = lc.book(now, job, t, node, service);
    lc.counters.jobs += 1;
    lc.tasks[t].started_at.get_or_insert(now);
    let lead = w.transfer(sim, job, t, node);
    w.lifecycle().counters.busy_units += (lead + delay).as_units();
    sim.emit(RunEvent::JobDispatched {
        job: job as u32,
        task: t as u32,
        node: node as u32,
        eta: now + lead + delay,
    });
    w.sample_load(sim);
    sim.schedule_in(lead + delay, move |w, sim| resolve(w, sim, job, times_out));
    // The armed check carries the dispatch epoch, so a void or re-tally
    // between arming and firing disarms it: hedges never double-fire for
    // a superseded epoch.
    let lc = w.lifecycle();
    if let Some(threshold) = lc.hedge.as_ref().and_then(HedgeTrigger::threshold) {
        if threshold < lc.rules.timeout_units {
            sim.schedule_in(lead + SimDuration::from_units(threshold), move |w, sim| {
                hedge_due(w, sim, job, t, epoch)
            });
        }
    }
}

/// Fires when `origin` reaches the hedge threshold: if it is still
/// unresolved, launches a twin of the same logical replica on another
/// node. The twin bypasses the wave accounting; the first pair member to
/// genuinely resolve supplies the replica's vote.
fn hedge_due<H: TaskHost>(w: &mut H, sim: &mut Simulator<H>, origin: usize, t: usize, epoch: u32) {
    if w.is_resolved(origin) {
        return;
    }
    let lc = w.lifecycle();
    let task = &lc.tasks[t];
    let Some(trigger) = &lc.hedge else {
        return;
    };
    if task.finished
        || task.epoch != epoch
        || task.exec.hedges_launched() >= trigger.policy().max_per_task as usize
    {
        return;
    }
    // Hedging is best-effort: no idle node, no twin.
    let Some(node) = w.claim(t) else {
        return;
    };
    let now = sim.now();
    let (twin, service) = w.place(now, t, node, epoch);
    let lc = w.lifecycle();
    let (delay, times_out) = lc.book(now, twin, t, node, service);
    lc.tasks[t].exec.note_hedge();
    lc.counters.hedges_launched += 1;
    lc.hedge_pair.insert(origin, twin);
    lc.hedge_pair.insert(twin, origin);
    lc.twin_origin.insert(twin, origin);
    // The launch replaces JobDispatched: the journal's dispatch count
    // stays equal to the strategy's deploys.
    sim.emit(RunEvent::HedgeLaunched {
        job: twin as u32,
        task: t as u32,
        origin: origin as u32,
        epoch,
    });
    // On another node the twin pays its own input transfer.
    let lead = w.transfer(sim, twin, t, node);
    sim.schedule_in(lead + delay, move |w, sim| resolve(w, sim, twin, times_out));
}

/// Resolves a job: its reply or lapse lands in its task, then the
/// scheduler pumps. Idempotent: a job already resolved (its node departed,
/// or its hedge partner won) is ignored.
pub fn resolve<H: TaskHost>(w: &mut H, sim: &mut Simulator<H>, job: usize, timed_out: bool) {
    let Some(reply) = w.take_job(job) else {
        return;
    };
    w.release(reply.node);
    let t = reply.task;
    // Dissolve the job's hedge pairing up front so exactly one member ever
    // records a vote, a strike or a lapse for the shared replica. A partner
    // still paired is still pending: the first resolution dissolves a pair.
    let lc = w.lifecycle();
    let is_twin = lc.twin_origin.contains_key(&job);
    let partner = lc.hedge_pair.remove(&job);
    if let Some(p) = partner {
        lc.hedge_pair.remove(&p);
    }
    let (finished, epoch) = (lc.tasks[t].finished, lc.tasks[t].epoch);
    let stale = !finished && reply.epoch != epoch;
    if finished || stale || (timed_out && partner.is_some()) {
        // Finished: other replicas settled the task while this one ran.
        // Stale: the job predates a void or re-tally; its reply belongs to
        // a discarded tally. Suppressed: the lapse's partner is still
        // racing and carries the replica alone. None of these vote,
        // strike or retry; a twin still owes its terminal hedge event.
        if is_twin {
            lc.settle_twin(sim, job, t, false);
        } else if stale {
            sim.emit(RunEvent::StaleReplyDropped {
                job: job as u32,
                task: t as u32,
                epoch,
            });
        }
    } else if timed_out {
        lc.observe_latency(sim.now(), job);
        if is_twin {
            lc.settle_twin(sim, job, t, false);
        }
        lc.counters.timeouts += 1;
        sim.emit(RunEvent::JobTimedOut {
            job: job as u32,
            task: t as u32,
            node: reply.node as u32,
        });
        w.strike(sim, reply.node);
        if !retry(w, sim, t) {
            let lc = w.lifecycle();
            if lc.rules.reissue {
                lc.tasks[t].exec.abandon(1);
            } else {
                // The silence counts as the colluding wrong value.
                let wrong = !lc.tasks[t].truth;
                lc.tasks[t].exec.record(wrong);
                lc.emit_tally(sim, t, wrong);
            }
            lc.emit_wave_closed(sim, t);
            poll(w, sim, t, /* priority = */ true);
        }
    } else {
        lc.observe_latency(sim.now(), job);
        if let Some(p) = partner {
            // This copy won the race: cancel the loser and free its node
            // (its scheduled resolution will find it resolved).
            let loser = w.take_job(p).expect("partner was pending");
            w.release(loser.node);
            if !is_twin {
                w.lifecycle().settle_twin(sim, p, t, false);
            }
        }
        sim.emit(RunEvent::JobReturned {
            job: job as u32,
            task: t as u32,
            node: reply.node as u32,
            value: reply.value,
        });
        let lc = w.lifecycle();
        if is_twin {
            lc.settle_twin(sim, job, t, true);
        }
        lc.tasks[t].exec.record(reply.value);
        lc.emit_tally(sim, t, reply.value);
        let honest = reply.value == lc.tasks[t].truth;
        if lc.rules.keep_votes {
            lc.tasks[t].votes.push((reply.node, honest));
        }
        if lc.rules.audit.is_enabled() && w.consume_probation(reply.node) {
            w.lifecycle().tasks[t].must_audit = true;
        }
        w.lifecycle().emit_wave_closed(sim, t);
        poll(w, sim, t, /* priority = */ true);
    }
    w.sample_load(sim);
    pump(w, sim);
}

/// Schedules a backoff-delayed re-deploy of a lapsed job under the retry
/// policy, if task `t` has retries left. Returns whether one was
/// scheduled (the lapse is then hidden from the vote).
fn retry<H: TaskHost>(w: &mut H, sim: &mut Simulator<H>, t: usize) -> bool {
    let lc = w.lifecycle();
    let Some(policy) = lc.rules.retry else {
        return false;
    };
    let attempt = lc.tasks[t].retries;
    if attempt >= policy.max_retries {
        return false;
    }
    lc.tasks[t].retries = attempt + 1;
    lc.counters.retries += 1;
    sim.emit(RunEvent::JobRetried {
        task: t as u32,
        attempt: attempt + 1,
    });
    lc.tasks[t].exec.abandon(1);
    lc.emit_wave_closed(sim, t);
    let delay = backoff_duration(
        w.rng(),
        policy.base_units,
        policy.multiplier,
        attempt,
        policy.jitter,
    );
    sim.schedule_in(delay, move |w, sim| {
        poll(w, sim, t, /* priority = */ true);
        pump(w, sim);
    });
    true
}

/// Settles task `t`: a firm verdict passes the audit gate first (a voided
/// one restarts the task instead), then the task is journaled as decided
/// (`verdict`) or capped (`None`) and handed to the host.
/// `degraded` carries the confidence of a degraded acceptance, which is
/// never audited.
pub fn finalize<H: TaskHost>(
    w: &mut H,
    sim: &mut Simulator<H>,
    t: usize,
    verdict: Option<bool>,
    degraded: Option<f64>,
) {
    let mut audited = false;
    if let (Some(v), None) = (verdict, degraded) {
        if w.lifecycle().rules.audit.is_enabled() {
            match spot_check(w, sim, t, v) {
                Audit::Skipped => {}
                Audit::Accepted => audited = true,
                Audit::Voided => return,
            }
        }
    }
    sim.emit(match verdict {
        Some(value) => RunEvent::VerdictReached {
            task: t as u32,
            value,
            degraded: degraded.is_some(),
            confidence: degraded.unwrap_or(1.0),
        },
        None => RunEvent::TaskCapped { task: t as u32 },
    });
    let lc = w.lifecycle();
    debug_assert!(!lc.tasks[t].finished);
    lc.tasks[t].finished = true;
    lc.unfinished -= 1;
    w.record_decided(sim, t, verdict, audited);
}

/// What the audit gate decided about a would-be firm verdict.
enum Audit {
    /// Not selected for audit.
    Skipped,
    /// Audited and acceptable: clean, or liars caught but outvoted.
    Accepted,
    /// Voided; the task has restarted.
    Voided,
}

/// Recomputes audited task `t` locally and acts on what it finds: liars
/// earn weighted strikes, open tasks they touched are re-tallied, and a
/// verdict they actually swung is voided and re-run.
fn spot_check<H: TaskHost>(w: &mut H, sim: &mut Simulator<H>, t: usize, v: bool) -> Audit {
    let lc = w.lifecycle();
    let policy = lc.rules.audit;
    let task = &lc.tasks[t];
    // Escalation is a pure function of the counters, so replay agrees.
    let escalated = lc.counters.audit_failures > 0;
    let selected = task.must_audit || policy.selects(lc.rules.seed, t as u64, escalated);
    if !selected || task.voids >= MAX_VOIDS {
        return Audit::Skipped;
    }
    sim.emit(RunEvent::AuditScheduled { task: t as u32 });
    lc.counters.audits += 1;
    let truth = task.truth;
    // A recorded vote is already its comparison against the honest value.
    // Lapses never recorded one and cannot be contradicted, so `liars` can
    // be empty under a wrong verdict that timeouts swung; it is voided all
    // the same.
    let liars: Vec<usize> = task
        .votes
        .iter()
        .filter(|&&(_, honest)| !honest)
        .map(|&(node, _)| node)
        .collect();
    if liars.is_empty() && v == truth {
        sim.emit(RunEvent::AuditPassed { task: t as u32 });
        lc.tasks[t].must_audit = false;
        return Audit::Accepted;
    }
    for &node in &liars {
        sim.emit(RunEvent::AuditFailed {
            task: t as u32,
            node: node as u32,
        });
        w.lifecycle().counters.audit_failures += 1;
        for _ in 0..policy.strike_weight.max(1) {
            w.strike(sim, node);
        }
    }
    w.liars_caught(sim, &liars);
    // Retaliation: every open task a caught liar touched loses its tally.
    let mut caught = liars;
    caught.sort_unstable();
    caught.dedup();
    for u in 0..w.lifecycle().tasks.len() {
        let lc = w.lifecycle();
        let other = &lc.tasks[u];
        if u == t || other.finished || !other.votes.iter().any(|(n, _)| caught.contains(n)) {
            continue;
        }
        sim.emit(RunEvent::TaskRetallied { task: u as u32 });
        lc.counters.retallied += 1;
        restart(w, sim, u);
    }
    if v == truth {
        return Audit::Accepted;
    }
    sim.emit(RunEvent::VerdictVoided { task: t as u32 });
    let lc = w.lifecycle();
    lc.counters.verdicts_voided += 1;
    lc.tasks[t].voids += 1;
    restart(w, sim, t);
    Audit::Voided
}

/// Discards task `t`'s tally and restarts it from wave 1 in a new epoch:
/// queued jobs are purged, in-flight ones turn stale, and the strategy
/// re-deploys with a fresh budget. `started_at` is kept.
fn restart<H: TaskHost>(w: &mut H, sim: &mut Simulator<H>, t: usize) {
    let lc = w.lifecycle();
    let task = &mut lc.tasks[t];
    debug_assert!(!task.finished);
    task.epoch += 1;
    task.exec.reset();
    task.votes.clear();
    task.must_audit = false;
    sim.emit(RunEvent::EpochAdvanced {
        task: t as u32,
        epoch: task.epoch,
    });
    lc.queue.retain(|&x| x != t);
    poll(w, sim, t, /* priority = */ true);
}
