//! Coordinator state reconstruction from a write-ahead-log prefix.
//!
//! The coordinator journals every event to its WAL *before* acting on it,
//! so the WAL prefix that survives a crash is a complete record of every
//! decision the dead coordinator durably made. [`rebuild`] replays that
//! prefix through the same deterministic strategy machinery
//! (`core::execution::TaskExecution`) the live coordinator runs, yielding:
//!
//! * every still-open task's exact redundancy state — votes tallied,
//!   replicas abandoned, waves opened — validated against the log (a wave
//!   the strategy would not reopen identically is reported as corruption,
//!   not silently patched);
//! * the set of *decided* tasks (verdict, cap, or poison recorded), which
//!   a restarted coordinator must never re-run or re-deliver — the
//!   exactly-once guarantee is "decision events are WAL-durable before any
//!   side effect";
//! * in-flight jobs (dispatched, never resolved) to re-arm, and opened
//!   replicas never dispatched, to dispatch;
//! * supervision state: per-node strike counters (replayed through
//!   [`NodeDiscipline::strike_at`] at the logged event times), active
//!   quarantines, blacklists, worker incarnations, per-task crash charges,
//!   and replica epochs.
//!
//! Replica indices are not journaled; they are recovered as each job's
//! per-task dispatch ordinal, which is exact because the coordinator
//! dispatches a task's replicas in index order and never journals a
//! re-dispatch. Since fault draws are keyed by `(seed, task, replica)`,
//! a re-armed replica re-executed by the recovered coordinator produces
//! the same vote the uninterrupted run would have — the invariant the
//! chaos tests pin.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;

use smartred_core::execution::{TaskExecution, WaveStep};
use smartred_core::resilience::{NodeDiscipline, PoisonPolicy, TaskDiscipline};
use smartred_core::strategy::RedundancyStrategy;
use smartred_desim::journal::{Journal, JournalParseError, RunEvent};
use smartred_desim::time::{SimDuration, SimTime};
use std::sync::Arc;

use crate::checkpoint::CheckpointState;
use crate::coordinator::RuntimeConfig;
use crate::report::RuntimeReport;

/// Why recovery failed.
#[derive(Debug)]
pub enum RecoveryError {
    /// The configuration carries no WAL path to recover from.
    NoWal,
    /// Reading or reopening the WAL file failed.
    Io(std::io::Error),
    /// A newline-terminated record is malformed — in-place file
    /// corruption, not a torn crash write (only an *unterminated* final
    /// chunk can be a torn append). The damaged segment is renamed to
    /// `<wal>.quarantined` before this is returned; the error carries the
    /// record's line, byte offset, and — when still sniffable — seq.
    Parse(JournalParseError),
    /// The event stream is internally inconsistent (e.g. a logged wave
    /// the strategy would not reopen, or an event for a decided task).
    Corrupt(String),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::NoWal => write!(f, "runtime config has no WAL path"),
            RecoveryError::Io(e) => write!(f, "WAL I/O error: {e}"),
            RecoveryError::Parse(e) => write!(f, "WAL corrupt: {e}"),
            RecoveryError::Corrupt(msg) => write!(f, "WAL replay diverged: {msg}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<std::io::Error> for RecoveryError {
    fn from(e: std::io::Error) -> Self {
        RecoveryError::Io(e)
    }
}

impl From<JournalParseError> for RecoveryError {
    fn from(e: JournalParseError) -> Self {
        RecoveryError::Parse(e)
    }
}

/// What [`crate::Runtime::recover`] did, for observability and tests.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Whether a torn final record was dropped (and truncated on resume).
    pub torn_tail: bool,
    /// Whole events replayed from the WAL prefix (the suffix only, when
    /// a checkpoint bounded the replay).
    pub events_replayed: usize,
    /// Events restored from the checkpoint snapshot instead of replayed
    /// (0 for a full-WAL replay). Checkpointed recovery keeps
    /// `events_replayed` bounded by the checkpoint interval no matter how
    /// long the run was up.
    pub checkpoint_events: u64,
    /// Open tasks whose redundancy state was rebuilt and resumed.
    pub tasks_resumed: usize,
    /// Tasks already decided in the snapshot + prefix (never re-run or
    /// re-delivered).
    pub tasks_decided: usize,
    /// Roster tasks absent from the WAL, admitted fresh under their
    /// original ids.
    pub tasks_seeded: usize,
    /// In-flight jobs re-armed for dispatch without new journal records.
    pub jobs_rearmed: usize,
    /// The recovered coordinator's starting [`RuntimeReport`] —
    /// snapshot + suffix fold, bit-identical to folding the full
    /// pre-crash history.
    pub report: RuntimeReport,
}

/// One open task's reconstructed state.
pub(crate) struct RebuiltTask<S> {
    /// The strategy execution, replayed to the exact logged point.
    pub exec: TaskExecution<bool, Arc<S>>,
    /// Replica indices issued (Σ opened-wave sizes).
    pub replicas: u32,
    /// The dispatch cursor: the replica ordinal the next dispatch will
    /// use; indices `dispatched..replicas` are still pending dispatch.
    /// (A void/re-tally jumps the cursor past its purged pending indices
    /// so ordinals — and hence fault draws — never repeat.)
    pub dispatched: u32,
    /// Timeouts charged so far (resumes the 1-based retry attempts).
    pub timeouts: u32,
    /// Worker-crash charges toward the poison limit.
    pub poison: TaskDiscipline,
    /// Current replica epoch (last `EpochAdvanced`, else 0).
    pub epoch: u32,
    /// Stamp of the task's first dispatch, for verdict latency.
    pub first_dispatch: Option<SimTime>,
    /// Dispatched-but-unresolved jobs as `(job, replica)`, in dispatch
    /// order — to re-arm without new journal records.
    pub in_flight: Vec<(u32, u32)>,
    /// Tallied returns of the current attempt as `(job, node, vote)` —
    /// the audit layer's evidence, cleared by a replayed void/re-tally.
    pub returns: Vec<(u32, u32, bool)>,
    /// Whether a probationary node's result has flagged the task for a
    /// mandatory audit that has not yet concluded clean.
    pub must_audit: bool,
    /// The current wave, when it has drained (every replica resolved, no
    /// verdict) but its `WaveClosed` never reached the log — the crash
    /// fell between the resolution and the close.
    pub unclosed_wave: Option<u32>,
}

/// Everything [`rebuild`] recovers from the WAL prefix.
pub(crate) struct Rebuilt<S> {
    /// Open tasks by id.
    pub open: HashMap<u32, RebuiltTask<S>>,
    /// Decided task ids (verdict, cap, or poison already durable).
    pub decided: HashSet<u32>,
    /// Next fresh job id (max dispatched + 1).
    pub next_job: u32,
    /// Highest task id seen, if any.
    pub max_task: Option<u32>,
    /// Per-node strike state, replayed at logged event times.
    pub discipline: HashMap<u32, NodeDiscipline>,
    /// Per-node restart incarnation high-water marks.
    pub incarnations: HashMap<u32, u32>,
    /// Nodes quarantined at the crash point, with their release stamps.
    pub quarantined_until: HashMap<u32, SimTime>,
    /// Nodes permanently blacklisted.
    pub blacklisted: HashSet<u32>,
    /// Stamp of the last replayed event (the recovered clock base).
    pub last_at: SimTime,
}

/// Replays a WAL prefix into coordinator state. See the module docs for
/// the replay rules; any divergence between the log and what the
/// deterministic strategy reproduces is [`RecoveryError::Corrupt`].
///
/// When `base` carries a checkpoint snapshot, the closed-state
/// accumulators (decided set, node discipline, incarnations,
/// quarantines, blacklist, job counter) start from the snapshot instead
/// of empty, and `journal` is the post-checkpoint suffix. Checkpoints
/// are only taken at quiescence, so the snapshot never contributes open
/// tasks or in-flight jobs.
pub(crate) fn rebuild<S>(
    journal: &Journal,
    cfg: &RuntimeConfig,
    strategy: &Arc<S>,
    base: Option<&CheckpointState>,
) -> Result<Rebuilt<S>, RecoveryError>
where
    S: RedundancyStrategy<bool>,
{
    struct Acc<S> {
        exec: TaskExecution<bool, Arc<S>>,
        replicas: u32,
        jobs_dispatched: Vec<u32>,
        /// Replica ordinal of the next dispatch. Normally the dispatch
        /// count, but a void/re-tally jumps it to `replicas` (the purged
        /// pending indices are burned, never dispatched).
        next_replica: u32,
        timeouts: u32,
        poison: TaskDiscipline,
        epoch: u32,
        first_dispatch: Option<SimTime>,
        returns: Vec<(u32, u32, bool)>,
        must_audit: bool,
        /// Last wave whose `WaveClosed` is in the log.
        closed_wave: u32,
    }
    // Charge-counting policy: never trips, so replay only counts crashes.
    // A poisoning in the log closed the task as `TaskPoisoned`; one the
    // crash cut off is re-derived from the count at startup
    // (`Coordinator::settle_resumed`).
    let charge = PoisonPolicy {
        crash_limit: u32::MAX,
    };
    let corrupt = |msg: String| Err(RecoveryError::Corrupt(msg));

    let mut open: HashMap<u32, Acc<S>> = HashMap::new();
    let mut decided: HashSet<u32> =
        base.map_or_else(HashSet::new, |s| s.decided.iter().copied().collect());
    let mut job_replica: HashMap<u32, u32> = HashMap::new();
    let mut resolved: HashSet<u32> = HashSet::new();
    let mut discipline: HashMap<u32, NodeDiscipline> =
        base.map_or_else(HashMap::new, CheckpointState::discipline_map);
    let mut incarnations: HashMap<u32, u32> =
        base.map_or_else(HashMap::new, |s| s.incarnations.iter().copied().collect());
    let mut quarantined_until: HashMap<u32, SimTime> = base.map_or_else(HashMap::new, |s| {
        s.quarantines
            .iter()
            .map(|&(n, us)| (n, SimTime::from_micros(us)))
            .collect()
    });
    let mut blacklisted: HashSet<u32> =
        base.map_or_else(HashSet::new, |s| s.blacklisted.iter().copied().collect());
    let mut next_job: u32 = base.map_or(0, |s| s.next_job);
    let mut max_task: Option<u32> = base.and_then(|s| s.decided.iter().max().copied());
    let window = cfg.strike_window.as_micros() as u64;

    for e in journal.events() {
        match e.event {
            RunEvent::WaveOpened { task, wave, jobs } => {
                if decided.contains(&task) {
                    return corrupt(format!("wave opened for decided task {task}"));
                }
                max_task = Some(max_task.map_or(task, |m| m.max(task)));
                let acc = open.entry(task).or_insert_with(|| {
                    let mut exec = TaskExecution::new(strategy.clone());
                    if let Some(cap) = cfg.job_cap {
                        exec = exec.with_job_cap(cap);
                    }
                    Acc {
                        exec,
                        replicas: 0,
                        jobs_dispatched: Vec::new(),
                        next_replica: 0,
                        timeouts: 0,
                        poison: TaskDiscipline::default(),
                        epoch: 0,
                        first_dispatch: None,
                        returns: Vec::new(),
                        must_audit: false,
                        closed_wave: 0,
                    }
                });
                let step = acc.exec.step_wave();
                let matches = matches!(
                    step,
                    WaveStep::Wave { wave: w, jobs: j }
                        if w as u32 == wave && j as u32 == jobs
                );
                if !matches {
                    return corrupt(format!(
                        "task {task}: logged wave {wave} of {jobs} jobs, but the \
                         strategy replayed a different step"
                    ));
                }
                acc.replicas += jobs;
            }
            RunEvent::JobDispatched { job, task, .. } => {
                let Some(acc) = open.get_mut(&task) else {
                    return corrupt(format!("job {job} dispatched for unknown task {task}"));
                };
                // Replica index = the per-task dispatch cursor (see module
                // docs); it must stay within the opened waves.
                let replica = acc.next_replica;
                if replica >= acc.replicas {
                    return corrupt(format!(
                        "task {task}: job {job} dispatched beyond the {} opened replicas",
                        acc.replicas
                    ));
                }
                acc.next_replica += 1;
                acc.jobs_dispatched.push(job);
                job_replica.insert(job, replica);
                if acc.first_dispatch.is_none() {
                    acc.first_dispatch = Some(e.at);
                }
                next_job = next_job.max(job + 1);
            }
            RunEvent::JobReturned {
                job,
                task,
                node,
                value,
            } => {
                let Some(acc) = open.get_mut(&task) else {
                    return corrupt(format!("job {job} returned for unknown task {task}"));
                };
                resolved.insert(job);
                acc.exec.record(value);
                acc.returns.push((job, node, value));
                // Mirror the live probation rule: a result from a node
                // fresh out of quarantine flags the task for audit.
                if cfg.audit.is_enabled() && discipline.entry(node).or_default().consume_probation()
                {
                    acc.must_audit = true;
                }
            }
            RunEvent::JobTimedOut { job, task, node } => {
                let Some(acc) = open.get_mut(&task) else {
                    return corrupt(format!("job {job} timed out for unknown task {task}"));
                };
                resolved.insert(job);
                acc.timeouts += 1;
                acc.exec.abandon(1);
                if let Some(policy) = cfg.discipline {
                    let _ = discipline.entry(node).or_default().strike_at(
                        e.at.as_micros(),
                        window,
                        &policy,
                    );
                }
            }
            RunEvent::WorkerCrashed { node, job, task } => {
                // A logged crash always resolved a live job (stale crash
                // reports are logged as StaleReplyDropped instead).
                resolved.insert(job);
                if let Some(acc) = open.get_mut(&task) {
                    let _ = acc.poison.record_crash(&charge);
                    acc.exec.abandon(1);
                }
                if let Some(policy) = cfg.discipline {
                    let _ = discipline.entry(node).or_default().strike_at(
                        e.at.as_micros(),
                        window,
                        &policy,
                    );
                }
            }
            RunEvent::WorkerRestarted { node, incarnation } => {
                let slot = incarnations.entry(node).or_insert(0);
                *slot = (*slot).max(incarnation);
            }
            RunEvent::WaveClosed { task, wave } => {
                if let Some(acc) = open.get_mut(&task) {
                    acc.closed_wave = wave;
                }
            }
            RunEvent::EpochAdvanced { task, epoch } => {
                if let Some(acc) = open.get_mut(&task) {
                    acc.epoch = epoch;
                }
            }
            RunEvent::VerdictReached { task, .. }
            | RunEvent::TaskCapped { task }
            | RunEvent::TaskPoisoned { task, .. } => {
                open.remove(&task);
                decided.insert(task);
                max_task = Some(max_task.map_or(task, |m| m.max(task)));
            }
            RunEvent::NodeQuarantined { node } => {
                if let Some(policy) = cfg.discipline {
                    quarantined_until.insert(
                        node,
                        e.at + SimDuration::from_units(policy.quarantine_units),
                    );
                }
            }
            RunEvent::NodeReleased { node } => {
                quarantined_until.remove(&node);
                if cfg.audit.is_enabled() {
                    discipline
                        .entry(node)
                        .or_default()
                        .begin_probation(cfg.audit.probation_audits);
                }
            }
            RunEvent::NodeDeparted { node, .. } => {
                blacklisted.insert(node);
                quarantined_until.remove(&node);
            }
            // An audit schedule carries no state of its own: whether the
            // recovered coordinator must re-run an interrupted audit is
            // re-derived at finalize time (selection is a pure function of
            // the seed and task id, plus the replayed `must_audit` flag).
            RunEvent::AuditScheduled { .. } => {}
            RunEvent::AuditPassed { task } => {
                // A clean conclusion releases the probation flag. (A
                // failed group keeps it set, so a crash mid-group
                // re-audits on resume rather than skipping the check.)
                if let Some(acc) = open.get_mut(&task) {
                    acc.must_audit = false;
                }
            }
            RunEvent::AuditFailed { node, .. } => {
                if let Some(policy) = cfg.discipline {
                    let weight = cfg.audit.strike_weight.max(1);
                    let _ = discipline.entry(node).or_default().strike_weighted_at(
                        weight,
                        e.at.as_micros(),
                        window,
                        &policy,
                    );
                }
            }
            RunEvent::VerdictVoided { task } | RunEvent::TaskRetallied { task } => {
                let Some(acc) = open.get_mut(&task) else {
                    return corrupt(format!("void/re-tally for unknown task {task}"));
                };
                // The attempt's evidence is burned: its dispatched jobs
                // are dead (late replies drop as stale), its purged
                // pending ordinals never dispatch, and the strategy
                // restarts from wave 1 with a fresh budget.
                for &job in &acc.jobs_dispatched {
                    resolved.insert(job);
                }
                acc.exec.reset();
                acc.returns.clear();
                acc.must_audit = false;
                acc.closed_wave = 0;
                acc.next_replica = acc.replicas;
            }
            // Hedge twins live outside the replica accounting: their
            // launch only burns a job id (kept out of the dispatch cursor
            // so replica ordinals replay unchanged), and a win already
            // journalled the vote as the origin job's return. A twin that
            // was still racing at the crash simply dies with the crash —
            // the origin replica is re-armed by the normal in-flight path.
            RunEvent::HedgeLaunched { job, .. } => {
                next_job = next_job.max(job + 1);
            }
            RunEvent::HedgeWon { .. } | RunEvent::HedgeWasted { .. } => {}
            // Tallies, retries, and stale drops carry no
            // state the strategy replay does not already reproduce; the
            // runtime never emits churn, outage, or fault-plan events.
            // DAG annotations (transfers, stage verdicts, poison marks)
            // are caller-journaled workload bookkeeping: recovery
            // preserves them in the WAL but they drive no tally state.
            RunEvent::VoteTallied { .. }
            | RunEvent::JobRetried { .. }
            | RunEvent::StaleReplyDropped { .. }
            | RunEvent::NodeJoined { .. }
            | RunEvent::OutageStarted { .. }
            | RunEvent::FaultInjected { .. }
            | RunEvent::TransferStarted { .. }
            | RunEvent::TransferCompleted { .. }
            | RunEvent::StageDecided { .. }
            | RunEvent::PoisonPropagated { .. }
            | RunEvent::RunEnded => {}
            // A checkpoint seal carries no replayable state — everything
            // it summarizes was seeded from the snapshot before replay.
            RunEvent::CheckpointTaken { .. } => {}
        }
    }

    let last_at = journal
        .events()
        .last()
        .map_or(base.map_or(SimTime::ZERO, |s| s.last_at), |e| e.at);
    let open = open
        .into_iter()
        .map(|(task, acc)| {
            let in_flight: Vec<(u32, u32)> = acc
                .jobs_dispatched
                .iter()
                .filter(|j| !resolved.contains(j))
                .map(|&j| (j, job_replica[&j]))
                .collect();
            let wave = acc.exec.waves() as u32;
            let unclosed_wave =
                (acc.exec.wave_boundary() && wave > acc.closed_wave).then_some(wave);
            (
                task,
                RebuiltTask {
                    exec: acc.exec,
                    replicas: acc.replicas,
                    dispatched: acc.next_replica,
                    timeouts: acc.timeouts,
                    poison: acc.poison,
                    epoch: acc.epoch,
                    first_dispatch: acc.first_dispatch,
                    in_flight,
                    returns: acc.returns,
                    must_audit: acc.must_audit,
                    unclosed_wave,
                },
            )
        })
        .collect();

    Ok(Rebuilt {
        open,
        decided,
        next_job,
        max_task,
        discipline,
        incarnations,
        quarantined_until,
        blacklisted,
        last_at,
    })
}

/// Orders re-armed jobs deterministically (ascending job id) regardless of
/// hash-map iteration order.
pub(crate) fn sort_rearm(rearm: &mut VecDeque<(u32, u32, u32, u32)>) {
    let mut v: Vec<_> = rearm.drain(..).collect();
    v.sort_unstable_by_key(|&(job, ..)| job);
    rearm.extend(v);
}
