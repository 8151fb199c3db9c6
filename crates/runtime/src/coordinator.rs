//! The coordinator: task admission, replica dispatch, vote tallying,
//! wall-clock deadlines, worker supervision, and verdict delivery —
//! crash-recoverable via a durable write-ahead log.
//!
//! One coordinator thread owns all redundancy state and the journal; it is
//! the only writer of either, which keeps the journal's monotone-time
//! invariant trivially true under real concurrency. Every channel in the
//! design is either bounded-and-non-blocking (submission queue, worker
//! inboxes — `try_send` only) or unbounded (results, verdicts), so no
//! cycle of blocking sends exists and the runtime cannot deadlock on its
//! own queues.
//!
//! ## Write-ahead logging
//!
//! When [`RuntimeConfig::wal`] is set, every journal record is staged
//! for the WAL as it is logged and applied to the coordinator's durable
//! state through one function, the same one [`Runtime::recover`] feeds
//! the surviving WAL prefix (tolerating a torn final record) through.
//! Once per loop iteration the coordinator commits what it staged — one
//! write, fsync'd under [`RuntimeConfig::wal_sync`] — and only then
//! delivers the verdicts the iteration decided: no verdict leaves the
//! process before its decision record is on disk. Dispatch runs ahead of
//! the commit; a job lost with its unwritten `JobDispatched` is simply
//! re-run, since workers are pure functions of `(seed, task, replica)`.
//! The recovered coordinator resumes exactly where the dead one stopped:
//! it first performs whatever the interrupted handler still owed, decided
//! tasks are never re-run or re-delivered, in-flight jobs are re-armed
//! without new journal records, and replica indices — and hence the
//! deterministic fault draws keyed by `(seed, task, replica)` — are
//! preserved.
//!
//! ## Supervision and epochs
//!
//! Each dispatched job carries its task's *replica epoch*. Replies whose
//! epoch no longer matches the coordinator's record are rejected
//! ([`RunEvent::StaleReplyDropped`]) instead of being tallied, which
//! closes the double-count window when a job is re-dispatched after a
//! hung-worker respawn, and makes the reissue-after-timeout rejection
//! explicit. Worker panics are caught in the pool, reported, and healed by
//! rebuilding the worker; tasks that repeatedly kill workers are poisoned
//! (failed) under [`smartred_core::resilience::PoisonPolicy`] rather than
//! re-issued forever. Repeated timeouts and crashes also charge node-level
//! strikes under the shared
//! [`smartred_core::resilience::QuarantinePolicy`].
//!
//! Timeout semantics mirror the simulators' `DeadlinePolicy::Reissue`:
//! a job that misses its wall-clock deadline is abandoned (its late result,
//! if any, is dropped as stale) and the strategy reopens a wave for a
//! replacement replica on a fresh RNG stream.

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use smartred_core::audit::AuditPolicy;
use smartred_core::execution::{Assignment, TaskExecution, WaveStep};
use smartred_core::hedge::{HedgePolicy, HedgeTrigger};
use smartred_core::parallel::Threads;
use smartred_core::resilience::{
    DisciplineAction, NodeDiscipline, PoisonPolicy, QuarantinePolicy, TaskDiscipline,
};
use smartred_core::strategy::RedundancyStrategy;
use smartred_core::task::MAX_VOIDS;
use smartred_desim::disk::{DiskFaultPlan, FaultyDisk};
use smartred_desim::journal::{DepartureReason, Journal, RunEvent, WalWriter};
use smartred_desim::time::{SimDuration, SimTime};

use crate::checkpoint::{checkpoint_path, CheckpointState};
use crate::recovery::{RecoveryError, RecoveryReport};
use crate::report::{fold_into, report_from_journal, RuntimeReport};
use crate::worker::{JobAssignment, JobResult, PoolEvent, Worker, WorkerPool};
use crate::workload::Payload;

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Worker-thread count; `None` resolves like the sweep engine's
    /// [`Threads::Auto`] (the `SMARTRED_THREADS` environment variable,
    /// falling back to available parallelism).
    pub workers: Option<usize>,
    /// Bounded capacity of each worker's inbox.
    pub inbox_cap: usize,
    /// Bounded capacity of the submission queue; submissions beyond it are
    /// shed at the client.
    pub queue_cap: usize,
    /// Maximum tasks in flight; submissions past it wait in the queue.
    pub max_active: usize,
    /// Wall-clock deadline per job; a miss abandons the job and reissues.
    pub deadline: Duration,
    /// Optional cap on total jobs per task; hitting it fails the task.
    pub job_cap: Option<usize>,
    /// Whether to record the run journal (forced on when `wal` is set).
    pub journal: bool,
    /// Durable write-ahead log path. When set, every event is staged for
    /// this file as the coordinator logs it, and the coordinator commits
    /// the staged records once per loop iteration — one `write` (and, with
    /// [`wal_sync`](Self::wal_sync), one `fdatasync`) — before it delivers
    /// any verdict that iteration decided. [`Runtime::recover`] can
    /// restart the run from the file.
    pub wal: Option<PathBuf>,
    /// Whether each WAL commit `fdatasync`s before the coordinator
    /// releases its verdicts (durable against power loss, not just process
    /// death). Flush-only (`false`) is faster and still survives any
    /// in-process crash.
    pub wal_sync: bool,
    /// Poison-task policy: tasks whose payload repeatedly crashes workers
    /// are failed rather than re-issued forever. `None` disables.
    pub poison: Option<PoisonPolicy>,
    /// Hung-worker threshold: a worker inside one `execute` call longer
    /// than this is respawned and its in-flight jobs re-dispatched under a
    /// fresh epoch. `None` disables hang supervision.
    pub hang_after: Option<Duration>,
    /// Node discipline: timeouts and crashes charge strikes; repeated
    /// strikes quarantine the worker, repeated quarantines blacklist it.
    /// `None` disables.
    pub discipline: Option<QuarantinePolicy>,
    /// Sliding window for strike expiry (see
    /// [`NodeDiscipline::strike_at`]).
    pub strike_window: Duration,
    /// Audit policy: spot-check verdicts against a local recomputation,
    /// charge weighted strikes for caught lies, void tainted verdicts, and
    /// re-tally open tasks the liar touched. Disabled by default.
    pub audit: AuditPolicy,
    /// Seed for the audit-selection counter stream (independent of worker
    /// fault seeds — see [`smartred_core::audit::AUDIT_STREAM`]).
    pub audit_seed: u64,
    /// Chaos hook: the coordinator "dies" abruptly after this many journal
    /// records — it commits them, delivers the verdicts that commit
    /// covers, and does nothing more: no further events, verdicts, or
    /// dispatch bookkeeping. The WAL then holds exactly the first this-many
    /// records, as a crash right after a commit leaves it. Test-only.
    pub crash_after_events: Option<u64>,
    /// First global node id of this coordinator's worker pool. A sharded
    /// runtime gives each shard's sub-pool a disjoint id span (see
    /// [`smartred_core::execution::shard_worker_span`]) so journal events
    /// and discipline records from different shards never collide; a
    /// standalone runtime leaves it 0.
    pub node_base: u32,
    /// Straggler hedging: a job that outlives the online latency-quantile
    /// estimate gets a duplicate twin on another worker; the first copy to
    /// report supplies the replica's vote and the loser is discarded.
    /// Verdict-invariant (votes are pure functions of
    /// `(seed, task, replica)`), so hedging changes *when* verdicts arrive,
    /// never what they say. `None` disables.
    pub hedge: Option<HedgePolicy>,
    /// Worker-assignment policy for dispatch. `Random` keeps the pool's
    /// historical round-robin-from-cursor scan; the deterministic
    /// alternatives order eligible workers through
    /// [`Assignment::pick`] before dispatch.
    pub assignment: Assignment,
    /// Per-record WAL checksums: each appended line carries an FNV-1a
    /// checksum of its canonical form, so recovery distinguishes a torn
    /// tail (dropped, resumed) from mid-file corruption (refused, with
    /// the damaged record's byte offset and seq). Off by default — a
    /// checksum-free WAL is byte-identical to the in-memory journal's
    /// JSONL and remains readable by older tooling.
    pub wal_checksum: bool,
    /// Checkpoint + compaction: once this many events have accumulated
    /// since the last checkpoint, the coordinator — at its next quiescent
    /// point (no open tasks, jobs, or parked work) — snapshots its state
    /// next to the WAL, truncates the log, and seals the fresh segment
    /// with a [`RunEvent::CheckpointTaken`] record. Recovery then replays
    /// snapshot + suffix instead of the whole history, so recovery time
    /// is bounded by the checkpoint interval, not uptime. `None`
    /// disables.
    pub checkpoint_every: Option<u64>,
    /// Disk-fault injection under the WAL file handle (seeded,
    /// deterministic): short writes, fsync failures, write-crash points,
    /// read-back bit flips. A WAL I/O error permanently poisons the
    /// writer and crashes the coordinator — recovery then proceeds from
    /// the durable prefix exactly as after a real power loss. Applies to
    /// the writer created by [`Runtime::start`]; [`Runtime::recover`]
    /// always reopens the real file. Test/bench only. `None` disables.
    pub disk_faults: Option<DiskFaultPlan>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            workers: None,
            inbox_cap: 64,
            queue_cap: 256,
            max_active: 256,
            deadline: Duration::from_secs(2),
            job_cap: None,
            journal: true,
            wal: None,
            wal_sync: true,
            poison: Some(PoisonPolicy::default()),
            hang_after: None,
            discipline: None,
            strike_window: Duration::from_secs(10),
            audit: AuditPolicy::disabled(),
            audit_seed: 0,
            crash_after_events: None,
            node_base: 0,
            hedge: None,
            assignment: Assignment::Random,
            wal_checksum: false,
            checkpoint_every: None,
            disk_faults: None,
        }
    }
}

/// Admission-control verdict for one submission.
///
/// Marked `#[must_use]`: silently dropping the outcome loses shed
/// notifications — a [`SubmitOutcome::Shed`] task was **not** admitted and
/// will never produce a verdict, so the caller must observe it.
#[must_use = "a Shed outcome means the task was never admitted and will produce no verdict"]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Admitted with spare in-flight capacity: dispatch begins immediately.
    Accepted {
        /// The task id assigned to the submission.
        task: u32,
    },
    /// Admitted into the bounded submission queue; dispatch starts once
    /// the in-flight task count drops below the cap. (The capacity read is
    /// advisory — a concurrent admission may reclassify, but the task is
    /// admitted either way.)
    Queued {
        /// The task id assigned to the submission.
        task: u32,
    },
    /// Load-shed: the submission queue is full (or the runtime has shut
    /// down). The task was **not** admitted; the caller owns retry policy.
    Shed,
}

/// The delivered outcome of one task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskVerdict {
    /// The task id from [`SubmitOutcome`].
    pub task: u32,
    /// The winning vote (`true` = honest answer); `None` when the task
    /// failed without a verdict (job cap or poisoning).
    pub vote: Option<bool>,
    /// The answer reported by the winning side, when a verdict was reached
    /// (`None` for verdicts resumed across a coordinator restart — votes
    /// are journaled, raw answers are not).
    pub answer: Option<bool>,
    /// Whether the task was poisoned (failed for repeatedly crashing its
    /// workers) rather than capped.
    pub poisoned: bool,
    /// First-dispatch → verdict latency, in journal units (seconds).
    pub latency_units: f64,
    /// Jobs dispatched for this task.
    pub jobs: u32,
}

/// Counts of how submissions fared at admission.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Submissions admitted with spare in-flight capacity.
    pub accepted: u64,
    /// Submissions admitted into the queue under backpressure.
    pub queued: u64,
    /// Submissions shed at a full queue.
    pub shed: u64,
}

impl AdmissionStats {
    /// Total submission attempts.
    pub fn submitted(&self) -> u64 {
        self.accepted + self.queued + self.shed
    }

    /// Fraction of submission attempts shed (0 when nothing submitted).
    pub fn shed_rate(&self) -> f64 {
        let total = self.submitted();
        if total == 0 {
            0.0
        } else {
            self.shed as f64 / total as f64
        }
    }
}

#[derive(Debug, Default)]
pub(crate) struct AdmissionCounters {
    pub(crate) accepted: AtomicU64,
    pub(crate) queued: AtomicU64,
    pub(crate) shed: AtomicU64,
}

impl AdmissionCounters {
    pub(crate) fn snapshot(&self) -> AdmissionStats {
        AdmissionStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            queued: self.queued.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
        }
    }
}

/// One admitted submission, in flight to the coordinator.
pub(crate) struct Submission {
    pub(crate) task: u32,
    pub(crate) payload: Arc<Payload>,
    pub(crate) verdict_tx: Sender<TaskVerdict>,
}

/// One client → coordinator message: a task submission, or a durable
/// annotation event to journal into the WAL (workload bookkeeping such
/// as DAG stage verdicts — no tally state, but crash-recoverable).
pub(crate) enum ClientOp {
    Submit(Submission),
    Annotate(RunEvent),
}

/// A submission handle. Clones share the runtime's admission queue but
/// each clone receives verdicts only for its own submissions.
#[derive(Debug)]
pub struct Client {
    submit_tx: SyncSender<ClientOp>,
    verdict_tx: Sender<TaskVerdict>,
    verdict_rx: Receiver<TaskVerdict>,
    next_task: Arc<AtomicU32>,
    active: Arc<AtomicUsize>,
    max_active: usize,
    counters: Arc<AdmissionCounters>,
}

impl Client {
    /// Submits one task. Never blocks: a full queue sheds the submission
    /// and returns [`SubmitOutcome::Shed`] (task ids are opaque — an id
    /// burned by a shed submission is never reused for another task).
    pub fn submit(&self, payload: Payload) -> SubmitOutcome {
        let task = self.next_task.fetch_add(1, Ordering::Relaxed);
        let submission = Submission {
            task,
            payload: Arc::new(payload),
            verdict_tx: self.verdict_tx.clone(),
        };
        match self.submit_tx.try_send(ClientOp::Submit(submission)) {
            Ok(()) => {
                if self.active.load(Ordering::Relaxed) < self.max_active {
                    self.counters.accepted.fetch_add(1, Ordering::Relaxed);
                    SubmitOutcome::Accepted { task }
                } else {
                    self.counters.queued.fetch_add(1, Ordering::Relaxed);
                    SubmitOutcome::Queued { task }
                }
            }
            Err(_) => {
                self.counters.shed.fetch_add(1, Ordering::Relaxed);
                SubmitOutcome::Shed
            }
        }
    }

    /// Journals `event` durably into the coordinator's WAL. Annotations
    /// carry no tally state — recovery preserves and ignores them — but
    /// they share the WAL's ordering and fsync guarantees (the annotation
    /// is committed with the coordinator's loop iteration, before any
    /// verdict delivered after it), so workload layers (e.g. DAG stage
    /// verdicts) can reconstruct their own bookkeeping from the same
    /// crash-consistent stream. Blocks if the admission queue is full
    /// (annotations are never shed); returns `false` once the runtime has
    /// shut down or crashed.
    pub fn annotate(&self, event: RunEvent) -> bool {
        self.submit_tx.send(ClientOp::Annotate(event)).is_ok()
    }

    /// Blocks for this client's next verdict; `None` once the runtime has
    /// shut down and no verdicts remain.
    pub fn recv(&self) -> Option<TaskVerdict> {
        self.verdict_rx.recv().ok()
    }

    /// Like [`recv`](Self::recv) with a timeout; `None` on timeout or
    /// shutdown.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<TaskVerdict> {
        self.verdict_rx.recv_timeout(timeout).ok()
    }
}

impl Clone for Client {
    fn clone(&self) -> Self {
        let (verdict_tx, verdict_rx) = mpsc::channel();
        Self {
            submit_tx: self.submit_tx.clone(),
            verdict_tx,
            verdict_rx,
            next_task: self.next_task.clone(),
            active: self.active.clone(),
            max_active: self.max_active,
            counters: self.counters.clone(),
        }
    }
}

/// The finished run: live report, admission tally, and the journal.
#[derive(Debug)]
pub struct RuntimeRun {
    /// Metrics accumulated live by the coordinator.
    pub report: RuntimeReport,
    /// How submissions fared at admission (client-side; shed submissions
    /// never reach the coordinator and are not journaled).
    pub admission: AdmissionStats,
    /// The recorded event stream (empty when journaling was disabled).
    pub journal: Journal,
    /// Whether the coordinator died at the chaos crash point
    /// ([`RuntimeConfig::crash_after_events`]) instead of finishing. A
    /// crashed run's report and journal end mid-stream, exactly as a real
    /// crash would leave the WAL.
    pub crashed: bool,
}

/// A live job-serving runtime: worker pool plus coordinator thread.
///
/// Create with [`Runtime::start`] (or [`Runtime::recover`] to resume a
/// crashed run from its WAL), submit through [`Runtime::client`] handles,
/// then drop every client and call [`Runtime::finish`] — the coordinator
/// drains in-flight tasks once all submission handles are gone and
/// `finish` returns the final [`RuntimeRun`].
#[derive(Debug)]
pub struct Runtime {
    pub(crate) submit_tx: Option<SyncSender<ClientOp>>,
    handle: JoinHandle<(RuntimeReport, Journal, bool)>,
    pub(crate) next_task: Arc<AtomicU32>,
    active: Arc<AtomicUsize>,
    counters: Arc<AdmissionCounters>,
    max_active: usize,
    crashed: Arc<AtomicBool>,
}

impl Runtime {
    /// Starts the worker pool and coordinator. `make_worker` builds the
    /// executor for each pool index — use [`crate::worker::FaultyWorker`]
    /// for seed-reproducible unreliability, or any custom [`Worker`]. The
    /// factory is retained: the supervisor calls it again to rebuild
    /// workers after panics and hung-thread respawns.
    pub fn start<S, F>(cfg: RuntimeConfig, strategy: S, make_worker: F) -> Self
    where
        S: RedundancyStrategy<bool> + Send + Sync + 'static,
        F: Fn(u32) -> Box<dyn Worker> + Send + Sync + 'static,
    {
        let wal = cfg
            .wal
            .as_ref()
            .map(|p| build_wal(p, &cfg).expect("create WAL file"));
        let journal = if cfg.journal || wal.is_some() {
            Journal::new()
        } else {
            Journal::disabled()
        };
        let (coordinator, submit_tx) =
            Coordinator::new(cfg, strategy, Arc::new(make_worker), journal, wal);
        spawn_runtime(coordinator, submit_tx, 0)
    }

    /// Restarts a crashed run from its write-ahead log.
    ///
    /// The WAL prefix (up to a tolerated torn final record) is replayed
    /// into full coordinator state — open tasks with their exact vote
    /// tallies and wave positions, outstanding replicas, admission
    /// backlog, node strikes, epochs, and poison charges. `roster` maps
    /// task ids to payloads (payloads are not journaled): ids already
    /// decided in the WAL are skipped (their verdicts were durable before
    /// delivery — they are never re-run or re-delivered), open ids resume,
    /// and unseen ids are admitted fresh under their original numbers so
    /// the deterministic fault draws keyed by `(seed, task, replica)`
    /// line up with an uninterrupted run.
    ///
    /// Returns the runtime, a [`Client`] that will receive the verdicts of
    /// resumed and re-admitted tasks, and a [`RecoveryReport`].
    ///
    /// # Errors
    ///
    /// [`RecoveryError`] when the config has no WAL path, the file cannot
    /// be read, a non-final record is malformed, or the event stream
    /// contradicts the deterministic strategy replay.
    pub fn recover<S, F>(
        cfg: RuntimeConfig,
        strategy: S,
        make_worker: F,
        roster: &[(u32, Payload)],
    ) -> Result<(Self, Client, RecoveryReport), RecoveryError>
    where
        S: RedundancyStrategy<bool> + Send + Sync + 'static,
        F: Fn(u32) -> Box<dyn Worker> + Send + Sync + 'static,
    {
        let (verdict_tx, verdict_rx) = mpsc::channel();
        let (runtime, report) =
            Self::recover_with(cfg, strategy, make_worker, roster, &verdict_tx)?;
        let client = Client {
            submit_tx: runtime.submit_tx.clone().expect("runtime just started"),
            verdict_tx,
            verdict_rx,
            next_task: runtime.next_task.clone(),
            active: runtime.active.clone(),
            max_active: runtime.max_active,
            counters: runtime.counters.clone(),
        };
        Ok((runtime, client, report))
    }

    /// [`Runtime::recover`] with the verdict channel supplied by the
    /// caller: the sharded runtime recovers every shard into one shared
    /// verdict stream. Verdicts of resumed and re-admitted tasks arrive on
    /// `verdict_tx`'s receiver.
    pub(crate) fn recover_with<S, F>(
        cfg: RuntimeConfig,
        strategy: S,
        make_worker: F,
        roster: &[(u32, Payload)],
        verdict_tx: &Sender<TaskVerdict>,
    ) -> Result<(Self, RecoveryReport), RecoveryError>
    where
        S: RedundancyStrategy<bool> + Send + Sync + 'static,
        F: Fn(u32) -> Box<dyn Worker> + Send + Sync + 'static,
    {
        let path = cfg.wal.clone().ok_or(RecoveryError::NoWal)?;
        // Read as bytes: an injected bit flip can break UTF-8 itself, and
        // that too must surface as corruption, not an unreadable file.
        let bytes = std::fs::read(&path)?;
        let text = String::from_utf8_lossy(&bytes);
        let prefix = match Journal::from_jsonl_prefix(&text) {
            Ok(prefix) => prefix,
            Err(err) => {
                // In-place corruption of an acknowledged record: recovery
                // must never resume past it. Quarantine the damaged
                // segment for forensics so a retry cannot silently
                // re-trip — the error names the byte offset and seq.
                let mut quarantined = path.clone().into_os_string();
                quarantined.push(".quarantined");
                let _ = std::fs::rename(&path, PathBuf::from(quarantined));
                return Err(RecoveryError::Parse(err));
            }
        };

        // Disambiguate the segment: a WAL beginning with a
        // `CheckpointTaken` seal replays snapshot + suffix; one beginning
        // at seq 0 is the full history (any snapshot beside it is a
        // leftover from a crash before truncation — redundant, ignored);
        // an *empty* segment next to a valid snapshot is a crash between
        // truncation and the seal record, healed from the snapshot alone.
        let ckpt = checkpoint_path(&path);
        let mut heal_seal = false;
        let base: Option<CheckpointState> = match prefix.journal.events().first() {
            Some(first) => match first.event {
                RunEvent::CheckpointTaken { events, digest } => {
                    if first.seq != events {
                        return Err(RecoveryError::Corrupt(format!(
                            "checkpoint record seq {} does not match its \
                             event count {events}",
                            first.seq
                        )));
                    }
                    let snap = CheckpointState::load(&ckpt).map_err(|msg| {
                        RecoveryError::Corrupt(format!(
                            "WAL begins at checkpoint {events} but its \
                             snapshot is unusable: {msg}"
                        ))
                    })?;
                    if snap.events != events || snap.digest() != digest {
                        return Err(RecoveryError::Corrupt(format!(
                            "snapshot does not match the WAL's checkpoint \
                             record (snapshot {}/{:016x}, record \
                             {events}/{digest:016x})",
                            snap.events,
                            snap.digest()
                        )));
                    }
                    Some(snap)
                }
                _ if first.seq == 0 => None,
                _ => {
                    return Err(RecoveryError::Corrupt(format!(
                        "WAL segment starts mid-stream at seq {} with no \
                         checkpoint record",
                        first.seq
                    )));
                }
            },
            None if ckpt.exists() => {
                let snap = CheckpointState::load(&ckpt).map_err(|msg| {
                    RecoveryError::Corrupt(format!(
                        "empty WAL segment with an unusable snapshot: {msg}"
                    ))
                })?;
                heal_seal = true;
                Some(snap)
            }
            None => None,
        };

        let mut wal = WalWriter::resume(&path, prefix.valid_bytes as u64, cfg.wal_sync)?
            .with_checksums(cfg.wal_checksum);
        let events_replayed = prefix.journal.len();
        let mut journal = prefix.journal;
        if heal_seal {
            let snap = base.as_ref().expect("healing implies a snapshot");
            journal = Journal::resume_at(snap.events);
            journal.record(
                snap.last_at,
                RunEvent::CheckpointTaken {
                    events: snap.events,
                    digest: snap.digest(),
                },
            );
            let entry = journal.events().last().expect("just recorded");
            wal.append(entry)?;
        }
        let report = match &base {
            Some(snap) => {
                // Snapshot + suffix fold: checkpoints happen only at
                // quiescence, so no per-task accumulator straddles the
                // boundary and the continued fold is bit-identical to a
                // full-history fold.
                let mut report = snap.report.clone();
                fold_into(&mut report, journal.events());
                report
            }
            None => report_from_journal(&journal),
        };

        // Repeat history: build the coordinator exactly as `start` does,
        // restore what a checkpoint compacted away, then apply every
        // logged event through the transitions the dead coordinator
        // applied when it logged them.
        let (mut coordinator, submit_tx) = Coordinator::new(
            cfg,
            strategy,
            Arc::new(make_worker),
            Journal::new(),
            Some(wal),
        );
        let mut last_at = SimTime::ZERO;
        if let Some(snap) = &base {
            coordinator.seed(snap);
            last_at = snap.last_at;
        }
        for e in journal.events() {
            coordinator.apply(e.at, e.event)?;
            last_at = e.at;
        }
        coordinator.journal = journal;
        coordinator.report = report;
        coordinator.time_base = last_at.as_micros();
        let (next_task, rearmed) = coordinator.resume(roster, verdict_tx)?;
        let report = RecoveryReport {
            torn_tail: prefix.torn,
            events_replayed,
            checkpoint_events: base.as_ref().map_or(0, |s| s.events),
            tasks_resumed: coordinator.resume.len(),
            tasks_decided: coordinator.decided.len(),
            tasks_seeded: coordinator.seeded.len(),
            jobs_rearmed: rearmed,
            report: coordinator.report.clone(),
        };
        Ok((spawn_runtime(coordinator, submit_tx, next_task), report))
    }

    /// Creates a submission handle.
    pub fn client(&self) -> Client {
        let (verdict_tx, verdict_rx) = mpsc::channel();
        Client {
            submit_tx: self.submit_tx.clone().expect("runtime already finished"),
            verdict_tx,
            verdict_rx,
            next_task: self.next_task.clone(),
            active: self.active.clone(),
            max_active: self.max_active,
            counters: self.counters.clone(),
        }
    }

    /// Whether the coordinator has hit its chaos crash point. Once true,
    /// submissions go nowhere and [`Runtime::finish`] returns promptly
    /// with [`RuntimeRun::crashed`] set.
    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::Acquire)
    }

    /// Shuts down: stops accepting submissions, waits for in-flight tasks
    /// to drain and the pool to join, and returns the run.
    ///
    /// Every [`Client`] must be dropped first — the coordinator drains only
    /// once all submission handles are gone, so `finish` blocks while any
    /// client could still submit.
    pub fn finish(mut self) -> RuntimeRun {
        drop(self.submit_tx.take());
        let (report, journal, crashed) = self.handle.join().expect("coordinator panicked");
        RuntimeRun {
            report,
            admission: self.counters.snapshot(),
            journal,
            crashed,
        }
    }
}

/// A lower bound on the WAL commits — so on the disk's `write` and, with
/// [`RuntimeConfig::wal_sync`], `fdatasync` calls — that any schedule of
/// the run `journal` records makes. The coordinator commits once per loop
/// iteration, and each of a task's waves needs an iteration of its own: a
/// wave opens only on the previous wave's replies, which arrive after the
/// iteration that dispatched it has committed. (This assumes replies, not
/// deadline expiries, resolve the jobs: an expiry is handled before the
/// iteration commits.) The task's decision and `RunEnded` take one commit
/// more each. A task's wave count is a pure function of its fault draws,
/// keyed by `(seed, task, replica)`, so the task with the most waves
/// bounds every schedule from below, however the tasks interleave — the
/// placement rule for disk faults that must fire.
pub fn min_wal_commits(journal: &Journal) -> u64 {
    let mut waves: HashMap<u32, u64> = HashMap::new();
    for e in journal.events() {
        if let RunEvent::WaveOpened { task, .. } = e.event {
            *waves.entry(task).or_default() += 1;
        }
    }
    waves.values().max().map_or(1, |&w| w + 2)
}

/// Builds the WAL writer of a fresh run: the real file, or a
/// fault-injecting [`FaultyDisk`] under it when
/// [`RuntimeConfig::disk_faults`] is set, with the configured checksum
/// framing.
fn build_wal(path: &std::path::Path, cfg: &RuntimeConfig) -> std::io::Result<WalWriter> {
    let writer = match cfg.disk_faults {
        Some(plan) => {
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent)?;
            }
            WalWriter::with_disk(Box::new(FaultyDisk::create(path, plan)?), cfg.wal_sync)
        }
        None => WalWriter::create(path, cfg.wal_sync)?,
    };
    Ok(writer.with_checksums(cfg.wal_checksum))
}

fn spawn_runtime<S: RedundancyStrategy<bool> + Send + Sync + 'static>(
    coordinator: Coordinator<S>,
    submit_tx: SyncSender<ClientOp>,
    next_task: u32,
) -> Runtime {
    let active = coordinator.active.clone();
    let crashed = coordinator.crashed_flag.clone();
    let max_active = coordinator.cfg.max_active.max(1);
    let handle = std::thread::Builder::new()
        .name("smartred-coordinator".into())
        .spawn(move || coordinator.run())
        .expect("spawn coordinator thread");
    Runtime {
        submit_tx: Some(submit_tx),
        handle,
        next_task: Arc::new(AtomicU32::new(next_task)),
        active,
        counters: Arc::new(AdmissionCounters::default()),
        max_active,
        crashed,
    }
}

/// Per-task redundancy state. Every field above `client` is durable: only
/// [`Coordinator::apply`] changes it, so replaying the WAL rebuilds it.
struct TaskState<S> {
    exec: TaskExecution<bool, Arc<S>>,
    /// Replica indices issued (Σ opened wave sizes).
    replicas: u32,
    /// Replica ordinal of the next dispatch. A void/re-tally jumps it to
    /// `replicas`, burning the purged ordinals, so fault draws never
    /// repeat across attempts.
    next_replica: u32,
    /// Dispatched, unresolved replicas as `(job, replica)`, in dispatch
    /// order — what recovery re-arms.
    in_flight: Vec<(u32, u32)>,
    /// Timeouts charged so far (1-based retry attempts).
    timeouts: u32,
    /// Worker-crash charges toward the poison limit.
    poison: TaskDiscipline,
    /// Replica epoch: bumped when in-flight jobs are re-dispatched, so
    /// replies from the superseded dispatch are rejected as stale.
    epoch: u32,
    first_dispatch: Option<SimTime>,
    /// Every tallied return as `(job, node, vote)`, the audit layer's
    /// evidence: which node claimed what. Cleared on void/re-tally.
    returns: Vec<(u32, u32, bool)>,
    /// Set when a probationary node (fresh out of quarantine) contributed
    /// a result: the verdict must be audited regardless of the spot draw.
    must_audit: bool,
    /// The last wave whose `WaveClosed` is logged.
    closed_wave: u32,
    /// Audit voids logged so far; at [`MAX_VOIDS`] the task's verdicts are
    /// no longer audited.
    voids: u32,
    /// The submitter's payload and verdict channel: attached at
    /// admission, or after replay for a task recovery resumes.
    client: Option<Submission>,
    /// Last answer reported by a `false`-vote (index 0) / `true`-vote
    /// (index 1) replica, for verdict delivery.
    answers: [Option<bool>; 2],
    /// Hedge twins in flight (their origins are in `in_flight`).
    twins: Vec<u32>,
}

impl<S: RedundancyStrategy<bool>> TaskState<S> {
    /// A fresh task record; `client` is `None` for a task the replay
    /// opens, until `Coordinator::resume` attaches its roster payload.
    fn new(strategy: &Arc<S>, job_cap: Option<usize>, client: Option<Submission>) -> Self {
        let mut exec = TaskExecution::new(strategy.clone());
        if let Some(cap) = job_cap {
            exec = exec.with_job_cap(cap);
        }
        TaskState {
            exec,
            replicas: 0,
            next_replica: 0,
            in_flight: Vec::new(),
            timeouts: 0,
            poison: TaskDiscipline::default(),
            epoch: 0,
            first_dispatch: None,
            returns: Vec::new(),
            must_audit: false,
            closed_wave: 0,
            voids: 0,
            client,
            answers: [None, None],
            twins: Vec::new(),
        }
    }

    fn payload(&self) -> Arc<Payload> {
        self.client.as_ref().expect("attached").payload.clone()
    }

    /// Takes `job` out of flight ahead of resolving one outstanding
    /// replica; `false` when none is outstanding — a log no coordinator
    /// writes.
    fn resolve(&mut self, job: u32) -> bool {
        self.in_flight.retain(|&(j, _)| j != job);
        self.exec.outstanding() > 0
    }

    /// The task's physical jobs: in-flight replicas and hedge twins.
    fn jobs(&self) -> Vec<u32> {
        let replicas = self.in_flight.iter().map(|&(job, _)| job);
        replicas.chain(self.twins.iter().copied()).collect()
    }
}

/// A dispatched, unresolved job.
struct JobInfo {
    task: u32,
    worker: u32,
    replica: u32,
    epoch: u32,
    /// Stamp of this dispatch, feeding the hedge trigger's latency
    /// estimator when the job genuinely resolves.
    dispatched_at: SimTime,
}

/// How a task ends.
#[derive(Clone, Copy)]
enum Outcome {
    Verdict(bool),
    Capped,
    Poisoned,
}

/// A node-discipline action a strike demands, as `(node, action)`.
type Strike = Option<(u32, DisciplineAction)>;

/// What the handler of the last applied event still owes: the reactions
/// the live path performs right after logging a resolution, in live
/// order. [`Coordinator::apply`] derives it from the event (and, mid
/// chain, from the previous debt), so after replay it names exactly what
/// a crash cut off — recovery pays it through the same
/// [`Coordinator::discharge`] the live path runs.
#[derive(Clone, Copy, Default)]
enum Owed {
    #[default]
    Nothing,
    /// A vote landed: log its `VoteTallied`, then settle the task.
    Tally(RunEvent),
    /// A job timed out: sideline its node if the strike demands, log the
    /// retry, then settle the task.
    Retry {
        task: u32,
        attempt: u32,
        strike: Strike,
    },
    /// A worker crashed: log its in-place restart, then as `Poison`.
    Restart {
        task: u32,
        node: u32,
        incarnation: u32,
        strike: Strike,
        poisoned: bool,
    },
    /// Sideline the crashed worker if the strike demands, then poison the
    /// task at the crash limit or settle it.
    Poison {
        task: u32,
        strike: Strike,
        poisoned: bool,
    },
    /// An audit caught a liar: sideline it if the strike demands.
    Sideline(Strike),
    /// Close the task's drained wave, if unclosed, then step it.
    Settle(u32),
}

impl Owed {
    /// The strike to enact next, if that is the next reaction owed.
    fn strike(self) -> Strike {
        match self {
            Owed::Retry { strike, .. } | Owed::Poison { strike, .. } | Owed::Sideline(strike) => {
                strike
            }
            _ => None,
        }
    }

    /// This debt once its strike is enacted (or refused by the livelock
    /// guard).
    fn sidelined(self) -> Self {
        match self {
            Owed::Retry { task, attempt, .. } => Owed::Retry {
                task,
                attempt,
                strike: None,
            },
            Owed::Poison { task, poisoned, .. } => Owed::Poison {
                task,
                strike: None,
                poisoned,
            },
            Owed::Sideline(_) => Owed::Nothing,
            other => other,
        }
    }
}

struct Coordinator<S> {
    cfg: RuntimeConfig,
    strategy: Arc<S>,
    pool: WorkerPool,
    submit_rx: Receiver<ClientOp>,
    result_rx: Receiver<PoolEvent>,
    start: Instant,
    /// Stamp offset in micros: 0 for a fresh run, the last replayed
    /// event's stamp after recovery, so journal time stays monotone across
    /// restarts.
    time_base: u64,
    journal: Journal,
    wal: Option<WalWriter>,
    report: RuntimeReport,
    tasks: HashMap<u32, TaskState<S>>,
    jobs: HashMap<u32, JobInfo>,
    /// `(deadline, job, epoch)` — an entry whose epoch no longer matches
    /// the job's record is stale (the job was re-dispatched) and skipped.
    deadlines: BinaryHeap<Reverse<(Instant, u32, u32)>>,
    /// One entry per replica opened but not yet handed to a worker (all
    /// inboxes full); the replica index is the task's dispatch cursor.
    pending: VecDeque<u32>,
    /// In-flight jobs to re-dispatch without new journal records, as
    /// `(job, task, replica, epoch)` — from hung-worker respawns and WAL
    /// recovery.
    rearm: VecDeque<(u32, u32, u32, u32)>,
    /// Recovered roster tasks awaiting first admission, drained ahead of
    /// the external submission queue.
    seeded: VecDeque<Submission>,
    /// Resumed open tasks to step once at startup.
    resume: Vec<u32>,
    /// Reactions the last applied event's handler still owes.
    owed: Owed,
    /// Verdicts decided this loop iteration, held until the WAL commit
    /// that covers their decision records returns ([`Self::flush`]).
    outbox: Vec<(Sender<TaskVerdict>, TaskVerdict)>,
    next_job: u32,
    active: Arc<AtomicUsize>,
    draining: bool,
    /// Journal records logged so far, for the chaos crash threshold.
    events_logged: u64,
    crashed: bool,
    crashed_flag: Arc<AtomicBool>,
    /// Every task ever decided (verdict, cap, or poison durable) — the
    /// exactly-once set a checkpoint snapshot carries forward.
    decided: HashSet<u32>,
    /// `Journal::next_seq` at the last checkpoint (or recovery), for the
    /// [`RuntimeConfig::checkpoint_every`] accumulation threshold.
    last_ckpt_events: u64,
    /// Per-worker restart counters (crash rebuilds + hang respawns).
    incarnations: Vec<u32>,
    /// Per-worker strike state under `cfg.discipline`.
    discipline: Vec<NodeDiscipline>,
    /// Release stamps of currently quarantined workers.
    quarantined_until: Vec<Option<SimTime>>,
    /// Permanently blacklisted workers.
    blacklisted: Vec<bool>,
    /// Whether any audit has ever caught a liar — switches spot-checking
    /// to [`AuditPolicy::escalated_rate`].
    escalated: bool,
    /// The straggler-hedging trigger (shared decision surface with the
    /// simulators). Estimator state is not journaled: a recovered
    /// coordinator re-warms from scratch, which only delays hedging and
    /// never changes a vote.
    hedge: Option<HedgeTrigger>,
    /// Armed hedge checks as `(fire_at, origin job, dispatch epoch)`. An
    /// entry whose origin has resolved, been superseded (epoch mismatch),
    /// or whose task moved to a new epoch is skipped — the double-fire
    /// guard against audit voids and deadline reissues.
    hedge_checks: BinaryHeap<Reverse<(Instant, u32, u32)>>,
    /// Live hedge pairs, both directions (origin ↔ twin).
    hedge_pair: HashMap<u32, u32>,
    /// Twin → origin, held until the twin settles; terminal journal
    /// events of a pair always carry the *origin* job id (see
    /// [`Self::fire_hedges`]), so recovery replays the pair as one
    /// logical replica.
    twin_origin: HashMap<u32, u32>,
    /// Per-worker dispatch counts, indexed by global node id — the load
    /// signal of [`Assignment::LeastLoaded`].
    worker_loads: Vec<u64>,
    /// Rotation cursor of [`Assignment::RoundRobin`].
    assign_cursor: u32,
}

/// Poll tick: bounds how long the loop waits before re-checking the
/// submission queue and parked dispatches.
const TICK: Duration = Duration::from_millis(1);

impl<S: RedundancyStrategy<bool>> Coordinator<S> {
    /// Builds a coordinator, its worker pool and its channels — the one
    /// constructor of [`Runtime::start`] and [`Runtime::recover`].
    /// Returns the submission sender with it.
    fn new(
        cfg: RuntimeConfig,
        strategy: S,
        make_worker: Arc<dyn Fn(u32) -> Box<dyn Worker> + Send + Sync>,
        journal: Journal,
        wal: Option<WalWriter>,
    ) -> (Self, SyncSender<ClientOp>) {
        let workers = cfg.workers.unwrap_or_else(|| Threads::Auto.get()).max(1);
        let (submit_tx, submit_rx) = mpsc::sync_channel(cfg.queue_cap.max(1));
        let (result_tx, result_rx) = mpsc::channel();
        let pool = WorkerPool::spawn(
            workers,
            cfg.node_base,
            cfg.inbox_cap,
            result_tx,
            make_worker,
        );
        // Per-node vectors are indexed by *global* node id, so they span
        // `0..node_base + workers`; slots below the base belong to other
        // shards and stay untouched defaults.
        let span = cfg.node_base as usize + workers;
        let coordinator = Self {
            strategy: Arc::new(strategy),
            pool,
            submit_rx,
            result_rx,
            start: Instant::now(),
            time_base: 0,
            journal,
            wal,
            report: RuntimeReport::new(),
            tasks: HashMap::new(),
            jobs: HashMap::new(),
            deadlines: BinaryHeap::new(),
            pending: VecDeque::new(),
            rearm: VecDeque::new(),
            seeded: VecDeque::new(),
            resume: Vec::new(),
            owed: Owed::Nothing,
            outbox: Vec::new(),
            next_job: 0,
            active: Arc::new(AtomicUsize::new(0)),
            draining: false,
            events_logged: 0,
            crashed: false,
            crashed_flag: Arc::new(AtomicBool::new(false)),
            decided: HashSet::new(),
            last_ckpt_events: 0,
            incarnations: vec![0; span],
            discipline: vec![NodeDiscipline::default(); span],
            quarantined_until: vec![None; span],
            blacklisted: vec![false; span],
            escalated: false,
            hedge: cfg
                .hedge
                .map(|p| HedgeTrigger::new(p).expect("invalid hedge policy")),
            hedge_checks: BinaryHeap::new(),
            hedge_pair: HashMap::new(),
            twin_origin: HashMap::new(),
            worker_loads: vec![0; span],
            assign_cursor: cfg.node_base,
            cfg,
        };
        (coordinator, submit_tx)
    }

    /// Whether `node` belongs to this coordinator's pool.
    fn owns(&self, node: u32) -> bool {
        self.pool.node_ids().contains(&node)
    }

    /// Restores what a checkpoint compacted out of the WAL — the state
    /// applying the compacted events left behind.
    fn seed(&mut self, snap: &CheckpointState) {
        self.decided.extend(snap.decided.iter().copied());
        self.next_job = snap.next_job;
        self.escalated = snap.report.audit_failures > 0;
        for &(node, incarnation) in &snap.incarnations {
            if self.owns(node) {
                self.incarnations[node as usize] = incarnation;
            }
        }
        for &(node, (strikes, quarantines, last, probation)) in &snap.discipline {
            if self.owns(node) {
                self.discipline[node as usize] =
                    NodeDiscipline::from_parts(strikes, quarantines, last, probation);
            }
        }
        for &(node, until) in &snap.quarantines {
            if self.owns(node) {
                self.quarantined_until[node as usize] = Some(SimTime::from_micros(until));
                self.pool.set_enabled(node, false);
            }
        }
        for &node in &snap.blacklisted {
            if self.owns(node) {
                self.blacklisted[node as usize] = true;
                self.pool.set_enabled(node, false);
            }
        }
    }

    /// Applies one logged event to the durable coordinator state — the
    /// only code that changes it. The live path calls this right after
    /// logging each event ([`Self::log`]); recovery calls it for every WAL
    /// event, so a recovered coordinator holds the state the dead one
    /// had. It also records in [`Self::owed`] what the event's handler
    /// still owes.
    ///
    /// The WAL is outside input: an event that contradicts the
    /// deterministic strategy replay (a wave the strategy would not open
    /// identically, an event for a task that is not open) is
    /// [`RecoveryError::Corrupt`], never patched.
    fn apply(&mut self, at: SimTime, event: RunEvent) -> Result<(), RecoveryError> {
        let corrupt = |msg: String| Err(RecoveryError::Corrupt(msg));
        let idle = |task: u32, job: u32| {
            corrupt(format!(
                "task {task}: job {job} resolved with no replica outstanding"
            ))
        };
        let owed = std::mem::take(&mut self.owed);
        self.owed = match event {
            RunEvent::WaveOpened { task, wave, jobs } => {
                let state = match self.tasks.entry(task) {
                    Entry::Occupied(open) => open.into_mut(),
                    Entry::Vacant(_) if self.decided.contains(&task) => {
                        return corrupt(format!("wave opened for decided task {task}"));
                    }
                    Entry::Vacant(slot) => {
                        slot.insert(TaskState::new(&self.strategy, self.cfg.job_cap, None))
                    }
                };
                let step = state.exec.step_wave();
                if !matches!(step, WaveStep::Wave { wave: w, jobs: j }
                    if w as u32 == wave && j as u32 == jobs)
                {
                    return corrupt(format!(
                        "task {task}: logged wave {wave} of {jobs} jobs, but the \
                         strategy replayed a different step"
                    ));
                }
                state.replicas += jobs;
                Owed::Nothing
            }
            RunEvent::JobDispatched { job, task, .. } => {
                let Some(state) = self.tasks.get_mut(&task) else {
                    return corrupt(format!("job {job} dispatched for unknown task {task}"));
                };
                // Replica index = the per-task dispatch cursor: the
                // coordinator dispatches a task's replicas in index order
                // and never journals a re-dispatch.
                if state.next_replica >= state.replicas {
                    return corrupt(format!(
                        "task {task}: job {job} dispatched beyond the {} opened replicas",
                        state.replicas
                    ));
                }
                state.in_flight.push((job, state.next_replica));
                state.next_replica += 1;
                state.first_dispatch.get_or_insert(at);
                self.next_job = self.next_job.max(job + 1);
                Owed::Nothing
            }
            // A hedge twin sits outside the replica accounting: its launch
            // only burns a job id, and the pair's terminal event carries
            // the origin's id.
            RunEvent::HedgeLaunched { job, .. } => {
                self.next_job = self.next_job.max(job + 1);
                Owed::Nothing
            }
            RunEvent::JobReturned {
                job,
                task,
                node,
                value,
            } => {
                let Some(state) = self.tasks.get_mut(&task) else {
                    return corrupt(format!("job {job} returned for unknown task {task}"));
                };
                if !state.resolve(job) {
                    return idle(task, job);
                }
                state.exec.record(value);
                state.returns.push((job, node, value));
                // A result from a probationary node (fresh out of
                // quarantine) burns one probation slot and forces an
                // audit of this task's verdict, whatever the spot draw.
                if self.cfg.audit.is_enabled()
                    && self
                        .discipline
                        .get_mut(node as usize)
                        .is_some_and(NodeDiscipline::consume_probation)
                {
                    state.must_audit = true;
                }
                let (leader_count, runner_up) = state.exec.leader_counts();
                Owed::Tally(RunEvent::VoteTallied {
                    task,
                    value,
                    leader_count: leader_count as u32,
                    runner_up: runner_up as u32,
                })
            }
            RunEvent::JobTimedOut { job, task, node } => {
                let Some(state) = self.tasks.get_mut(&task) else {
                    return corrupt(format!("job {job} timed out for unknown task {task}"));
                };
                if !state.resolve(job) {
                    return idle(task, job);
                }
                state.timeouts += 1;
                state.exec.abandon(1);
                // Reissue semantics: the abandoned replica is replaced by a
                // fresh one when the strategy reopens the wave.
                Owed::Retry {
                    task,
                    attempt: state.timeouts,
                    strike: self.charge(node, 1, at),
                }
            }
            RunEvent::WorkerCrashed { node, job, task } => {
                let limit = self.cfg.poison.unwrap_or(PoisonPolicy {
                    crash_limit: u32::MAX,
                });
                // The replica died without a vote: it is abandoned, and
                // the strategy reopens a wave for a fresh replica (a
                // fresh fault draw) unless the task is poisoned.
                let mut poisoned = false;
                if let Some(state) = self.tasks.get_mut(&task) {
                    if !state.resolve(job) {
                        return idle(task, job);
                    }
                    state.exec.abandon(1);
                    poisoned = state.poison.record_crash(&limit);
                }
                Owed::Restart {
                    task,
                    node,
                    incarnation: self.incarnations.get(node as usize).map_or(1, |i| i + 1),
                    strike: self.charge(node, 1, at),
                    poisoned,
                }
            }
            RunEvent::WorkerRestarted { node, incarnation } => {
                if let Some(slot) = self.incarnations.get_mut(node as usize) {
                    *slot = (*slot).max(incarnation);
                }
                match owed {
                    Owed::Restart {
                        task,
                        node: crashed,
                        strike,
                        poisoned,
                        ..
                    } if crashed == node => Owed::Poison {
                        task,
                        strike,
                        poisoned,
                    },
                    _ => Owed::Nothing,
                }
            }
            RunEvent::NodeQuarantined { node } => {
                if let (true, Some(policy)) = (self.owns(node), self.cfg.discipline) {
                    self.quarantined_until[node as usize] =
                        Some(at + SimDuration::from_units(policy.quarantine_units));
                    self.pool.set_enabled(node, false);
                }
                owed.sidelined()
            }
            RunEvent::NodeDeparted { node, .. } => {
                if self.owns(node) {
                    self.blacklisted[node as usize] = true;
                    self.quarantined_until[node as usize] = None;
                    self.pool.set_enabled(node, false);
                }
                owed.sidelined()
            }
            RunEvent::NodeReleased { node } => {
                if self.owns(node) {
                    self.quarantined_until[node as usize] = None;
                    self.pool.set_enabled(node, true);
                    // Probationary re-admission: the node's next results
                    // force audits until it has proven itself again.
                    if self.cfg.audit.is_enabled() {
                        self.discipline[node as usize]
                            .begin_probation(self.cfg.audit.probation_audits);
                    }
                }
                Owed::Nothing
            }
            RunEvent::EpochAdvanced { task, epoch } => {
                if let Some(state) = self.tasks.get_mut(&task) {
                    state.epoch = epoch;
                }
                Owed::Nothing
            }
            RunEvent::WaveClosed { task, wave } => {
                if let Some(state) = self.tasks.get_mut(&task) {
                    state.closed_wave = wave;
                }
                Owed::Settle(task)
            }
            RunEvent::VoteTallied { task, .. } | RunEvent::JobRetried { task, .. } => {
                Owed::Settle(task)
            }
            RunEvent::VerdictReached { task, .. }
            | RunEvent::TaskCapped { task }
            | RunEvent::TaskPoisoned { task, .. } => {
                self.tasks.remove(&task);
                self.decided.insert(task);
                Owed::Nothing
            }
            RunEvent::AuditPassed { task } => {
                // A clean conclusion releases the probation flag. (A
                // failed group keeps it set, so a crash mid-group
                // re-audits on resume rather than skipping the check.)
                if let Some(state) = self.tasks.get_mut(&task) {
                    state.must_audit = false;
                }
                Owed::Nothing
            }
            RunEvent::AuditFailed { node, .. } => {
                self.escalated = true;
                let weight = self.cfg.audit.strike_weight.max(1);
                Owed::Sideline(self.charge(node, weight, at))
            }
            RunEvent::VerdictVoided { task } | RunEvent::TaskRetallied { task } => {
                let Some(state) = self.tasks.get_mut(&task) else {
                    return corrupt(format!("void/re-tally for unknown task {task}"));
                };
                // The attempt's evidence is burned: its dispatched jobs
                // are dead (late replies drop as stale), its undispatched
                // ordinals never dispatch, and the strategy restarts from
                // wave 1 with a fresh budget.
                state.exec.reset();
                state.in_flight.clear();
                state.returns.clear();
                state.must_audit = false;
                state.closed_wave = 0;
                state.next_replica = state.replicas;
                if matches!(event, RunEvent::VerdictVoided { .. }) {
                    state.voids += 1;
                }
                Owed::Nothing
            }
            // Settling a hedge twin sits inside another handler's chain
            // and neither owes nor pays anything.
            RunEvent::HedgeWon { .. } | RunEvent::HedgeWasted { .. } => owed,
            // Whether an interrupted audit re-runs is re-derived when the
            // task is next stepped (selection is a pure function of the
            // seed and task id, plus `must_audit`). Stale drops change no
            // state; the runtime never emits churn, outage, or fault-plan
            // events; DAG annotations are caller-journaled workload
            // bookkeeping; a checkpoint seal's state was seeded from its
            // snapshot.
            RunEvent::AuditScheduled { .. }
            | RunEvent::StaleReplyDropped { .. }
            | RunEvent::NodeJoined { .. }
            | RunEvent::OutageStarted { .. }
            | RunEvent::FaultInjected { .. }
            | RunEvent::TransferStarted { .. }
            | RunEvent::TransferCompleted { .. }
            | RunEvent::StageDecided { .. }
            | RunEvent::PoisonPropagated { .. }
            | RunEvent::CheckpointTaken { .. }
            | RunEvent::RunEnded => Owed::Nothing,
        };
        Ok(())
    }

    /// Charges `weight` discipline strikes to `node` — one for a timeout
    /// or crash, [`AuditPolicy::strike_weight`] for a lie an audit caught,
    /// which is direct evidence and can quarantine at once. Returns the
    /// action the policy demands; a blacklisted node takes no strikes.
    fn charge(&mut self, node: u32, weight: u32, at: SimTime) -> Strike {
        let policy = self.cfg.discipline?;
        if !self.owns(node) || self.blacklisted[node as usize] {
            return None;
        }
        let window = self.cfg.strike_window.as_micros() as u64;
        let action = self.discipline[node as usize].strike_weighted_at(
            weight,
            at.as_micros(),
            window,
            &policy,
        );
        (action != DisciplineAction::None).then_some((node, action))
    }

    /// Readies a replayed coordinator to run: attaches roster payloads to
    /// the open tasks, re-arms their in-flight jobs (ascending job id)
    /// and parks their undispatched replicas (task order) without new
    /// journal records, and queues, under their original ids, the roster
    /// tasks the log never saw. Returns the next fresh task id and the
    /// number of jobs re-armed.
    fn resume(
        &mut self,
        roster: &[(u32, Payload)],
        verdict_tx: &Sender<TaskVerdict>,
    ) -> Result<(u32, usize), RecoveryError> {
        let mut open: Vec<u32> = self.tasks.keys().copied().collect();
        open.sort_unstable();
        let submission = |task: u32, payload: &Payload| Submission {
            task,
            payload: Arc::new(payload.clone()),
            verdict_tx: verdict_tx.clone(),
        };
        for &task in &open {
            let payload = roster
                .iter()
                .find(|(id, _)| *id == task)
                .map(|(_, p)| p)
                .ok_or_else(|| {
                    RecoveryError::Corrupt(format!("open task {task} missing from roster"))
                })?;
            let state = self.tasks.get_mut(&task).expect("open task");
            state.client = Some(submission(task, payload));
            for &(job, replica) in &state.in_flight {
                self.rearm.push_back((job, task, replica, state.epoch));
            }
            for _ in state.next_replica..state.replicas {
                self.pending.push_back(task);
            }
        }
        self.rearm
            .make_contiguous()
            .sort_unstable_by_key(|&(job, ..)| job);
        for (task, payload) in roster {
            if !self.decided.contains(task) && !self.tasks.contains_key(task) {
                self.seeded.push_back(submission(*task, payload));
            }
        }
        let seen = open.iter().chain(&self.decided);
        let next_task = seen
            .chain(roster.iter().map(|(id, _)| id))
            .max()
            .map_or(0, |&m| m + 1);
        self.resume = open;
        self.last_ckpt_events = self.journal.next_seq();
        self.active.store(self.tasks.len(), Ordering::Relaxed);
        Ok((next_task, self.rearm.len()))
    }

    fn run(mut self) -> (RuntimeReport, Journal, bool) {
        // A recovered coordinator first finishes the handler the crash
        // cut short, then steps every resumed task (a no-op for tasks
        // whose votes are still outstanding); a fresh one has neither.
        let at = self.stamp();
        self.discharge(at);
        for task in std::mem::take(&mut self.resume) {
            if self.crashed {
                break;
            }
            let at = self.stamp();
            self.advance(task, at);
        }
        loop {
            if self.crashed {
                break;
            }
            self.admit();
            self.supervise_hangs();
            self.release_quarantines();
            self.drain_pending();
            self.fire_hedges(Instant::now());
            self.expire_deadlines(Instant::now());
            // Group commit: everything this iteration logged reaches the
            // WAL in one write before any of its verdicts leaves, and
            // before the loop blocks below.
            self.flush();
            if self.crashed {
                break;
            }
            if self.draining && self.tasks.is_empty() && self.seeded.is_empty() {
                break;
            }
            if self.tasks.is_empty() && self.seeded.is_empty() {
                self.maybe_checkpoint();
                if self.crashed {
                    break;
                }
                // Nothing in flight: block on the submission queue.
                match self.submit_rx.recv_timeout(Duration::from_millis(5)) {
                    Ok(op) => self.admit_op(op),
                    Err(RecvTimeoutError::Disconnected) => self.draining = true,
                    Err(RecvTimeoutError::Timeout) => {}
                }
            } else {
                let wait = match self.deadlines.peek() {
                    Some(&Reverse((deadline, _, _))) => {
                        deadline.saturating_duration_since(Instant::now()).min(TICK)
                    }
                    None => TICK,
                };
                match self.result_rx.recv_timeout(wait) {
                    Ok(event) => {
                        self.on_pool_event(event);
                        while !self.crashed {
                            match self.result_rx.try_recv() {
                                Ok(more) => self.on_pool_event(more),
                                Err(_) => break,
                            }
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    // All workers gone: nothing can resolve; stop.
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        }
        if !self.crashed {
            let end = self.stamp();
            if self.log(end, RunEvent::RunEnded) {
                self.flush();
                self.report.makespan_units = end.as_units();
            }
        }
        let crashed = self.crashed;
        self.pool.shutdown();
        (self.report, self.journal, crashed)
    }

    /// Monotone wall-clock stamp: micros since runtime start (plus the
    /// recovered base), so 1 journal unit = 1 second of wall time.
    fn stamp(&self) -> SimTime {
        SimTime::from_micros(self.time_base + self.start.elapsed().as_micros() as u64)
    }

    /// Records one event: in-memory journal first, then the WAL's staging
    /// buffer, then [`Self::apply`]. The record reaches the file at the
    /// loop iteration's commit ([`Self::flush`]); until then callers may
    /// act on it only internally — dispatch, hedges, timeouts, which
    /// recovery redoes or re-derives because workers are pure functions
    /// of `(seed, task, replica)`. Effects outside the process (verdict
    /// delivery) wait in [`Self::outbox`] for the commit.
    ///
    /// Returns `false` when the coordinator is dead: either it already
    /// crashed, or this very record hit the chaos threshold
    /// ([`RuntimeConfig::crash_after_events`]). A `false` return means the
    /// event is durable but the caller must not perform its side effects —
    /// exactly the state a real crash between "commit" and "act" leaves.
    fn log(&mut self, at: SimTime, event: RunEvent) -> bool {
        if self.crashed {
            return false;
        }
        self.journal.record(at, event);
        if let Some(wal) = self.wal.as_mut() {
            let entry = self
                .journal
                .events()
                .last()
                .expect("journal is enabled whenever a WAL is configured");
            if wal.stage(entry).is_err() {
                // Only a writer an earlier I/O error poisoned refuses a
                // record, and that error already crashed the coordinator.
                self.die();
                return false;
            }
        }
        self.events_logged += 1;
        if self
            .cfg
            .crash_after_events
            .is_some_and(|limit| self.events_logged >= limit)
        {
            // Die right after a commit: the WAL holds exactly the first
            // `limit` records, and the verdicts they cover are delivered.
            self.flush();
            self.die();
            return false;
        }
        if let Err(err) = self.apply(at, event) {
            panic!("the coordinator logged an event its own state refuses: {err}");
        }
        true
    }

    /// Marks the coordinator dead: it logs, dispatches and delivers
    /// nothing more.
    fn die(&mut self) {
        self.crashed = true;
        self.crashed_flag.store(true, Ordering::Release);
    }

    /// Commits every record staged since the last commit: one write, and
    /// one `fdatasync` under [`RuntimeConfig::wal_sync`]. A failed commit
    /// kills the coordinator — the records may not be durable, and a
    /// failed fsync can silently drop pages (the writer is poisoned) — so
    /// recovery resumes from the WAL's durable prefix exactly as after a
    /// power loss.
    fn commit_wal(&mut self) {
        if self.crashed {
            return;
        }
        if self.wal.as_mut().is_some_and(|wal| wal.commit().is_err()) {
            self.die();
        }
    }

    /// The write-ahead barrier: commits the WAL, then delivers the
    /// verdicts held in [`Self::outbox`]. A verdict therefore never leaves
    /// the process before its decision record is on disk; if the commit
    /// fails, the coordinator is dead and the held verdicts are dropped —
    /// recovery treats whatever decision records did land as delivered.
    fn flush(&mut self) {
        self.commit_wal();
        if self.crashed {
            self.outbox.clear();
            return;
        }
        for (client, verdict) in self.outbox.drain(..) {
            let _ = client.send(verdict);
        }
    }

    /// Takes a checkpoint when one is due and the coordinator is
    /// quiescent — no open tasks, no in-flight jobs, nothing parked — so
    /// the snapshot needs no open-task state and the suffix fold starts
    /// from a clean slate.
    fn maybe_checkpoint(&mut self) {
        let Some(every) = self.cfg.checkpoint_every else {
            return;
        };
        if self.crashed || self.wal.is_none() {
            return;
        }
        let quiescent = self.tasks.is_empty()
            && self.seeded.is_empty()
            && self.pending.is_empty()
            && self.rearm.is_empty()
            && self.jobs.is_empty();
        if !quiescent {
            return;
        }
        if self
            .journal
            .next_seq()
            .saturating_sub(self.last_ckpt_events)
            < every.max(1)
        {
            return;
        }
        self.take_checkpoint();
    }

    /// Commits the WAL, atomically stores the snapshot, truncates the
    /// segment, and seals the fresh segment with a
    /// [`RunEvent::CheckpointTaken`] record whose `seq` equals the
    /// compacted event count. Every crash window inside this sequence is
    /// recoverable — see the `checkpoint` module docs; an I/O failure
    /// either leaves the old segment intact (snapshot store) or poisons
    /// the writer and crashes the coordinator (truncate/seal).
    fn take_checkpoint(&mut self) {
        self.flush();
        if self.crashed {
            return;
        }
        let Some(path) = self.cfg.wal.clone() else {
            return;
        };
        let at = self.stamp();
        let events = self.journal.next_seq();
        let mut decided: Vec<u32> = self.decided.iter().copied().collect();
        decided.sort_unstable();
        let blacklisted: Vec<u32> = (0..self.blacklisted.len() as u32)
            .filter(|&n| self.blacklisted[n as usize])
            .collect();
        let incarnations: Vec<(u32, u32)> = self
            .incarnations
            .iter()
            .enumerate()
            .filter(|&(_, &inc)| inc > 0)
            .map(|(n, &inc)| (n as u32, inc))
            .collect();
        let quarantines: Vec<(u32, u64)> = self
            .quarantined_until
            .iter()
            .enumerate()
            .filter_map(|(n, until)| until.map(|t| (n as u32, t.as_micros())))
            .collect();
        let discipline: Vec<(u32, (u32, u32, u64, u32))> = self
            .discipline
            .iter()
            .enumerate()
            .map(|(n, d)| (n as u32, d.to_parts()))
            .filter(|&(_, parts)| parts != NodeDiscipline::default().to_parts())
            .collect();
        let state = CheckpointState {
            events,
            last_at: at,
            next_job: self.next_job,
            decided,
            blacklisted,
            incarnations,
            quarantines,
            discipline,
            report: self.report.clone(),
        };
        let digest = state.digest();
        if state.store(&checkpoint_path(&path)).is_err() {
            // The old WAL is fully intact — skip this checkpoint and try
            // again only after another interval's worth of events.
            self.last_ckpt_events = events;
            return;
        }
        if let Some(wal) = self.wal.as_mut() {
            if wal.truncate().is_err() {
                self.die();
                return;
            }
        }
        if self.log(at, RunEvent::CheckpointTaken { events, digest }) {
            self.commit_wal();
        }
        self.last_ckpt_events = self.journal.next_seq();
    }

    fn admit(&mut self) {
        while self.tasks.len() < self.cfg.max_active.max(1) && !self.crashed {
            if let Some(sub) = self.seeded.pop_front() {
                self.admit_one(sub);
                continue;
            }
            match self.submit_rx.try_recv() {
                Ok(op) => self.admit_op(op),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    self.draining = true;
                    break;
                }
            }
        }
        self.active.store(self.tasks.len(), Ordering::Relaxed);
    }

    fn admit_op(&mut self, op: ClientOp) {
        match op {
            ClientOp::Submit(sub) => self.admit_one(sub),
            ClientOp::Annotate(event) => {
                // Committed with the iteration, before any verdict the
                // caller could observe after it.
                let at = self.stamp();
                self.log(at, event);
            }
        }
    }

    fn admit_one(&mut self, sub: Submission) {
        let task = sub.task;
        let state = TaskState::new(&self.strategy, self.cfg.job_cap, Some(sub));
        self.tasks.insert(task, state);
        self.active.store(self.tasks.len(), Ordering::Relaxed);
        let at = self.stamp();
        self.advance(task, at);
    }

    /// Performs, in live order, the reactions the last applied event still
    /// owes ([`Owed`]): the live path calls this right after logging a
    /// resolution, and recovery once after replay, so a handler a crash
    /// cut short is finished by the same code that runs it live. Every
    /// choice it makes — retry attempt, livelock guard, poison, wave close
    /// — reads only state [`Self::apply`] derives from the log.
    fn discharge(&mut self, at: SimTime) {
        while !self.crashed {
            if let Some((node, action)) = self.owed.strike() {
                self.owed = self.owed.sidelined();
                self.enact(node, action, at);
                continue;
            }
            // Each arm logs the next event of the chain, whose `apply`
            // advances `owed`, or advances it itself.
            match self.owed {
                Owed::Nothing => return,
                Owed::Tally(tallied) => {
                    self.log(at, tallied);
                }
                Owed::Retry { task, attempt, .. } => {
                    if self.log(at, RunEvent::JobRetried { task, attempt }) {
                        self.report.retries += 1;
                    }
                }
                Owed::Restart {
                    node, incarnation, ..
                } => {
                    if self.log(at, RunEvent::WorkerRestarted { node, incarnation }) {
                        self.report.worker_restarts += 1;
                    }
                }
                Owed::Poison {
                    task,
                    poisoned: true,
                    ..
                } => {
                    self.owed = Owed::Nothing;
                    self.finalize(task, Outcome::Poisoned, at);
                }
                Owed::Poison { task, .. } => self.owed = Owed::Settle(task),
                Owed::Sideline(_) => self.owed = Owed::Nothing,
                Owed::Settle(task) => {
                    self.owed = Owed::Nothing;
                    self.advance(task, at);
                }
            }
        }
    }

    /// Steps the task's strategy until it parks (pending/verdict/cap):
    /// closes a wave that has just drained, and queues any opened wave's
    /// replicas for dispatch.
    fn advance(&mut self, task: u32, at: SimTime) {
        while let Some(state) = self.tasks.get(&task) {
            // Strategies decide only once a wave has drained, and then on
            // a copy: the logged `WaveOpened` steps the task's own machine
            // in `apply`, exactly as replay does.
            if state.exec.outstanding() > 0 {
                return;
            }
            let wave = state.exec.waves() as u32;
            let drained = state.exec.wave_boundary() && wave > state.closed_wave;
            let step = state.exec.clone().step_wave();
            if drained && !self.log(at, RunEvent::WaveClosed { task, wave }) {
                return;
            }
            match step {
                WaveStep::Wave { wave, jobs } => {
                    // Wave durable before its replicas become dispatchable.
                    let opened = RunEvent::WaveOpened {
                        task,
                        wave: wave as u32,
                        jobs: jobs as u32,
                    };
                    if !self.log(at, opened) {
                        return;
                    }
                    self.pending.extend(std::iter::repeat_n(task, jobs));
                }
                WaveStep::Pending => return,
                WaveStep::Verdict(v) => return self.finalize(task, Outcome::Verdict(v), at),
                WaveStep::Capped { .. } => return self.finalize(task, Outcome::Capped, at),
            }
        }
    }

    /// Hands an assignment to a worker under the configured assignment
    /// policy. `avoid` — a hedge twin's origin worker — is excluded unless
    /// it is the only enabled worker. [`Assignment::Random`] with no
    /// exclusion delegates to the pool's historical round-robin scan, so
    /// the default configuration's dispatch order is untouched.
    fn dispatch_to_pool(
        &mut self,
        assignment: JobAssignment,
        avoid: Option<u32>,
    ) -> Result<u32, JobAssignment> {
        if self.cfg.assignment == Assignment::Random && avoid.is_none() {
            return self.pool.try_dispatch(assignment).inspect(|&worker| {
                self.worker_loads[worker as usize] += 1;
            });
        }
        let mut eligible: Vec<u32> = self
            .pool
            .node_ids()
            .filter(|&n| self.pool.is_enabled(n) && Some(n) != avoid)
            .collect();
        if eligible.is_empty() {
            // Only the avoided worker remains enabled: waive the exclusion.
            eligible = self
                .pool
                .node_ids()
                .filter(|&n| self.pool.is_enabled(n))
                .collect();
        }
        if eligible.is_empty() {
            return Err(assignment);
        }
        // `node_ids()` yields ascending ids, so `eligible` is sorted and
        // the pick is a pure function of the eligible set.
        let order: Vec<u32> = if self.cfg.assignment == Assignment::Random {
            eligible
        } else {
            let loads: Vec<u64> = eligible
                .iter()
                .map(|&n| self.worker_loads[n as usize])
                .collect();
            let at = self
                .cfg
                .assignment
                .pick(&eligible, &loads, self.assign_cursor, 0);
            let mut order = Vec::with_capacity(eligible.len());
            order.extend_from_slice(&eligible[at..]);
            order.extend_from_slice(&eligible[..at]);
            order
        };
        match self.pool.try_dispatch_ordered(assignment, &order) {
            Ok(worker) => {
                self.assign_cursor = worker.wrapping_add(1);
                self.worker_loads[worker as usize] += 1;
                Ok(worker)
            }
            Err(back) => Err(back),
        }
    }

    /// Arms a hedge check for a just-dispatched job, if the trigger is
    /// warm and the threshold beats the deadline (hedging past the
    /// deadline would duplicate a job the timeout path is about to
    /// abandon anyway).
    fn arm_hedge(&mut self, job: u32, epoch: u32, dispatched: Instant) {
        let Some(threshold) = self.hedge.as_ref().and_then(|t| t.threshold()) else {
            return;
        };
        if threshold < self.cfg.deadline.as_secs_f64() {
            self.hedge_checks.push(Reverse((
                dispatched + Duration::from_secs_f64(threshold),
                job,
                epoch,
            )));
        }
    }

    /// Maps a job handed to a worker and arms its deadline.
    fn track(&mut self, job: u32, info: JobInfo, now: Instant) {
        self.deadlines
            .push(Reverse((now + self.cfg.deadline, job, info.epoch)));
        self.jobs.insert(job, info);
    }

    /// Hands parked replicas to workers, stopping at the first refusal
    /// (every inbox full) — the next tick retries. Re-armed jobs (hung
    /// respawns, recovery) go first and are *not* re-journaled: they are
    /// the same logical jobs the log already counted.
    fn drain_pending(&mut self) {
        while let Some((job, task, replica, epoch)) = self.rearm.pop_front() {
            let Some(state) = self.tasks.get(&task) else {
                continue; // task decided (e.g. poisoned) while parked
            };
            let assignment = JobAssignment {
                job,
                task,
                replica,
                epoch,
                payload: state.payload(),
            };
            match self.dispatch_to_pool(assignment, None) {
                Ok(worker) => {
                    let now = Instant::now();
                    let dispatched_at = self.stamp();
                    let info = JobInfo {
                        task,
                        worker,
                        replica,
                        epoch,
                        dispatched_at,
                    };
                    self.track(job, info, now);
                    self.arm_hedge(job, epoch, now);
                }
                Err(back) => {
                    self.rearm
                        .push_front((back.job, back.task, back.replica, back.epoch));
                    return;
                }
            }
        }
        while let Some(task) = self.pending.pop_front() {
            let Some(state) = self.tasks.get(&task) else {
                continue;
            };
            let (job, replica, epoch) = (self.next_job, state.next_replica, state.epoch);
            let assignment = JobAssignment {
                job,
                task,
                replica,
                epoch,
                payload: state.payload(),
            };
            match self.dispatch_to_pool(assignment, None) {
                Ok(worker) => {
                    let now = Instant::now();
                    let at = self.stamp();
                    let eta = at + SimDuration::from_micros(self.cfg.deadline.as_micros() as u64);
                    let dispatched = RunEvent::JobDispatched {
                        job,
                        task,
                        node: worker,
                        eta,
                    };
                    if !self.log(at, dispatched) {
                        return;
                    }
                    self.report.total_jobs += 1;
                    let info = JobInfo {
                        task,
                        worker,
                        replica,
                        epoch,
                        dispatched_at: at,
                    };
                    self.track(job, info, now);
                    self.arm_hedge(job, epoch, now);
                }
                Err(_) => {
                    self.pending.push_front(task);
                    return;
                }
            }
        }
    }

    /// Launches hedge twins for armed checks whose origin job is still
    /// outstanding. The twin re-runs the *same* `(task, replica)` under
    /// the same epoch — its fault draw, and hence its vote, is identical
    /// to the origin's — on a different worker when one is available.
    /// Twins bypass the wave/job accounting entirely: their launch event
    /// replaces `JobDispatched`, and every terminal journal event of the
    /// pair carries the origin's job id, so WAL recovery replays the pair
    /// as one logical replica.
    fn fire_hedges(&mut self, now: Instant) {
        let Some(policy) = self.hedge.as_ref().map(|t| t.policy()) else {
            return;
        };
        while let Some(&Reverse((fire_at, origin, epoch))) = self.hedge_checks.peek() {
            if fire_at > now || self.crashed {
                break;
            }
            self.hedge_checks.pop();
            // Double-fire guards: the origin must still be outstanding
            // under the armed epoch (a timeout reissue or audit void
            // removed it or bumped the epoch), unhedged, and within the
            // task's per-epoch budget.
            let Some(info) = self.jobs.get(&origin) else {
                continue;
            };
            if info.epoch != epoch || self.hedge_pair.contains_key(&origin) {
                continue;
            }
            let (task, origin_worker, replica) = (info.task, info.worker, info.replica);
            let Some(state) = self.tasks.get(&task) else {
                continue;
            };
            if state.epoch != epoch || state.exec.hedges_launched() >= policy.max_per_task as usize
            {
                continue;
            }
            let twin = self.next_job;
            let assignment = JobAssignment {
                job: twin,
                task,
                replica,
                epoch,
                payload: state.payload(),
            };
            // Best-effort: on Err (every inbox full) the hedge is skipped.
            if let Ok(worker) = self.dispatch_to_pool(assignment, Some(origin_worker)) {
                let at = self.stamp();
                let launched = RunEvent::HedgeLaunched {
                    job: twin,
                    task,
                    origin,
                    epoch,
                };
                if !self.log(at, launched) {
                    return;
                }
                self.report.hedges_launched += 1;
                let state = self.tasks.get_mut(&task).expect("checked above");
                state.exec.note_hedge();
                state.twins.push(twin);
                let info = JobInfo {
                    task,
                    worker,
                    replica,
                    epoch,
                    dispatched_at: at,
                };
                self.track(twin, info, Instant::now());
                self.hedge_pair.insert(origin, twin);
                self.hedge_pair.insert(twin, origin);
                self.twin_origin.insert(twin, origin);
            }
        }
    }

    /// Dissolves the hedge pair `job` belongs to, if any, returning its
    /// partner.
    fn unpair(&mut self, job: u32) -> Option<u32> {
        let partner = self.hedge_pair.remove(&job)?;
        self.hedge_pair.remove(&partner);
        Some(partner)
    }

    /// Logs a twin's terminal hedge event exactly once: `won` means its
    /// result supplied the replica's vote. Returns `log`'s aliveness.
    fn settle_twin(&mut self, twin: u32, task: u32, won: bool, at: SimTime) -> bool {
        let removed = self.twin_origin.remove(&twin);
        debug_assert!(removed.is_some(), "twin settled twice");
        if let Some(state) = self.tasks.get_mut(&task) {
            state.twins.retain(|&t| t != twin);
        }
        let event = if won {
            RunEvent::HedgeWon { job: twin, task }
        } else {
            RunEvent::HedgeWasted { job: twin, task }
        };
        if !self.log(at, event) {
            return false;
        }
        if won {
            self.report.hedges_won += 1;
        } else {
            self.report.hedges_wasted += 1;
        }
        true
    }

    /// Cancels physical jobs of `task` — its worker keeps computing, but
    /// a job off the map drops its eventual reply as stale — settling
    /// each hedge twin as wasted. Returns `log`'s aliveness.
    fn cancel(&mut self, jobs: &[u32], task: u32, at: SimTime) -> bool {
        for &job in jobs {
            self.jobs.remove(&job);
            self.unpair(job);
            if self.twin_origin.contains_key(&job) && !self.settle_twin(job, task, false, at) {
                return false;
            }
        }
        true
    }

    fn on_pool_event(&mut self, event: PoolEvent) {
        match event {
            PoolEvent::Result(result) => self.on_result(result),
            PoolEvent::Crash {
                worker,
                job,
                task,
                epoch,
            } => self.on_crash(worker, job, task, epoch),
        }
    }

    fn on_result(&mut self, result: JobResult) {
        let at = self.stamp();
        // The staleness filter: a reply counts only if the job is still
        // live *and* carries the epoch it was dispatched under. Late
        // replies after a timeout/verdict, and replies from a replica
        // superseded by a re-dispatch, are journaled as dropped — never
        // tallied, so no vote can be counted twice.
        let fresh = self
            .jobs
            .get(&result.job)
            .is_some_and(|info| info.epoch == result.epoch);
        if !fresh {
            let alive = self.log(
                at,
                RunEvent::StaleReplyDropped {
                    job: result.job,
                    task: result.task,
                    epoch: result.epoch,
                },
            );
            if alive {
                self.report.stale_replies += 1;
            }
            return;
        }
        let info = self.jobs.remove(&result.job).expect("fresh job is mapped");
        let task = info.task;
        // Hedge-pair dissolution happens up front: whichever member
        // resolves first dissolves the pair, and the terminal journal
        // event below carries the ORIGIN's job id, so WAL recovery
        // replays the pair as one logical replica.
        let partner = self.unpair(result.job);
        let origin = self.twin_origin.get(&result.job).copied();
        // A genuine resolution feeds the straggler estimator.
        if let Some(trigger) = self.hedge.as_mut() {
            trigger.observe(at.since(info.dispatched_at).as_units());
        }
        // Cancel the losing partner: its worker keeps computing, but the
        // job leaves the map, so its eventual reply drops as stale.
        if let Some(p) = partner.filter(|p| self.jobs.contains_key(p)) {
            self.jobs.remove(&p);
            if origin.is_none() && !self.settle_twin(p, task, false, at) {
                return;
            }
        }
        let alive = self.log(
            at,
            RunEvent::JobReturned {
                job: origin.unwrap_or(result.job),
                task,
                node: result.worker,
                value: result.vote,
            },
        );
        if !alive || (origin.is_some() && !self.settle_twin(result.job, task, true, at)) {
            return;
        }
        if let Some(state) = self.tasks.get_mut(&task) {
            state.answers[usize::from(result.vote)] = Some(result.answer);
        }
        self.discharge(at);
    }

    /// Handles a caught worker panic: journal the crash, then the
    /// reactions it owes — the (already completed) in-place restart, the
    /// node's strike, and either poisoning the task or abandoning the dead
    /// replica and reissuing.
    fn on_crash(&mut self, worker: u32, job: u32, task: u32, epoch: u32) {
        let at = self.stamp();
        let fresh = self.jobs.get(&job).is_some_and(|info| info.epoch == epoch);
        if !fresh {
            // A detached pre-respawn thread crashed on a superseded job:
            // stale, like any other late reply. (The pool slot that crash
            // belonged to was already replaced.)
            let alive = self.log(at, RunEvent::StaleReplyDropped { job, task, epoch });
            if alive {
                self.report.stale_replies += 1;
            }
            return;
        }
        self.jobs.remove(&job);
        // Pair dissolution first: the pair's terminal event carries the
        // origin's job id.
        let partner = self.unpair(job);
        let origin = self.twin_origin.get(&job).copied();
        if partner.is_some_and(|p| self.jobs.contains_key(&p)) {
            // Suppressed crash: the hedge partner is still flying and will
            // supply the pair's single terminal event, so no
            // `WorkerCrashed` is journaled — recovery strikes, poisons,
            // and abandons only on that event, and a lapse the live run
            // absorbed must not do any of those on replay. The in-place
            // restart is real, though: log it.
            let incarnation = self.incarnations[worker as usize] + 1;
            let restarted = RunEvent::WorkerRestarted {
                node: worker,
                incarnation,
            };
            if !self.log(at, restarted) {
                return;
            }
            self.report.worker_restarts += 1;
            if origin.is_some() {
                let _ = self.settle_twin(job, task, false, at);
            }
            return;
        }
        if origin.is_some() && !self.settle_twin(job, task, false, at) {
            return;
        }
        let crashed = RunEvent::WorkerCrashed {
            node: worker,
            job: origin.unwrap_or(job),
            task,
        };
        if !self.log(at, crashed) {
            return;
        }
        self.report.worker_crashes += 1;
        self.discharge(at);
    }

    /// Respawns workers stuck inside one `execute` call past
    /// [`RuntimeConfig::hang_after`], bumping the epoch of every task with
    /// jobs lost on that worker and re-arming them.
    fn supervise_hangs(&mut self) {
        let Some(limit) = self.cfg.hang_after else {
            return;
        };
        for worker in self.pool.node_ids() {
            if self.pool.busy_for(worker).is_some_and(|busy| busy > limit) {
                self.respawn_worker(worker);
                if self.crashed {
                    return;
                }
            }
        }
    }

    fn respawn_worker(&mut self, worker: u32) {
        let at = self.stamp();
        let incarnation = self.incarnations[worker as usize] + 1;
        let restarted = RunEvent::WorkerRestarted {
            node: worker,
            incarnation,
        };
        if !self.log(at, restarted) {
            return;
        }
        self.report.worker_restarts += 1;
        self.pool.respawn(worker);
        // Everything in flight on that worker — the wedged job plus its
        // queued inbox — died with it. Bump each affected task's epoch
        // (so the detached thread's eventual reply is rejected) and
        // re-dispatch the same jobs under the new epoch, without new
        // journal records.
        let mut lost: Vec<(u32, u32, u32)> = self
            .jobs
            .iter()
            .filter(|(_, info)| info.worker == worker)
            .map(|(&job, info)| (job, info.task, info.replica))
            .collect();
        lost.sort_unstable();
        let mut bumped: HashSet<u32> = HashSet::new();
        for &(_, task, _) in &lost {
            if bumped.insert(task) {
                let Some(state) = self.tasks.get(&task) else {
                    continue;
                };
                let epoch = state.epoch + 1;
                if !self.log(at, RunEvent::EpochAdvanced { task, epoch }) {
                    return;
                }
            }
        }
        for (job, task, replica) in lost {
            if self.jobs.remove(&job).is_none() {
                continue; // canceled while handling an earlier pair member
            }
            if let Some(p) = self.unpair(job) {
                if self.twin_origin.contains_key(&job) {
                    // A hedge twin died with its worker: settle it and let
                    // the origin keep flying — recovery never re-arms
                    // twins, so the live run must not either.
                    if !self.settle_twin(job, task, false, at) {
                        return;
                    }
                    continue;
                }
                // A hedged origin is re-armed below; its twin is canceled
                // (its late reply drops as stale) so the re-armed origin
                // stays the pair's sole voter.
                if self.jobs.remove(&p).is_some() && !self.settle_twin(p, task, false, at) {
                    return;
                }
            }
            let Some(state) = self.tasks.get(&task) else {
                continue;
            };
            self.rearm.push_back((job, task, replica, state.epoch));
        }
    }

    /// Sidelines `node` as a strike demands — but never the last enabled
    /// worker, which would livelock the pool. The guard reads the pool's
    /// enabled set, which only [`Self::apply`] changes, so replay reaches
    /// the same decision.
    fn enact(&mut self, node: u32, action: DisciplineAction, at: SimTime) {
        if self.pool.enabled_count() <= 1 || !self.pool.is_enabled(node) {
            return; // livelock guard / already sidelined
        }
        let event = match action {
            DisciplineAction::None => return,
            DisciplineAction::Quarantine => RunEvent::NodeQuarantined { node },
            DisciplineAction::Blacklist => RunEvent::NodeDeparted {
                node,
                reason: DepartureReason::Blacklist,
            },
        };
        self.log(at, event);
    }

    /// Re-enables quarantined workers whose sentence has elapsed.
    fn release_quarantines(&mut self) {
        if self.cfg.discipline.is_none() {
            return;
        }
        let now = self.stamp();
        for worker in self.pool.node_ids() {
            let due = self.quarantined_until[worker as usize].is_some_and(|until| now >= until);
            if due && !self.log(now, RunEvent::NodeReleased { node: worker }) {
                return;
            }
        }
    }

    fn expire_deadlines(&mut self, now: Instant) {
        while let Some(&Reverse((deadline, job, epoch))) = self.deadlines.peek() {
            if deadline > now || self.crashed {
                break;
            }
            self.deadlines.pop();
            // Resolved jobs leave stale heap entries, and re-dispatched
            // jobs carry a newer epoch than their old entry; skip both.
            let still_armed = self.jobs.get(&job).is_some_and(|info| info.epoch == epoch);
            if !still_armed {
                continue;
            }
            let info = self.jobs.remove(&job).expect("armed job is mapped");
            let task = info.task;
            let at = self.stamp();
            // Pair dissolution first: a lapse with the hedge partner still
            // flying is absorbed silently — no journal event, no strike,
            // no abandon — because the partner will supply the pair's
            // single terminal event under the origin's id.
            let partner = self.unpair(job);
            let origin = self.twin_origin.get(&job).copied();
            if origin.is_some() && !self.settle_twin(job, task, false, at) {
                return;
            }
            if partner.is_some_and(|p| self.jobs.contains_key(&p)) {
                continue;
            }
            // A solo lapse is a genuine deadline miss: it feeds the
            // estimator and takes the normal timeout path.
            if let Some(trigger) = self.hedge.as_mut() {
                trigger.observe(at.since(info.dispatched_at).as_units());
            }
            let timed_out = RunEvent::JobTimedOut {
                job: origin.unwrap_or(job),
                task,
                node: info.worker,
            };
            if !self.log(at, timed_out) {
                return;
            }
            self.report.timeouts += 1;
            self.discharge(at);
        }
    }

    /// Runs one audit group on `task` at verdict time: log the schedule,
    /// recompute the payload locally, and compare every recorded return
    /// against the honest value. Returns `true` when the verdict stands;
    /// `false` when the caller must not finalize — the coordinator died
    /// mid-group, or the verdict was voided and the task restarted.
    fn run_audit(&mut self, task: u32, value: bool, at: SimTime) -> bool {
        if !self.log(at, RunEvent::AuditScheduled { task }) {
            return false;
        }
        self.report.audits += 1;
        // The local recomputation costs one job-equivalent of coordinator
        // compute (counted in `report.audits`, and in `total_cost()` for
        // matched-cost comparisons). A recorded vote is the server-checked
        // claim "my answer equals the honest value", so each return's
        // comparison against the recomputation is exactly its vote bit —
        // which keeps audit outcomes a pure function of the journaled
        // stream, replayable after a crash.
        let state = self.tasks.get(&task).expect("auditing a live task");
        let _honest = state.payload().execute();
        let liars: Vec<u32> = state
            .returns
            .iter()
            .filter(|&&(_, _, vote)| !vote)
            .map(|&(_, node, _)| node)
            .collect();
        if liars.is_empty() {
            return self.log(at, RunEvent::AuditPassed { task });
        }
        for &node in &liars {
            if !self.log(at, RunEvent::AuditFailed { task, node }) {
                return false;
            }
            self.report.audit_failures += 1;
            self.discharge(at);
            if self.crashed {
                return false;
            }
        }
        // Retaliation: the caught liars' other open work can no longer be
        // trusted — re-tally every open task they touched from scratch.
        let caught: HashSet<u32> = liars.into_iter().collect();
        let mut touched: Vec<u32> = self
            .tasks
            .iter()
            .filter(|(&t, s)| t != task && s.returns.iter().any(|&(_, n, _)| caught.contains(&n)))
            .map(|(&t, _)| t)
            .collect();
        touched.sort_unstable();
        for t in touched {
            if !self.restart(t, RunEvent::TaskRetallied { task: t }, at) {
                return false;
            }
        }
        // Liars voted, but the tally's winner matches the recomputation:
        // the verdict stands. Otherwise the coalition won the tally: void
        // the would-be verdict before acceptance and re-run the task — no
        // `VerdictReached` is ever logged for this attempt.
        if value {
            return true;
        }
        self.restart(task, RunEvent::VerdictVoided { task }, at);
        false
    }

    /// Logs a void or re-tally of `task` — whose `apply` burns the
    /// attempt's evidence and restarts its strategy from wave 1 with a
    /// fresh job budget — then cancels its in-flight jobs and parked
    /// replicas and steps it again. Replica ordinals and epochs stay
    /// monotone so fault draws never repeat across attempts. Returns
    /// whether the coordinator is still alive.
    fn restart(&mut self, task: u32, event: RunEvent, at: SimTime) -> bool {
        let Some(state) = self.tasks.get(&task) else {
            return !self.crashed; // decided while an earlier re-tally ran
        };
        let jobs = state.jobs();
        if !self.log(at, event) {
            return false;
        }
        if matches!(event, RunEvent::VerdictVoided { .. }) {
            self.report.verdicts_voided += 1;
        } else {
            self.report.tasks_retallied += 1;
        }
        if !self.cancel(&jobs, task, at) {
            return false;
        }
        self.tasks.get_mut(&task).expect("restarted task").answers = [None, None];
        self.pending.retain(|&t| t != task);
        self.rearm.retain(|&(_, t, _, _)| t != task);
        self.advance(task, at);
        !self.crashed
    }

    fn finalize(&mut self, task: u32, outcome: Outcome, at: SimTime) {
        // Verdicts pass through the audit layer before they are accepted:
        // a spot-checked (or probation-flagged) task is recomputed
        // locally, and a tainted verdict is voided instead of delivered.
        if let Outcome::Verdict(value) = outcome {
            if self.cfg.audit.is_enabled() {
                let state = self.tasks.get(&task).expect("finalizing a live task");
                let selected = state.must_audit
                    || self
                        .cfg
                        .audit
                        .selects(self.cfg.audit_seed, u64::from(task), self.escalated);
                // The simulators' one rule: a verdict that keeps coming
                // back tainted is accepted after `MAX_VOIDS` voids rather
                // than re-run forever.
                if selected && state.voids < MAX_VOIDS && !self.run_audit(task, value, at) {
                    return;
                }
            }
        }
        let state = self.tasks.get_mut(&task).expect("finalizing a live task");
        let client = state.client.take();
        let jobs = state.jobs();
        let waves = state.exec.waves();
        let (vote, event) = match outcome {
            Outcome::Verdict(value) => (
                Some(value),
                RunEvent::VerdictReached {
                    task,
                    value,
                    degraded: false,
                    confidence: 1.0,
                },
            ),
            Outcome::Capped => (None, RunEvent::TaskCapped { task }),
            Outcome::Poisoned => (
                None,
                RunEvent::TaskPoisoned {
                    task,
                    crashes: state.poison.crashes(),
                },
            ),
        };
        let verdict = TaskVerdict {
            task,
            vote,
            answer: vote.and_then(|v| state.answers[usize::from(v)]),
            poisoned: matches!(outcome, Outcome::Poisoned),
            latency_units: state.first_dispatch.map_or(0.0, |s| at.since(s).as_units()),
            jobs: state.exec.jobs_deployed() as u32,
        };
        // The decision record is the exactly-once anchor: a recovered
        // coordinator treats a logged decision as delivered and never
        // re-runs or re-sends it. So the verdict waits in the outbox until
        // the iteration's commit has put that record on disk; a failed
        // commit kills the coordinator and drops it undelivered.
        if !self.log(at, event) {
            return;
        }
        if let Some(client) = client {
            self.outbox.push((client.verdict_tx, verdict));
        }
        self.active.store(self.tasks.len(), Ordering::Relaxed);
        let _ = self.cancel(&jobs, task, at);
        match outcome {
            Outcome::Verdict(value) => {
                self.report.tasks_completed += 1;
                if value {
                    self.report.tasks_correct += 1;
                }
                self.report.jobs_per_task.record(f64::from(verdict.jobs));
                self.report.waves_per_task.record(waves as f64);
                self.report.response_time.record(verdict.latency_units);
            }
            Outcome::Capped => self.report.tasks_capped += 1,
            Outcome::Poisoned => self.report.tasks_poisoned += 1,
        }
    }
}
