//! The worker pool: OS threads with per-worker bounded inboxes and a
//! pluggable, deliberately unreliable [`Worker`] implementation.
//!
//! Workers are the live analogue of the DCA node pool: each one actually
//! executes the payload, then may lie about the result, hang, or crash,
//! with the same failure semantics as `dca`'s node model (`wrong_rate`,
//! `unresponsive_rate`). Misbehavior is drawn from the counter-based RNG
//! streams of [`smartred_core::parallel::task_rng`] keyed by
//! `(seed, task, replica)` — a pure function of the replica's coordinates,
//! never of which worker ran it or when — so the *votes* of a run are
//! deterministic given a seed even though its timings are not.
//!
//! The pool is *supervised*: a panic inside [`Worker::execute`] is caught
//! on the worker thread, reported to the coordinator as a crash event, and
//! the worker value is rebuilt in place from the factory, so one poisoned
//! payload never takes a pool slot down. Threads stuck inside `execute`
//! are detected via per-slot heartbeats and replaced wholesale by a fresh
//! thread; the old thread is detached and its eventual late reply is
//! rejected by epoch.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::Rng;
use smartred_core::audit::Cartel;
use smartred_core::parallel::task_rng;

use crate::workload::Payload;

/// One replica job handed to a worker.
#[derive(Debug, Clone)]
pub struct JobAssignment {
    /// Dispatch-order job index (the journal's `job` identifier).
    pub job: u32,
    /// Task the replica belongs to.
    pub task: u32,
    /// Replica index within the task: 0-based, counting reissues.
    pub replica: u32,
    /// The task's replica epoch at dispatch time. Replies whose epoch no
    /// longer matches the coordinator's record for the job are stale —
    /// the job was re-dispatched after a timeout, crash, or hung-worker
    /// respawn — and must not be counted.
    pub epoch: u32,
    /// The work to execute.
    pub payload: Arc<Payload>,
}

/// What a worker sends back for one job.
#[derive(Debug, Clone, Copy)]
pub struct JobResult {
    /// Dispatch-order job index.
    pub job: u32,
    /// Task the replica belongs to.
    pub task: u32,
    /// Index of the worker that executed the job.
    pub worker: u32,
    /// Epoch copied from the [`JobAssignment`]; the coordinator's
    /// staleness filter.
    pub epoch: u32,
    /// The vote: `true` = the honest answer, `false` = the colluding wrong
    /// value (the Byzantine worst case of §2.2, where all liars agree).
    pub vote: bool,
    /// The answer actually reported: the honest answer, flipped when lying.
    pub answer: bool,
}

/// Everything a worker thread can report to the coordinator.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PoolEvent {
    /// A job completed (honestly or not) and reported a result.
    Result(JobResult),
    /// [`Worker::execute`] panicked. The thread survived, rebuilt its
    /// worker from the factory, and is already serving its inbox again;
    /// the crashed job died with the old worker value and must be
    /// re-dispatched under a fresh epoch.
    Crash {
        /// Pool slot whose worker panicked.
        worker: u32,
        /// The job that killed it.
        job: u32,
        /// Task the job belonged to.
        task: u32,
        /// Epoch the job carried.
        epoch: u32,
    },
}

/// A job executor running on one pool thread.
pub trait Worker: Send + 'static {
    /// Executes one assignment. `Some((vote, answer))` reports a result;
    /// `None` hangs — the worker reports nothing and the coordinator's
    /// wall-clock deadline eventually fires. A panic is a *crash*: the
    /// supervisor catches it, reports it, and rebuilds the worker.
    fn execute(&mut self, job: &JobAssignment) -> Option<(bool, bool)>;
}

/// Fault profile for [`FaultyWorker`]: the live analogue of the DCA node
/// model's per-job failure rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Per-job probability of reporting the colluding wrong value.
    pub wrong_rate: f64,
    /// Per-job probability of hanging (reporting nothing).
    pub hang_rate: f64,
    /// Per-job probability of panicking mid-execution (killing the worker
    /// value, exercising the supervisor).
    pub crash_rate: f64,
    /// Extra wall-clock latency added to every executed job.
    pub think: Duration,
}

impl Default for FaultProfile {
    fn default() -> Self {
        Self {
            wrong_rate: 0.0,
            hang_rate: 0.0,
            crash_rate: 0.0,
            think: Duration::ZERO,
        }
    }
}

/// A worker whose misbehavior is a pure function of `(seed, task, replica)`.
///
/// Every worker of a pool shares the same seed, so a replica's fault draw
/// is identical no matter which worker picks it up — the property that
/// makes the runtime's votes and verdicts reproducible across thread
/// counts and schedules. A reissued replica gets a fresh index and hence a
/// fresh draw, mirroring the simulators' counter-based streams.
#[derive(Debug, Clone)]
pub struct FaultyWorker {
    seed: u64,
    profile: FaultProfile,
}

impl FaultyWorker {
    /// Creates a worker drawing faults from `seed` under `profile`.
    pub fn new(seed: u64, profile: FaultProfile) -> Self {
        Self { seed, profile }
    }
}

impl Worker for FaultyWorker {
    fn execute(&mut self, job: &JobAssignment) -> Option<(bool, bool)> {
        if !self.profile.think.is_zero() {
            std::thread::sleep(self.profile.think);
        }
        let honest = job.payload.execute();
        let mut rng = task_rng(self.seed, u64::from(job.task), u64::from(job.replica));
        let u: f64 = rng.gen();
        if u < self.profile.hang_rate {
            return None;
        }
        if u < self.profile.hang_rate + self.profile.wrong_rate {
            return Some((false, !honest));
        }
        if u < self.profile.hang_rate + self.profile.wrong_rate + self.profile.crash_rate {
            panic!(
                "injected worker crash (task {}, replica {})",
                job.task, job.replica
            );
        }
        Some((true, honest))
    }
}

/// A worker belonging (or not) to an adaptive colluding coalition.
///
/// Members of the [`Cartel`] lie *in coordination*: whether the coalition
/// lies on a task is the pure function [`Cartel::lies_on`] of
/// `(seed, task)`, so every member reports the same wrong value on the
/// same tasks with no runtime communication — the adversary strategy
/// replication alone cannot defeat, because a wave whose replicas mostly
/// land on members loses the vote honestly counted. The lie rate is
/// throttled (kept small) so per-event strike discipline never
/// accumulates enough evidence; only an audit's recomputation catches the
/// coalition. Non-members behave as a plain [`FaultyWorker`] under
/// `profile`.
///
/// Unlike `FaultyWorker`, a cartel vote depends on *which worker* served
/// the replica, so cartel runs are schedule-dependent by construction —
/// they exercise reliability comparisons, not the byte-determinism
/// fixtures. (The DCA simulator's cartel additionally models dormancy
/// after a member is caught; the live pool has no feedback channel to its
/// workers, so the live cartel never stands down.)
#[derive(Debug, Clone)]
pub struct CartelWorker {
    index: u32,
    seed: u64,
    cartel: Cartel,
    inner: FaultyWorker,
}

impl CartelWorker {
    /// Creates pool worker `index` colluding under `cartel`, drawing its
    /// coordinated lies from `seed`, and otherwise behaving as a
    /// [`FaultyWorker`] with `profile`.
    pub fn new(index: u32, seed: u64, cartel: Cartel, profile: FaultProfile) -> Self {
        Self {
            index,
            seed,
            cartel,
            inner: FaultyWorker::new(seed, profile),
        }
    }
}

impl Worker for CartelWorker {
    fn execute(&mut self, job: &JobAssignment) -> Option<(bool, bool)> {
        if self.cartel.is_member(self.index) && self.cartel.lies_on(self.seed, u64::from(job.task))
        {
            let honest = job.payload.execute();
            return Some((false, !honest));
        }
        self.inner.execute(job)
    }
}

/// The factory the pool rebuilds workers from after crashes and respawns.
pub(crate) type WorkerFactory = Arc<dyn Fn(u32) -> Box<dyn Worker> + Send + Sync>;

/// One pool slot: the live thread plus its supervision state.
struct WorkerSlot {
    inbox: SyncSender<JobAssignment>,
    handle: Option<JoinHandle<()>>,
    /// Micros (+1, so 0 means idle) since pool start at which the current
    /// job began executing. Written by the worker thread, read by the
    /// coordinator's hang supervisor.
    busy_since: Arc<AtomicU64>,
    /// Dispatch eligibility; cleared when node discipline quarantines the
    /// worker.
    enabled: bool,
}

/// The pool: per-worker bounded inboxes plus joinable threads. Internal to
/// the coordinator, which owns dispatch.
///
/// Every worker carries a *global* node id `base + slot`: a sharded
/// runtime gives each shard's sub-pool a disjoint id span (see
/// [`smartred_core::execution::shard_worker_span`]), so journal events,
/// discipline records, and cartel membership all speak one id space no
/// matter how the pool is partitioned. All public methods take and return
/// global node ids.
pub(crate) struct WorkerPool {
    slots: Vec<WorkerSlot>,
    events: Sender<PoolEvent>,
    make: WorkerFactory,
    inbox_cap: usize,
    cursor: usize,
    started: Instant,
    base: u32,
}

impl WorkerPool {
    /// Spawns `count` worker threads with global node ids
    /// `node_base..node_base + count`, each with a bounded inbox of
    /// `inbox_cap` jobs, reporting results and crashes on `events`.
    pub fn spawn(
        count: usize,
        node_base: u32,
        inbox_cap: usize,
        events: Sender<PoolEvent>,
        make: WorkerFactory,
    ) -> Self {
        let started = Instant::now();
        let mut pool = Self {
            slots: Vec::with_capacity(count),
            events,
            make,
            inbox_cap,
            cursor: 0,
            started,
            base: node_base,
        };
        for slot in 0..count as u32 {
            let slot = pool.build_slot(node_base + slot);
            pool.slots.push(slot);
        }
        pool
    }

    fn slot_of(&self, node: u32) -> usize {
        debug_assert!(
            node >= self.base && ((node - self.base) as usize) < self.slots.len(),
            "node {node} outside pool span {}..{}",
            self.base,
            self.base as usize + self.slots.len(),
        );
        (node - self.base) as usize
    }

    /// The global node ids this pool owns.
    pub fn node_ids(&self) -> std::ops::Range<u32> {
        self.base..self.base + self.slots.len() as u32
    }

    fn build_slot(&self, index: u32) -> WorkerSlot {
        let (tx, rx): (SyncSender<JobAssignment>, Receiver<JobAssignment>) =
            std::sync::mpsc::sync_channel(self.inbox_cap.max(1));
        let events = self.events.clone();
        let make = self.make.clone();
        let busy_since = Arc::new(AtomicU64::new(0));
        let busy = busy_since.clone();
        let started = self.started;
        let handle = std::thread::Builder::new()
            .name(format!("smartred-worker-{index}"))
            .spawn(move || {
                let mut worker = make(index);
                while let Ok(job) = rx.recv() {
                    let now = started.elapsed().as_micros() as u64;
                    busy.store(now + 1, Ordering::Release);
                    let outcome = catch_unwind(AssertUnwindSafe(|| worker.execute(&job)));
                    busy.store(0, Ordering::Release);
                    match outcome {
                        // The events channel is unbounded: workers never
                        // block reporting, so a stalled coordinator cannot
                        // deadlock the pool.
                        Ok(Some((vote, answer))) => {
                            let _ = events.send(PoolEvent::Result(JobResult {
                                job: job.job,
                                task: job.task,
                                worker: index,
                                epoch: job.epoch,
                                vote,
                                answer,
                            }));
                        }
                        Ok(None) => {}
                        Err(_) => {
                            let _ = events.send(PoolEvent::Crash {
                                worker: index,
                                job: job.job,
                                task: job.task,
                                epoch: job.epoch,
                            });
                            // The old worker value died with the panic;
                            // rebuild and keep serving the same inbox.
                            worker = make(index);
                        }
                    }
                }
            })
            .expect("spawn worker thread");
        WorkerSlot {
            inbox: tx,
            handle: Some(handle),
            busy_since,
            enabled: true,
        }
    }

    /// Hands `job` to the first enabled worker (round-robin) whose inbox
    /// has room, returning its global node id. Never blocks: returns the
    /// assignment back on `Err` when every eligible inbox is full, so the
    /// caller can park it and retry after results drain.
    pub fn try_dispatch(&mut self, job: JobAssignment) -> Result<u32, JobAssignment> {
        let n = self.slots.len();
        let mut job = job;
        for i in 0..n {
            let w = (self.cursor + i) % n;
            if !self.slots[w].enabled {
                continue;
            }
            match self.slots[w].inbox.try_send(job) {
                Ok(()) => {
                    self.cursor = (w + 1) % n;
                    return Ok(self.base + w as u32);
                }
                Err(TrySendError::Full(back)) | Err(TrySendError::Disconnected(back)) => {
                    job = back;
                }
            }
        }
        Err(job)
    }

    /// Like [`Self::try_dispatch`], but tries workers in the caller-given
    /// global-id order instead of the pool's round-robin cursor — the hook
    /// the coordinator's assignment policies and hedge dispatch use.
    /// Disabled workers are skipped; the round-robin cursor is untouched,
    /// so ordered dispatch never perturbs the default policy's rotation.
    pub fn try_dispatch_ordered(
        &mut self,
        job: JobAssignment,
        order: &[u32],
    ) -> Result<u32, JobAssignment> {
        let mut job = job;
        for &node in order {
            let w = self.slot_of(node);
            if !self.slots[w].enabled {
                continue;
            }
            match self.slots[w].inbox.try_send(job) {
                Ok(()) => return Ok(node),
                Err(TrySendError::Full(back)) | Err(TrySendError::Disconnected(back)) => {
                    job = back;
                }
            }
        }
        Err(job)
    }

    /// How long node `node` has been inside `execute`, or `None` when
    /// idle. The hang supervisor compares this against its threshold.
    pub fn busy_for(&self, node: u32) -> Option<Duration> {
        let since = self.slots[self.slot_of(node)]
            .busy_since
            .load(Ordering::Acquire);
        if since == 0 {
            return None;
        }
        let now = self.started.elapsed().as_micros() as u64;
        Some(Duration::from_micros(now.saturating_sub(since - 1)))
    }

    /// Enables or disables dispatch to node `node`. Disabled workers
    /// keep draining jobs already in their inbox.
    pub fn set_enabled(&mut self, node: u32, enabled: bool) {
        let slot = self.slot_of(node);
        self.slots[slot].enabled = enabled;
    }

    /// Whether node `node` is eligible for dispatch.
    pub fn is_enabled(&self, node: u32) -> bool {
        self.slots[self.slot_of(node)].enabled
    }

    /// Number of currently enabled workers.
    pub fn enabled_count(&self) -> usize {
        self.slots.iter().filter(|s| s.enabled).count()
    }

    /// Replaces a hung worker: a fresh thread, worker value, and inbox
    /// take over node `node`'s slot. The old thread is detached — it exits
    /// on its own when it escapes `execute` and finds its inbox closed, and
    /// any late reply it manages to send carries a pre-respawn epoch the
    /// coordinator rejects. Jobs queued in the old inbox are lost; the
    /// caller must re-dispatch everything in flight on this worker.
    pub fn respawn(&mut self, node: u32) {
        let slot = self.slot_of(node);
        let fresh = self.build_slot(node);
        let old = std::mem::replace(&mut self.slots[slot], fresh);
        // Preserve the discipline state across the restart.
        self.slots[slot].enabled = old.enabled;
        drop(old.inbox);
        drop(old.handle); // detach: never join a thread presumed stuck
    }

    /// Closes every inbox and joins the threads. Threads caught mid-job
    /// are detached instead of joined, so a worker hung forever cannot
    /// wedge shutdown.
    pub fn shutdown(mut self) {
        let handles: Vec<(Option<JoinHandle<()>>, Arc<AtomicU64>)> = self
            .slots
            .iter_mut()
            .map(|s| (s.handle.take(), s.busy_since.clone()))
            .collect();
        drop(self.slots); // closes all inboxes
        for (handle, busy) in handles {
            if let Some(handle) = handle {
                if busy.load(Ordering::Acquire) == 0 {
                    let _ = handle.join();
                }
                // else: detach; the thread exits once execute returns.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assignment(task: u32, replica: u32) -> JobAssignment {
        JobAssignment {
            job: 0,
            task,
            replica,
            epoch: 0,
            payload: Arc::new(Payload::Synthetic {
                answer: true,
                work: Duration::ZERO,
            }),
        }
    }

    fn factory(seed: u64, profile: FaultProfile) -> WorkerFactory {
        Arc::new(move |_| Box::new(FaultyWorker::new(seed, profile)))
    }

    #[test]
    fn fault_draw_depends_only_on_task_and_replica() {
        let profile = FaultProfile {
            wrong_rate: 0.5,
            hang_rate: 0.2,
            ..FaultProfile::default()
        };
        let mut a = FaultyWorker::new(9, profile);
        let mut b = FaultyWorker::new(9, profile);
        for task in 0..50 {
            for replica in 0..4 {
                assert_eq!(
                    a.execute(&assignment(task, replica)),
                    b.execute(&assignment(task, replica)),
                    "draw must be identical across workers for ({task}, {replica})"
                );
            }
        }
    }

    #[test]
    fn honest_worker_votes_true_with_honest_answer() {
        let mut w = FaultyWorker::new(3, FaultProfile::default());
        assert_eq!(w.execute(&assignment(0, 0)), Some((true, true)));
    }

    #[test]
    fn lying_draw_flips_the_answer_and_votes_false() {
        let profile = FaultProfile {
            wrong_rate: 1.0,
            ..FaultProfile::default()
        };
        let mut w = FaultyWorker::new(3, profile);
        assert_eq!(w.execute(&assignment(0, 0)), Some((false, false)));
    }

    #[test]
    fn full_inboxes_return_the_job_to_the_caller() {
        let (tx, _rx) = std::sync::mpsc::channel();
        // One worker whose single-slot inbox we saturate with a job it
        // cannot finish quickly.
        let mut pool = WorkerPool::spawn(
            1,
            0,
            1,
            tx,
            factory(
                0,
                FaultProfile {
                    think: Duration::from_millis(50),
                    ..FaultProfile::default()
                },
            ),
        );
        // First dispatch is taken by the worker, second sits in the inbox,
        // third (at the latest) must bounce. Allow a race on the second.
        let mut bounced = false;
        for _ in 0..3 {
            if pool.try_dispatch(assignment(0, 0)).is_err() {
                bounced = true;
                break;
            }
        }
        assert!(bounced, "a saturated pool must refuse, not block");
        pool.shutdown();
    }

    #[test]
    fn crash_is_reported_and_the_worker_survives_it() {
        let (tx, rx) = std::sync::mpsc::channel();
        // Every job panics under this profile.
        let mut pool = WorkerPool::spawn(
            1,
            0,
            4,
            tx,
            factory(
                0,
                FaultProfile {
                    crash_rate: 1.0,
                    ..FaultProfile::default()
                },
            ),
        );
        let mut job = assignment(0, 0);
        job.epoch = 5;
        pool.try_dispatch(job).unwrap();
        match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            PoolEvent::Crash {
                worker,
                job,
                task,
                epoch,
            } => {
                assert_eq!((worker, job, task, epoch), (0, 0, 0, 5));
            }
            PoolEvent::Result(r) => panic!("expected crash, got result {r:?}"),
        }
        // The same slot keeps serving after the rebuild.
        pool.try_dispatch(assignment(1, 0)).unwrap();
        assert!(matches!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            PoolEvent::Crash { task: 1, .. }
        ));
        pool.shutdown();
    }

    #[test]
    fn disabled_workers_are_skipped_by_dispatch() {
        let (tx, rx) = std::sync::mpsc::channel();
        let mut pool = WorkerPool::spawn(2, 0, 4, tx, factory(0, FaultProfile::default()));
        pool.set_enabled(0, false);
        assert_eq!(pool.enabled_count(), 1);
        for _ in 0..4 {
            let worker = pool.try_dispatch(assignment(0, 0)).unwrap();
            assert_eq!(worker, 1, "disabled slot 0 must never be picked");
        }
        for _ in 0..4 {
            match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
                PoolEvent::Result(r) => assert_eq!(r.worker, 1),
                PoolEvent::Crash { .. } => panic!("honest worker cannot crash"),
            }
        }
        pool.shutdown();
    }

    #[test]
    fn respawn_replaces_a_stuck_worker() {
        struct Stuck;
        impl Worker for Stuck {
            fn execute(&mut self, job: &JobAssignment) -> Option<(bool, bool)> {
                if job.task == 0 {
                    // Park forever: simulates a genuinely wedged thread.
                    std::thread::sleep(Duration::from_secs(3600));
                }
                Some((true, true))
            }
        }
        let (tx, rx) = std::sync::mpsc::channel();
        let mut pool = WorkerPool::spawn(1, 0, 4, tx, Arc::new(|_| Box::new(Stuck)));
        pool.try_dispatch(assignment(0, 0)).unwrap();
        // Wait until the supervisor would see the slot busy.
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.busy_for(0).is_none() {
            assert!(Instant::now() < deadline, "worker never started the job");
            std::thread::yield_now();
        }
        pool.respawn(0);
        // The fresh incarnation serves jobs while the old thread stays
        // parked (and is detached at shutdown rather than joined).
        pool.try_dispatch(assignment(1, 0)).unwrap();
        match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            PoolEvent::Result(r) => assert_eq!(r.task, 1),
            PoolEvent::Crash { .. } => panic!("unexpected crash"),
        }
        pool.shutdown();
    }

    #[test]
    fn pools_with_a_node_base_speak_global_ids() {
        let (tx, rx) = std::sync::mpsc::channel();
        let mut pool = WorkerPool::spawn(2, 10, 4, tx, factory(0, FaultProfile::default()));
        assert_eq!(pool.node_ids(), 10..12);
        // Dispatch returns global ids, and results carry them too.
        let first = pool.try_dispatch(assignment(0, 0)).unwrap();
        assert!(pool.node_ids().contains(&first));
        match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            PoolEvent::Result(r) => assert_eq!(r.worker, first),
            PoolEvent::Crash { .. } => panic!("honest worker cannot crash"),
        }
        // Discipline and supervision address slots by global id.
        pool.set_enabled(10, false);
        assert!(!pool.is_enabled(10));
        assert!(pool.is_enabled(11));
        assert_eq!(pool.enabled_count(), 1);
        assert_eq!(pool.try_dispatch(assignment(1, 0)).unwrap(), 11);
        assert!(matches!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            PoolEvent::Result(JobResult { worker: 11, .. })
        ));
        pool.respawn(11);
        assert!(pool.busy_for(11).is_none());
        pool.shutdown();
    }
}
