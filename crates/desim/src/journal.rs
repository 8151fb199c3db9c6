//! Structured run journal: a typed, allocation-light event log of one
//! simulation run.
//!
//! The paper's claims (§4–§5) are about *trajectories* — how many jobs each
//! technique deploys, when waves start, when a verdict fires — not just
//! end-of-run aggregates. A [`Journal`] records every significant state
//! transition of a run as a [`RunEvent`], stamped with the simulated time
//! and a strictly monotone sequence number, so tests can assert behavior
//! (ordering, causality, invariants) rather than only totals.
//!
//! The journal is deliberately simulator-agnostic: the DCA model and the
//! volunteer-computing server share one event vocabulary, which is what
//! makes differential trajectory comparisons between the two codepaths
//! possible.
//!
//! Three serialization-adjacent guarantees back the test harness:
//!
//! * recording is **deterministic**: the same seeded run produces the same
//!   event stream, bit for bit;
//! * [`Journal::digest`] collapses the stream into one 64-bit FNV-1a hash,
//!   so golden tests can pin a whole trajectory in a single constant;
//! * [`Journal::to_jsonl`] / [`Journal::from_jsonl`] round-trip the stream
//!   losslessly for capture, replay, and offline analysis.
//!
//! See the [`assert`](mod@assert) submodule for the trace-assertion DSL built on top.
//!
//! # Examples
//!
//! ```
//! use smartred_desim::journal::{EventKind, Journal, RunEvent};
//! use smartred_desim::time::SimTime;
//!
//! let mut journal = Journal::new();
//! journal.record(SimTime::from_units(0.5), RunEvent::WaveOpened { task: 0, wave: 1, jobs: 3 });
//! journal.record(
//!     SimTime::from_units(0.5),
//!     RunEvent::JobDispatched { job: 0, task: 0, node: 7, eta: SimTime::from_units(1.5) },
//! );
//! assert_eq!(journal.len(), 2);
//! assert_eq!(journal.count(EventKind::JobDispatched), 1);
//! let restored = Journal::from_jsonl(&journal.to_jsonl()).unwrap();
//! assert_eq!(restored.digest(), journal.digest());
//! ```

use std::fmt::{self, Write as _};

use crate::time::SimTime;

/// Why a node left the scheduler's reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepartureReason {
    /// The volunteer left of its own accord (churn).
    Churn,
    /// A fault-plan crash removed the node.
    Crash,
    /// The server's discipline permanently blacklisted the node.
    Blacklist,
}

impl Named for DepartureReason {
    const NAMES: &'static [(Self, &'static str)] = &[
        (DepartureReason::Churn, "churn"),
        (DepartureReason::Crash, "crash"),
        (DepartureReason::Blacklist, "blacklist"),
    ];
}

/// Which class of scheduled fault-plan event was injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A node crash.
    Crash,
    /// A hang window on one node.
    Hang,
    /// A straggler (slowdown) window on one node.
    Straggler,
    /// A collusion burst across a pool fraction.
    Collusion,
    /// A network blackout silencing every node.
    Blackout,
    /// An adaptive cartel formed: colluding nodes coordinate per-task lies
    /// at a throttled rate and go dormant when a member is caught.
    Cartel,
}

impl Named for FaultKind {
    const NAMES: &'static [(Self, &'static str)] = &[
        (FaultKind::Crash, "crash"),
        (FaultKind::Hang, "hang"),
        (FaultKind::Straggler, "straggler"),
        (FaultKind::Collusion, "collusion"),
        (FaultKind::Blackout, "blackout"),
        (FaultKind::Cartel, "cartel"),
    ];
}

/// 64-bit FNV-1a, fed incrementally. One hasher serves both the per-record
/// WAL checksum ([`fnv1a_64`]) and the stream digest ([`Journal::digest`]).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// How one field type crosses the wire: its JSONL text, its parse from
/// the raw value token (quotes included for strings), and the bytes it
/// feeds the digest.
trait Wire: Sized {
    fn write(&self, out: &mut String);
    fn read(raw: &str) -> Option<Self>;
    fn digest(&self, hash: &mut Fnv);
}

macro_rules! int_wire {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
            fn read(raw: &str) -> Option<Self> {
                raw.parse().ok()
            }
            fn digest(&self, hash: &mut Fnv) {
                hash.eat(&self.to_le_bytes());
            }
        }
    )*};
}
int_wire!(u32, u64);

impl Wire for bool {
    fn write(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
    fn read(raw: &str) -> Option<Self> {
        raw.parse().ok()
    }
    fn digest(&self, hash: &mut Fnv) {
        hash.eat(&[*self as u8]);
    }
}

/// Floats are written in Rust's shortest round-trip form and digested by
/// their exact bit pattern.
impl Wire for f64 {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self:?}");
    }
    fn read(raw: &str) -> Option<Self> {
        raw.parse().ok()
    }
    fn digest(&self, hash: &mut Fnv) {
        hash.eat(&self.to_bits().to_le_bytes());
    }
}

impl Wire for SimTime {
    fn write(&self, out: &mut String) {
        self.as_micros().write(out);
    }
    fn read(raw: &str) -> Option<Self> {
        u64::read(raw).map(SimTime::from_micros)
    }
    fn digest(&self, hash: &mut Fnv) {
        self.as_micros().digest(hash);
    }
}

/// A fieldless enum that crosses the wire as a quoted snake_case name.
trait Named: Copy + PartialEq + 'static {
    const NAMES: &'static [(Self, &'static str)];

    fn name(self) -> &'static str {
        let found = Self::NAMES.iter().find(|(v, _)| *v == self);
        found.expect("every variant is named").1
    }
}

impl<T: Named> Wire for T {
    fn write(&self, out: &mut String) {
        out.push('"');
        out.push_str(self.name());
        out.push('"');
    }
    fn read(raw: &str) -> Option<Self> {
        let name = raw.strip_prefix('"')?.strip_suffix('"')?;
        Self::NAMES
            .iter()
            .find(|(_, n)| *n == name)
            .map(|(v, _)| *v)
    }
    fn digest(&self, hash: &mut Fnv) {
        hash.eat(self.name().as_bytes());
    }
}

/// Sequential reader over the fields of one flat JSONL object, in the
/// order the schema writes them.
struct Fields<'a> {
    rest: &'a str,
}

impl<'a> Fields<'a> {
    /// The raw value token of the next field, which must be `key`.
    fn raw(&mut self, key: &str) -> Result<&'a str, String> {
        let rest = self.rest.strip_prefix(',').unwrap_or(self.rest);
        let value = rest
            .strip_prefix('"')
            .and_then(|r| r.strip_prefix(key))
            .and_then(|r| r.strip_prefix("\":"))
            .ok_or_else(|| format!("missing field '{key}'"))?;
        let end = match value.strip_prefix('"') {
            Some(s) => s.find('"').map(|i| i + 2),
            None => Some(value.find(',').unwrap_or(value.len())),
        };
        let end = end.ok_or_else(|| "unterminated string value".to_string())?;
        let (token, rest) = value.split_at(end);
        self.rest = rest;
        Ok(token)
    }

    fn field<T: Wire>(&mut self, key: &str) -> Result<T, String> {
        let raw = self.raw(key)?;
        T::read(raw).ok_or_else(|| format!("field '{key}' has a bad value '{raw}'"))
    }
}

/// The JSONL key of a field: its name, unless the schema overrides it.
macro_rules! wire_key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $key:literal) => {
        $key
    };
}

/// The event schema. Each variant names its snake_case kind once and lists
/// its fields once, in wire order; `field as "key": T` overrides the JSONL
/// key. From this one table come [`RunEvent`], [`EventKind`], their name
/// and kind lookups, the JSONL writer and reader, and the digest feed.
macro_rules! event_schema {
    (
        $(#[$emeta:meta])*
        pub enum RunEvent {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $name:literal $({
                    $( $(#[$fmeta:meta])* $field:ident $(as $key:literal)?: $ty:ty ),* $(,)?
                })?
            ),* $(,)?
        }
    ) => {
        $(#[$emeta])*
        pub enum RunEvent {
            $(
                $(#[$vmeta])*
                $variant $({ $( $(#[$fmeta])* $field: $ty ),* })?,
            )*
        }

        /// Fieldless discriminant of [`RunEvent`], for filtering and counting.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum EventKind {
            $(
                #[doc = concat!("See [`RunEvent::", stringify!($variant), "`].")]
                $variant,
            )*
        }

        impl EventKind {
            /// The kind's stable snake_case name, used in JSONL and digests.
            pub fn name(self) -> &'static str {
                match self {
                    $( EventKind::$variant => $name, )*
                }
            }
        }

        impl RunEvent {
            /// The event's discriminant.
            pub fn kind(&self) -> EventKind {
                match self {
                    $( RunEvent::$variant { .. } => EventKind::$variant, )*
                }
            }

            /// Appends `,"key":value` for every field, in schema order.
            fn write_fields(&self, out: &mut String) {
                match self {
                    $( RunEvent::$variant { $($($field,)*)? .. } => {
                        $($(
                            out.push_str(concat!(",\"", wire_key!($field $($key)?), "\":"));
                            $field.write(out);
                        )*)?
                    } )*
                }
            }

            /// Reads the fields of a `kind` event, in schema order.
            fn read_fields(kind: &str, fields: &mut Fields<'_>) -> Result<Self, String> {
                Ok(match kind {
                    $( $name => RunEvent::$variant {
                        $($( $field: fields.field(wire_key!($field $($key)?))?, )*)?
                    }, )*
                    other => return Err(format!("unknown event kind '{other}'")),
                })
            }

            /// Feeds every field to the digest, in schema order.
            fn digest_fields(&self, hash: &mut Fnv) {
                match self {
                    $( RunEvent::$variant { $($($field,)*)? .. } => {
                        $($( $field.digest(hash); )*)?
                    } )*
                }
            }
        }
    };
}

event_schema! {
    /// One structured event in a run's trajectory.
    ///
    /// Identifiers are the simulators' stable dense indices: `task` is the task
    /// (or workunit) index, `node` the node (or host) index, `job` the
    /// dispatch-order job index.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum RunEvent {
        /// A job was handed to a node. `eta` is the time at which the server
        /// will hear back: the job's completion time, or the timeout/deadline
        /// if the node hangs — so `eta - now` is the node-busy reservation.
        JobDispatched = "job_dispatched" {
            /// Dispatch-order job index.
            job: u32,
            /// Task the job belongs to.
            task: u32,
            /// Node executing the job.
            node: u32,
            /// Scheduled resolution time.
            eta: SimTime,
        },
        /// A job returned a result before the timeout.
        JobReturned = "job_returned" {
            /// Dispatch-order job index.
            job: u32,
            /// Task the job belongs to.
            task: u32,
            /// Node that executed the job.
            node: u32,
            /// The returned vote (in the DCA model `true` = correct value).
            value: bool,
        },
        /// A job missed the server timeout/deadline (hang, blackout, outage,
        /// straggler overrun, or mid-job node departure).
        JobTimedOut = "job_timed_out" {
            /// Dispatch-order job index.
            job: u32,
            /// Task the job belongs to.
            task: u32,
            /// Node that held the job.
            node: u32,
        },
        /// A timed-out job was hidden from the vote and scheduled for a
        /// backoff-delayed re-deployment (`attempt` is 1-based).
        JobRetried = "job_retried" {
            /// Task being retried.
            task: u32,
            /// Retry attempt number, starting at 1.
            attempt: u32,
        },
        /// A task's strategy opened deployment wave `wave` of `jobs` jobs.
        WaveOpened = "wave_opened" {
            /// Task index.
            task: u32,
            /// Wave number, starting at 1.
            wave: u32,
            /// Jobs deployed in this wave.
            jobs: u32,
        },
        /// Every job of the task's current wave has resolved (result, timeout,
        /// or abandonment); the strategy decides next.
        WaveClosed = "wave_closed" {
            /// Task index.
            task: u32,
            /// Wave number that just drained.
            wave: u32,
        },
        /// A vote landed in the task's tally.
        VoteTallied = "vote_tallied" {
            /// Task index.
            task: u32,
            /// The vote just recorded.
            value: bool,
            /// Votes for the current leader after this vote.
            leader_count as "leader": u32,
            /// Votes for the runner-up after this vote.
            runner_up: u32,
        },
        /// The discipline layer pulled a node from the scheduler for a while.
        NodeQuarantined = "node_quarantined" {
            /// Node index.
            node: u32,
        },
        /// A quarantined node rejoined the scheduler.
        NodeReleased = "node_released" {
            /// Node index.
            node: u32,
        },
        /// A node joined the pool mid-run (churn arrival).
        NodeJoined = "node_joined" {
            /// Node index.
            node: u32,
        },
        /// A node left the pool (or the scheduler, permanently).
        NodeDeparted = "node_departed" {
            /// Node index.
            node: u32,
            /// Why it left.
            reason: DepartureReason,
        },
        /// A regional outage started.
        OutageStarted = "outage_started" {
            /// Region index.
            region: u32,
        },
        /// A scheduled fault-plan event was injected.
        FaultInjected = "fault_injected" {
            /// Which fault class fired.
            kind as "fault": FaultKind,
        },
        /// A task reached a verdict. Firm verdicts carry confidence `1.0`;
        /// degraded verdicts (vote leader accepted at the job cap or at pool
        /// starvation) carry their Bayesian confidence `q(r, a, b)`.
        VerdictReached = "verdict_reached" {
            /// Task index.
            task: u32,
            /// The accepted value.
            value: bool,
            /// Whether the verdict was accepted degraded.
            degraded: bool,
            /// Confidence in the verdict.
            confidence: f64,
        },
        /// A task hit its job cap with no verdict (and no degraded acceptance).
        TaskCapped = "task_capped" {
            /// Task index.
            task: u32,
        },
        /// A worker thread died (panicked) while executing a job — live-runtime
        /// supervision vocabulary.
        WorkerCrashed = "worker_crashed" {
            /// Worker (node) index whose thread crashed.
            node: u32,
            /// The job it was executing.
            job: u32,
            /// Task the job belongs to.
            task: u32,
        },
        /// Supervision brought a crashed or hung worker back into service with
        /// a fresh executor.
        WorkerRestarted = "worker_restarted" {
            /// Worker (node) index restarted.
            node: u32,
            /// Restart count for this worker slot, starting at 1.
            incarnation: u32,
        },
        /// A task was quarantined as *poison* after repeatedly killing the
        /// workers executing it (distinct from node-level strikes).
        TaskPoisoned = "task_poisoned" {
            /// Task index.
            task: u32,
            /// Worker crashes the task caused before quarantine.
            crashes: u32,
        },
        /// A reply from a superseded replica epoch arrived and was discarded
        /// instead of being tallied (late answer after reissue or worker
        /// replacement).
        StaleReplyDropped = "stale_reply_dropped" {
            /// The job whose stale reply was dropped.
            job: u32,
            /// Task the job belongs to.
            task: u32,
            /// The task's current epoch that outranked the reply.
            epoch: u32,
        },
        /// A task's replica epoch advanced: outstanding replicas issued before
        /// this point are invalidated and any late replies from them will be
        /// rejected.
        EpochAdvanced = "epoch_advanced" {
            /// Task index.
            task: u32,
            /// The new epoch.
            epoch: u32,
        },
        /// A straggling job outlived the online latency-quantile threshold and
        /// a hedge twin was launched: a duplicate of the same logical replica
        /// on another worker. The first copy to report supplies the replica's
        /// vote; hedge twins never touch the wave accounting or the job cap.
        HedgeLaunched = "hedge_launched" {
            /// The hedge twin's own job index.
            job: u32,
            /// Task the hedged replica belongs to.
            task: u32,
            /// The straggling job the twin duplicates.
            origin: u32,
            /// The task's replica epoch at launch; a check armed before an
            /// epoch bump must not fire after it.
            epoch: u32,
        },
        /// A hedge twin beat its straggling origin: the twin's result supplied
        /// the replica's vote (journalled as the origin job's return) and the
        /// origin was discarded.
        HedgeWon = "hedge_won" {
            /// The winning hedge twin's job index.
            job: u32,
            /// Task the hedged replica belongs to.
            task: u32,
        },
        /// A hedge twin's work was discarded: its origin reported first (or
        /// the twin timed out), so the duplicate bought nothing this time.
        HedgeWasted = "hedge_wasted" {
            /// The wasted hedge twin's job index.
            job: u32,
            /// Task the hedged replica belongs to.
            task: u32,
        },
        /// The coordinator scheduled a local recomputation (audit) of a task's
        /// payload, to cross-check every result recorded for it so far.
        AuditScheduled = "audit_scheduled" {
            /// Task index being audited.
            task: u32,
        },
        /// An audit recomputed the task and every checked result matched.
        AuditPassed = "audit_passed" {
            /// Task index that was audited.
            task: u32,
        },
        /// An audit caught one node's result contradicting the local
        /// recomputation; the node is charged high-weight strikes.
        AuditFailed = "audit_failed" {
            /// Task index that was audited.
            task: u32,
            /// Node whose result the recomputation contradicted.
            node: u32,
        },
        /// An audit voided a tainted verdict before acceptance: the task's
        /// tally is discarded and the task re-executes from wave 1.
        VerdictVoided = "verdict_voided" {
            /// Task index whose would-be verdict was voided.
            task: u32,
        },
        /// An open task touched by a caught liar had its tally discarded and
        /// restarted from wave 1 (in-flight replies become stale).
        TaskRetallied = "task_retallied" {
            /// Task index whose tally was reset.
            task: u32,
        },
        /// A job's input payload started moving across the network to its
        /// node. The replica may not begin service until the transfer
        /// completes; `eta` is the deterministic completion time charged by
        /// the network model (latency + bytes / bandwidth).
        TransferStarted = "transfer_started" {
            /// Transfer index, dense in start order.
            xfer: u32,
            /// The job whose input is being moved.
            job: u32,
            /// Task the job belongs to.
            task: u32,
            /// Destination node.
            node: u32,
            /// Payload size being moved.
            bytes: u64,
            /// Scheduled transfer-completion time.
            eta: SimTime,
        },
        /// A payload transfer finished; the job's service may begin.
        TransferCompleted = "transfer_completed" {
            /// Transfer index (matches its [`RunEvent::TransferStarted`]).
            xfer: u32,
            /// The job whose input arrived.
            job: u32,
            /// Task the job belongs to.
            task: u32,
            /// Destination node.
            node: u32,
        },
        /// Every task of DAG stage `stage` reached its decision; the verdict
        /// gates dispatch of dependent stages. `correct`/`wrong` count the
        /// stage's *effective* outputs: a task's output is wrong when its own
        /// accepted value is wrong or any upstream input was poisoned.
        StageDecided = "stage_decided" {
            /// Stage index in the DAG spec.
            stage: u32,
            /// Tasks whose effective output is correct.
            correct: u32,
            /// Tasks whose effective output is wrong.
            wrong: u32,
        },
        /// A wrong accepted intermediate poisoned a downstream task: the
        /// descendant computes on bad data, so its output is wrong no matter
        /// how its own replicas vote.
        PoisonPropagated = "poison_propagated" {
            /// The downstream (poisoned) task.
            task: u32,
            /// Stage of the downstream task.
            stage: u32,
            /// The upstream task whose wrong accepted output caused it.
            from: u32,
        },
        /// A durable coordinator snapshot was taken at a quiescent point: the
        /// first `events` records of the run are now summarized by an
        /// on-disk checkpoint and the WAL was truncated, so this record seals
        /// the start of a fresh segment. Its own `seq` equals `events` —
        /// recovery uses that to pair segment and snapshot.
        CheckpointTaken = "checkpoint_taken" {
            /// Events covered by the snapshot (= this record's seq).
            events: u64,
            /// FNV-1a digest of the serialized snapshot, cross-checked
            /// against the snapshot file at recovery.
            digest: u64,
        },
        /// The run is over; the event's timestamp is the run's makespan.
        RunEnded = "run_ended",
    }
}

impl RunEvent {
    /// The task the event concerns, if any.
    pub fn task(&self) -> Option<u32> {
        match *self {
            RunEvent::JobDispatched { task, .. }
            | RunEvent::JobReturned { task, .. }
            | RunEvent::JobTimedOut { task, .. }
            | RunEvent::JobRetried { task, .. }
            | RunEvent::WaveOpened { task, .. }
            | RunEvent::WaveClosed { task, .. }
            | RunEvent::VoteTallied { task, .. }
            | RunEvent::VerdictReached { task, .. }
            | RunEvent::TaskCapped { task }
            | RunEvent::WorkerCrashed { task, .. }
            | RunEvent::TaskPoisoned { task, .. }
            | RunEvent::StaleReplyDropped { task, .. }
            | RunEvent::EpochAdvanced { task, .. }
            | RunEvent::HedgeLaunched { task, .. }
            | RunEvent::HedgeWon { task, .. }
            | RunEvent::HedgeWasted { task, .. }
            | RunEvent::AuditScheduled { task }
            | RunEvent::AuditPassed { task }
            | RunEvent::AuditFailed { task, .. }
            | RunEvent::VerdictVoided { task }
            | RunEvent::TaskRetallied { task }
            | RunEvent::TransferStarted { task, .. }
            | RunEvent::TransferCompleted { task, .. }
            | RunEvent::PoisonPropagated { task, .. } => Some(task),
            _ => None,
        }
    }

    /// The node the event concerns, if any.
    pub fn node(&self) -> Option<u32> {
        match *self {
            RunEvent::JobDispatched { node, .. }
            | RunEvent::JobReturned { node, .. }
            | RunEvent::JobTimedOut { node, .. }
            | RunEvent::NodeQuarantined { node }
            | RunEvent::NodeReleased { node }
            | RunEvent::NodeJoined { node }
            | RunEvent::NodeDeparted { node, .. }
            | RunEvent::WorkerCrashed { node, .. }
            | RunEvent::WorkerRestarted { node, .. }
            | RunEvent::AuditFailed { node, .. }
            | RunEvent::TransferStarted { node, .. }
            | RunEvent::TransferCompleted { node, .. } => Some(node),
            _ => None,
        }
    }
}

/// One journal entry: an event stamped with its simulated time and a
/// strictly monotone sequence number (total order even within one instant).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stamped {
    /// Simulated time at which the event occurred.
    pub at: SimTime,
    /// Recording sequence number, strictly increasing across the journal.
    pub seq: u64,
    /// The event.
    pub event: RunEvent,
}

impl Stamped {
    /// Serializes this entry as one JSONL object (no trailing newline) —
    /// the exact line format [`Journal::to_jsonl`] emits and
    /// [`Journal::from_jsonl`] parses. [`WalWriter`] appends these lines
    /// one durable write at a time.
    pub fn to_jsonl_line(&self) -> String {
        let mut line = String::with_capacity(128);
        self.write_jsonl(&mut line);
        line
    }

    fn write_jsonl(&self, out: &mut String) {
        out.push_str("{\"at\":");
        self.at.write(out);
        out.push_str(",\"seq\":");
        self.seq.write(out);
        out.push_str(",\"kind\":\"");
        out.push_str(self.event.kind().name());
        out.push('"');
        self.event.write_fields(out);
        out.push('}');
    }

    fn digest_into(&self, hash: &mut Fnv) {
        self.at.digest(hash);
        self.seq.digest(hash);
        hash.eat(self.event.kind().name().as_bytes());
        self.event.digest_fields(hash);
    }

    /// Serializes this entry with a trailing per-record checksum field:
    /// the canonical [`to_jsonl_line`](Self::to_jsonl_line) form with
    /// `,"crc":"<16 hex>"` spliced in before the closing brace, where the
    /// checksum is the FNV-1a hash of the canonical line's bytes. The
    /// result is still one flat JSON object, so checksummed and legacy
    /// records interleave freely in one WAL;
    /// [`from_jsonl_line`](Self::from_jsonl_line) verifies and strips the
    /// field.
    pub fn to_jsonl_line_checksummed(&self) -> String {
        let mut line = self.to_jsonl_line();
        let crc = fnv1a_64(line.as_bytes());
        line.pop(); // the closing '}'
        let _ = write!(line, ",\"crc\":\"{crc:016x}\"}}");
        line
    }

    /// Parses one entry back from its [`to_jsonl_line`](Self::to_jsonl_line)
    /// or [`to_jsonl_line_checksummed`](Self::to_jsonl_line_checksummed)
    /// form. The error is a bare message; callers attach line numbers.
    ///
    /// Two corruption guards run on every line. A checksummed record's
    /// trailer is verified against the FNV-1a hash of its canonical bytes,
    /// so any in-place mutation of the content is reported as a checksum
    /// mismatch. And — checksummed or not — the parsed record must
    /// re-serialize to exactly the canonical bytes it was parsed from, so
    /// a mutation that still parses (a damaged key name, a value spelled
    /// differently) can never be silently accepted as a different valid
    /// event.
    pub fn from_jsonl_line(line: &str) -> Result<Self, String> {
        let body = canonical_body(line.trim())?;
        let inner = body
            .strip_prefix('{')
            .ok_or_else(|| "not a JSON object".to_string())?;
        let mut fields = Fields { rest: inner };
        let at = fields.field("at")?;
        let seq = fields.field("seq")?;
        let kind = fields.raw("kind")?.trim_matches('"');
        let event = RunEvent::read_fields(kind, &mut fields)?;
        let stamped = Stamped { at, seq, event };
        // Trailing or respelled fields fail here too: the re-encoding
        // covers exactly the fields the schema read.
        if stamped.to_jsonl_line().strip_suffix('}') != Some(body) {
            return Err("record is not in canonical form (corruption suspected)".to_string());
        }
        Ok(stamped)
    }
}

/// 64-bit FNV-1a over raw bytes — the per-record WAL checksum. (The same
/// hasher as [`Journal::digest`], but over serialized line bytes rather
/// than decoded fields.)
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash = Fnv::new();
    hash.eat(bytes);
    hash.0
}

/// Detects and verifies the `,"crc":"<16 hex>"` trailer of a checksummed
/// record, returning the canonical line without its closing brace. A line
/// without the trailer is returned as-is — legacy WALs keep parsing. A
/// present-but-wrong trailer (bad shape, non-hex digits, or a hash that
/// does not match the canonical bytes) is corruption.
fn canonical_body(line: &str) -> Result<&str, String> {
    const TAG: &str = ",\"crc\":\"";
    let Some(idx) = line.rfind(TAG) else {
        return line
            .strip_suffix('}')
            .ok_or_else(|| "not a JSON object".to_string());
    };
    let trailer = &line[idx + TAG.len()..];
    let hex = trailer
        .strip_suffix("\"}")
        // Lowercase only, as written: an upper-case digit is one bit flip
        // away from the lower-case one and would otherwise pass unnoticed.
        .filter(|h| h.len() == 16 && h.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')))
        .ok_or_else(|| "malformed checksum trailer".to_string())?;
    let stated = u64::from_str_radix(hex, 16).expect("16 hex digits fit u64");
    let body = &line[..idx];
    let mut hash = Fnv::new();
    hash.eat(body.as_bytes());
    hash.eat(b"}");
    if stated != hash.0 {
        return Err(format!(
            "checksum mismatch: record states {stated:016x} but content hashes to {:016x}",
            hash.0
        ));
    }
    Ok(body)
}

/// Best-effort extraction of the `"seq"` field from a raw (possibly
/// corrupt) WAL line, so parse errors can name the damaged record even
/// when it no longer parses as a whole.
fn sniff_seq(line: &str) -> Option<u64> {
    let idx = line.find("\"seq\":")?;
    let rest = &line[idx + 6..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Error returned by [`Journal::from_jsonl`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Byte offset of the start of the offending line within the input.
    pub offset: usize,
    /// The damaged record's sequence number, when it could still be
    /// sniffed out of the corrupt line.
    pub seq: Option<u64>,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JournalParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "journal line {} at byte {}", self.line, self.offset)?;
        if let Some(seq) = self.seq {
            write!(f, " (record seq {seq})")?;
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for JournalParseError {}

/// An append-only, deterministic event journal of one run.
///
/// A disabled journal ([`Journal::disabled`]) drops every record without
/// allocating, so always-on emission sites cost one predictable branch when
/// journaling is off.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Journal {
    enabled: bool,
    events: Vec<Stamped>,
    next_seq: u64,
}

impl Journal {
    /// Creates an enabled, empty journal.
    pub fn new() -> Self {
        Self {
            enabled: true,
            events: Vec::new(),
            next_seq: 0,
        }
    }

    /// Creates a journal that silently discards every record.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            events: Vec::new(),
            next_seq: 0,
        }
    }

    /// Creates an enabled, empty journal whose next recorded event gets
    /// sequence number `next_seq` — the resume point after a checkpoint
    /// truncated the history the sequence numbers continue from.
    pub fn resume_at(next_seq: u64) -> Self {
        Self {
            enabled: true,
            events: Vec::new(),
            next_seq,
        }
    }

    /// The sequence number the next recorded event will get. Since
    /// sequence numbers are dense, this is also the total number of events
    /// ever recorded into this stream — including any prefix compacted
    /// away by a checkpoint (see [`Journal::resume_at`]).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Whether records are being kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Appends one event at simulated time `at`. No-op when disabled.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if events are recorded out of time order —
    /// simulation clocks are monotone, so that is a bug at the emission
    /// site.
    pub fn record(&mut self, at: SimTime, event: RunEvent) {
        if !self.enabled {
            return;
        }
        debug_assert!(
            self.events.last().map(|e| e.at <= at).unwrap_or(true),
            "journal recorded out of time order at {at}"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(Stamped { at, seq, event });
    }

    /// All entries, in recording (= time) order.
    pub fn events(&self) -> &[Stamped] {
        &self.events
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Entries concerning one task, in order.
    pub fn for_task(&self, task: u32) -> impl Iterator<Item = &Stamped> + '_ {
        self.events
            .iter()
            .filter(move |e| e.event.task() == Some(task))
    }

    /// Entries concerning one node, in order.
    pub fn for_node(&self, node: u32) -> impl Iterator<Item = &Stamped> + '_ {
        self.events
            .iter()
            .filter(move |e| e.event.node() == Some(node))
    }

    /// Entries of one kind, in order.
    pub fn of_kind(&self, kind: EventKind) -> impl Iterator<Item = &Stamped> + '_ {
        self.events.iter().filter(move |e| e.event.kind() == kind)
    }

    /// Number of entries of one kind.
    pub fn count(&self, kind: EventKind) -> usize {
        self.of_kind(kind).count()
    }

    /// The contiguous window of entries with `t0 <= at <= t1` (binary
    /// search; the journal is time-ordered by construction).
    pub fn between(&self, t0: SimTime, t1: SimTime) -> &[Stamped] {
        let lo = self.events.partition_point(|e| e.at < t0);
        let hi = self.events.partition_point(|e| e.at <= t1);
        &self.events[lo..hi.max(lo)]
    }

    /// One task's full timeline: every entry concerning it, in order.
    pub fn task_timeline(&self, task: u32) -> Vec<&Stamped> {
        self.for_task(task).collect()
    }

    /// 64-bit FNV-1a digest of the entire event stream.
    ///
    /// The digest covers timestamps, sequence numbers, event kinds, and
    /// every field (floats by their exact bit pattern), so *any* change to
    /// the trajectory — reordering, a shifted timestamp, a different vote —
    /// changes the digest. Golden tests pin a run to one `u64`.
    pub fn digest(&self) -> u64 {
        let mut hash = Fnv::new();
        for e in &self.events {
            e.digest_into(&mut hash);
        }
        hash.0
    }

    /// The digest as a fixed-width hex string, convenient for golden tests.
    pub fn digest_hex(&self) -> String {
        format!("{:016x}", self.digest())
    }

    /// Serializes the journal as JSON Lines: one event object per line,
    /// fixed key order, byte-deterministic. Floats use Rust's shortest
    /// round-trip formatting, so [`Journal::from_jsonl`] restores them
    /// bit-exactly.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 64);
        for e in &self.events {
            e.write_jsonl(&mut out);
            out.push('\n');
        }
        out
    }

    /// Parses a journal back from its [`Journal::to_jsonl`] form. A final
    /// line without its newline counts as whole here, unlike in
    /// [`Journal::from_jsonl_prefix`].
    ///
    /// # Errors
    ///
    /// Returns [`JournalParseError`] naming the first malformed line.
    pub fn from_jsonl(text: &str) -> Result<Self, JournalParseError> {
        let text = if text.is_empty() || text.ends_with('\n') {
            std::borrow::Cow::Borrowed(text)
        } else {
            std::borrow::Cow::Owned(format!("{text}\n"))
        };
        Self::from_jsonl_prefix(&text).map(|prefix| prefix.journal)
    }

    /// Reads a journal from possibly crash-truncated WAL bytes.
    ///
    /// A writer that dies mid-append leaves a *torn tail*: a final chunk
    /// with no trailing newline (whether or not the truncated bytes still
    /// parse). Such a tail is dropped and reported via [`WalPrefix::torn`];
    /// `valid_bytes` is the length of the longest whole-record prefix, so a
    /// recovering writer can truncate the file there and resume appending.
    ///
    /// # Errors
    ///
    /// A malformed record on any *newline-terminated* line — including the
    /// final one — is in-place corruption of a fully-written record, not a
    /// torn write (each append writes `record + '\n'` in one call, so a
    /// partial append can never include the newline). That fails with
    /// [`JournalParseError`], carrying the line's byte offset and, when it
    /// can still be sniffed from the damaged bytes, the record's seq.
    pub fn from_jsonl_prefix(text: &str) -> Result<WalPrefix, JournalParseError> {
        let mut journal = Journal::new();
        let mut torn = false;
        let mut valid_bytes = 0usize;
        for (i, chunk) in text.split_inclusive('\n').enumerate() {
            let start = valid_bytes;
            let Some(line) = chunk.strip_suffix('\n') else {
                // The newline never hit the disk: the writer died
                // mid-append, so the record was never acknowledged (even
                // if the truncated bytes still parse) — drop it and resume.
                torn = !chunk.trim().is_empty();
                break;
            };
            valid_bytes += chunk.len();
            if line.trim().is_empty() {
                continue;
            }
            // A terminated line was fully written in one append (the
            // newline is its last byte), so a parse or checksum failure
            // here is in-place corruption of an acknowledged record —
            // refuse, never resume past it.
            let fail = |seq, message| JournalParseError {
                line: i + 1,
                offset: start,
                seq,
                message,
            };
            let stamped = Stamped::from_jsonl_line(line).map_err(|m| fail(sniff_seq(line), m))?;
            if let Some(prev) = journal.events.last() {
                if stamped.at < prev.at {
                    let message =
                        format!("events out of time order: {} after {}", stamped.at, prev.at);
                    return Err(fail(Some(stamped.seq), message));
                }
            }
            journal.next_seq = stamped.seq + 1;
            journal.events.push(stamped);
        }
        Ok(WalPrefix {
            journal,
            torn,
            valid_bytes,
        })
    }

    /// Deterministically merges per-shard event streams into one journal.
    ///
    /// A sharded runtime records one journal (and WAL segment) per
    /// coordinator shard. This merge reconstructs the global stream:
    /// events are ordered by `(at, shard index, seq)` — time first, then
    /// the owning shard as the tiebreak, then the shard's own sequence —
    /// and re-sequenced `0..n`. The order is a pure function of the input
    /// streams, so two merges of the same segments are byte-identical, and
    /// replaying the merged stream (e.g. through a report fold) is
    /// reproducible. Merging a single journal re-sequences but otherwise
    /// returns it unchanged.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any input stream is internally out of
    /// time order (each shard's journal is monotone by construction).
    pub fn merge_sharded(parts: &[Journal]) -> Journal {
        let mut keyed: Vec<(SimTime, usize, u64, &Stamped)> = Vec::new();
        for (shard, part) in parts.iter().enumerate() {
            debug_assert!(
                part.events.windows(2).all(|w| w[0].at <= w[1].at),
                "shard {shard} journal is out of time order"
            );
            for e in &part.events {
                keyed.push((e.at, shard, e.seq, e));
            }
        }
        keyed.sort_by_key(|&(at, shard, seq, _)| (at, shard, seq));
        let mut merged = Journal::new();
        for (i, (_, _, _, e)) in keyed.into_iter().enumerate() {
            merged.events.push(Stamped {
                at: e.at,
                seq: i as u64,
                event: e.event,
            });
        }
        merged.next_seq = merged.events.len() as u64;
        merged
    }
}

/// Result of [`Journal::from_jsonl_prefix`]: the longest whole-record
/// prefix of a write-ahead log, plus what was left behind.
#[derive(Debug)]
pub struct WalPrefix {
    /// Events recovered from the intact prefix.
    pub journal: Journal,
    /// True when a torn (unterminated or unparsable) final record was
    /// dropped.
    pub torn: bool,
    /// Byte length of the intact prefix; truncate the file here before
    /// resuming appends.
    pub valid_bytes: usize,
}

/// Durable appender for the JSONL write-ahead log.
///
/// Each [`append`](WalWriter::append) writes one complete
/// `record + '\n'` in a single `write` call and flushes — with
/// `sync = true` it also `fdatasync`s, so an acknowledged append survives
/// process death and at most the *final* record of the file can ever be
/// torn. The file contents stay byte-identical to
/// [`Journal::to_jsonl`] of the events appended so far (or its
/// checksummed equivalent under [`with_checksums`](WalWriter::with_checksums)).
///
/// ## Group commit
///
/// [`with_batch`](WalWriter::with_batch) amortizes the fsync tax: with a
/// batch of `n`, only every `n`-th append pays the `fdatasync`, while each
/// append still writes and flushes its complete record (so an in-process
/// crash loses nothing — only power loss can drop the unsynced tail).
/// Callers with an ordering barrier — "this event must be durable before
/// its side effect" — force the sync early with
/// [`commit`](WalWriter::commit). The default batch of 1 is the original
/// sync-every-append behavior.
///
/// ## Poisoning
///
/// Any I/O error — a failed write, flush, or `fdatasync` — permanently
/// poisons the writer: every later [`append`](WalWriter::append),
/// [`commit`](WalWriter::commit), or [`truncate`](WalWriter::truncate)
/// fails fast with the original error's message. A failed fsync in
/// particular leaves the kernel free to have *dropped* the dirty pages
/// (the fsyncgate failure class), so retrying the sync and continuing
/// would silently lose acknowledged records; the only safe recovery is to
/// reread the file through [`Journal::from_jsonl_prefix`].
#[derive(Debug)]
pub struct WalWriter {
    disk: Box<dyn crate::disk::Disk>,
    sync: bool,
    /// Appends per fdatasync under group commit; 1 = sync every append.
    batch: u64,
    /// Appends since the last sync.
    pending: u64,
    /// Write per-record checksums (see [`Stamped::to_jsonl_line_checksummed`]).
    checksum: bool,
    /// The first I/O error message, once anything failed.
    poisoned: Option<String>,
}

impl WalWriter {
    fn over(disk: Box<dyn crate::disk::Disk>, sync: bool) -> Self {
        WalWriter {
            disk,
            sync,
            batch: 1,
            pending: 0,
            checksum: false,
            poisoned: None,
        }
    }

    /// Creates (or truncates) the WAL at `path`.
    pub fn create(path: &std::path::Path, sync: bool) -> std::io::Result<Self> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let file = std::fs::File::create(path)?;
        Ok(Self::over(Box::new(crate::disk::RealDisk::new(file)), sync))
    }

    /// Creates a writer over an arbitrary [`Disk`](crate::disk::Disk) —
    /// the seam the fault-injection harness uses to place a
    /// [`FaultyDisk`](crate::disk::FaultyDisk) under the log.
    pub fn with_disk(disk: Box<dyn crate::disk::Disk>, sync: bool) -> Self {
        Self::over(disk, sync)
    }

    /// Reopens an existing WAL for appending after recovery, truncating a
    /// torn tail: `valid_bytes` is the intact prefix length reported by
    /// [`Journal::from_jsonl_prefix`].
    pub fn resume(path: &std::path::Path, valid_bytes: u64, sync: bool) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new().write(true).open(path)?;
        let mut writer = Self::over(Box::new(crate::disk::RealDisk::new(file)), sync);
        writer.disk.set_len(valid_bytes)?;
        writer.disk.seek_end()?;
        Ok(writer)
    }

    /// Enables group commit: `fdatasync` only every `every`-th append
    /// (clamped to at least 1). See the type docs for the durability
    /// trade-off.
    pub fn with_batch(mut self, every: u64) -> Self {
        self.batch = every.max(1);
        self
    }

    /// Enables (or disables) per-record checksums on appended lines.
    /// Checksummed and legacy records may interleave in one file; readers
    /// verify whatever framing each line carries.
    pub fn with_checksums(mut self, on: bool) -> Self {
        self.checksum = on;
        self
    }

    fn guard(&self) -> std::io::Result<()> {
        match &self.poisoned {
            Some(original) => Err(std::io::Error::other(format!(
                "WAL writer poisoned by earlier I/O error: {original}"
            ))),
            None => Ok(()),
        }
    }

    fn poisoning<T>(&mut self, result: std::io::Result<T>) -> std::io::Result<T> {
        if let Err(err) = &result {
            self.poisoned = Some(err.to_string());
        }
        result
    }

    /// Appends one record: a single complete-line write plus flush, and —
    /// when syncing is enabled — an `fdatasync` once the group-commit
    /// batch fills. Callers act on the event *after* this returns, which
    /// is what makes the log write-ahead; under a batch > 1 the durability
    /// boundary against power loss is the batch, not the append, and
    /// decision points call [`commit`](WalWriter::commit) to tighten it.
    ///
    /// # Errors
    ///
    /// Fails on the underlying I/O error, after which the writer is
    /// permanently poisoned — see the type docs.
    pub fn append(&mut self, entry: &Stamped) -> std::io::Result<()> {
        self.guard()?;
        let mut line = if self.checksum {
            entry.to_jsonl_line_checksummed()
        } else {
            entry.to_jsonl_line()
        };
        line.push('\n');
        let result = self.append_bytes(line.as_bytes());
        self.poisoning(result)
    }

    fn append_bytes(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.disk.write_all(bytes)?;
        self.disk.flush()?;
        if self.sync {
            self.pending += 1;
            if self.pending >= self.batch {
                self.disk.sync_data()?;
                self.pending = 0;
            }
        }
        Ok(())
    }

    /// Forces the group-commit batch to disk now. A no-op when nothing is
    /// pending (in particular under the default batch of 1, where every
    /// append already synced).
    ///
    /// # Errors
    ///
    /// Fails on the underlying I/O error, after which the writer is
    /// permanently poisoned — see the type docs.
    pub fn commit(&mut self) -> std::io::Result<()> {
        self.guard()?;
        if self.sync && self.pending > 0 {
            let result = self.disk.sync_data();
            self.poisoning(result)?;
            self.pending = 0;
        }
        Ok(())
    }

    /// Truncates the log to zero length — the compaction step after a
    /// checkpoint snapshot has been durably written elsewhere. The next
    /// append starts a fresh segment.
    ///
    /// # Errors
    ///
    /// Fails on the underlying I/O error, after which the writer is
    /// permanently poisoned — see the type docs.
    pub fn truncate(&mut self) -> std::io::Result<()> {
        self.guard()?;
        let result = match self.disk.set_len(0) {
            Ok(()) => self.disk.seek_end().map(|_| ()),
            Err(err) => Err(err),
        };
        self.pending = 0;
        self.poisoning(result)
    }
}

pub mod assert {
    //! Trace-assertion DSL: behavioral checks over any [`Stamped`] event
    //! stream — a [`Journal`] from the simulators or a slice captured from
    //! the live runtime (`smartred-runtime`). The assertions only look at
    //! event *structure* and ordering, never at absolute timestamps, so
    //! they hold identically for sim-time and wall-clock sources.
    //!
    //! Every method panics with a descriptive message on violation, so the
    //! DSL composes directly with `#[test]` functions — a failed trajectory
    //! assertion names the offending event.
    //!
    //! # Examples
    //!
    //! ```
    //! use smartred_desim::journal::{EventKind, Journal, RunEvent};
    //! use smartred_desim::journal::assert::that;
    //! use smartred_desim::time::SimTime;
    //!
    //! let mut j = Journal::new();
    //! let t = SimTime::from_units(1.0);
    //! j.record(t, RunEvent::JobTimedOut { job: 0, task: 3, node: 1 });
    //! j.record(t, RunEvent::JobRetried { task: 3, attempt: 1 });
    //! that(&j)
    //!     .time_ordered()
    //!     .retry_follows_timeout()
    //!     .count(EventKind::JobRetried)
    //!     .exactly(1);
    //! ```

    use super::{EventKind, Journal, RunEvent, Stamped};

    /// Entry point: wraps a journal for chained assertions.
    pub fn that(journal: &Journal) -> TraceAssert<'_> {
        events(journal.events())
    }

    /// Entry point for a raw stamped-event slice — the same assertions
    /// against any event source (e.g. the live runtime's journal export).
    pub fn events(events: &[Stamped]) -> TraceAssert<'_> {
        TraceAssert { events }
    }

    /// Chainable assertion context over one stamped event stream.
    #[derive(Debug, Clone, Copy)]
    pub struct TraceAssert<'a> {
        events: &'a [Stamped],
    }

    impl<'a> TraceAssert<'a> {
        /// The underlying event stream.
        pub fn events(&self) -> &'a [Stamped] {
            self.events
        }

        /// Asserts timestamps are non-decreasing and sequence numbers
        /// strictly increasing.
        pub fn time_ordered(&self) -> &Self {
            for pair in self.events.windows(2) {
                assert!(
                    pair[0].at <= pair[1].at,
                    "journal out of time order: seq {} at {} precedes seq {} at {}",
                    pair[0].seq,
                    pair[0].at,
                    pair[1].seq,
                    pair[1].at
                );
                assert!(
                    pair[0].seq < pair[1].seq,
                    "journal sequence not strictly increasing at seq {}",
                    pair[1].seq
                );
            }
            self
        }

        /// Starts a count assertion for one event kind.
        pub fn count(&self, kind: EventKind) -> CountAssert<'a> {
            CountAssert {
                parent: *self,
                kind,
                n: self
                    .events
                    .iter()
                    .filter(|e| e.event.kind() == kind)
                    .count(),
            }
        }

        /// Asserts no event matches `pred`. `desc` names the forbidden
        /// behavior in the panic message.
        pub fn never<F>(&self, desc: &str, pred: F) -> &Self
        where
            F: Fn(&Stamped) -> bool,
        {
            if let Some(e) = self.events.iter().find(|e| pred(e)) {
                panic!(
                    "forbidden event ({desc}): seq {} at {} — {:?}",
                    e.seq, e.at, e.event
                );
            }
            self
        }

        /// Asserts every event matching `trigger` has a *later or
        /// simultaneous* event `e2` (greater sequence number) for which
        /// `response(trigger_event, e2)` holds — the generic
        /// "B eventually follows A" causality check.
        pub fn each_followed_by<T, R>(&self, desc: &str, trigger: T, response: R) -> &Self
        where
            T: Fn(&Stamped) -> bool,
            R: Fn(&Stamped, &Stamped) -> bool,
        {
            let events = self.events;
            for (i, e) in events.iter().enumerate() {
                if trigger(e) && !events[i + 1..].iter().any(|later| response(e, later)) {
                    panic!(
                        "unanswered event ({desc}): seq {} at {} — {:?} has no follow-up",
                        e.seq, e.at, e.event
                    );
                }
            }
            self
        }

        /// Asserts every event matching `effect` has an *earlier or
        /// simultaneous* event `e0` (smaller sequence number) for which
        /// `cause(e0, effect_event)` holds — "A precedes B" causality.
        pub fn each_preceded_by<E, C>(&self, desc: &str, effect: E, cause: C) -> &Self
        where
            E: Fn(&Stamped) -> bool,
            C: Fn(&Stamped, &Stamped) -> bool,
        {
            let events = self.events;
            for (i, e) in events.iter().enumerate() {
                if effect(e) && !events[..i].iter().any(|earlier| cause(earlier, e)) {
                    panic!(
                        "uncaused event ({desc}): seq {} at {} — {:?} has no preceding cause",
                        e.seq, e.at, e.event
                    );
                }
            }
            self
        }

        /// Built-in invariant: every [`RunEvent::JobRetried`] is preceded by
        /// a [`RunEvent::JobTimedOut`] of the same task.
        pub fn retry_follows_timeout(&self) -> &Self {
            self.each_preceded_by(
                "retry follows timeout",
                |e| matches!(e.event, RunEvent::JobRetried { .. }),
                |earlier, retry| match (earlier.event, retry.event) {
                    (RunEvent::JobTimedOut { task, .. }, RunEvent::JobRetried { task: rt, .. }) => {
                        task == rt
                    }
                    _ => false,
                },
            )
        }

        /// Built-in invariant: no job is dispatched to a node that is
        /// currently quarantined or has departed. Walks the stream
        /// maintaining the quarantine set (quarantine opens it, release
        /// closes it) and the departed set, which never closes: node ids
        /// are never reused, and a blacklisted node never returns.
        pub fn no_dispatch_to_quarantined(&self) -> &Self {
            let mut quarantined = std::collections::HashSet::new();
            let mut departed = std::collections::HashSet::new();
            for e in self.events {
                match e.event {
                    RunEvent::NodeQuarantined { node } => {
                        quarantined.insert(node);
                    }
                    RunEvent::NodeReleased { node } => {
                        quarantined.remove(&node);
                    }
                    RunEvent::NodeDeparted { node, .. } => {
                        departed.insert(node);
                    }
                    RunEvent::JobDispatched { node, task, .. } => {
                        let state = if departed.contains(&node) {
                            "departed"
                        } else if quarantined.contains(&node) {
                            "quarantined"
                        } else {
                            continue;
                        };
                        panic!(
                            "job for task {task} dispatched to {state} node {node} at {} (seq {})",
                            e.at, e.seq
                        );
                    }
                    _ => {}
                }
            }
            self
        }

        /// Built-in invariant: per task, wave numbers open in order 1, 2, …
        /// and a wave closes only after it opened.
        pub fn waves_well_formed(&self) -> &Self {
            use std::collections::HashMap;
            let mut opened: HashMap<u32, u32> = HashMap::new();
            for e in self.events {
                match e.event {
                    RunEvent::WaveOpened { task, wave, .. } => {
                        let prev = opened.insert(task, wave).unwrap_or(0);
                        assert!(
                            wave == prev + 1,
                            "task {task} opened wave {wave} after wave {prev} at {}",
                            e.at
                        );
                    }
                    RunEvent::WaveClosed { task, wave } => {
                        let cur = opened.get(&task).copied().unwrap_or(0);
                        assert!(
                            wave <= cur,
                            "task {task} closed wave {wave} which never opened (last {cur})"
                        );
                    }
                    _ => {}
                }
            }
            self
        }

        /// Built-in invariant: every firm (non-degraded)
        /// [`RunEvent::VerdictReached`] is preceded by at least `quorum`
        /// [`RunEvent::VoteTallied`] events for the same task carrying the
        /// accepted value. For traditional redundancy `quorum` is the vote
        /// threshold ⌈k/2⌉; for iterative redundancy it is the margin `d`
        /// (the winner leads by `d`, so it holds at least `d` votes).
        pub fn verdicts_have_quorum(&self, quorum: usize) -> &Self {
            for (i, e) in self.events.iter().enumerate() {
                if let RunEvent::VerdictReached {
                    task,
                    value,
                    degraded: false,
                    ..
                } = e.event
                {
                    let votes = self.events[..i]
                        .iter()
                        .filter(|v| {
                            matches!(
                                v.event,
                                RunEvent::VoteTallied { task: vt, value: vv, .. }
                                    if vt == task && vv == value
                            )
                        })
                        .count();
                    assert!(
                        votes >= quorum,
                        "task {task} reached firm verdict {value} at {} (seq {}) \
                         with only {votes} matching votes tallied, quorum {quorum}",
                        e.at,
                        e.seq
                    );
                }
            }
            self
        }
    }

    /// Pending count assertion for one event kind.
    #[derive(Debug, Clone, Copy)]
    pub struct CountAssert<'a> {
        parent: TraceAssert<'a>,
        kind: EventKind,
        n: usize,
    }

    impl<'a> CountAssert<'a> {
        /// Asserts the count equals `expected`.
        pub fn exactly(&self, expected: usize) -> TraceAssert<'a> {
            assert!(
                self.n == expected,
                "expected exactly {expected} {} events, found {}",
                self.kind.name(),
                self.n
            );
            self.parent
        }

        /// Asserts the count is at least `min`.
        pub fn at_least(&self, min: usize) -> TraceAssert<'a> {
            assert!(
                self.n >= min,
                "expected at least {min} {} events, found {}",
                self.kind.name(),
                self.n
            );
            self.parent
        }

        /// Asserts the count is at most `max`.
        pub fn at_most(&self, max: usize) -> TraceAssert<'a> {
            assert!(
                self.n <= max,
                "expected at most {max} {} events, found {}",
                self.kind.name(),
                self.n
            );
            self.parent
        }

        /// The raw count, for ad-hoc arithmetic.
        pub fn get(&self) -> usize {
            self.n
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(units: f64) -> SimTime {
        SimTime::from_units(units)
    }

    fn sample_journal() -> Journal {
        let mut j = Journal::new();
        j.record(
            t(0.0),
            RunEvent::WaveOpened {
                task: 0,
                wave: 1,
                jobs: 3,
            },
        );
        j.record(
            t(0.0),
            RunEvent::JobDispatched {
                job: 0,
                task: 0,
                node: 2,
                eta: t(1.0),
            },
        );
        j.record(
            t(1.0),
            RunEvent::JobReturned {
                job: 0,
                task: 0,
                node: 2,
                value: true,
            },
        );
        j.record(
            t(1.0),
            RunEvent::VoteTallied {
                task: 0,
                value: true,
                leader_count: 1,
                runner_up: 0,
            },
        );
        j.record(
            t(2.0),
            RunEvent::JobTimedOut {
                job: 1,
                task: 0,
                node: 3,
            },
        );
        j.record(
            t(2.0),
            RunEvent::JobRetried {
                task: 0,
                attempt: 1,
            },
        );
        j.record(t(3.0), RunEvent::NodeQuarantined { node: 3 });
        j.record(t(4.0), RunEvent::NodeReleased { node: 3 });
        j.record(
            t(5.0),
            RunEvent::VerdictReached {
                task: 0,
                value: true,
                degraded: false,
                confidence: 1.0,
            },
        );
        j.record(t(5.0), RunEvent::RunEnded);
        j
    }

    #[test]
    fn queries_filter_and_window() {
        let j = sample_journal();
        assert_eq!(j.len(), 10);
        assert_eq!(j.for_task(0).count(), 7);
        assert_eq!(j.for_node(3).count(), 3);
        assert_eq!(j.count(EventKind::JobRetried), 1);
        assert_eq!(j.between(t(1.0), t(2.0)).len(), 4);
        assert_eq!(j.between(t(9.0), t(10.0)).len(), 0);
        assert_eq!(j.task_timeline(0).len(), 7);
        assert_eq!(j.task_timeline(5).len(), 0);
    }

    #[test]
    fn jsonl_round_trips_losslessly() {
        let j = sample_journal();
        let text = j.to_jsonl();
        let restored = Journal::from_jsonl(&text).unwrap();
        assert_eq!(restored.events(), j.events());
        assert_eq!(restored.digest(), j.digest());
        assert_eq!(restored.to_jsonl(), text);
    }

    #[test]
    fn merge_of_one_shard_is_the_identity() {
        let j = sample_journal();
        let merged = Journal::merge_sharded(std::slice::from_ref(&j));
        assert_eq!(merged.events(), j.events());
        assert_eq!(merged.digest(), j.digest());
    }

    #[test]
    fn merge_orders_by_time_then_shard_then_seq_and_resequences() {
        let mut a = Journal::new();
        a.record(
            t(0.0),
            RunEvent::WaveOpened {
                task: 0,
                wave: 1,
                jobs: 1,
            },
        );
        a.record(t(2.0), RunEvent::TaskCapped { task: 0 });
        let mut b = Journal::new();
        b.record(
            t(0.0),
            RunEvent::WaveOpened {
                task: 1,
                wave: 1,
                jobs: 1,
            },
        );
        b.record(t(1.0), RunEvent::TaskCapped { task: 1 });
        let merged = Journal::merge_sharded(&[a.clone(), b.clone()]);
        let tasks: Vec<Option<u32>> = merged.events().iter().map(|e| e.event.task()).collect();
        // t=0: shard 0 before shard 1; then b's t=1 before a's t=2.
        assert_eq!(tasks, vec![Some(0), Some(1), Some(1), Some(0)]);
        let seqs: Vec<u64> = merged.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        // Determinism: merging again gives byte-identical output.
        assert_eq!(
            merged.to_jsonl(),
            Journal::merge_sharded(&[a, b]).to_jsonl()
        );
    }

    #[test]
    fn merge_is_time_ordered_for_interleaved_shards() {
        let mut shards = Vec::new();
        for s in 0..4u64 {
            let mut j = Journal::new();
            for i in 0..10u64 {
                j.record(
                    t((i * 3 + s) as f64),
                    RunEvent::WaveOpened {
                        task: (s * 100 + i) as u32,
                        wave: 1,
                        jobs: 1,
                    },
                );
            }
            shards.push(j);
        }
        let merged = Journal::merge_sharded(&shards);
        assert_eq!(merged.len(), 40);
        assert!(merged.events().windows(2).all(|w| w[0].at <= w[1].at));
        assert!(merged
            .events()
            .iter()
            .enumerate()
            .all(|(i, e)| e.seq == i as u64));
    }

    #[test]
    fn batched_wal_writes_every_record_and_commit_flushes_the_tail() {
        let path = std::env::temp_dir().join(format!(
            "smartred-journal-batch-{}.wal.jsonl",
            std::process::id()
        ));
        let j = sample_journal();
        let mut wal = WalWriter::create(&path, true).unwrap().with_batch(4);
        for e in j.events() {
            wal.append(e).unwrap();
        }
        // Every record is written and flushed regardless of the batch:
        // the file equals the journal byte for byte even before commit.
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(on_disk, j.to_jsonl());
        wal.commit().unwrap();
        wal.commit().unwrap(); // idempotent with nothing pending
        let restored = Journal::from_jsonl(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(restored.events(), j.events());
        let _ = std::fs::remove_file(&path);
    }

    fn supervision_journal() -> Journal {
        let mut j = Journal::new();
        j.record(
            t(0.0),
            RunEvent::WorkerCrashed {
                node: 1,
                job: 7,
                task: 3,
            },
        );
        j.record(
            t(0.5),
            RunEvent::WorkerRestarted {
                node: 1,
                incarnation: 2,
            },
        );
        j.record(t(1.0), RunEvent::EpochAdvanced { task: 3, epoch: 1 });
        j.record(
            t(1.5),
            RunEvent::StaleReplyDropped {
                job: 7,
                task: 3,
                epoch: 0,
            },
        );
        j.record(
            t(2.0),
            RunEvent::TaskPoisoned {
                task: 3,
                crashes: 3,
            },
        );
        j.record(t(2.0), RunEvent::RunEnded);
        j
    }

    #[test]
    fn supervision_events_round_trip_and_digest() {
        let j = supervision_journal();
        let text = j.to_jsonl();
        let restored = Journal::from_jsonl(&text).unwrap();
        assert_eq!(restored.events(), j.events());
        assert_eq!(restored.digest(), j.digest());
        assert_eq!(j.count(EventKind::WorkerCrashed), 1);
        assert_eq!(j.count(EventKind::WorkerRestarted), 1);
        assert_eq!(j.count(EventKind::TaskPoisoned), 1);
        assert_eq!(j.count(EventKind::StaleReplyDropped), 1);
        assert_eq!(j.count(EventKind::EpochAdvanced), 1);
        // Accessors see through the new variants.
        assert_eq!(j.for_task(3).count(), 4);
        assert_eq!(j.for_node(1).count(), 2);
    }

    #[test]
    fn prefix_parse_drops_only_a_torn_tail() {
        let j = sample_journal();
        let text = j.to_jsonl();

        // Intact log: nothing torn, everything recovered.
        let whole = Journal::from_jsonl_prefix(&text).unwrap();
        assert!(!whole.torn);
        assert_eq!(whole.valid_bytes, text.len());
        assert_eq!(whole.journal.events(), j.events());

        // Chop anywhere inside the final record: that record is dropped,
        // the rest survives, and valid_bytes points at the intact prefix.
        let last_line_start = text[..text.len() - 1].rfind('\n').unwrap() + 1;
        for cut in last_line_start + 1..text.len() {
            let prefix = Journal::from_jsonl_prefix(&text[..cut]).unwrap();
            assert!(prefix.torn, "cut at {cut} should be torn");
            assert_eq!(prefix.valid_bytes, last_line_start);
            assert_eq!(prefix.journal.len(), j.len() - 1);
        }

        // A complete final record missing only its newline is still torn:
        // the writer died before the terminator hit the disk.
        let unterminated = &text[..text.len() - 1];
        let prefix = Journal::from_jsonl_prefix(unterminated).unwrap();
        assert!(prefix.torn);
        assert_eq!(prefix.journal.len(), j.len() - 1);

        // Corruption before the tail is a hard error, not a torn write.
        let mut corrupt = String::from("garbage\n");
        corrupt.push_str(&text);
        assert!(Journal::from_jsonl_prefix(&corrupt).is_err());
    }

    #[test]
    fn wal_writer_appends_resume_after_torn_tail() {
        let dir = std::env::temp_dir().join(format!(
            "smartred-wal-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.wal");
        let j = sample_journal();

        // Append all but the last event durably, then fake a torn tail.
        let mut w = WalWriter::create(&path, false).unwrap();
        for e in &j.events()[..j.len() - 1] {
            w.append(e).unwrap();
        }
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"{\"at\":9999,\"seq");
        std::fs::write(&path, &bytes).unwrap();

        // Recover: the torn fragment is dropped, and resume() truncates it.
        let text = String::from_utf8(bytes).unwrap();
        let prefix = Journal::from_jsonl_prefix(&text).unwrap();
        assert!(prefix.torn);
        assert_eq!(prefix.journal.len(), j.len() - 1);
        let mut w = WalWriter::resume(&path, prefix.valid_bytes as u64, false).unwrap();
        w.append(&j.events()[j.len() - 1]).unwrap();
        drop(w);

        // The healed file is byte-identical to a clean serialization.
        let healed = std::fs::read_to_string(&path).unwrap();
        assert_eq!(healed, j.to_jsonl());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checksummed_lines_round_trip_and_interleave_with_legacy() {
        let j = sample_journal();
        let mut text = String::new();
        for (i, e) in j.events().iter().enumerate() {
            // Alternate framings in one stream: readers verify whatever
            // each line carries.
            if i % 2 == 0 {
                text.push_str(&e.to_jsonl_line_checksummed());
            } else {
                text.push_str(&e.to_jsonl_line());
            }
            text.push('\n');
        }
        let restored = Journal::from_jsonl(&text).unwrap();
        assert_eq!(restored.events(), j.events());
        let prefix = Journal::from_jsonl_prefix(&text).unwrap();
        assert!(!prefix.torn);
        assert_eq!(prefix.journal.events(), j.events());
    }

    #[test]
    fn a_case_flipped_checksum_digit_is_refused() {
        // Flipping bit 5 of a hex letter keeps its value under a
        // case-insensitive parse; the trailer is refused instead.
        let line = sample_journal().events()[0].to_jsonl_line_checksummed();
        let hex_at = line.len() - "0123456789abcdef\"}".len();
        let upper = format!("{}{}", &line[..hex_at], line[hex_at..].to_ascii_uppercase());
        assert_ne!(upper, line, "the sample checksum has a hex letter");
        let err = Stamped::from_jsonl_line(&upper).unwrap_err();
        assert!(err.contains("malformed checksum trailer"), "{err}");
    }

    #[test]
    fn checksum_mismatch_names_the_stated_and_actual_hashes() {
        let e = sample_journal().events()[0];
        let line = e.to_jsonl_line_checksummed();
        // Corrupt one content byte while keeping the line structurally
        // valid JSON: flip a digit of the "at" value.
        let tampered = line.replacen("\"at\":0", "\"at\":1", 1);
        assert_ne!(tampered, line);
        let err = Stamped::from_jsonl_line(&tampered).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
        // A damaged trailer is also refused, not skipped as unknown.
        let clipped = line.replace("\"crc\":\"", "\"crx\":\"");
        let err = Stamped::from_jsonl_line(&clipped).unwrap_err();
        assert!(err.contains("canonical"), "{err}");
    }

    #[test]
    fn interior_corruption_reports_byte_offset_and_seq() {
        let j = sample_journal();
        let mut text = String::new();
        for e in j.events() {
            text.push_str(&e.to_jsonl_line_checksummed());
            text.push('\n');
        }
        // Damage the third record (seq 2) in place.
        let lines: Vec<&str> = text.lines().collect();
        let expected_offset = lines[0].len() + lines[1].len() + 2;
        let damaged = text.replacen("\"value\":true", "\"value\":false", 1);
        assert_ne!(damaged, text, "sample journal has a value field");
        let err = Journal::from_jsonl_prefix(&damaged).unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(err.offset, expected_offset);
        assert_eq!(err.seq, Some(2));
        let shown = err.to_string();
        assert!(shown.contains("line 3"), "{shown}");
        assert!(
            shown.contains(&format!("byte {expected_offset}")),
            "{shown}"
        );
        assert!(shown.contains("seq 2"), "{shown}");
    }

    #[test]
    fn corrupt_final_terminated_record_is_refused_not_torn() {
        let j = sample_journal();
        let mut text = String::new();
        for e in j.events() {
            text.push_str(&e.to_jsonl_line_checksummed());
            text.push('\n');
        }
        // Flip content inside the FINAL record but keep its newline: the
        // record was fully written and then damaged in place, which must
        // be corruption — only a missing newline may be treated as torn.
        let last_start = text[..text.len() - 1].rfind('\n').unwrap() + 1;
        let mut damaged = text.clone();
        // RunEnded's checksummed line ends ...,"crc":"<hex>"}; flip one
        // hex digit's case-insensitive value by replacing the at field.
        damaged.replace_range(last_start + 7..last_start + 8, "9");
        assert_ne!(damaged, text);
        let err = Journal::from_jsonl_prefix(&damaged).unwrap_err();
        assert_eq!(err.line, j.len());
        // Without the trailing newline the same damage is a torn tail.
        let torn_text = &damaged[..damaged.len() - 1];
        let prefix = Journal::from_jsonl_prefix(torn_text).unwrap();
        assert!(prefix.torn);
        assert_eq!(prefix.journal.len(), j.len() - 1);
    }

    #[test]
    fn fsync_failure_poisons_the_writer_for_good() {
        use crate::disk::{DiskFaultPlan, FaultyDisk};
        let path =
            std::env::temp_dir().join(format!("smartred-wal-poison-{}.jsonl", std::process::id()));
        let plan = DiskFaultPlan {
            seed: 5,
            fail_fsync_at: Some(2),
            ..DiskFaultPlan::default()
        };
        let disk = Box::new(FaultyDisk::create(&path, plan).unwrap());
        let mut w = WalWriter::with_disk(disk, true);
        let j = sample_journal();
        w.append(&j.events()[0]).unwrap();
        let err = w.append(&j.events()[1]).unwrap_err();
        assert!(err.to_string().contains("injected disk fault"), "{err}");
        // Every later operation fails fast with the original cause —
        // the disk itself recovered, but the writer must never trust it
        // again (the failed fsync may have dropped acknowledged pages).
        for e in &j.events()[2..] {
            let err = w.append(e).unwrap_err();
            assert!(err.to_string().contains("poisoned"), "{err}");
            assert!(err.to_string().contains("injected disk fault"), "{err}");
        }
        assert!(w.commit().unwrap_err().to_string().contains("poisoned"));
        assert!(w.truncate().unwrap_err().to_string().contains("poisoned"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn batch_boundary_crash_never_surfaces_a_mid_batch_prefix_as_clean() {
        // Group commit with batch 16: records 1..=16 were fsynced, 17..24
        // were written + flushed but NOT synced when the process dies.
        // Power loss may then keep any byte prefix of the unsynced tail.
        // The torn-tail contract must hold at every such cut: recovery
        // returns exactly the whole records before the cut, reports torn
        // for any mid-record cut, and never resumes past a partial
        // record — a mid-batch prefix is only "clean" at a record
        // boundary.
        let path = std::env::temp_dir().join(format!(
            "smartred-wal-batch-tear-{}.jsonl",
            std::process::id()
        ));
        let mut w = WalWriter::create(&path, true).unwrap().with_batch(16);
        let mut j = Journal::new();
        for i in 0..24u64 {
            j.record(
                SimTime::from_micros(i),
                RunEvent::WaveOpened {
                    task: i as u32,
                    wave: 1,
                    jobs: 3,
                },
            );
        }
        for e in j.events() {
            w.append(e).unwrap();
        }
        drop(w); // crash between flush and the batch's fsync
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, j.to_jsonl(), "every record was written + flushed");
        let synced_boundary: usize = text.lines().take(16).map(|l| l.len() + 1).sum();
        let mut boundaries = vec![0usize];
        let mut acc = 0usize;
        for l in text.lines() {
            acc += l.len() + 1;
            boundaries.push(acc);
        }
        for cut in synced_boundary..=text.len() {
            let prefix = Journal::from_jsonl_prefix(&text[..cut]).unwrap();
            let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            let at_boundary = boundaries.contains(&cut);
            assert_eq!(prefix.journal.len(), whole, "cut at {cut}");
            assert_eq!(prefix.torn, !at_boundary, "cut at {cut}");
            assert_eq!(
                prefix.valid_bytes,
                *boundaries.iter().rfind(|&&b| b <= cut).unwrap(),
                "cut at {cut}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncate_starts_a_fresh_segment() {
        let path = std::env::temp_dir().join(format!(
            "smartred-wal-truncate-{}.jsonl",
            std::process::id()
        ));
        let j = sample_journal();
        let mut w = WalWriter::create(&path, true).unwrap().with_checksums(true);
        for e in &j.events()[..4] {
            w.append(e).unwrap();
        }
        w.truncate().unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "");
        // Appends after truncation land at offset zero, not at the old
        // end-of-file position.
        w.append(&j.events()[4]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let restored = Journal::from_jsonl(&text).unwrap();
        assert_eq!(restored.events(), &j.events()[4..5]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn digest_changes_with_any_field() {
        let j = sample_journal();
        let mut k = sample_journal();
        k.record(t(6.0), RunEvent::RunEnded);
        assert_ne!(j.digest(), k.digest());

        let mut shifted = Journal::new();
        for e in j.events() {
            shifted.record(e.at + crate::time::SimDuration::from_micros(1), e.event);
        }
        assert_ne!(shifted.digest(), j.digest());
        assert_eq!(j.digest_hex().len(), 16);
    }

    #[test]
    fn disabled_journal_records_nothing() {
        let mut j = Journal::disabled();
        j.record(t(1.0), RunEvent::RunEnded);
        assert!(j.is_empty());
        assert!(!j.is_enabled());
        assert!(Journal::new().is_enabled());
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(Journal::from_jsonl("not json").is_err());
        assert!(Journal::from_jsonl("{\"at\":0,\"seq\":0,\"kind\":\"no_such\"}").is_err());
        assert!(Journal::from_jsonl("{\"at\":0,\"kind\":\"run_ended\"}").is_err());
        // Out-of-order times are rejected on load.
        let bad = "{\"at\":5,\"seq\":0,\"kind\":\"run_ended\"}\n{\"at\":1,\"seq\":1,\"kind\":\"run_ended\"}\n";
        let err = Journal::from_jsonl(bad).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn assert_dsl_passes_on_well_formed_journal() {
        let j = sample_journal();
        assert::that(&j)
            .time_ordered()
            .retry_follows_timeout()
            .no_dispatch_to_quarantined()
            .waves_well_formed()
            .count(EventKind::VerdictReached)
            .exactly(1)
            .count(EventKind::JobDispatched)
            .at_least(1)
            .count(EventKind::TaskCapped)
            .at_most(0)
            .never("no joins in this run", |e| {
                matches!(e.event, RunEvent::NodeJoined { .. })
            })
            .each_followed_by(
                "every dispatch resolves",
                |e| matches!(e.event, RunEvent::JobDispatched { .. }),
                |d, later| match (d.event, later.event) {
                    (
                        RunEvent::JobDispatched { job, .. },
                        RunEvent::JobReturned { job: j2, .. },
                    )
                    | (
                        RunEvent::JobDispatched { job, .. },
                        RunEvent::JobTimedOut { job: j2, .. },
                    ) => job == j2,
                    _ => false,
                },
            );
    }

    #[test]
    #[should_panic(expected = "dispatched to quarantined node")]
    fn dispatch_to_quarantined_node_is_caught() {
        let mut j = Journal::new();
        j.record(t(0.0), RunEvent::NodeQuarantined { node: 4 });
        j.record(
            t(1.0),
            RunEvent::JobDispatched {
                job: 0,
                task: 0,
                node: 4,
                eta: t(2.0),
            },
        );
        assert::that(&j).no_dispatch_to_quarantined();
    }

    #[test]
    #[should_panic(expected = "dispatched to departed node")]
    fn dispatch_to_departed_node_is_caught_after_a_release() {
        // A node blacklisted while quarantined stays barred even when the
        // quarantine's release fires afterwards.
        let mut j = Journal::new();
        j.record(t(0.0), RunEvent::NodeQuarantined { node: 4 });
        j.record(
            t(0.5),
            RunEvent::NodeDeparted {
                node: 4,
                reason: DepartureReason::Blacklist,
            },
        );
        j.record(t(1.0), RunEvent::NodeReleased { node: 4 });
        j.record(
            t(2.0),
            RunEvent::JobDispatched {
                job: 0,
                task: 0,
                node: 4,
                eta: t(3.0),
            },
        );
        assert::that(&j).no_dispatch_to_quarantined();
    }

    #[test]
    #[should_panic(expected = "uncaused event")]
    fn orphan_retry_is_caught() {
        let mut j = Journal::new();
        j.record(
            t(0.0),
            RunEvent::JobRetried {
                task: 1,
                attempt: 1,
            },
        );
        assert::that(&j).retry_follows_timeout();
    }

    #[test]
    #[should_panic(expected = "expected exactly")]
    fn wrong_count_is_caught() {
        let j = sample_journal();
        assert::that(&j).count(EventKind::RunEnded).exactly(2);
    }

    #[test]
    fn assert_dsl_accepts_raw_event_slices() {
        // The same checks against a bare slice — no Journal required, as a
        // wall-clock event source (the live runtime) would use it.
        let j = sample_journal();
        let slice: Vec<Stamped> = j.events().to_vec();
        assert::events(&slice)
            .time_ordered()
            .retry_follows_timeout()
            .waves_well_formed()
            .count(EventKind::JobRetried)
            .exactly(1);
        assert_eq!(assert::events(&slice).events().len(), j.len());
    }

    #[test]
    fn quorum_invariant_accepts_enough_votes() {
        let mut j = Journal::new();
        for i in 0..3u32 {
            j.record(
                t(f64::from(i)),
                RunEvent::VoteTallied {
                    task: 7,
                    value: true,
                    leader_count: i + 1,
                    runner_up: 0,
                },
            );
        }
        j.record(
            t(3.0),
            RunEvent::VerdictReached {
                task: 7,
                value: true,
                degraded: false,
                confidence: 1.0,
            },
        );
        assert::that(&j).verdicts_have_quorum(3);
    }

    #[test]
    #[should_panic(expected = "quorum")]
    fn quorum_invariant_rejects_short_vote_trail() {
        let mut j = Journal::new();
        // Two votes for the winning value, one for the loser: quorum 3 fails.
        j.record(
            t(0.0),
            RunEvent::VoteTallied {
                task: 1,
                value: true,
                leader_count: 1,
                runner_up: 0,
            },
        );
        j.record(
            t(1.0),
            RunEvent::VoteTallied {
                task: 1,
                value: false,
                leader_count: 1,
                runner_up: 1,
            },
        );
        j.record(
            t(2.0),
            RunEvent::VoteTallied {
                task: 1,
                value: true,
                leader_count: 2,
                runner_up: 1,
            },
        );
        j.record(
            t(3.0),
            RunEvent::VerdictReached {
                task: 1,
                value: true,
                degraded: false,
                confidence: 1.0,
            },
        );
        assert::that(&j).verdicts_have_quorum(3);
    }

    #[test]
    fn quorum_invariant_skips_degraded_verdicts() {
        let mut j = Journal::new();
        j.record(
            t(0.0),
            RunEvent::VerdictReached {
                task: 2,
                value: false,
                degraded: true,
                confidence: 0.8,
            },
        );
        assert::that(&j).verdicts_have_quorum(5);
    }
}
