//! Crash recovery from a write-ahead-log prefix: its errors and report.
//!
//! The coordinator commits every event to its WAL before any verdict it
//! decides leaves the process, so the WAL prefix that survives a crash is
//! a complete record of every decision the dead coordinator delivered. Recovery repeats that
//! history rather than reconstructing it: [`crate::Runtime::recover`]
//! builds a coordinator with the constructor [`crate::Runtime::start`]
//! uses, restores a checkpoint snapshot if the segment begins with one,
//! and feeds every logged event through the coordinator's own state
//! transition — the one function the live coordinator calls after each
//! append. The replay rebuilds:
//!
//! * every still-open task's exact redundancy state — votes tallied,
//!   replicas abandoned, waves opened — validated against the log (a wave
//!   the strategy would not reopen identically, or an event for a task
//!   that is not open, is reported as [`RecoveryError::Corrupt`], never
//!   silently patched);
//! * the set of *decided* tasks (verdict, cap, or poison recorded), which
//!   a restarted coordinator must never re-run or re-deliver — the
//!   exactly-once guarantee is "decision events are WAL-durable before any
//!   side effect";
//! * in-flight jobs (dispatched, never resolved) to re-arm without new
//!   journal records, and opened replicas never dispatched, to dispatch;
//! * supervision state: per-node strike counters (charged at the logged
//!   event times), quarantines, blacklists and the pool's enabled set,
//!   worker incarnations, per-task crash charges, and replica epochs.
//!
//! A crash can also cut a handler short between a logged resolution and
//! the reactions it triggers: the vote tally after a return, the retry
//! after a timeout, the restart after a worker crash, a quarantine or
//! blacklist a logged strike demands, a poisoning at the crash limit, the
//! close of a drained wave. The coordinator is single-threaded and logs
//! each handler's events contiguously, so only the last handler can be
//! cut; after replay the recovered coordinator performs, in live order,
//! whatever that handler still owes, through the same code the live path
//! runs — every such decision is a pure function of the log.
//!
//! Replica indices are not journaled; they are recovered as each job's
//! per-task dispatch ordinal, which is exact because the coordinator
//! dispatches a task's replicas in index order and never journals a
//! re-dispatch. Since fault draws are keyed by `(seed, task, replica)`,
//! a re-armed replica re-executed by the recovered coordinator produces
//! the same vote the uninterrupted run would have — the invariant the
//! chaos tests pin.

use std::fmt;

use smartred_desim::journal::JournalParseError;

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
