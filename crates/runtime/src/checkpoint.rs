//! Coordinator checkpoints: bounded-recovery snapshots paired with WAL
//! compaction.
//!
//! Without checkpoints, recovery time grows linearly with uptime — the
//! whole WAL replays on every restart. A checkpoint bounds that: at a
//! quiescent point (no open tasks, no in-flight jobs, nothing parked),
//! the coordinator serializes everything the replay would have rebuilt —
//! the decided-task set, node discipline, incarnations, quarantines,
//! blacklists, the job-id cursor, and the full live [`RuntimeReport`]
//! including its bit-exact Welford summaries — into a snapshot file next
//! to the WAL, truncates the log, and seals the fresh segment with a
//! [`RunEvent::CheckpointTaken`] record carrying the snapshot's digest.
//! Recovery then loads the snapshot and replays only the suffix.
//!
//! ## Crash windows
//!
//! The snapshot is stored atomically (write to a temp file, fsync,
//! rename), and the three-step sequence — store snapshot, truncate WAL,
//! log `CheckpointTaken` — is safe to die anywhere inside:
//!
//! * crash **before the rename**: the old WAL is intact and starts at
//!   seq 0 — full replay, the half-written temp file is ignored;
//! * crash **between rename and truncate**: the WAL still starts at
//!   seq 0 — full replay, the (valid, but redundant) snapshot is ignored;
//! * crash **between truncate and the seal record**: the WAL is empty but
//!   the snapshot exists — recovery restores from the snapshot alone and
//!   re-seals the segment;
//! * any later crash: the WAL begins with `CheckpointTaken` whose
//!   `events`/`digest` must match the snapshot, else the pair is
//!   reported as corruption rather than silently trusted.
//!
//! The snapshot format is deterministic line-based text with a trailing
//! FNV-1a checksum, so a damaged snapshot is detected at load, never
//! deserialized into wrong state.
//!
//! [`RunEvent::CheckpointTaken`]: smartred_desim::journal::RunEvent::CheckpointTaken

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use smartred_desim::journal::fnv1a_64;
use smartred_desim::time::SimTime;
use smartred_stats::Summary;

use crate::report::RuntimeReport;

/// The snapshot path paired with a WAL segment: same stem, `.ckpt`
/// extension (`wal.jsonl` → `wal.ckpt`).
pub fn checkpoint_path(wal: &Path) -> PathBuf {
    wal.with_extension("ckpt")
}

/// Everything a suffix replay needs from the compacted WAL prefix.
///
/// Checkpoints are taken only at quiescence, so there is no open-task
/// state to capture: every task ever admitted is decided, every job
/// resolved. What remains is the cross-task bookkeeping recovery would
/// otherwise fold out of the full log.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CheckpointState {
    /// Events compacted out of the WAL; the seal record's `seq` equals
    /// this, which is how recovery pairs segment and snapshot.
    pub events: u64,
    /// Stamp of the checkpoint (the recovered clock base when the
    /// suffix is empty).
    pub last_at: SimTime,
    /// The next fresh job id.
    pub next_job: u32,
    /// Decided task ids, sorted (never re-run or re-delivered).
    pub decided: Vec<u32>,
    /// Permanently blacklisted nodes, sorted.
    pub blacklisted: Vec<u32>,
    /// Per-node restart incarnations as `(node, count)`, sorted.
    pub incarnations: Vec<(u32, u32)>,
    /// Active quarantines as `(node, release stamp micros)`, sorted.
    pub quarantines: Vec<(u32, u64)>,
    /// Per-node strike state as `(node, parts)` via
    /// [`NodeDiscipline::to_parts`](smartred_core::resilience::NodeDiscipline::to_parts),
    /// sorted.
    pub discipline: Vec<(u32, (u32, u32, u64, u32))>,
    /// The live report at the checkpoint, bit-exact: counters plus the
    /// Welford summaries, so `snapshot + suffix fold == full fold`.
    pub report: RuntimeReport,
}

fn push_summary(out: &mut String, name: &str, s: &Summary) {
    let (count, mean, m2, min, max, total) = s.to_parts();
    out.push_str(&format!(
        "summary {name} {count} {} {} {} {} {}\n",
        mean.to_bits(),
        m2.to_bits(),
        min.to_bits(),
        max.to_bits(),
        total.to_bits()
    ));
}

fn parse_summary(rest: &str, name: &str) -> Result<Summary, String> {
    let mut it = rest.split(' ');
    if it.next() != Some(name) {
        return Err(format!("expected summary {name}"));
    }
    let mut next = |what: &str| -> Result<u64, String> {
        it.next()
            .ok_or_else(|| format!("summary {name}: missing {what}"))?
            .parse::<u64>()
            .map_err(|_| format!("summary {name}: bad {what}"))
    };
    let count = next("count")?;
    let mean = f64::from_bits(next("mean")?);
    let m2 = f64::from_bits(next("m2")?);
    let min = f64::from_bits(next("min")?);
    let max = f64::from_bits(next("max")?);
    let total = f64::from_bits(next("total")?);
    Ok(Summary::from_parts(count, mean, m2, min, max, total))
}

fn parse_ints<T: std::str::FromStr>(rest: &str) -> Result<Vec<T>, String> {
    rest.split(' ')
        .filter(|t| !t.is_empty())
        .map(|t| t.parse::<T>().map_err(|_| format!("bad integer {t:?}")))
        .collect()
}

impl CheckpointState {
    /// The checksummed body: every field on its own line, fixed order,
    /// integers in decimal, floats as IEEE-754 bit patterns (so ±∞
    /// sentinels of empty summaries survive exactly).
    fn body(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("smartred-checkpoint v1\n");
        out.push_str(&format!("events {}\n", self.events));
        out.push_str(&format!("last_at {}\n", self.last_at.as_micros()));
        out.push_str(&format!("next_job {}\n", self.next_job));
        let join = |ids: &[u32]| ids.iter().map(u32::to_string).collect::<Vec<_>>().join(" ");
        out.push_str(&format!("decided {}\n", join(&self.decided)));
        out.push_str(&format!("blacklisted {}\n", join(&self.blacklisted)));
        for &(node, inc) in &self.incarnations {
            out.push_str(&format!("incarnation {node} {inc}\n"));
        }
        for &(node, until) in &self.quarantines {
            out.push_str(&format!("quarantine {node} {until}\n"));
        }
        for &(node, (s, q, last, p)) in &self.discipline {
            out.push_str(&format!("discipline {node} {s} {q} {last} {p}\n"));
        }
        let r = &self.report;
        out.push_str(&format!(
            "report {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}\n",
            r.tasks_completed,
            r.tasks_correct,
            r.tasks_capped,
            r.total_jobs,
            r.timeouts,
            r.retries,
            r.worker_crashes,
            r.worker_restarts,
            r.stale_replies,
            r.tasks_poisoned,
            r.audits,
            r.audit_failures,
            r.verdicts_voided,
            r.tasks_retallied,
            r.hedges_launched,
            r.hedges_won,
            r.hedges_wasted
        ));
        push_summary(&mut out, "jobs_per_task", &r.jobs_per_task);
        push_summary(&mut out, "waves_per_task", &r.waves_per_task);
        push_summary(&mut out, "response_time", &r.response_time);
        out.push_str(&format!("makespan {}\n", r.makespan_units.to_bits()));
        out
    }

    /// The snapshot digest recorded in the WAL's
    /// [`RunEvent::CheckpointTaken`] seal — FNV-1a over the body, the
    /// same value as the file's own trailing checksum line.
    ///
    /// [`RunEvent::CheckpointTaken`]: smartred_desim::journal::RunEvent::CheckpointTaken
    pub fn digest(&self) -> u64 {
        fnv1a_64(self.body().as_bytes())
    }

    /// Atomically writes the snapshot: temp file in the same directory,
    /// contents + checksum line, fsync, rename over the target. A crash
    /// at any point leaves either the old snapshot or the new one, never
    /// a torn mix.
    pub fn store(&self, path: &Path) -> std::io::Result<()> {
        let body = self.body();
        let digest = fnv1a_64(body.as_bytes());
        let tmp = path.with_extension("ckpt.tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(body.as_bytes())?;
            f.write_all(format!("crc {digest:016x}\n").as_bytes())?;
            f.sync_data()?;
        }
        fs::rename(&tmp, path)
    }

    /// Loads and verifies a snapshot. Any damage — a missing or wrong
    /// checksum line, an unknown header, a malformed field — is an error
    /// naming the problem; a snapshot never deserializes partially.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("cannot read snapshot: {e}"))?;
        let Some(crc_start) = text.trim_end().rfind('\n') else {
            return Err("snapshot too short".into());
        };
        let body = &text[..crc_start + 1];
        let crc_line = text[crc_start + 1..].trim_end();
        let stated = crc_line
            .strip_prefix("crc ")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| "missing checksum line".to_string())?;
        let actual = fnv1a_64(body.as_bytes());
        if stated != actual {
            return Err(format!(
                "snapshot checksum mismatch: file states {stated:016x} but \
                 content hashes to {actual:016x}"
            ));
        }

        let mut lines = body.lines();
        if lines.next() != Some("smartred-checkpoint v1") {
            return Err("unknown snapshot header".into());
        }
        let mut events = None;
        let mut last_at = None;
        let mut next_job = None;
        let mut decided = Vec::new();
        let mut blacklisted = Vec::new();
        let mut incarnations = Vec::new();
        let mut quarantines = Vec::new();
        let mut discipline = Vec::new();
        let mut report = RuntimeReport::new();
        let mut saw_report = false;
        for line in lines {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "events" => events = rest.parse::<u64>().ok(),
                "last_at" => last_at = rest.parse::<u64>().ok().map(SimTime::from_micros),
                "next_job" => next_job = rest.parse::<u32>().ok(),
                "decided" => decided = parse_ints(rest)?,
                "blacklisted" => blacklisted = parse_ints(rest)?,
                "incarnation" => {
                    let v: Vec<u32> = parse_ints(rest)?;
                    let [node, inc] = v[..] else {
                        return Err(format!("bad incarnation line {line:?}"));
                    };
                    incarnations.push((node, inc));
                }
                "quarantine" => {
                    let v: Vec<u64> = parse_ints(rest)?;
                    let [node, until] = v[..] else {
                        return Err(format!("bad quarantine line {line:?}"));
                    };
                    quarantines.push((node as u32, until));
                }
                "discipline" => {
                    let v: Vec<u64> = parse_ints(rest)?;
                    let [node, s, q, last, p] = v[..] else {
                        return Err(format!("bad discipline line {line:?}"));
                    };
                    discipline.push((node as u32, (s as u32, q as u32, last, p as u32)));
                }
                "report" => {
                    let v: Vec<u64> = parse_ints(rest)?;
                    if v.len() != 17 {
                        return Err(format!("bad report line {line:?}"));
                    }
                    report.tasks_completed = v[0] as usize;
                    report.tasks_correct = v[1] as usize;
                    report.tasks_capped = v[2] as usize;
                    report.total_jobs = v[3];
                    report.timeouts = v[4];
                    report.retries = v[5];
                    report.worker_crashes = v[6];
                    report.worker_restarts = v[7];
                    report.stale_replies = v[8];
                    report.tasks_poisoned = v[9] as usize;
                    report.audits = v[10];
                    report.audit_failures = v[11];
                    report.verdicts_voided = v[12];
                    report.tasks_retallied = v[13];
                    report.hedges_launched = v[14];
                    report.hedges_won = v[15];
                    report.hedges_wasted = v[16];
                    saw_report = true;
                }
                "summary" => {
                    if let Ok(s) = parse_summary(rest, "jobs_per_task") {
                        report.jobs_per_task = s;
                    } else if let Ok(s) = parse_summary(rest, "waves_per_task") {
                        report.waves_per_task = s;
                    } else if let Ok(s) = parse_summary(rest, "response_time") {
                        report.response_time = s;
                    } else {
                        return Err(format!("unknown summary line {line:?}"));
                    }
                }
                "makespan" => {
                    report.makespan_units = f64::from_bits(
                        rest.parse::<u64>()
                            .map_err(|_| format!("bad makespan line {line:?}"))?,
                    );
                }
                _ => return Err(format!("unknown snapshot line {line:?}")),
            }
        }
        let (Some(events), Some(last_at), Some(next_job)) = (events, last_at, next_job) else {
            return Err("snapshot missing a required field".into());
        };
        if !saw_report {
            return Err("snapshot missing the report line".into());
        }
        Ok(Self {
            events,
            last_at,
            next_job,
            decided,
            blacklisted,
            incarnations,
            quarantines,
            discipline,
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CheckpointState {
        let mut report = RuntimeReport::new();
        report.tasks_completed = 7;
        report.tasks_correct = 6;
        report.total_jobs = 41;
        report.jobs_per_task.record(5.0);
        report.jobs_per_task.record(7.5);
        report.response_time.record(0.125);
        report.makespan_units = 3.75;
        CheckpointState {
            events: 120,
            last_at: SimTime::from_micros(98_765),
            next_job: 44,
            decided: vec![0, 1, 2, 5, 9],
            blacklisted: vec![3],
            incarnations: vec![(2, 1), (3, 4)],
            quarantines: vec![(6, 1_234_567)],
            discipline: vec![(3, (2, 1, 55, 0)), (6, (1, 0, 77, 2))],
            report,
        }
    }

    #[test]
    fn snapshot_round_trips_bit_exactly() {
        let dir = std::env::temp_dir().join(format!("smartred-ckpt-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.ckpt");
        let state = sample();
        state.store(&path).unwrap();
        let loaded = CheckpointState::load(&path).unwrap();
        assert_eq!(loaded, state);
        assert_eq!(loaded.digest(), state.digest());
        // An empty report's ±∞ min/max sentinels survive too.
        let empty = CheckpointState {
            report: RuntimeReport::new(),
            ..state
        };
        empty.store(&path).unwrap();
        assert_eq!(CheckpointState::load(&path).unwrap(), empty);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damaged_snapshots_are_refused() {
        let dir = std::env::temp_dir().join(format!("smartred-ckpt-bad-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.ckpt");
        let state = sample();
        state.store(&path).unwrap();
        let good = fs::read_to_string(&path).unwrap();
        // Flip one digit inside the body: checksum mismatch.
        let bad = good.replacen("events 120", "events 121", 1);
        fs::write(&path, &bad).unwrap();
        let err = CheckpointState::load(&path).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
        // Drop the checksum line entirely.
        let clipped = good.rsplit_once("crc ").unwrap().0;
        fs::write(&path, clipped).unwrap();
        assert!(CheckpointState::load(&path).is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_path_sits_next_to_the_wal() {
        assert_eq!(
            checkpoint_path(Path::new("/tmp/x/wal-shard-3.jsonl")),
            Path::new("/tmp/x/wal-shard-3.ckpt")
        );
    }
}
