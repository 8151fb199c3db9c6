//! Byte-level pin of the journal wire format.
//!
//! For every [`RunEvent`] variant, several field values, every
//! [`DepartureReason`] and [`FaultKind`], awkward floats and the integer
//! extremes, the checked-in fixture holds three things per stamped event:
//! the single-event [`Journal::digest`], the canonical JSONL line and the
//! checksummed JSONL line. WAL recovery and every golden digest depend on
//! these bytes, so any encoder change that moves one of them fails here.
//!
//! Fixture format (`tests/fixtures/journal_wire.txt`), one case per line:
//! `<digest, 16 hex>\t<canonical line>\t<checksummed line>`.
//!
//! After a deliberate format change (for example a new event variant),
//! regenerate the fixture with
//! `SMARTRED_BLESS_WIRE=1 cargo test -p smartred-desim --test journal_wire`
//! and review the diff: existing lines must not move.

use smartred_desim::journal::{DepartureReason, FaultKind, Journal, RunEvent, Stamped};
use smartred_desim::time::SimTime;

const FIXTURE: &str = include_str!("fixtures/journal_wire.txt");

/// One set of field values, applied to every variant.
struct Vals {
    at: u64,
    seq: u64,
    a: u32,
    b: u32,
    c: u32,
    d: u32,
    big: u64,
    eta: u64,
    v: bool,
    w: bool,
    conf: f64,
    reason: DepartureReason,
    fault: FaultKind,
}

const SETS: [Vals; 3] = [
    Vals {
        at: 0,
        seq: 0,
        a: 0,
        b: 0,
        c: 0,
        d: 0,
        big: 0,
        eta: 0,
        v: false,
        w: false,
        conf: 1.0,
        reason: DepartureReason::Churn,
        fault: FaultKind::Crash,
    },
    Vals {
        at: 1_234_567,
        seq: 42,
        a: 1,
        b: 7,
        c: 42,
        d: 65_536,
        big: 3_300,
        eta: 1_500_000,
        v: true,
        w: false,
        conf: 1e-7,
        reason: DepartureReason::Crash,
        fault: FaultKind::Hang,
    },
    Vals {
        at: u64::MAX,
        seq: u64::MAX - 1,
        a: u32::MAX,
        b: u32::MAX - 1,
        c: 1_000_000,
        d: u32::MAX,
        big: u64::MAX,
        eta: u64::MAX,
        v: false,
        w: true,
        conf: 0.9999999999999999,
        reason: DepartureReason::Blacklist,
        fault: FaultKind::Straggler,
    },
];

/// Every variant, filled from one value set.
fn variants(x: &Vals) -> Vec<RunEvent> {
    let eta = SimTime::from_micros(x.eta);
    vec![
        RunEvent::JobDispatched {
            job: x.a,
            task: x.b,
            node: x.c,
            eta,
        },
        RunEvent::JobReturned {
            job: x.a,
            task: x.b,
            node: x.c,
            value: x.v,
        },
        RunEvent::JobTimedOut {
            job: x.a,
            task: x.b,
            node: x.c,
        },
        RunEvent::JobRetried {
            task: x.b,
            attempt: x.d,
        },
        RunEvent::WaveOpened {
            task: x.b,
            wave: x.c,
            jobs: x.d,
        },
        RunEvent::WaveClosed {
            task: x.b,
            wave: x.c,
        },
        RunEvent::VoteTallied {
            task: x.b,
            value: x.v,
            leader_count: x.c,
            runner_up: x.d,
        },
        RunEvent::NodeQuarantined { node: x.a },
        RunEvent::NodeReleased { node: x.b },
        RunEvent::NodeJoined { node: x.c },
        RunEvent::NodeDeparted {
            node: x.d,
            reason: x.reason,
        },
        RunEvent::OutageStarted { region: x.a },
        RunEvent::FaultInjected { kind: x.fault },
        RunEvent::VerdictReached {
            task: x.b,
            value: x.v,
            degraded: x.w,
            confidence: x.conf,
        },
        RunEvent::TaskCapped { task: x.b },
        RunEvent::WorkerCrashed {
            node: x.a,
            job: x.b,
            task: x.c,
        },
        RunEvent::WorkerRestarted {
            node: x.a,
            incarnation: x.d,
        },
        RunEvent::TaskPoisoned {
            task: x.b,
            crashes: x.c,
        },
        RunEvent::StaleReplyDropped {
            job: x.a,
            task: x.b,
            epoch: x.d,
        },
        RunEvent::EpochAdvanced {
            task: x.b,
            epoch: x.d,
        },
        RunEvent::HedgeLaunched {
            job: x.a,
            task: x.b,
            origin: x.c,
            epoch: x.d,
        },
        RunEvent::HedgeWon {
            job: x.a,
            task: x.b,
        },
        RunEvent::HedgeWasted {
            job: x.c,
            task: x.d,
        },
        RunEvent::AuditScheduled { task: x.a },
        RunEvent::AuditPassed { task: x.b },
        RunEvent::AuditFailed {
            task: x.c,
            node: x.d,
        },
        RunEvent::VerdictVoided { task: x.a },
        RunEvent::TaskRetallied { task: x.b },
        RunEvent::TransferStarted {
            xfer: x.a,
            job: x.b,
            task: x.c,
            node: x.d,
            bytes: x.big,
            eta,
        },
        RunEvent::TransferCompleted {
            xfer: x.a,
            job: x.b,
            task: x.c,
            node: x.d,
        },
        RunEvent::StageDecided {
            stage: x.a,
            correct: x.c,
            wrong: x.d,
        },
        RunEvent::PoisonPropagated {
            task: x.b,
            stage: x.c,
            from: x.d,
        },
        RunEvent::CheckpointTaken {
            events: x.big,
            digest: x.big ^ 0x5a5a_5a5a_5a5a_5a5a,
        },
        RunEvent::RunEnded,
    ]
}

/// Position of a variant in [`variants`]. The match has no wildcard arm,
/// so adding a variant fails to compile here until the fixture covers it.
fn variant_index(e: &RunEvent) -> usize {
    match e {
        RunEvent::JobDispatched { .. } => 0,
        RunEvent::JobReturned { .. } => 1,
        RunEvent::JobTimedOut { .. } => 2,
        RunEvent::JobRetried { .. } => 3,
        RunEvent::WaveOpened { .. } => 4,
        RunEvent::WaveClosed { .. } => 5,
        RunEvent::VoteTallied { .. } => 6,
        RunEvent::NodeQuarantined { .. } => 7,
        RunEvent::NodeReleased { .. } => 8,
        RunEvent::NodeJoined { .. } => 9,
        RunEvent::NodeDeparted { .. } => 10,
        RunEvent::OutageStarted { .. } => 11,
        RunEvent::FaultInjected { .. } => 12,
        RunEvent::VerdictReached { .. } => 13,
        RunEvent::TaskCapped { .. } => 14,
        RunEvent::WorkerCrashed { .. } => 15,
        RunEvent::WorkerRestarted { .. } => 16,
        RunEvent::TaskPoisoned { .. } => 17,
        RunEvent::StaleReplyDropped { .. } => 18,
        RunEvent::EpochAdvanced { .. } => 19,
        RunEvent::HedgeLaunched { .. } => 20,
        RunEvent::HedgeWon { .. } => 21,
        RunEvent::HedgeWasted { .. } => 22,
        RunEvent::AuditScheduled { .. } => 23,
        RunEvent::AuditPassed { .. } => 24,
        RunEvent::AuditFailed { .. } => 25,
        RunEvent::VerdictVoided { .. } => 26,
        RunEvent::TaskRetallied { .. } => 27,
        RunEvent::TransferStarted { .. } => 28,
        RunEvent::TransferCompleted { .. } => 29,
        RunEvent::StageDecided { .. } => 30,
        RunEvent::PoisonPropagated { .. } => 31,
        RunEvent::CheckpointTaken { .. } => 32,
        RunEvent::RunEnded => 33,
    }
}

const VARIANTS: usize = 34;

/// Every pinned case: all variants under each value set, then the rest of
/// the enum names and a few more floats.
fn cases() -> Vec<Stamped> {
    let mut out = Vec::new();
    for x in &SETS {
        for event in variants(x) {
            out.push(Stamped {
                at: SimTime::from_micros(x.at),
                seq: x.seq,
                event,
            });
        }
    }
    let stamp = |i: usize, event| Stamped {
        at: SimTime::from_micros(1_000 * i as u64 + 1),
        seq: 1_000 + i as u64,
        event,
    };
    let faults = [
        FaultKind::Crash,
        FaultKind::Hang,
        FaultKind::Straggler,
        FaultKind::Collusion,
        FaultKind::Blackout,
        FaultKind::Cartel,
    ];
    for (i, kind) in faults.into_iter().enumerate() {
        out.push(stamp(i, RunEvent::FaultInjected { kind }));
    }
    let reasons = [
        DepartureReason::Churn,
        DepartureReason::Crash,
        DepartureReason::Blacklist,
    ];
    for (i, reason) in reasons.into_iter().enumerate() {
        out.push(stamp(10 + i, RunEvent::NodeDeparted { node: 9, reason }));
    }
    let floats = [0.0, 0.5, 1e-7, 0.9999999999999999, 0.1 + 0.2, f64::MAX];
    for (i, confidence) in floats.into_iter().enumerate() {
        out.push(stamp(
            20 + i,
            RunEvent::VerdictReached {
                task: 3,
                value: i % 2 == 0,
                degraded: true,
                confidence,
            },
        ));
    }
    out
}

fn single_event_digest(e: &Stamped) -> u64 {
    let mut journal = Journal::resume_at(e.seq);
    journal.record(e.at, e.event);
    journal.digest()
}

fn render(cases: &[Stamped]) -> String {
    let mut out = String::new();
    for e in cases {
        out.push_str(&format!(
            "{:016x}\t{}\t{}\n",
            single_event_digest(e),
            e.to_jsonl_line(),
            e.to_jsonl_line_checksummed()
        ));
    }
    out
}

#[test]
fn every_variant_encodes_to_its_pinned_bytes() {
    let rendered = render(&cases());
    if std::env::var_os("SMARTRED_BLESS_WIRE").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/journal_wire.txt"
        );
        std::fs::write(path, &rendered).expect("write fixture");
        return;
    }
    let want: Vec<&str> = FIXTURE.lines().collect();
    let got: Vec<&str> = rendered.lines().collect();
    for (i, (w, g)) in want.iter().zip(&got).enumerate() {
        assert_eq!(g, w, "fixture line {} differs", i + 1);
    }
    assert_eq!(got.len(), want.len(), "fixture case count");
}

#[test]
fn pinned_lines_parse_back_to_their_events() {
    let cases = cases();
    for (line, case) in FIXTURE.lines().zip(&cases) {
        let mut cols = line.split('\t');
        let (_digest, canonical, checksummed) = (
            cols.next().unwrap(),
            cols.next().unwrap(),
            cols.next().unwrap(),
        );
        assert_eq!(&Stamped::from_jsonl_line(canonical).unwrap(), case);
        assert_eq!(&Stamped::from_jsonl_line(checksummed).unwrap(), case);
    }
}

#[test]
fn pinned_digests_match_a_parsed_journal() {
    for line in FIXTURE.lines() {
        let mut cols = line.split('\t');
        let digest = cols.next().unwrap();
        let canonical = cols.next().unwrap();
        let journal = Journal::from_jsonl(canonical).unwrap();
        assert_eq!(journal.digest_hex(), digest, "{canonical}");
    }
}

#[test]
fn fixture_covers_every_variant_and_name() {
    let cases = cases();
    let mut seen = [0usize; VARIANTS];
    for e in &cases {
        seen[variant_index(&e.event)] += 1;
    }
    assert!(
        seen.iter().all(|&n| n >= SETS.len()),
        "a variant lacks {} value sets: {seen:?}",
        SETS.len()
    );
    for name in [
        "\"churn\"",
        "\"crash\"",
        "\"blacklist\"",
        "\"hang\"",
        "\"straggler\"",
        "\"collusion\"",
        "\"blackout\"",
        "\"cartel\"",
        ":4294967295,",
        ":18446744073709551615",
        ":1e-7}",
        ":0.9999999999999999",
    ] {
        assert!(FIXTURE.contains(name), "fixture never shows {name}");
    }
}
