//! Golden journal-digest tests for the volunteer deployment: pin the exact
//! event stream of one seeded run per task-lifecycle path (audits against
//! a cartel, hedging under audits, re-issued and retried deadline misses
//! under discipline and a job cap).
//!
//! The digest covers every event, timestamp, and field of the journal, so
//! a change that reorders a single event on one of these paths fails its
//! pin. Each pin also asserts that its path's event kinds occur, so a pin
//! cannot silently stop covering what it was written for. On mismatch the
//! journal is dumped as JSONL under `target/journal-artifacts/`.

use std::rc::Rc;

use smartred_core::audit::{AuditPolicy, Cartel};
use smartred_core::execution::Assignment;
use smartred_core::hedge::HedgePolicy;
use smartred_core::params::VoteMargin;
use smartred_core::resilience::{QuarantinePolicy, RetryPolicy};
use smartred_core::strategy::Iterative;
use smartred_desim::journal::{assert as jassert, EventKind, Journal};
use smartred_volunteer::server::{
    run, run_journaled, DeadlinePolicy, SchedulerPolicy, SharedStrategy, VolunteerConfig,
};

const SEED: u64 = 20110620;

struct PathPin {
    name: &'static str,
    config: VolunteerConfig,
    margin: usize,
    digest: &'static str,
    kinds: &'static [EventKind],
}

fn path_pins() -> Vec<PathPin> {
    // Spot audits against a standing cartel: weighted strikes into
    // quarantine and blacklist, probation after release, voided verdicts,
    // re-tallied open workunits (their in-flight replies turn stale), and
    // retried deadline misses.
    let mut audit_cartel = VolunteerConfig::paper_deployment(10, SEED);
    audit_cartel.hosts = 30;
    audit_cartel.tasks = 120;
    audit_cartel.profile.unresponsive_rate = 0.1;
    audit_cartel.retry = Some(RetryPolicy::default());
    audit_cartel.quarantine = Some(QuarantinePolicy {
        strike_limit: 2,
        quarantine_units: 3.0,
        blacklist_after: 3,
    });
    audit_cartel.audit = AuditPolicy::spot(0.3);
    audit_cartel.cartel = Some(Cartel::new(8, 0.5));

    // Hedge twins racing stragglers under audits, placed round-robin.
    let mut hedge_audit = VolunteerConfig::paper_deployment(10, SEED);
    hedge_audit.hosts = 60;
    hedge_audit.tasks = 100;
    hedge_audit.profile.speed_window = (1.0, 4.0);
    hedge_audit.deadline_units = 8.0;
    hedge_audit.hedge = Some(HedgePolicy {
        quantile: 0.7,
        min_samples: 10,
        multiplier: 1.0,
        max_per_task: 2,
    });
    hedge_audit.assignment = Assignment::RoundRobin;
    hedge_audit.audit = AuditPolicy::spot(0.3);
    hedge_audit.cartel = Some(Cartel::new(10, 0.3));

    // Re-issued deadline misses behind a retry budget, host discipline,
    // a job cap, and the fastest-idle scheduler.
    let mut reissue_cap = VolunteerConfig::paper_deployment(10, SEED);
    reissue_cap.hosts = 40;
    reissue_cap.tasks = 120;
    reissue_cap.profile.unresponsive_rate = 0.2;
    reissue_cap.deadline_policy = DeadlinePolicy::Reissue;
    reissue_cap.retry = Some(RetryPolicy {
        max_retries: 1,
        ..RetryPolicy::default()
    });
    reissue_cap.quarantine = Some(QuarantinePolicy {
        strike_limit: 2,
        quarantine_units: 2.0,
        blacklist_after: 3,
    });
    reissue_cap.job_cap = Some(7);
    reissue_cap.scheduler = SchedulerPolicy::FastestIdle;

    use EventKind as K;
    vec![
        PathPin {
            name: "audit-cartel-quarantine-retry",
            config: audit_cartel,
            margin: 3,
            digest: GOLDEN_AUDIT_CARTEL,
            kinds: &[
                K::AuditScheduled,
                K::AuditPassed,
                K::AuditFailed,
                K::VerdictVoided,
                K::TaskRetallied,
                K::EpochAdvanced,
                K::StaleReplyDropped,
                K::NodeQuarantined,
                K::NodeReleased,
                K::NodeDeparted,
                K::JobRetried,
            ],
        },
        PathPin {
            name: "hedge-audit-round-robin",
            config: hedge_audit,
            margin: 3,
            digest: GOLDEN_HEDGE_AUDIT,
            kinds: &[
                K::HedgeLaunched,
                K::HedgeWon,
                K::HedgeWasted,
                K::AuditScheduled,
                K::AuditFailed,
                K::EpochAdvanced,
            ],
        },
        PathPin {
            name: "reissue-retry-quarantine-cap-fastest",
            config: reissue_cap,
            margin: 4,
            digest: GOLDEN_REISSUE_CAP,
            kinds: &[
                K::JobTimedOut,
                K::JobRetried,
                K::NodeQuarantined,
                K::NodeReleased,
                K::NodeDeparted,
                K::TaskCapped,
                K::VerdictReached,
            ],
        },
    ]
}

// The pinned digests. If an intentional behavior change shifts an event
// stream, regenerate with:
//   cargo test -p smartred-volunteer --test journal_golden print_golden_digests -- --ignored --nocapture
const GOLDEN_AUDIT_CARTEL: &str = "7a00799d449b42a3";
const GOLDEN_HEDGE_AUDIT: &str = "aad716b807092ac2";
const GOLDEN_REISSUE_CAP: &str = "9c044b3587c99441";

fn strategy(margin: usize) -> SharedStrategy {
    Rc::new(Iterative::new(VoteMargin::new(margin).unwrap()))
}

/// Dumps a journal under `target/journal-artifacts/` so digest mismatches
/// leave an inspectable artifact.
fn dump_artifact(name: &str, journal: &Journal) -> String {
    let dir = std::path::Path::new("../../target/journal-artifacts");
    let path = dir.join(format!("volunteer-{name}.jsonl"));
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(&path, journal.to_jsonl());
    }
    path.display().to_string()
}

#[test]
fn path_pins_match_digests_and_cover_their_paths() {
    for pin in path_pins() {
        let (report, journal) = run_journaled(strategy(pin.margin), &pin.config).unwrap();
        for &kind in pin.kinds {
            assert!(
                journal.count(kind) > 0,
                "{}: pinned run emitted no {}",
                pin.name,
                kind.name()
            );
        }
        jassert::that(&journal)
            .time_ordered()
            .no_dispatch_to_quarantined()
            .count(EventKind::JobDispatched)
            .exactly(report.total_jobs as usize)
            .count(EventKind::HedgeLaunched)
            .exactly(report.hedges_launched as usize);
        assert_eq!(
            report.hedges_launched,
            report.hedges_won + report.hedges_wasted,
            "{}: every launched twin settles exactly once",
            pin.name
        );
        let digest = journal.digest_hex();
        if digest != pin.digest {
            let path = dump_artifact(pin.name, &journal);
            panic!(
                "journal digest drift for {}: expected {}, got {digest} \
                 ({} events; journal dumped to {path})",
                pin.name,
                pin.digest,
                journal.len()
            );
        }
    }
}

#[test]
fn path_pins_are_pure_observers() {
    for pin in path_pins() {
        let (journaled, _) = run_journaled(strategy(pin.margin), &pin.config).unwrap();
        assert_eq!(
            run(strategy(pin.margin), &pin.config).unwrap(),
            journaled,
            "{}: journaling perturbed the deployment",
            pin.name
        );
    }
}

/// Regenerates the pinned constants. Run with `--ignored --nocapture` and
/// paste the output over the `GOLDEN_*` constants above.
#[test]
#[ignore]
fn print_golden_digests() {
    for pin in path_pins() {
        let (_, journal) = run_journaled(strategy(pin.margin), &pin.config).unwrap();
        println!(
            "{}: {} ({} events)",
            pin.name,
            journal.digest_hex(),
            journal.len()
        );
    }
}
