//! # smartred-core — smart redundancy for distributed computation
//!
//! A clean-room implementation of the redundancy techniques from
//! *"Smart Redundancy for Distributed Computation"* (Brun, Edwards, Bang,
//! Medvidovic — ICDCS 2011): **traditional** `k`-modular redundancy,
//! **progressive** redundancy, and the paper's contribution, **iterative**
//! redundancy, together with the exact analysis of their costs and
//! reliabilities (Eqs. 1–6, Theorems 1–2).
//!
//! ## The model in one paragraph
//!
//! A distributed computation architecture (DCA) splits a computation into
//! independent *tasks*; each task is executed as one or more *jobs* on
//! nodes drawn uniformly at random from a pool whose members may fail — in
//! the worst case Byzantine-maliciously and in collusion (§2.2). A
//! redundancy technique decides how many jobs to run per task and when to
//! accept a result. Its two figures of merit are the achieved **system
//! reliability** `R(r)` and the **cost factor** `C(r)` (expected jobs per
//! task), both as functions of the mean job reliability `r`.
//!
//! ## Quick start
//!
//! ```
//! use smartred_core::analysis;
//! use smartred_core::monte_carlo::{estimate, MonteCarloConfig};
//! use smartred_core::params::{Reliability, VoteMargin};
//! use smartred_core::strategy::Iterative;
//! use rand::SeedableRng;
//!
//! // Iterative redundancy with margin d = 4 over a pool of reliability 0.7.
//! let d = VoteMargin::new(4)?;
//! let r = Reliability::new(0.7)?;
//! let strategy = Iterative::new(d);
//!
//! // Analytic predictions (Eqs. 5 and 6)…
//! let predicted_cost = analysis::iterative::cost(d, r);          // ≈ 9.35
//! let predicted_reliability = analysis::iterative::reliability(d, r); // ≈ 0.967
//!
//! // …verified by simulation under the Byzantine worst case.
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let report = estimate(&strategy, MonteCarloConfig::new(20_000, r), &mut rng);
//! assert!((report.cost_factor() - predicted_cost).abs() < 0.25);
//! assert!((report.reliability() - predicted_reliability).abs() < 0.01);
//! # Ok::<(), smartred_core::error::ParamError>(())
//! ```
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | [`params`] | validated newtypes: [`params::Reliability`], [`params::KVotes`], [`params::VoteMargin`], [`params::Confidence`] |
//! | [`tally`] | n-ary vote counting with deterministic tie-breaks |
//! | [`strategy`] | the three techniques plus related-work baselines |
//! | [`execution`] | the wave-by-wave driver used by every platform |
//! | [`task`] | the per-task lifecycle (waves, votes, hedges, audits, retries) both simulators drive |
//! | [`analysis`] | Eqs. 1–6 by multiple independent derivations |
//! | [`monte_carlo`] | direct stochastic validation of the formulas |
//! | [`parallel`] | deterministic scoped-thread work pool + counter-based RNG streams |
//! | [`node`], [`reputation`] | node identity and reputation for the baselines |
//!
//! The companion crates `smartred-desim`, `smartred-dca`, `smartred-sat`
//! and `smartred-volunteer` rebuild the paper's two evaluation platforms
//! (the XDEVS discrete-event simulations and the BOINC/PlanetLab
//! deployment); `smartred-bench` regenerates every figure.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod audit;
pub mod error;
pub mod execution;
pub mod hedge;
pub mod monte_carlo;
pub mod node;
pub mod parallel;
pub mod params;
pub mod reputation;
pub mod resilience;
pub mod strategy;
pub mod tally;
pub mod task;

pub use audit::{AuditPolicy, Cartel};
pub use error::ParamError;
pub use execution::{TaskExecution, WaveStep};
pub use params::{Confidence, KVotes, Reliability, VoteMargin};
pub use strategy::{Decision, Iterative, Progressive, RedundancyStrategy, Traditional};
pub use tally::VoteTally;
