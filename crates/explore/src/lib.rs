//! # mpdp-explore — bounded exhaustive interleaving explorer + mutation campaign
//!
//! Sweeps and benches sample the schedule space; this crate *closes* small
//! corners of it. An [`ExploreModel`] is a 2–3-task system whose
//! nondeterminism — which aperiodic arrivals fire, their ISR delivery
//! delays, and same-cycle tie order — spans a finite, fully-enumerable
//! space. [`explore()`] walks every distinct resolved schedule once
//! (canonical-key dedup, path budget, seeded visit order), runs each
//! through **both** simulator stacks, replays the probe streams through
//! the invariant monitors, and cross-checks the stacks with the
//! differential oracle. A failure is shrunk to a 1-minimal, replayable
//! [`Counterexample`].
//!
//! The same machinery powers the *mutation campaign* ([`run_campaign`]):
//! every seeded scheduler bug in [`Mutation::catalog`][mpdp_monitor::Mutation::catalog]
//! is thrown at three independent layers — explorer, monitor-on-sampled-run,
//! and replayed existing-suite assertions — producing the kill-rate matrix
//! the `exp_mutation_campaign` binary exports and CI gates on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod explore;
pub mod model;
pub mod run;

pub use campaign::{model_for, run_campaign, CampaignOutcome, KillRecord};
pub use explore::{explore, replay, Counterexample, ExploreConfig, ExploreReport};
pub use model::ExploreModel;
pub use run::{run_path, PathOutcome};
