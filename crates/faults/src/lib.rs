//! Deterministic fault injection for the MPDP simulators.
//!
//! The paper's evaluation only ever exercises the happy path: every task
//! honors its WCET, every interrupt is delivered, every processor survives
//! the run. This crate supplies the *misbehaviour*: a declarative
//! [`FaultPlan`] describing what goes wrong, compiled into a
//! [`CompiledFaults`] oracle the simulators query while running.
//!
//! # Determinism contract
//!
//! Every stochastic decision is a **pure hash** of stable identifiers — the
//! compiled seed, a per-decision-class salt, and coordinates such as the
//! task index and nominal release instant — never a draw from a sequential
//! RNG. Two consequences, both load-bearing for the sweep engine:
//!
//! 1. **Worker invariance.** A decision does not depend on how many other
//!    decisions were made before it, so sweeps produce byte-identical
//!    exports for any worker count (the same property
//!    `mpdp-sweep` already guarantees for fault-free runs).
//! 2. **Zero-cost no-op.** An empty plan compiles to
//!    [`CompiledFaults::none`], whose queries are `is_empty()`-guarded
//!    early returns. No RNG state is consumed and no floating-point
//!    arithmetic is applied to healthy quantities, so all pre-fault figures
//!    are bit-unchanged.
//!
//! # Fault classes
//!
//! | Class | Spec | Injected where |
//! |---|---|---|
//! | WCET overrun | [`WcetOverrun`] | job demand, both simulator stacks |
//! | Aperiodic overload | [`OverloadBurst`] | extra arrivals merged into the cell stream |
//! | Processor fail-stop | [`FailStop`] | policy + INTC at cycle *t* |
//! | Lost/spurious interrupts | [`InterruptFaults`] | prototype timer raises |
//! | Bus-latency spike | [`BusSpike`] | prototype progress rates; theoretical demand |
//!
//! # Example
//!
//! ```
//! use mpdp_core::time::Cycles;
//! use mpdp_faults::{FaultPlan, WcetOverrun};
//!
//! let plan = FaultPlan::default().with_wcet(WcetOverrun::new(0.5, 2.0));
//! plan.validate(4).unwrap();
//! let compiled = plan.compile(0xC0FFEE, 4);
//! // The same (task, release) coordinate always gets the same factor.
//! let f = compiled.exec_factor(3, Cycles::from_secs(1));
//! assert_eq!(f, compiled.exec_factor(3, Cycles::from_secs(1)));
//! assert!(f == 1.0 || f == 2.0);
//! // Empty plans are inert.
//! assert_eq!(FaultPlan::default().compile(1, 4).exec_factor(3, Cycles::ZERO), 1.0);
//! ```

mod compiled;
mod plan;

use mpdp_core::hash::mix;

pub use compiled::CompiledFaults;
pub use plan::{
    BusSpike, FailStop, FaultPlan, FaultPlanError, InterruptFaults, OverloadBurst, WcetOverrun,
};

/// Derives the fault decision stream for a cell from its sweep RNG stream.
///
/// The salt keeps fault hashes out of the subspace `StdRng::seed_from_u64`
/// expands the same value into for workload synthesis and arrival phases.
#[inline]
pub fn fault_stream(cell_stream: u64) -> u64 {
    mix(cell_stream, 0xFA_17_FA_17_FA_17_FA_17)
}

/// Maps a 64-bit hash to a uniform `f64` in `[0, 1)` (53 mantissa bits).
#[inline]
pub(crate) fn unit(hash: u64) -> f64 {
    (hash >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}
