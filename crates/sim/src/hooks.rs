//! Pluggable nondeterminism hooks for the interleaving explorer.
//!
//! A real platform does not deliver aperiodic interrupts at exactly the
//! cycle the peripheral latched them, and does not break same-cycle ties
//! in a canonical order: delivery slots depend on bus traffic, and tie
//! order on wiring. The bounded exhaustive explorer (`mpdp-explore`)
//! enumerates those choices; this module is the seam it drives them
//! through.
//!
//! A [`SimHooks`] value is *resolved* against a nominal arrival list to
//! produce the concrete arrival schedule a run actually sees: per-arrival
//! ISR delivery delays shift instants, tie ranks order arrivals that
//! resolve to the same cycle. Resolution is a pure function — the same
//! hooks applied to the same nominal arrivals always yield the same
//! schedule — and the [`run_theoretical_hooked`] / [`run_prototype_hooked`]
//! wrappers feed the *same* resolved schedule to both stacks, so the
//! differential oracle compares like with like: any divergence is a
//! scheduler disagreement, never a hook artifact.

use mpdp_core::time::Cycles;
use mpdp_core::{Scheduler, TaskSetError};
use mpdp_faults::CompiledFaults;
use mpdp_obs::Probe;

use crate::prototype::{run_prototype_probed, PrototypeConfig, PrototypeOutcome};
use crate::theoretical::{run_theoretical_probed, SimOutcome, TheoreticalConfig};

/// One explored nondeterminism assignment: how the platform perturbs a
/// nominal arrival list.
///
/// Both vectors are indexed by *position in the nominal arrival list*;
/// entries beyond either vector's length default to "no perturbation"
/// (zero delay, input-order tie rank), so `SimHooks::default()` is the
/// identity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimHooks {
    /// ISR delivery delay per nominal arrival: the job's release is
    /// observed `delay` cycles after the peripheral latched it.
    pub isr_delays: Vec<Cycles>,
    /// Tie-break rank per nominal arrival: when two resolved arrivals
    /// land on the same cycle, the lower rank is delivered first.
    pub tie_ranks: Vec<u32>,
}

impl SimHooks {
    /// The identity hooks: no delays, input-order ties.
    pub fn none() -> Self {
        SimHooks::default()
    }

    /// Sets the delivery delays.
    pub fn with_delays(mut self, delays: Vec<Cycles>) -> Self {
        self.isr_delays = delays;
        self
    }

    /// Sets the tie-break ranks.
    pub fn with_tie_ranks(mut self, ranks: Vec<u32>) -> Self {
        self.tie_ranks = ranks;
        self
    }

    /// Whether resolution would be the identity on any input.
    pub fn is_identity(&self) -> bool {
        self.isr_delays.iter().all(|d| d.is_zero()) && self.tie_ranks.is_empty()
    }

    /// Resolves the nominal `arrivals` into the concrete schedule: each
    /// arrival is shifted by its delay, then the list is stably sorted by
    /// (instant, tie rank) — so equal-rank same-cycle arrivals keep their
    /// input order, and the result satisfies the simulators' sorted-input
    /// contract by construction.
    pub fn resolve(&self, arrivals: &[(Cycles, usize)]) -> Vec<(Cycles, usize)> {
        let mut resolved: Vec<(Cycles, usize, u32)> = arrivals
            .iter()
            .enumerate()
            .map(|(i, &(at, task))| {
                let delay = self.isr_delays.get(i).copied().unwrap_or(Cycles::ZERO);
                let rank = self.tie_ranks.get(i).copied().unwrap_or(i as u32);
                (at + delay, task, rank)
            })
            .collect();
        resolved.sort_by_key(|&(at, _, rank)| (at, rank));
        resolved
            .into_iter()
            .map(|(at, task, _)| (at, task))
            .collect()
    }
}

/// [`run_theoretical_probed`]
/// over the hook-resolved arrival schedule.
///
/// # Errors
///
/// Propagates the underlying simulator's [`TaskSetError`]s; the resolved
/// schedule itself is sorted by construction.
pub fn run_theoretical_hooked<S: Scheduler, P: Probe>(
    policy: S,
    arrivals: &[(Cycles, usize)],
    hooks: &SimHooks,
    config: TheoreticalConfig,
    faults: &CompiledFaults,
    probe: P,
) -> Result<(SimOutcome, P), TaskSetError> {
    run_theoretical_probed(policy, &hooks.resolve(arrivals), config, faults, probe)
}

/// [`run_prototype_probed`] over
/// the hook-resolved arrival schedule — the *same* schedule
/// [`run_theoretical_hooked`] sees for the same hooks, which is what makes
/// cross-stack differential checks of a hooked run sound.
///
/// # Errors
///
/// Propagates the underlying simulator's [`TaskSetError`]s.
pub fn run_prototype_hooked<S: Scheduler, P: Probe>(
    policy: S,
    arrivals: &[(Cycles, usize)],
    hooks: &SimHooks,
    config: PrototypeConfig,
    faults: &CompiledFaults,
    probe: P,
) -> Result<(PrototypeOutcome, P), TaskSetError> {
    run_prototype_probed(policy, &hooks.resolve(arrivals), config, faults, probe)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrivals() -> Vec<(Cycles, usize)> {
        vec![
            (Cycles::new(10), 0),
            (Cycles::new(10), 1),
            (Cycles::new(40), 0),
        ]
    }

    #[test]
    fn identity_hooks_preserve_the_schedule() {
        let hooks = SimHooks::none();
        assert!(hooks.is_identity());
        assert_eq!(hooks.resolve(&arrivals()), arrivals());
    }

    #[test]
    fn delays_shift_and_resort() {
        // Delay the first arrival past the third: the schedule re-sorts.
        let hooks = SimHooks::none().with_delays(vec![Cycles::new(35)]);
        assert!(!hooks.is_identity());
        assert_eq!(
            hooks.resolve(&arrivals()),
            vec![
                (Cycles::new(10), 1),
                (Cycles::new(40), 0),
                (Cycles::new(45), 0),
            ]
        );
    }

    #[test]
    fn tie_ranks_reorder_same_cycle_arrivals_only() {
        let hooks = SimHooks::none().with_tie_ranks(vec![5, 1, 0]);
        assert_eq!(
            hooks.resolve(&arrivals()),
            vec![
                (Cycles::new(10), 1),
                (Cycles::new(10), 0),
                (Cycles::new(40), 0),
            ]
        );
    }

    #[test]
    fn resolution_is_deterministic_and_sorted() {
        let hooks = SimHooks::none()
            .with_delays(vec![Cycles::new(3), Cycles::new(0), Cycles::new(1)])
            .with_tie_ranks(vec![2, 0, 1]);
        let a = hooks.resolve(&arrivals());
        let b = hooks.resolve(&arrivals());
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0), "sorted output");
    }
}
