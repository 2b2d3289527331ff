//! The runtime fault oracle: pure-hash answers to "does this job overrun?",
//! "is this tick's interrupt lost?", "how slow is the bus right now?".
//!
//! Compiled once per sweep cell; every query is a pure function of the
//! compiled state and the caller's coordinates, so answers are independent
//! of query order (and therefore of worker scheduling).

use mpdp_core::hash::mix;
use mpdp_core::time::Cycles;

use crate::plan::{BusSpike, FailStop, InterruptFaults, WcetOverrun};
use crate::unit;

/// Decision-class salts: distinct hash subspaces per fault class.
const SALT_WCET: u64 = 0x57CE_7001;
const SALT_IRQ_LOST: u64 = 0x1057_1277;

/// A compiled, queryable fault plan for one simulation run.
///
/// Obtained from [`crate::FaultPlan::compile`]; [`CompiledFaults::none`] is
/// the inert oracle used by all fault-free paths.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompiledFaults {
    empty: bool,
    stream: u64,
    wcet: Option<WcetOverrun>,
    extra_arrivals: Vec<(Cycles, usize)>,
    fail_stop: Option<FailStop>,
    interrupts: InterruptFaults,
    bus_spikes: Vec<BusSpike>,
}

impl CompiledFaults {
    /// The inert oracle: injects nothing, every query takes the early-out
    /// path.
    pub fn none() -> Self {
        CompiledFaults {
            empty: true,
            ..Default::default()
        }
    }

    pub(crate) fn new(
        stream: u64,
        wcet: Option<WcetOverrun>,
        extra_arrivals: Vec<(Cycles, usize)>,
        fail_stop: Option<FailStop>,
        interrupts: InterruptFaults,
        bus_spikes: Vec<BusSpike>,
    ) -> Self {
        CompiledFaults {
            empty: false,
            stream,
            wcet,
            extra_arrivals,
            fail_stop,
            interrupts,
            bus_spikes,
        }
    }

    /// `true` for the inert oracle — the simulators' fast-path guard.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.empty
    }

    /// Execution-demand multiplier for the periodic job of task
    /// `task_index` released at `release`. `1.0` when healthy; the decision
    /// is a pure hash of `(stream, task_index, release)`, so re-querying —
    /// from either simulator stack — always agrees.
    #[inline]
    pub fn exec_factor(&self, task_index: usize, release: Cycles) -> f64 {
        if self.empty {
            return 1.0;
        }
        let Some(w) = &self.wcet else { return 1.0 };
        let u = unit(mix(
            mix(mix(self.stream, SALT_WCET), task_index as u64),
            release.as_u64(),
        ));
        if u < w.tail_probability {
            w.tail_factor
        } else if u < w.tail_probability + w.probability {
            w.factor
        } else {
            1.0
        }
    }

    /// Extra aperiodic arrivals `(instant, aperiodic task index)` from
    /// overload bursts, sorted by instant. Merged into the cell's nominal
    /// arrival stream by the sweep engine.
    #[inline]
    pub fn extra_arrivals(&self) -> &[(Cycles, usize)] {
        &self.extra_arrivals
    }

    /// The processor fail-stop, if any: `(processor index, instant)`.
    #[inline]
    pub fn fail_stop(&self) -> Option<(usize, Cycles)> {
        self.fail_stop.map(|f| (f.proc, f.at))
    }

    /// Whether the timer raise for tick number `tick_seq` is silently lost.
    /// Pure hash of `(stream, tick_seq)`.
    #[inline]
    pub fn interrupt_lost(&self, tick_seq: u64) -> bool {
        if self.empty || self.interrupts.lost_probability == 0.0 {
            return false;
        }
        unit(mix(mix(self.stream, SALT_IRQ_LOST), tick_seq)) < self.interrupts.lost_probability
    }

    /// Instants of spurious timer raises, sorted ascending.
    #[inline]
    pub fn spurious(&self) -> &[Cycles] {
        &self.interrupts.spurious
    }

    /// Bus slowdown factor in effect at `now` (`1.0` outside every spike
    /// window; overlapping windows compound multiplicatively).
    #[inline]
    pub fn bus_factor(&self, now: Cycles) -> f64 {
        if self.empty || self.bus_spikes.is_empty() {
            return 1.0;
        }
        let mut f = 1.0;
        for s in &self.bus_spikes {
            if s.at > now {
                break;
            }
            if now < s.at.saturating_add(s.duration) {
                f *= s.factor;
            }
        }
        f
    }

    /// Next instant strictly after `now` at which the bus factor changes
    /// (a spike window opens or closes), for event-driven simulators.
    pub fn next_bus_edge(&self, now: Cycles) -> Option<Cycles> {
        if self.empty {
            return None;
        }
        self.bus_spikes
            .iter()
            .flat_map(|s| [s.at, s.at.saturating_add(s.duration)])
            .filter(|&edge| edge > now)
            .min()
    }

    /// Next spurious timer raise strictly after `now`.
    pub fn next_spurious(&self, now: Cycles) -> Option<Cycles> {
        if self.empty {
            return None;
        }
        self.interrupts.spurious.iter().copied().find(|&t| t > now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultPlan, OverloadBurst};

    fn faulty() -> CompiledFaults {
        FaultPlan::default()
            .with_wcet(WcetOverrun::new(0.5, 2.0).with_tail(0.1, 8.0))
            .with_burst(OverloadBurst::new(
                Cycles::from_secs(2),
                4,
                Cycles::from_millis(50),
            ))
            .with_fail_stop(FailStop::new(1, Cycles::from_secs(3)))
            .with_interrupts(InterruptFaults {
                lost_probability: 0.25,
                spurious: vec![Cycles::from_secs(1), Cycles::from_secs(4)],
            })
            .with_bus_spike(BusSpike::new(
                Cycles::from_secs(2),
                Cycles::from_secs(1),
                3.0,
            ))
            .compile(0xDEAD_BEEF, 2)
    }

    #[test]
    fn decisions_are_pure_and_order_independent() {
        let a = faulty();
        let b = faulty();
        // Query b in a scrambled order; answers must match a's.
        for task in (0..8).rev() {
            for rel in [5u64, 0, 3, 1] {
                let release = Cycles::from_secs(rel);
                assert_eq!(a.exec_factor(task, release), b.exec_factor(task, release));
            }
        }
        for seq in [9u64, 2, 7, 0] {
            assert_eq!(a.interrupt_lost(seq), b.interrupt_lost(seq));
        }
    }

    #[test]
    fn exec_factor_hits_all_three_outcomes() {
        let c = faulty();
        let mut seen = std::collections::BTreeSet::new();
        for task in 0..4 {
            for rel in 0..64 {
                let f = c.exec_factor(task, Cycles::from_millis(rel * 100));
                seen.insert(f.to_bits());
            }
        }
        assert_eq!(
            seen,
            [1.0f64, 2.0, 8.0].iter().map(|f| f.to_bits()).collect(),
            "expected healthy, overrun, and tail outcomes across 256 jobs"
        );
    }

    #[test]
    fn lost_interrupt_rate_tracks_probability() {
        let c = faulty();
        let lost = (0..4000).filter(|&s| c.interrupt_lost(s)).count();
        let rate = lost as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.05, "lost rate {rate} far from 0.25");
    }

    #[test]
    fn bus_factor_windows_and_edges() {
        let c = faulty();
        assert_eq!(c.bus_factor(Cycles::from_millis(1999)), 1.0);
        assert_eq!(c.bus_factor(Cycles::from_secs(2)), 3.0);
        assert_eq!(c.bus_factor(Cycles::from_millis(2999)), 3.0);
        assert_eq!(c.bus_factor(Cycles::from_secs(3)), 1.0);
        assert_eq!(c.next_bus_edge(Cycles::ZERO), Some(Cycles::from_secs(2)));
        assert_eq!(
            c.next_bus_edge(Cycles::from_secs(2)),
            Some(Cycles::from_secs(3))
        );
        assert_eq!(c.next_bus_edge(Cycles::from_secs(3)), None);
        assert_eq!(c.next_spurious(Cycles::ZERO), Some(Cycles::from_secs(1)));
        assert_eq!(
            c.next_spurious(Cycles::from_secs(1)),
            Some(Cycles::from_secs(4))
        );
    }

    #[test]
    fn inert_oracle_answers_healthy_everywhere() {
        let c = CompiledFaults::none();
        assert!(c.is_empty());
        assert_eq!(c.exec_factor(0, Cycles::ZERO), 1.0);
        assert!(c.extra_arrivals().is_empty());
        assert_eq!(c.fail_stop(), None);
        assert!(!c.interrupt_lost(0));
        assert_eq!(c.bus_factor(Cycles::ZERO), 1.0);
        assert_eq!(c.next_bus_edge(Cycles::ZERO), None);
        assert_eq!(c.next_spurious(Cycles::ZERO), None);
    }
}
