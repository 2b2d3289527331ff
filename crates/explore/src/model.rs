//! The small, fully-enumerable task-set models the explorer checks.
//!
//! Exhaustive exploration only closes when the choice space is finite and
//! small: a model here is 2–3 periodic tasks and 1–2 aperiodic tasks over
//! a horizon of a few hundred cycles, with kernel costs scaled to (near)
//! zero so the prototype's behaviour at this scale is the scheduling
//! algorithm itself, not cost-model noise. Nondeterminism is confined to
//! three explicit dimensions the explorer enumerates:
//!
//! 1. **which arrival slots fire** (each slot: no arrival, or one of the
//!    model's aperiodic tasks),
//! 2. **ISR delivery delay** per firing slot (the peripheral latches the
//!    event, the processor observes it a few cycles later),
//! 3. **tie order** when two resolved arrivals land on the same cycle.
//!
//! Promotion offsets are deliberately *tightened* after the offline
//! analysis ([`TaskTable::set_promotion`] keeps them inside the deadline
//! window, so the guarantee bookkeeping is unchanged) — at these tiny
//! utilizations the RTA-derived offsets sit so close to the deadline that
//! every job would finish long before promoting, and the promotion /
//! band-order machinery would go unexercised.

use mpdp_core::ids::{ProcId, TaskId};
use mpdp_core::priority::Priority;
use mpdp_core::rta::build_task_table;
use mpdp_core::task::{AperiodicTask, PeriodicTask, TaskTable};
use mpdp_core::time::Cycles;
use mpdp_kernel::costs::KernelCosts;
use mpdp_monitor::MonitorConfig;
use mpdp_sim::prototype::PrototypeConfig;
use mpdp_sim::theoretical::TheoreticalConfig;

/// A bounded model: the task set plus the finite nondeterminism space.
#[derive(Debug, Clone)]
pub struct ExploreModel {
    /// Stable model name (used in replay specs and reports).
    pub name: &'static str,
    table: TaskTable,
    /// Exploration horizon. Chosen to cover one hyperperiod of releases
    /// while excluding the boundary release itself, so both stacks agree
    /// on the job population by construction.
    pub horizon: Cycles,
    /// Scheduler tick for both stacks; divides every period.
    pub tick: Cycles,
    /// Candidate aperiodic arrival instants.
    pub slots: Vec<Cycles>,
    /// Candidate ISR delivery delays, applied per firing slot.
    pub delays: Vec<u64>,
}

impl ExploreModel {
    /// Two periodic tasks partitioned over two processors plus one
    /// aperiodic task — the acceptance model: its exhaustive pristine run
    /// must be violation- and divergence-free.
    ///
    /// The time base is deliberately coarser than `contended`'s: with two
    /// processors the prototype sends IPIs, and an IPI burst has an
    /// irreducible bus cost (words × DDR service) that no kernel-cost
    /// setting removes. At tick 1000 those few-dozen-cycle bursts are
    /// noise; at tick 20 they would saturate the machine.
    pub fn two_proc() -> Self {
        let t0 = PeriodicTask::new(TaskId::new(0), "t0", Cycles::new(400), Cycles::new(3_000))
            .with_priorities(Priority::new(1), Priority::new(4))
            .with_processor(ProcId::new(0));
        let t1 = PeriodicTask::new(TaskId::new(1), "t1", Cycles::new(500), Cycles::new(4_000))
            .with_priorities(Priority::new(0), Priority::new(3))
            .with_processor(ProcId::new(1));
        let ap = AperiodicTask::new(TaskId::new(7), "ap", Cycles::new(1_500));
        let mut table = build_task_table(vec![t0, t1], vec![ap], 2).expect("model is schedulable");
        table.set_promotion(0, Cycles::new(200));
        table.set_promotion(1, Cycles::new(500));
        ExploreModel {
            name: "two-proc",
            table,
            horizon: Cycles::new(11_500),
            tick: Cycles::new(1_000),
            // 4400 + delay 100 collides with 4500 + delay 0, so same-cycle
            // tie order is a live dimension on this model too.
            slots: vec![Cycles::new(0), Cycles::new(4_400), Cycles::new(4_500)],
            delays: vec![0, 100],
        }
    }

    /// One processor, two periodic and two aperiodic tasks — the contended
    /// model: aperiodic jobs actually queue, periodic jobs actually wait
    /// past their promotion instants, so FIFO order, band order, and
    /// promotion timing are all load-bearing on some explored path.
    ///
    /// t1's promotion offset (10) lands *mid-run* on the undisturbed
    /// schedule: t1 executes [8, 18) and is upper-band from 10, so two
    /// aperiodic arrivals inside [10, 18) — slots 12 and 14 — queue
    /// without ever starting. That is the only way a FIFO choice between
    /// two never-run aperiodic jobs exists on one processor, which is
    /// exactly what the `fifo-violation` mutant needs to be observable
    /// (the monitor's I3 checks *first-start* order).
    pub fn contended() -> Self {
        let t0 = PeriodicTask::new(TaskId::new(0), "t0", Cycles::new(8), Cycles::new(60))
            .with_priorities(Priority::new(1), Priority::new(4));
        let t1 = PeriodicTask::new(TaskId::new(1), "t1", Cycles::new(10), Cycles::new(80))
            .with_priorities(Priority::new(0), Priority::new(3));
        let ap0 = AperiodicTask::new(TaskId::new(7), "ap0", Cycles::new(25));
        let ap1 = AperiodicTask::new(TaskId::new(8), "ap1", Cycles::new(15));
        let mut table =
            build_task_table(vec![t0, t1], vec![ap0, ap1], 1).expect("model is schedulable");
        table.set_promotion(0, Cycles::new(12));
        table.set_promotion(1, Cycles::new(10));
        ExploreModel {
            name: "contended",
            table,
            horizon: Cycles::new(230),
            tick: Cycles::new(20),
            // 12 + delay 2 collides with 14 + delay 0: same-cycle ties with
            // distinct tasks, so tie order is a live dimension.
            slots: vec![Cycles::new(0), Cycles::new(12), Cycles::new(14)],
            delays: vec![0, 2],
        }
    }

    /// The pristine task table (catalog source; never mutated in place).
    pub fn table(&self) -> &TaskTable {
        &self.table
    }

    /// Number of processors.
    pub fn n_procs(&self) -> usize {
        self.table.n_procs()
    }

    /// Number of aperiodic tasks (arrival-slot choices).
    pub fn n_aperiodic(&self) -> usize {
        self.table.aperiodic().len()
    }

    /// Choices per slot: no arrival, or (task × delay).
    pub fn choices_per_slot(&self) -> usize {
        1 + self.n_aperiodic() * self.delays.len()
    }

    /// Upper bound on decision-vector leaves (before tie permutations and
    /// dedup): `choices_per_slot ^ slots`. Kept for
    /// `models_are_small_and_guaranteed`, which bounds every model with it.
    pub fn leaf_bound(&self) -> u64 {
        (self.choices_per_slot() as u64).pow(self.slots.len() as u32)
    }

    /// Theoretical-stack configuration: event-driven (exact release,
    /// promotion, and arrival stamps — a one-cycle skew is visible) with
    /// zero folded overhead.
    pub fn theoretical_config(&self) -> TheoreticalConfig {
        TheoreticalConfig::new(self.horizon)
            .with_tick(self.tick)
            .with_overhead(0.0)
            .with_event_driven()
    }

    /// Prototype-stack configuration: same tick, kernel costs scaled to
    /// zero so a few-hundred-cycle horizon is not swamped by cost-model
    /// bursts that would dwarf every execution in the model.
    pub fn prototype_config(&self) -> PrototypeConfig {
        let costs = KernelCosts {
            sched_base: 0,
            sched_per_task: 0,
            isr_entry: 0,
            isr_exit: 0,
            ipi_send: 0,
            intc_words: 0,
            context_scale: 0.0,
        };
        let mut config = PrototypeConfig::new(self.horizon)
            .with_tick(self.tick)
            .with_kernel_costs(costs);
        config.ack_latency = Cycles::ZERO;
        config.kernel_bus_rate = 0.0;
        config.isr_bus_rate = 0.0;
        config
    }

    /// Monitor configuration for the theoretical stream: zero tolerance —
    /// the event-driven stack is exact, so even a one-cycle promotion skew
    /// is a violation.
    pub fn monitor_theoretical(&self) -> MonitorConfig {
        MonitorConfig::fault_free(Cycles::ZERO)
    }

    /// Monitor configuration for the prototype stream: the prototype acts
    /// at tick granularity, so promotions land up to one tick late and
    /// queue decisions skew accordingly — two ticks of tolerance plus one
    /// tick of early slack absorb exactly that, and nothing more.
    pub fn monitor_prototype(&self) -> MonitorConfig {
        MonitorConfig::fault_free(self.tick + self.tick).with_early_slack(self.tick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdp_monitor::TaskCatalog;

    #[test]
    fn models_are_small_and_guaranteed() {
        for model in [ExploreModel::two_proc(), ExploreModel::contended()] {
            let catalog = TaskCatalog::new(model.table());
            assert!(
                model.leaf_bound() <= 4096,
                "{} stays enumerable",
                model.name
            );
            // The cycle scale is arbitrary; what bounds the state space is
            // the number of scheduler-relevant instants.
            assert!(
                model.horizon.as_u64() / model.tick.as_u64() <= 24,
                "{} horizon is a couple dozen ticks",
                model.name
            );
            for i in 0..catalog.n_periodic() {
                assert!(
                    catalog.periodic(i as u32).expect("periodic").guaranteed(),
                    "{} task {i} keeps upper-band protection",
                    model.name
                );
            }
            // Every period is a tick multiple, so the prototype's timer
            // releases land exactly on the theoretical release instants.
            for t in model.table().periodic() {
                assert!(t.period().as_u64() % model.tick.as_u64() == 0);
            }
            // Slots resolve within the horizon even under the worst delay.
            let worst = model.delays.iter().copied().max().unwrap_or(0);
            for s in &model.slots {
                assert!(s.as_u64() + worst < model.horizon.as_u64() / 2);
            }
        }
    }
}
