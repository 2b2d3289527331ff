//! Property tests of the prototype's per-job work accounting.
//!
//! The event loop executes jobs in fractional cycles (piecewise-constant
//! contention speeds make `dt * speed` a float), but budget-based policies
//! consume progress through `Scheduler::on_progress` in integer cycles. The
//! contract pinned here: across arbitrary speed trajectories and fault
//! plans, the integer deltas a policy observes for a job sum *exactly* to
//! the job's integer execution demand by the time it completes — no float
//! drift, no lost or invented cycles.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use proptest::prelude::*;

use mpdp::analysis::tool::{prepare, ToolOptions};
use mpdp::core::ids::{JobId, ProcId};
use mpdp::core::policy::{DegradationPolicy, FailoverReport, Job, JobClass, MpdpPolicy, Scheduler};
use mpdp::core::task::TaskTable;
use mpdp::core::time::{Cycles, DEFAULT_TICK};
use mpdp::obs::NullProbe;
use mpdp::sim::prototype::{run_prototype_probed, PrototypeConfig};
use mpdp::workload::automotive_task_set;
use mpdp_faults::{BusSpike, CompiledFaults, FaultPlan, WcetOverrun};

/// Wraps a policy and records every `on_progress` delta per job, so the
/// test can audit the integer ledger the simulator feeds to budget-based
/// policies. All scheduling decisions are forwarded verbatim.
struct Recorder<S> {
    inner: S,
    reported: Rc<RefCell<HashMap<usize, u64>>>,
}

impl<S> Recorder<S> {
    fn new(inner: S) -> (Self, Rc<RefCell<HashMap<usize, u64>>>) {
        let reported = Rc::new(RefCell::new(HashMap::new()));
        let handle = Rc::clone(&reported);
        (Self { inner, reported }, handle)
    }
}

impl<S: Scheduler> Scheduler for Recorder<S> {
    fn table(&self) -> &TaskTable {
        self.inner.table()
    }
    fn n_procs(&self) -> usize {
        self.inner.n_procs()
    }
    fn job(&self, id: JobId) -> &Job {
        self.inner.job(id)
    }
    fn release_due_into(&mut self, now: Cycles, out: &mut Vec<JobId>) {
        self.inner.release_due_into(now, out)
    }
    fn release_aperiodic(&mut self, task_index: usize, now: Cycles) -> JobId {
        self.inner.release_aperiodic(task_index, now)
    }
    fn promote_due_into(&mut self, now: Cycles, out: &mut Vec<JobId>) {
        self.inner.promote_due_into(now, out)
    }
    fn next_promotion_time(&self) -> Option<Cycles> {
        self.inner.next_promotion_time()
    }
    fn next_release_time(&self) -> Option<Cycles> {
        self.inner.next_release_time()
    }
    fn set_running(&mut self, proc: ProcId, job: Option<JobId>) {
        self.inner.set_running(proc, job)
    }
    fn running(&self) -> &[Option<JobId>] {
        self.inner.running()
    }
    fn complete(&mut self, id: JobId, now: Cycles) -> Job {
        self.inner.complete(id, now)
    }
    fn assign_into(&self, desired: &mut Vec<Option<JobId>>) {
        self.inner.assign_into(desired)
    }
    fn pick_for_idle(&self, proc: ProcId) -> Option<JobId> {
        self.inner.pick_for_idle(proc)
    }
    fn on_progress(&mut self, job: JobId, amount: Cycles, now: Cycles) {
        *self.reported.borrow_mut().entry(job.index()).or_insert(0) += amount.as_u64();
        self.inner.on_progress(job, amount, now);
    }
    fn next_internal_event(&self) -> Option<Cycles> {
        self.inner.next_internal_event()
    }
    fn degradation(&self) -> DegradationPolicy {
        self.inner.degradation()
    }
    fn is_alive(&self, proc: ProcId) -> bool {
        self.inner.is_alive(proc)
    }
    fn try_release_aperiodic(&mut self, task_index: usize, now: Cycles) -> Option<JobId> {
        self.inner.try_release_aperiodic(task_index, now)
    }
    fn detect_missed(&mut self, now: Cycles) -> Vec<JobId> {
        self.inner.detect_missed(now)
    }
    fn kill_job(&mut self, id: JobId, now: Cycles) -> Job {
        self.inner.kill_job(id, now)
    }
    fn demote_job(&mut self, id: JobId) {
        self.inner.demote_job(id)
    }
    fn fail_processor(&mut self, proc: ProcId, now: Cycles) -> FailoverReport {
        self.inner.fail_processor(proc, now)
    }
    fn guaranteed_tasks(&self) -> (usize, usize) {
        self.inner.guaranteed_tasks()
    }
}

fn table(n_procs: usize, utilization: f64) -> TaskTable {
    let set = automotive_task_set(utilization, n_procs, DEFAULT_TICK);
    prepare(
        set.periodic,
        set.aperiodic,
        n_procs,
        ToolOptions::new()
            .with_quantization(DEFAULT_TICK)
            .with_wcet_margin(1.15),
    )
    .expect("schedulable")
}

/// Mirror of the simulator's demand derivation (`ensure_job`): the nominal
/// integer WCET, fault-scaled per release, rounded back to integer cycles.
fn integer_demand(
    table: &TaskTable,
    class: JobClass,
    release: Cycles,
    faults: &CompiledFaults,
) -> u64 {
    let (nominal, coord) = match class {
        JobClass::Periodic { task_index } => (table.periodic()[task_index].wcet(), task_index),
        JobClass::Aperiodic { task_index } => (
            table.aperiodic()[task_index].exec(),
            table.periodic().len() + task_index,
        ),
    };
    let mut demand = nominal.as_u64() as f64;
    if !faults.is_empty() {
        demand *= faults.exec_factor(coord, release);
    }
    demand.round() as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The deltas reported through `on_progress` for a job sum exactly to
    /// its integer execution demand once it completes, for any combination
    /// of contention-driven speed changes (bus spikes) and fault-scaled
    /// demands (WCET overruns).
    #[test]
    fn reported_progress_equals_integer_demand_at_completion(
        utilization in 0.3_f64..0.6,
        n_procs in 2_usize..=4,
        overrun_prob in 0.0_f64..0.6,
        overrun_factor in 1.0_f64..1.8,
        spike_at_ms in 0_u64..3_000,
        spike_ms in 100_u64..2_000,
        spike_factor in 1.5_f64..4.0,
        fault_stream in 0_u64..1_000,
        arrival_ms in proptest::collection::vec(200_u64..4_500, 1..5),
    ) {
        let plan = FaultPlan::default()
            .with_wcet(WcetOverrun::new(overrun_prob, overrun_factor))
            .with_bus_spike(BusSpike::new(
                Cycles::from_millis(spike_at_ms),
                Cycles::from_millis(spike_ms),
                spike_factor,
            ));
        plan.validate(n_procs).expect("valid plan");
        let faults = plan.compile(fault_stream, n_procs);

        let mut arrival_ms = arrival_ms;
        arrival_ms.sort_unstable();
        let arrivals: Vec<(Cycles, usize)> =
            arrival_ms.iter().map(|&ms| (Cycles::from_millis(ms), 0usize)).collect();
        let table = table(n_procs, utilization);
        let (policy, reported) = Recorder::new(MpdpPolicy::new(table.clone()));
        let (outcome, _) = run_prototype_probed(
            policy,
            &arrivals,
            PrototypeConfig::new(Cycles::from_secs(5)),
            &faults,
            NullProbe,
        )
        .unwrap();

        prop_assert!(!outcome.trace.completions.is_empty());
        let reported = reported.borrow();
        for rec in &outcome.trace.completions {
            let expect = integer_demand(&table, rec.class, rec.release, &faults);
            let got = reported.get(&rec.job.index()).copied().unwrap_or(0);
            prop_assert_eq!(
                got,
                expect,
                "job {:?} ({:?} released {:?}): reported {} cycles, demand {}",
                rec.job,
                rec.class,
                rec.release,
                got,
                expect
            );
        }
    }
}

/// Liveness: the event loop strictly advances. A zero-length next-event
/// step (the pre-clamp `ceil(remaining/speed) == 0` failure mode) would
/// spin at one instant and blow the iteration count far past the number of
/// genuine scheduling events; bounding iterations per event pins the fix.
#[test]
fn event_loop_iterations_are_bounded_by_scheduling_events() {
    let arrivals: Vec<(Cycles, usize)> = (0..8)
        .map(|i| (Cycles::from_millis(450 * i + 123), 0usize))
        .collect();
    let (policy, _) = Recorder::new(MpdpPolicy::new(table(2, 0.5)));
    let (outcome, _) = run_prototype_probed(
        policy,
        &arrivals,
        PrototypeConfig::new(Cycles::from_secs(6)),
        &CompiledFaults::none(),
        NullProbe,
    )
    .unwrap();
    let ticks = Cycles::from_secs(6).as_u64() / DEFAULT_TICK.as_u64();
    let events = ticks + arrivals.len() as u64 + outcome.trace.completions.len() as u64;
    // Each scheduling event costs a bounded burst of loop iterations (ISR,
    // scheduling pass, IPIs, context switches, completion); 16 per event is
    // an order of magnitude above the observed steady state, while a
    // zero-length-step spin would exceed it within one tick.
    assert!(
        outcome.loop_iterations <= 16 * events,
        "{} iterations for ~{} events",
        outcome.loop_iterations,
        events
    );
    assert!(outcome.loop_iterations > 0);
}
