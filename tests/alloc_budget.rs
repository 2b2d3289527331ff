//! Allocation budget of the simulators' event loops and of the
//! schedulability kernel.
//!
//! Both stacks promise no heap allocation per simulated event: scratch
//! buffers are reused, policy scans walk live jobs only, and the interrupt
//! controller routes in place. Whatever a run still allocates is set-up
//! plus amortized growth of the per-job tables and the trace, so doubling
//! the horizon — twice the ticks, releases, switches and interrupts — may
//! add only a handful of allocations. A per-event allocation adds
//! thousands.
//!
//! The packing kernel behind `is_schedulable_at` and the breakdown search
//! promises the same per trial placement: a probe allocates its rows and
//! scratch once, and a finer breakdown search (more probes) allocates no
//! more than a coarse one beyond amortized scratch growth.
//!
//! A counting global allocator tallies allocations per thread (a
//! const-initialized thread-local), so the test harness running other
//! tests on parallel threads cannot skew a count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use mpdp::analysis::tool::{prepare, ToolOptions};
use mpdp::analysis::{breakdown_utilization, is_schedulable_at, PartitionHeuristic};
use mpdp::core::policy::MpdpPolicy;
use mpdp::core::task::TaskTable;
use mpdp::core::time::{Cycles, DEFAULT_TICK};
use mpdp::sim::prototype::{run_prototype_with, PrototypeConfig};
use mpdp::sim::theoretical::{run_theoretical_with, TheoreticalConfig};
use mpdp_faults::CompiledFaults;

/// Extra allocations a doubled horizon may cost one stack.
const BUDGET: u64 = 100;
/// Allocations one `is_schedulable_at` call may make on a Figure 4 set.
const PROBE_BUDGET: u64 = 16;
/// Extra allocations a breakdown search 50× finer may make.
const SEARCH_BUDGET: u64 = 8;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and reallocation made
/// on the calling thread.
struct Counting;

impl Counting {
    fn tally() {
        // `try_with`: the slot is gone while a thread tears down.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the tally touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::tally();
        // SAFETY: forwarded from the caller's `alloc` contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::tally();
        // SAFETY: forwarded from the caller's `alloc_zeroed` contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::tally();
        // SAFETY: forwarded from the caller's `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded from the caller's `dealloc` contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let after = ALLOCATIONS.with(Cell::get);
    drop(out);
    after - before
}

/// The analyzed table of a 4-processor automotive cell at 60% load.
fn table() -> Arc<TaskTable> {
    let set = mpdp::workload::automotive_task_set(0.6, 4, DEFAULT_TICK);
    let table = prepare(
        set.periodic,
        set.aperiodic,
        4,
        ToolOptions::new().with_quantization(DEFAULT_TICK),
    )
    .expect("the automotive set is schedulable at 60%");
    Arc::new(table)
}

/// One activation of the aperiodic task every 12 s from 1 s on, the last
/// one with time left to finish before `horizon`.
fn arrivals(horizon: Cycles) -> Vec<(Cycles, usize)> {
    let gap = Cycles::from_secs(12);
    (0u64..)
        .map(|i| (Cycles::from_secs(1) + gap * i, 0usize))
        .take_while(|&(at, _)| at + gap < horizon)
        .collect()
}

/// Allocations one run costs at `secs` and at twice that horizon. Each
/// horizon runs on its own new thread: the prototype keeps a per-thread
/// table of solved bus operating points, so on one thread the second run
/// would find the table warm and skip the growth the first one paid for.
fn at_both_horizons(
    run: impl Fn(Arc<TaskTable>, &[(Cycles, usize)], Cycles) -> u64 + Sync,
) -> (u64, u64) {
    let table = table();
    let count = |secs| {
        let horizon = Cycles::from_secs(secs);
        let stream = arrivals(horizon);
        std::thread::scope(|s| {
            s.spawn(|| run(Arc::clone(&table), &stream, horizon))
                .join()
                .expect("the counted run")
        })
    };
    (count(50), count(100))
}

fn assert_within_budget(stack: &str, (short, long): (u64, u64)) {
    assert!(
        long <= short + BUDGET,
        "{stack}: doubling the horizon from 50 s to 100 s grew the run's \
         allocations from {short} to {long} (budget +{BUDGET}); the event loop \
         allocates per event"
    );
}

#[test]
fn prototype_event_loop_allocates_nothing_per_event() {
    let counts = at_both_horizons(|table, stream, horizon| {
        allocations(|| {
            run_prototype_with(
                MpdpPolicy::new(table),
                stream,
                PrototypeConfig::new(horizon),
                &CompiledFaults::none(),
            )
            .expect("valid configuration")
        })
    });
    assert_within_budget("prototype", counts);
}

#[test]
fn theoretical_event_loop_allocates_nothing_per_event() {
    let counts = at_both_horizons(|table, stream, horizon| {
        allocations(|| {
            run_theoretical_with(
                MpdpPolicy::new(table),
                stream,
                TheoreticalConfig::new(horizon),
                &CompiledFaults::none(),
            )
            .expect("valid configuration")
        })
    });
    assert_within_budget("theoretical", counts);
}

/// The Figure 4 grid's periodic sets, with their processor counts.
fn figure4_sets() -> Vec<(f64, usize, Vec<mpdp::core::task::PeriodicTask>)> {
    let mut sets = Vec::new();
    for n_procs in 2..=4 {
        for util in [0.4, 0.5, 0.6] {
            let set = mpdp::workload::automotive_task_set(util, n_procs, DEFAULT_TICK);
            sets.push((util, n_procs, set.periodic));
        }
    }
    sets
}

#[test]
fn a_schedulability_probe_allocates_a_handful() {
    for (util, n_procs, set) in figure4_sets() {
        for heuristic in [
            PartitionHeuristic::FirstFitDecreasing,
            PartitionHeuristic::BestFitDecreasing,
            PartitionHeuristic::WorstFitDecreasing,
        ] {
            let n = allocations(|| is_schedulable_at(&set, n_procs, 1.2, heuristic));
            assert!(
                n <= PROBE_BUDGET,
                "{heuristic:?} at {util} on {n_procs}P: {n} allocations for one probe \
                 (budget {PROBE_BUDGET}); trial placements allocate"
            );
        }
    }
}

#[test]
fn a_finer_breakdown_search_allocates_no_more() {
    let heuristic = PartitionHeuristic::WorstFitDecreasing;
    for (util, n_procs, set) in figure4_sets() {
        let search =
            |tolerance| allocations(|| breakdown_utilization(&set, n_procs, heuristic, tolerance));
        let (coarse, fine) = (search(0.05), search(0.001));
        assert!(
            fine <= coarse + SEARCH_BUDGET,
            "{util} on {n_procs}P: tolerance 0.001 made {fine} allocations against \
             {coarse} at 0.05 (budget +{SEARCH_BUDGET}); probes allocate"
        );
    }
}
