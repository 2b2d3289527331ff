//! Reproducibility: every simulator and generator is fully deterministic —
//! the same inputs produce bit-identical outcomes. This is what makes the
//! figure reproductions and the property-test counterexamples meaningful.

use std::sync::Arc;

use mpdp::analysis::tool::{prepare, ToolOptions};
use mpdp::core::policy::MpdpPolicy;
use mpdp::core::task::TaskTable;
use mpdp::core::time::{Cycles, DEFAULT_TICK};
use mpdp::intc::IntcStats;
use mpdp::kernel::KernelStats;
use mpdp::sim::prototype::{run_prototype, PrototypeConfig};
use mpdp::sim::theoretical::{run_theoretical, TheoreticalConfig};
use mpdp::sim::trace::CompletionRecord;
use mpdp::sweep::{cell_table, ArrivalSpec, SweepSpec};
use mpdp::workload::automotive_task_set;
use mpdp::workload::taskgen::{random_task_set, TaskGenConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn workload_generation_is_deterministic() {
    let a = automotive_task_set(0.5, 3, DEFAULT_TICK);
    let b = automotive_task_set(0.5, 3, DEFAULT_TICK);
    assert_eq!(a.periodic, b.periodic);
    assert_eq!(a.aperiodic, b.aperiodic);

    let cfg = TaskGenConfig::new(10, 0.6).with_seed(1234);
    assert_eq!(random_task_set(&cfg), random_task_set(&cfg));
}

#[test]
fn both_simulators_are_deterministic() {
    let set = automotive_task_set(0.5, 2, DEFAULT_TICK);
    let table = prepare(
        set.periodic,
        set.aperiodic,
        2,
        ToolOptions::new().with_quantization(DEFAULT_TICK),
    )
    .expect("schedulable");
    let arrivals = vec![(Cycles::from_secs(1), 0usize)];
    let horizon = Cycles::from_secs(9);

    let t1 = run_theoretical(
        MpdpPolicy::new(table.clone()),
        &arrivals,
        TheoreticalConfig::new(horizon),
    )
    .unwrap();
    let t2 = run_theoretical(
        MpdpPolicy::new(table.clone()),
        &arrivals,
        TheoreticalConfig::new(horizon),
    )
    .unwrap();
    assert_eq!(t1.trace.completions, t2.trace.completions);
    assert_eq!(t1.switches, t2.switches);

    let r1 = run_prototype(
        MpdpPolicy::new(table.clone()),
        &arrivals,
        PrototypeConfig::new(horizon),
    )
    .unwrap();
    let r2 = run_prototype(
        MpdpPolicy::new(table),
        &arrivals,
        PrototypeConfig::new(horizon),
    )
    .unwrap();
    assert_eq!(r1.trace.completions, r2.trace.completions);
    assert_eq!(r1.kernel, r2.kernel);
    assert_eq!(r1.intc, r2.intc);
}

#[test]
fn analysis_is_deterministic() {
    let set = automotive_task_set(0.6, 4, DEFAULT_TICK);
    let a = prepare(
        set.periodic.clone(),
        set.aperiodic.clone(),
        4,
        ToolOptions::new().with_quantization(DEFAULT_TICK),
    )
    .expect("schedulable");
    let b = prepare(
        set.periodic,
        set.aperiodic,
        4,
        ToolOptions::new().with_quantization(DEFAULT_TICK),
    )
    .expect("schedulable");
    assert_eq!(a, b);
}

/// One Figure 4 cell's prototype inputs: its analyzed table, its burst
/// arrivals (drawn from the cell's stream as the sweep engine draws them)
/// and its horizon.
struct Cell {
    table: Arc<TaskTable>,
    arrivals: Vec<(Cycles, usize)>,
    horizon: Cycles,
}

/// The 9 Figure 4 coordinates × 2 seeds.
fn figure4_cells() -> Vec<Cell> {
    let spec = SweepSpec::figure4().with_seed_count(2);
    let ArrivalSpec::Bursts { activations, gap } = spec.arrivals else {
        unreachable!("Figure 4 uses burst arrivals");
    };
    spec.cells()
        .iter()
        .map(|cell| {
            let (table, _) = cell_table(&spec, cell).expect("every Figure 4 cell is schedulable");
            let mut rng = StdRng::seed_from_u64(spec.cell_stream(cell));
            let arrivals: Vec<(Cycles, usize)> = (0..activations as u64)
                .map(|i| {
                    let jitter = Cycles::from_millis(rng.gen_range(0u64..100));
                    (Cycles::from_secs(1) + gap * i + jitter, 0)
                })
                .collect();
            let horizon = arrivals.last().expect("four activations").0 + gap + Cycles::from_secs(5);
            Cell {
                table: Arc::new(table),
                arrivals,
                horizon,
            }
        })
        .collect()
}

/// What a prototype run reports: completions, kernel and controller
/// counters, loop iterations and lock statistics.
type Outcome = (
    Vec<CompletionRecord>,
    KernelStats,
    IntcStats,
    u64,
    u64,
    Cycles,
);

fn run_cell(cell: &Cell) -> Outcome {
    let out = run_prototype(
        MpdpPolicy::new(Arc::clone(&cell.table)),
        &cell.arrivals,
        PrototypeConfig::new(cell.horizon),
    )
    .expect("valid cell");
    (
        out.trace.completions,
        out.kernel,
        out.intc,
        out.loop_iterations,
        out.lock_contentions,
        out.lock_wait_cycles,
    )
}

#[test]
fn a_warm_operating_point_table_changes_no_bit() {
    // Each thread keeps one table of solved bus operating points across
    // runs, so a cell's speeds may come from a solve another cell paid
    // for. Run the cells forward on one thread (each processor count
    // starts cold), then in reverse on the same thread (every cell warm),
    // then each on a fresh thread (every cell cold): all three must agree.
    let cells = figure4_cells();
    assert_eq!(cells.len(), 18);
    let (forward, reverse, fresh) = std::thread::scope(|s| {
        let (forward, mut reverse) = s
            .spawn(|| {
                let forward: Vec<Outcome> = cells.iter().map(run_cell).collect();
                let reverse: Vec<Outcome> = cells.iter().rev().map(run_cell).collect();
                (forward, reverse)
            })
            .join()
            .expect("forward and reverse passes");
        reverse.reverse();
        let fresh: Vec<Outcome> = cells
            .iter()
            .map(|cell| s.spawn(|| run_cell(cell)).join().expect("cold cell"))
            .collect();
        (forward, reverse, fresh)
    });
    for (i, ((f, r), c)) in forward.iter().zip(&reverse).zip(&fresh).enumerate() {
        assert!(!f.0.is_empty(), "cell {i} completed nothing");
        assert_eq!(
            f, r,
            "cell {i}: warm table (reverse pass) changed the outcome"
        );
        assert_eq!(
            f, c,
            "cell {i}: cold table (fresh thread) changed the outcome"
        );
    }
}
