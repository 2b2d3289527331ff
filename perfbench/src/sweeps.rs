//! The `sweep_mc` workload: its spec, its untraced repetitions through
//! `run_sweep`, and the traced rebuild that re-runs every cell from the
//! public calls the engine itself makes, one span per call.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mpdp_bench::{fig4_seeded_spec, ExperimentConfig};
use mpdp_core::ids::TaskId;
use mpdp_core::policy::MpdpPolicy;
use mpdp_core::task::TaskTable;
use mpdp_core::time::Cycles;
use mpdp_faults::CompiledFaults;
use mpdp_kernel::KernelCosts;
use mpdp_sim::trace::Trace as SimTrace;
use mpdp_sim::{run_prototype_with, run_theoretical_with, PrototypeConfig, TheoreticalConfig};
use mpdp_sweep::{
    cell_table, cells_csv, report_json, run_sweep, summary_csv, ArrivalSpec, CellResult, CellSpec,
    StackResult, SweepReport, SweepSpec, WorkloadSpec,
};
use mpdp_workload::automotive_task_set;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::Tally;
use crate::trace::Recorder;

/// Worker threads of the sweep (the benchmark host has two cores).
pub const WORKERS: usize = 2;
/// Seed coordinates of the `sweep_mc` grid: 9 grid points × this many
/// cells per sweep.
pub const MC_SEEDS: usize = 125;

/// The `sweep_mc` spec: the paper's Figure 4 grid at Monte Carlo scale,
/// every cell with four randomized `susan` bursts.
pub fn mc_spec(seed: u64) -> SweepSpec {
    fig4_seeded_spec(&ExperimentConfig::new(), MC_SEEDS).with_master_seed(seed)
}

/// The three export documents of a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exports {
    /// Per-cell CSV.
    pub cells: String,
    /// Per-group summary CSV.
    pub summary: String,
    /// Report JSON.
    pub json: String,
}

impl Exports {
    /// Renders every export of `report`.
    pub fn of(report: &SweepReport) -> Self {
        Exports {
            cells: cells_csv(report),
            summary: summary_csv(report),
            json: report_json(report),
        }
    }
}

/// The correctness reference of a spec: a 1-worker `run_sweep` and its
/// exports, made outside every timed region.
pub fn reference(spec: &SweepSpec) -> Result<(SweepReport, Exports), String> {
    let report = run_sweep(spec, 1).map_err(|e| format!("reference sweep failed: {e}"))?;
    let exports = Exports::of(&report);
    Ok((report, exports))
}

/// Checks the physics every `sweep_mc` cell must show: schedulable, no
/// periodic deadline miss on either stack, and a prototype mean response
/// no better than the theoretical one.
pub fn check_mc_cells(cells: &[CellResult]) -> Result<(), String> {
    for c in cells {
        let i = c.cell.index;
        if !c.schedulable {
            return Err(format!("cell {i} is unschedulable"));
        }
        if c.theoretical.periodic.misses() != 0 || c.real.periodic.misses() != 0 {
            return Err(format!("cell {i} missed a periodic deadline"));
        }
        let mean = |s: &StackResult| s.aperiodic.finalize().map(|r| r.mean_s);
        match (mean(&c.theoretical), mean(&c.real)) {
            (Some(theo), Some(real)) if real >= theo => {}
            (theo, real) => {
                return Err(format!(
                    "cell {i}: prototype mean {real:?} below theoretical {theo:?}"
                ))
            }
        }
    }
    Ok(())
}

/// One untraced sweep.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Wall time from the first call to the last export rendered.
    pub wall: Duration,
    /// The exports it produced.
    pub exports: Exports,
    /// Its cells, in index order.
    pub cells: Vec<CellResult>,
    /// Each cell's wall time as the engine measured it, nanoseconds.
    pub cell_walls: Vec<u64>,
    /// Cells attempted and failed.
    pub tally: Tally,
}

/// One `sweep_mc` repetition: `run_sweep` at [`WORKERS`] workers with no
/// journal and no cache, then the exports.
pub fn mc_rep(spec: &SweepSpec) -> Result<Rep, String> {
    let t0 = Instant::now();
    let report = run_sweep(spec, WORKERS).map_err(|e| format!("run_sweep failed: {e}"))?;
    let exports = Exports::of(&report);
    let wall = t0.elapsed();
    let mut tally = Tally::default();
    for _ in &report.cells {
        tally.cell(0);
    }
    Ok(Rep {
        wall,
        exports,
        cell_walls: report
            .profiles
            .iter()
            .map(|p| p.wall.as_nanos() as u64)
            .collect(),
        cells: report.cells,
        tally,
    })
}

/// The analyzed-table memo of one traced sweep, keyed like the engine's
/// `TableCache`: utilization bits, processor count, knob index.
pub type Memo = Mutex<HashMap<(u64, usize, usize), Option<(Arc<TaskTable>, TaskId)>>>;

/// Counters a traced fan-out accumulates across its threads.
#[derive(Debug, Default)]
pub struct FanoutCounters {
    /// Σ `PrototypeOutcome::loop_iterations`.
    pub iterations: AtomicU64,
}

/// Runs every cell of `spec` over one thread per recorder, rebuilding
/// each from public calls (see [`rebuild_cell`]), each in a `sweep.cell`
/// span. Returns the cells in index order.
pub fn traced_fanout(
    spec: &SweepSpec,
    memo: &Memo,
    recorders: &mut [Recorder],
    counters: &FanoutCounters,
) -> Result<Vec<CellResult>, String> {
    let cells = spec.cells();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<CellResult, String>>>> =
        cells.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for rec in recorders.iter_mut() {
            let (cells, next, slots) = (&cells, &next, &slots);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else { break };
                let span = rec.enter("sweep.cell", cell.index as u64);
                let result = rebuild_cell(spec, cell, memo, rec).map(|(result, iterations)| {
                    counters.iterations.fetch_add(iterations, Ordering::Relaxed);
                    result
                });
                rec.exit(span);
                *slots[i].lock().expect("slot lock") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            s.into_inner()
                .expect("slot lock")
                .unwrap_or_else(|| Err(format!("cell {i} never ran")))
        })
        .collect()
}

/// Rebuilds one cell from the public calls the engine makes — the
/// analyzed table (`cell_table`, memoized per coordinate), the burst
/// stream drawn from `SweepSpec::cell_stream`, `run_theoretical_with`,
/// `run_prototype_with`, and the accumulator fold — timing each call that
/// has a public seam. Arrival generation and the fold have none and stay
/// in the enclosing `sweep.cell` span's self time. Returns the result,
/// which must equal `run_cell`'s, and the prototype's loop iterations.
fn rebuild_cell(
    spec: &SweepSpec,
    cell: &CellSpec,
    memo: &Memo,
    rec: &mut Recorder,
) -> Result<(CellResult, u64), String> {
    let key = cell.index as u64;
    let knob = &spec.knobs[cell.knob_index];
    if !matches!(spec.workload, WorkloadSpec::Automotive) || !knob.faults.is_empty() {
        return Err("the rebuild covers fault-free automotive cells only".into());
    }
    // Built under the lock, so `analysis.prepare` runs exactly once per
    // coordinate and its call count repeats from run to run.
    let built = memo
        .lock()
        .expect("memo lock")
        .entry((cell.utilization.to_bits(), cell.n_procs, cell.knob_index))
        .or_insert_with(|| {
            rec.time("workload.task_set", key, || {
                automotive_task_set(cell.utilization, cell.n_procs, knob.tick)
            });
            rec.time("analysis.prepare", key, || cell_table(spec, cell))
                .map(|(table, target)| (Arc::new(table), target))
        })
        .clone();
    let Some((table, target)) = built else {
        return Ok((
            CellResult {
                cell: *cell,
                knob_label: knob.label.clone(),
                schedulable: false,
                theoretical: StackResult::default(),
                real: StackResult::default(),
            },
            0,
        ));
    };

    let mut rng = StdRng::seed_from_u64(spec.cell_stream(cell));
    let (arrivals, horizon) = burst_arrivals(&spec.arrivals, &mut rng)?;
    let cell_err = |e| format!("cell {}: {e}", cell.index);
    let theo = rec
        .time("sim.theoretical", key, || {
            run_theoretical_with(
                MpdpPolicy::new(Arc::clone(&table)).with_degradation(knob.degradation),
                &arrivals,
                TheoreticalConfig::new(horizon)
                    .with_tick(knob.tick)
                    .with_overhead(knob.theoretical_overhead),
                &CompiledFaults::none(),
            )
        })
        .map_err(cell_err)?;
    let real = rec
        .time("sim.prototype", key, || {
            run_prototype_with(
                MpdpPolicy::new(table).with_degradation(knob.degradation),
                &arrivals,
                PrototypeConfig::new(horizon)
                    .with_tick(knob.tick)
                    .with_kernel_costs(
                        KernelCosts::default().with_context_scale(knob.context_scale),
                    ),
                &CompiledFaults::none(),
            )
        })
        .map_err(cell_err)?;

    let mut theoretical = fold(&theo.trace, target);
    theoretical.switches = theo.switches;
    theoretical.survival = theo.survival;
    let mut prototype = fold(&real.trace, target);
    prototype.switches = real.kernel.context_switches;
    prototype.sched_passes = real.kernel.sched_passes;
    prototype.context_words = real.kernel.context_words;
    prototype.survival = real.survival;
    Ok((
        CellResult {
            cell: *cell,
            knob_label: knob.label.clone(),
            schedulable: true,
            theoretical,
            real: prototype,
        },
        real.loop_iterations,
    ))
}

/// The burst arrival stream and horizon of one cell: one activation of
/// aperiodic task 0 per burst, `gap` apart from 1 s on, each with a
/// 0–99 ms phase jitter drawn from the cell's stream.
fn burst_arrivals(
    arrivals: &ArrivalSpec,
    rng: &mut StdRng,
) -> Result<(Vec<(Cycles, usize)>, Cycles), String> {
    let &ArrivalSpec::Bursts { activations, gap } = arrivals else {
        return Err("the rebuild covers burst arrivals only".into());
    };
    let stream: Vec<(Cycles, usize)> = (0..activations.max(1))
        .map(|i| {
            let jitter = Cycles::from_millis(rng.gen_range(0u64..100));
            (Cycles::from_secs(1) + gap * i as u64 + jitter, 0usize)
        })
        .collect();
    let last = stream.last().map_or(Cycles::from_secs(1), |a| a.0);
    Ok((stream, last + gap + Cycles::from_secs(5)))
}

/// Folds a simulator trace into one stack's accumulators.
fn fold(trace: &SimTrace, target: TaskId) -> StackResult {
    let mut out = StackResult::default();
    for c in &trace.completions {
        if c.task == target {
            out.aperiodic.observe(c.response);
        }
        if c.deadline.is_some() {
            out.periodic.observe_completion(c);
        }
    }
    out
}

/// A report over rebuilt cells, for rendering exports.
pub fn report_of(spec: &SweepSpec, cells: Vec<CellResult>, wall: Duration) -> SweepReport {
    SweepReport {
        cells,
        faulted: spec.is_faulted(),
        workers: WORKERS,
        wall,
        profiles: Vec::new(),
    }
}
