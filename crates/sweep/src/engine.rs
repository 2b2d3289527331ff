//! The per-cell engine: everything that turns one `(spec, cell)` into a
//! [`CellResult`] — table analysis (memoized per sweep in a
//! [`TableCache`]), arrival generation, and both simulator stacks. The
//! fan-out over cells lives in [`executor`](crate::executor).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mpdp_analysis::baselines::{aperiodic_first, background_service};
use mpdp_analysis::tool::{prepare, ToolOptions};
use mpdp_core::ids::TaskId;
use mpdp_core::policy::MpdpPolicy;
use mpdp_core::task::{AperiodicTask, MemoryProfile, TaskTable};
use mpdp_core::time::Cycles;
use mpdp_faults::{fault_stream, CompiledFaults};
use mpdp_kernel::KernelCosts;
use mpdp_obs::{EventRecorder, NullProbe, Probe};
use mpdp_sim::prototype::{run_prototype_probed, PrototypeConfig};
use mpdp_sim::stats::{ResponseAccumulator, SurvivalStats};
use mpdp_sim::theoretical::{run_theoretical_probed, TheoreticalConfig};
use mpdp_sim::trace::Trace;
use mpdp_workload::{automotive_task_set, random_task_set, TaskGenConfig};

use crate::error::SweepError;
use crate::spec::{ArrivalSpec, CellSpec, Knobs, PolicyKind, SweepSpec, WorkloadSpec};

/// What one simulator stack produced for one cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StackResult {
    /// Responses of the target aperiodic task.
    pub aperiodic: ResponseAccumulator,
    /// All hard-deadline (periodic) completions, with miss bookkeeping.
    pub periodic: ResponseAccumulator,
    /// Context switches.
    pub switches: u64,
    /// Scheduling passes (prototype only; zero on the theoretical stack).
    pub sched_passes: u64,
    /// Context words moved over the bus (prototype only).
    pub context_words: u64,
    /// Survivability bookkeeping (all-zero unless the cell's knob injects
    /// faults or runs a non-inert degradation policy).
    pub survival: SurvivalStats,
}

/// The outcome of one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// The cell's grid coordinates.
    pub cell: CellSpec,
    /// Label of the knob setting the cell ran under.
    pub knob_label: String,
    /// Whether the offline analysis admitted the task set. Unschedulable
    /// cells (possible in Monte Carlo mode at high utilization) carry empty
    /// stacks and are reported, not dropped.
    pub schedulable: bool,
    /// Theoretical-simulator results.
    pub theoretical: StackResult,
    /// Prototype-stack results.
    pub real: StackResult,
}

impl CellResult {
    /// Prototype mean over theoretical mean, as the paper's slowdown
    /// percentage; `None` if either side has no aperiodic completions.
    pub fn slowdown_pct(&self) -> Option<f64> {
        let theo = self.theoretical.aperiodic.finalize()?.mean_s;
        let real = self.real.aperiodic.finalize()?.mean_s;
        Some(100.0 * (real / theo - 1.0))
    }
}

/// Wall-time/throughput self-profile of one cell. Run metadata for the
/// caller's eyes (a `--profile` flag, a progress bar): wall-clock is
/// non-deterministic by nature, so profiles are **never** exported and
/// never enter [`CellResult`].
#[derive(Debug, Clone, Copy)]
pub struct CellProfile {
    /// Cell index.
    pub index: usize,
    /// Wall-clock time spent simulating both stacks of this cell.
    pub wall: Duration,
    /// Simulated horizon in cycles (each stack covered this span; zero for
    /// unschedulable cells, which run no simulation).
    pub sim_cycles: u64,
    /// Completion records folded into the cell's accumulators, both stacks.
    pub completions: u64,
}

impl CellProfile {
    /// Simulated megacycles per wall-second, both stacks combined.
    pub fn throughput_mcps(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            (2 * self.sim_cycles) as f64 / 1e6 / secs
        }
    }
}

/// A completed sweep: every cell's result in canonical order, plus run
/// metadata (excluded from exports).
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Cell results, ordered by cell index.
    pub cells: Vec<CellResult>,
    /// Whether any knob injected faults or enforced degradation; exports
    /// gate their survivability columns on this so fault-free sweeps stay
    /// byte-identical to older builds.
    pub faulted: bool,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock duration of the fan-out (not exported).
    pub wall: Duration,
    /// Per-cell self-profiles, ordered by cell index (not exported).
    pub profiles: Vec<CellProfile>,
}

/// Cache key of an analyzed table: the exact cell coordinates that reach
/// the offline analysis. The seed axis is deliberately absent — it only
/// perturbs arrival phases — and the knob axis is collapsed to its index,
/// which covers every analysis-relevant knob (tick, WCET margin, policy).
type TableKey = (u64, usize, usize);

/// Cached value: the analyzed table (shared, clone-on-write) and the
/// sweep's target aperiodic task, or `None` for unschedulable coordinates.
type CachedTable = Option<(Arc<TaskTable>, TaskId)>;

/// Per-sweep memo of analyzed task tables, shared by every worker.
///
/// The offline analysis (`prepare()` and the promotion fixed point) is a
/// pure function of `(workload, utilization, n_procs, knob)`; sweeping the
/// seed axis re-runs it redundantly for every cell. Workloads that draw
/// from the cell's RNG stream ([`WorkloadSpec::Random`]) bypass the cache
/// entirely, so caching can never perturb a stream. Both sides of a miss
/// race may compute the table; both compute the identical value (purity),
/// so the second insert is harmless.
#[derive(Debug, Default)]
pub struct TableCache {
    tables: Mutex<HashMap<TableKey, CachedTable>>,
}

impl TableCache {
    /// An empty cache. One cache serves one spec: keys assume the spec's
    /// workload and knob list are fixed for the cache's lifetime.
    pub fn new() -> Self {
        TableCache::default()
    }

    fn get_or_build(
        &self,
        spec: &SweepSpec,
        cell: &CellSpec,
        knob: &Knobs,
        rng: &mut StdRng,
    ) -> Option<(Arc<TaskTable>, TaskId)> {
        if !matches!(spec.workload, WorkloadSpec::Automotive) {
            // The generator seed comes from `rng`: building is part of the
            // cell's RNG stream and must happen exactly once per cell.
            return build_cell_table(spec, cell, knob, rng).map(|(t, id)| (Arc::new(t), id));
        }
        let key = (cell.utilization.to_bits(), cell.n_procs, cell.knob_index);
        if let Some(hit) = self
            .tables
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&key)
        {
            return hit.clone();
        }
        // Build outside the lock so a slow analysis never serializes the
        // other workers' cache hits.
        let built = build_cell_table(spec, cell, knob, rng).map(|(t, id)| (Arc::new(t), id));
        self.tables
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key, built.clone());
        built
    }
}

/// Per-worker scratch reused across every cell the worker claims, so the
/// fan-out does not re-allocate the arrival stream per cell.
#[derive(Debug, Default)]
pub(crate) struct CellScratch {
    arrivals: Vec<(Cycles, usize)>,
}

/// Everything the observability layer captured while re-running one cell
/// probed: one [`EventRecorder`] per stack plus the cell's horizon (the
/// denominator of each ledger's conservation invariant).
#[derive(Debug, Clone)]
pub struct CellObservation {
    /// Recorder threaded through the theoretical stack.
    pub theoretical: EventRecorder,
    /// Recorder threaded through the prototype stack.
    pub real: EventRecorder,
    /// Simulated horizon (zero for unschedulable cells, which run nothing).
    pub horizon: Cycles,
}

/// [`run_cell`] with an [`EventRecorder`] threaded through both stacks.
/// The returned [`CellResult`] is identical to the unprobed one —
/// observation never perturbs the simulation.
///
/// # Errors
///
/// Same as [`run_cell`].
pub fn run_cell_probed(
    spec: &SweepSpec,
    cell: &CellSpec,
) -> Result<(CellResult, CellObservation), SweepError> {
    let (result, theoretical, real, horizon) = run_cell_inner(
        spec,
        cell,
        EventRecorder::new(cell.n_procs),
        EventRecorder::new(cell.n_procs),
        None,
        &mut CellScratch::default(),
    )?;
    Ok((
        result,
        CellObservation {
            theoretical,
            real,
            horizon,
        },
    ))
}

/// Runs one cell on both stacks. Public so callers can run single cells
/// (e.g. the Figure 4 point API) through exactly the engine's code path.
///
/// # Errors
///
/// [`SweepError::Cell`] when either simulator rejects the cell's inputs.
pub fn run_cell(spec: &SweepSpec, cell: &CellSpec) -> Result<CellResult, SweepError> {
    run_cell_inner(
        spec,
        cell,
        NullProbe,
        NullProbe,
        None,
        &mut CellScratch::default(),
    )
    .map(|(c, _, _, _)| c)
}

/// [`run_cell`] sharing a caller-owned [`TableCache`] — the entry point
/// for long-lived callers like the `mpdpd` admission daemon, whose
/// repeated queries against one `(workload, procs, knob)` coordinate hit
/// the RTA cache.
pub fn run_cell_cached(
    spec: &SweepSpec,
    cell: &CellSpec,
    cache: &TableCache,
) -> Result<CellResult, SweepError> {
    run_cell_inner(
        spec,
        cell,
        NullProbe,
        NullProbe,
        Some(cache),
        &mut CellScratch::default(),
    )
    .map(|(c, _, _, _)| c)
}

/// The single cell code path, generic over one probe per stack. With
/// [`NullProbe`]s this monomorphizes to the pre-observability engine.
pub(crate) fn run_cell_inner<PT: Probe, PR: Probe>(
    spec: &SweepSpec,
    cell: &CellSpec,
    theo_probe: PT,
    real_probe: PR,
    cache: Option<&TableCache>,
    scratch: &mut CellScratch,
) -> Result<(CellResult, PT, PR, Cycles), SweepError> {
    let knob = &spec.knobs[cell.knob_index];
    let mut rng = StdRng::seed_from_u64(spec.cell_stream(cell));

    let built = match cache {
        Some(cache) => cache.get_or_build(spec, cell, knob, &mut rng),
        None => build_cell_table(spec, cell, knob, &mut rng).map(|(t, id)| (Arc::new(t), id)),
    };
    let (table, target) = match built {
        Some(pair) => pair,
        None => {
            return Ok((
                CellResult {
                    cell: *cell,
                    knob_label: knob.label.clone(),
                    schedulable: false,
                    theoretical: StackResult::default(),
                    real: StackResult::default(),
                },
                theo_probe,
                real_probe,
                Cycles::ZERO,
            ))
        }
    };
    let horizon = build_arrivals_into(spec, &mut rng, &mut scratch.arrivals);
    let arrivals = &mut scratch.arrivals;

    // Compile the knob's fault plan against this cell's coordinates. The
    // stream is salted away from the cell's workload stream so adding a
    // fault plan never perturbs the task set or the nominal arrivals.
    let faults = if knob.faults.is_empty() {
        CompiledFaults::none()
    } else {
        let compiled = knob
            .faults
            .compile(fault_stream(spec.cell_stream(cell)), cell.n_procs);
        if !compiled.extra_arrivals().is_empty() {
            // Overload-burst arrivals join the nominal stream; both sides
            // are sorted, and the simulators require the merge to be too.
            arrivals.extend_from_slice(compiled.extra_arrivals());
            arrivals.sort_by_key(|&(at, idx)| (at, idx));
        }
        compiled
    };
    let cell_err = |source| SweepError::Cell {
        cell: cell.index,
        source,
    };

    let (theo, theo_probe) = run_theoretical_probed(
        MpdpPolicy::new(Arc::clone(&table)).with_degradation(knob.degradation),
        arrivals,
        TheoreticalConfig::new(horizon)
            .with_tick(knob.tick)
            .with_overhead(knob.theoretical_overhead),
        &faults,
        theo_probe,
    )
    .map_err(cell_err)?;
    let (real, real_probe) = run_prototype_probed(
        MpdpPolicy::new(table).with_degradation(knob.degradation),
        arrivals,
        PrototypeConfig::new(horizon)
            .with_tick(knob.tick)
            .with_kernel_costs(KernelCosts::default().with_context_scale(knob.context_scale)),
        &faults,
        real_probe,
    )
    .map_err(cell_err)?;

    let mut theoretical = stack_result(&theo.trace, target);
    theoretical.switches = theo.switches;
    theoretical.survival = theo.survival;
    let mut real_result = stack_result(&real.trace, target);
    real_result.switches = real.kernel.context_switches;
    real_result.sched_passes = real.kernel.sched_passes;
    real_result.context_words = real.kernel.context_words;
    real_result.survival = real.survival;

    Ok((
        CellResult {
            cell: *cell,
            knob_label: knob.label.clone(),
            schedulable: true,
            theoretical,
            real: real_result,
        },
        theo_probe,
        real_probe,
        horizon,
    ))
}

/// Reconstructs the analyzed task table a cell ran under, `None` if the
/// offline analysis rejects it (the cell is then reported unschedulable).
/// A pure function of `(spec, cell)` — the RNG is re-derived from the
/// cell's stream exactly as the engine does it — so audit tooling can
/// rebuild the table long after the sweep without perturbing anything.
pub fn cell_table(spec: &SweepSpec, cell: &CellSpec) -> Option<(TaskTable, TaskId)> {
    let knob = &spec.knobs[cell.knob_index];
    let mut rng = StdRng::seed_from_u64(spec.cell_stream(cell));
    build_cell_table(spec, cell, knob, &mut rng)
}

/// Builds the analyzed task table for a cell, `None` if the offline
/// analysis rejects it. Also returns the target aperiodic task id.
fn build_cell_table(
    spec: &SweepSpec,
    cell: &CellSpec,
    knob: &Knobs,
    rng: &mut StdRng,
) -> Option<(TaskTable, TaskId)> {
    let (periodic, aperiodic) = match spec.workload {
        WorkloadSpec::Automotive => {
            let set = automotive_task_set(cell.utilization, cell.n_procs, knob.tick);
            (set.periodic, set.aperiodic)
        }
        WorkloadSpec::Random {
            tasks,
            aperiodic_exec,
        } => {
            let cfg =
                TaskGenConfig::new(tasks * cell.n_procs, cell.utilization * cell.n_procs as f64)
                    .with_seed(rng.gen())
                    .with_tick(knob.tick)
                    .with_period_ticks(2, 40);
            let periodic: Vec<_> = random_task_set(&cfg)
                .iter()
                .map(|t| t.clone().with_profile(MemoryProfile::compute_bound()))
                .collect();
            let aperiodic = vec![AperiodicTask::new(
                TaskId::new(1000),
                "mc-aperiodic",
                aperiodic_exec,
            )];
            (periodic, aperiodic)
        }
    };
    let table = match knob.policy {
        PolicyKind::Mpdp => prepare(
            periodic,
            aperiodic,
            cell.n_procs,
            ToolOptions::new()
                .with_quantization(knob.tick)
                .with_wcet_margin(knob.wcet_margin),
        )
        .ok()?,
        PolicyKind::Background => background_service(periodic, aperiodic, cell.n_procs).ok()?,
        PolicyKind::AperiodicFirst => aperiodic_first(periodic, aperiodic, cell.n_procs).ok()?,
    };
    let target = table.aperiodic().first()?.id();
    Some((table, target))
}

/// Builds the cell's aperiodic arrival stream into a caller-owned buffer
/// (cleared first), so a worker sweeping many cells reuses one
/// allocation. Returns the simulation horizon. The RNG draws depend only
/// on the spec — buffer reuse never touches a cell's stream.
fn build_arrivals_into(
    spec: &SweepSpec,
    rng: &mut StdRng,
    out: &mut Vec<(Cycles, usize)>,
) -> Cycles {
    out.clear();
    match &spec.arrivals {
        &ArrivalSpec::Bursts { activations, gap } => {
            out.extend((0..activations.max(1)).map(|i| {
                // Sub-tick phase jitter: the camera is not synchronized
                // to the scheduler tick.
                let jitter = Cycles::from_millis(rng.gen_range(0u64..100));
                (Cycles::from_secs(1) + gap * i as u64 + jitter, 0usize)
            }));
            // `activations.max(1)` above guarantees a last element; fall
            // back to the burst origin rather than panic if that changes.
            let last = out.last().map_or(Cycles::from_secs(1), |a| a.0);
            last + gap + Cycles::from_secs(5)
        }
        &ArrivalSpec::Poisson { mean_gap, window } => {
            out.extend(
                mpdp_workload::poisson_arrivals(rng, mean_gap, window)
                    .into_iter()
                    .map(|t| (t, 0usize)),
            );
            window + Cycles::from_secs(10)
        }
        ArrivalSpec::Explicit { arrivals, horizon } => {
            out.extend_from_slice(arrivals);
            *horizon
        }
    }
}

/// Folds a trace into per-stack accumulators.
fn stack_result(trace: &Trace, target: TaskId) -> StackResult {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_sweep;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            utilizations: vec![0.4],
            proc_counts: vec![2],
            seeds: vec![0, 1],
            knobs: vec![Knobs::default()],
            workload: WorkloadSpec::Automotive,
            arrivals: ArrivalSpec::Bursts {
                activations: 1,
                gap: Cycles::from_secs(12),
            },
            master_seed: 42,
        }
    }

    #[test]
    fn single_worker_run_covers_every_cell() {
        let spec = tiny_spec();
        let report = run_sweep(&spec, 1).expect("valid spec");
        assert!(!report.faulted);
        assert_eq!(report.cells.len(), 2);
        for (i, cell) in report.cells.iter().enumerate() {
            assert_eq!(cell.cell.index, i);
            assert!(cell.schedulable);
            assert!(!cell.theoretical.aperiodic.is_empty());
            assert!(!cell.real.aperiodic.is_empty());
            assert!(cell.slowdown_pct().expect("both stacks completed") > 0.0);
        }
    }

    #[test]
    fn sweep_collects_one_profile_per_cell() {
        let spec = tiny_spec();
        let report = run_sweep(&spec, 2).expect("valid spec");
        assert_eq!(report.profiles.len(), report.cells.len());
        for (i, p) in report.profiles.iter().enumerate() {
            assert_eq!(p.index, i);
            assert!(p.sim_cycles > 0, "schedulable cells simulate a horizon");
            assert!(p.completions > 0);
        }
    }

    #[test]
    fn probed_cell_matches_unprobed_and_conserves() {
        let spec = tiny_spec();
        let cells = spec.cells();
        let plain = run_cell(&spec, &cells[0]).expect("cell runs");
        let (probed, obs) = run_cell_probed(&spec, &cells[0]).expect("cell runs");
        // Observation never perturbs the simulation: identical results.
        assert_eq!(plain, probed);
        // Both stacks' ledgers partition horizon × n_procs exactly.
        obs.theoretical
            .ledger()
            .check_conservation(obs.horizon)
            .expect("theoretical ledger conserves");
        obs.real
            .ledger()
            .check_conservation(obs.horizon)
            .expect("prototype ledger conserves");
        assert!(obs.real.count_events("isr-enter") > 0);
    }

    #[test]
    fn seeds_change_the_arrival_phase_but_not_the_workload() {
        let spec = tiny_spec();
        let report = run_sweep(&spec, 2).expect("valid spec");
        let [a, b] = &report.cells[..] else {
            panic!("two cells")
        };
        // Same automotive table; both cells stay schedulable and miss-free.
        assert_eq!(a.real.periodic.miss_ratio(), 0.0);
        assert_eq!(b.real.periodic.miss_ratio(), 0.0);
        // Distinct seed coordinates give distinct RNG streams and thus
        // distinct arrival phases. (The *response* may legitimately
        // coincide — MPDP serves the lone aperiodic on arrival — so assert
        // on the stream, not the chaotic outcome.)
        let cells = spec.cells();
        let mut rng_a = StdRng::seed_from_u64(spec.cell_stream(&cells[0]));
        let mut rng_b = StdRng::seed_from_u64(spec.cell_stream(&cells[1]));
        let (mut arr_a, mut arr_b) = (Vec::new(), Vec::new());
        build_arrivals_into(&spec, &mut rng_a, &mut arr_a);
        build_arrivals_into(&spec, &mut rng_b, &mut arr_b);
        assert_ne!(
            arr_a, arr_b,
            "distinct seeds produced identical arrival phases"
        );
    }
}
