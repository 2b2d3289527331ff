//! The Figure 4 experiment: mean aperiodic response time, Theoretical vs
//! Real, over 2–4 processors and 40/50/60% periodic utilization.
//!
//! Workload per the paper (§5): the 18-periodic MiBench automotive set with
//! periods synthesized for the target utilization, plus the `susan`-large
//! aperiodic task "triggered by an interrupt ... that, for example, can
//! signal the arrival of the image to analyse from the cameras". The
//! offline tool quantizes promotions to the 0.1 s tick and budgets kernel
//! and contention overheads with a WCET margin.

use mpdp_analysis::tool::{prepare, ToolOptions};
use mpdp_core::task::TaskTable;
use mpdp_core::time::{Cycles, DEFAULT_TICK};
use mpdp_sweep::{
    run_sweep, ArrivalSpec, CellResult, Knobs, PolicyKind, SweepReport, SweepSpec, WorkloadSpec,
};
use mpdp_workload::automotive_task_set;

/// Knobs of the Figure 4 experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Scheduler tick (paper: 0.1 s).
    pub tick: Cycles,
    /// Theoretical overhead fraction (paper: 2%).
    pub theoretical_overhead: f64,
    /// Analysis-time WCET margin budgeting kernel + contention overheads on
    /// the prototype.
    pub wcet_margin: f64,
    /// Number of aperiodic activations to average over.
    pub activations: usize,
    /// Gap between aperiodic activations (must exceed the worst response so
    /// activations do not overlap, as in the paper's one-at-a-time setup).
    pub activation_gap: Cycles,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            tick: DEFAULT_TICK,
            theoretical_overhead: 0.02,
            wcet_margin: 1.15,
            activations: 4,
            activation_gap: Cycles::from_secs(12),
        }
    }
}

impl ExperimentConfig {
    /// Default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// A faster configuration for tests (fewer activations).
    pub fn quick() -> Self {
        ExperimentConfig {
            activations: 1,
            ..Self::default()
        }
    }
}

/// One cell of Figure 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig4Point {
    /// Processor count.
    pub n_procs: usize,
    /// Target system utilization.
    pub utilization: f64,
    /// Mean `susan`-large response time, theoretical simulator (seconds).
    pub theoretical_s: f64,
    /// Mean `susan`-large response time, prototype stack (seconds).
    pub real_s: f64,
    /// Periodic deadline misses observed on the prototype (the paper's
    /// configurations have none).
    pub misses: usize,
}

impl Fig4Point {
    /// Percentage by which the prototype is slower than the theoretical
    /// simulation (the paper's 7–27% numbers).
    pub fn slowdown_pct(&self) -> f64 {
        100.0 * (self.real_s / self.theoretical_s - 1.0)
    }
}

/// Builds the analyzed task table for an experiment cell.
///
/// # Panics
///
/// Panics if the workload is unschedulable at this utilization (does not
/// happen for the paper's 40–60% range).
pub fn build_table(n_procs: usize, utilization: f64, config: &ExperimentConfig) -> TaskTable {
    let set = automotive_task_set(utilization, n_procs, config.tick);
    prepare(
        set.periodic,
        set.aperiodic,
        n_procs,
        ToolOptions::new()
            .with_quantization(config.tick)
            .with_wcet_margin(config.wcet_margin),
    )
    .expect("the 40-60% automotive workload is schedulable")
}

/// The aperiodic arrival schedule: `activations` triggers of aperiodic task
/// 0 (susan-large), one at a time, with a deterministic phase jitter so the
/// mean response covers different alignments against the 0.1 s scheduler
/// tick (the camera is not synchronized to the scheduler).
pub fn arrival_schedule(config: &ExperimentConfig) -> Vec<(Cycles, usize)> {
    (0..config.activations)
        .map(|i| {
            let jitter = Cycles::from_millis((37 * i as u64 + 13) % 100);
            (
                Cycles::from_secs(1) + config.activation_gap * i as u64 + jitter,
                0usize,
            )
        })
        .collect()
}

/// The sweep-engine knob setting equivalent to an [`ExperimentConfig`].
pub fn knobs_of(config: &ExperimentConfig) -> Knobs {
    Knobs {
        label: "paper".to_string(),
        tick: config.tick,
        theoretical_overhead: config.theoretical_overhead,
        wcet_margin: config.wcet_margin,
        context_scale: 1.0,
        policy: PolicyKind::Mpdp,
        ..Knobs::default()
    }
}

/// The declarative Figure 4 sweep: 2–4 processors × 40/50/60% utilization,
/// automotive workload, with the classic deterministic arrival schedule
/// pinned explicitly so the figure's numbers do not depend on RNG plumbing.
pub fn fig4_spec(config: &ExperimentConfig) -> SweepSpec {
    let arrivals = arrival_schedule(config);
    let horizon = arrivals.last().expect("at least one activation").0
        + config.activation_gap
        + Cycles::from_secs(5);
    SweepSpec {
        utilizations: vec![0.4, 0.5, 0.6],
        proc_counts: vec![2, 3, 4],
        seeds: vec![0],
        knobs: vec![knobs_of(config)],
        workload: WorkloadSpec::Automotive,
        arrivals: ArrivalSpec::Explicit { arrivals, horizon },
        master_seed: 0,
    }
}

/// [`fig4_spec`] with a `seeds`-seed Monte Carlo transform: for `seeds >
/// 1` the pinned classic arrival schedule is replaced by per-seed
/// randomized burst phases drawn from each cell's RNG stream. This is the
/// one place the transform lives, so the `fig4_response_time` binary, its
/// shard workers, and any merge invocation agree on the spec (and thus the
/// journal fingerprint) by construction.
pub fn fig4_seeded_spec(config: &ExperimentConfig, seeds: usize) -> SweepSpec {
    let mut spec = fig4_spec(config);
    if seeds > 1 {
        spec.arrivals = ArrivalSpec::Bursts {
            activations: config.activations,
            gap: config.activation_gap,
        };
        spec.seeds = (0..seeds as u64).collect();
    }
    spec
}

/// The 104-cell benchmark grid: the same shape as the determinism
/// regression grid (2 utilizations × 2 processors × 26 seeds × 2 knob
/// settings, single-burst arrivals) so the perf trajectory and the
/// byte-identity contract exercise one and the same workload.
pub fn bench104_spec() -> SweepSpec {
    SweepSpec {
        utilizations: vec![0.4, 0.5],
        proc_counts: vec![2],
        seeds: (0..26).collect(),
        knobs: vec![
            Knobs::default(),
            Knobs::named("fast-tick").with_tick(Cycles::from_millis(50)),
        ],
        workload: WorkloadSpec::Automotive,
        arrivals: ArrivalSpec::Bursts {
            activations: 1,
            gap: Cycles::from_secs(8),
        },
        master_seed: 0xD1CE,
    }
}

/// [`bench104_spec`] with exactly one grid-axis literal edited: the last
/// seed value. The edit invalidates the 4 cells that use that seed (2
/// utilizations × 2 knobs) and leaves the other 100 untouched, so a warm
/// cell cache primed by `bench104` must answer 100/104 lookups (96.2%
/// hits) when this spec re-runs. CI's cache job pins that ratio.
pub fn bench104_edited_spec() -> SweepSpec {
    let mut spec = bench104_spec();
    *spec.seeds.last_mut().expect("bench104 has seeds") = 1000;
    spec
}

/// Converts one sweep cell into the Figure 4 point shape.
///
/// # Panics
///
/// Panics if either stack recorded no aperiodic completion (the Figure 4
/// horizon is sized so this cannot happen).
pub fn point_from_cell(cell: &CellResult) -> Fig4Point {
    Fig4Point {
        n_procs: cell.cell.n_procs,
        utilization: cell.cell.utilization,
        theoretical_s: cell
            .theoretical
            .aperiodic
            .finalize()
            .expect("susan completes in the theoretical run")
            .mean_s,
        real_s: cell
            .real
            .aperiodic
            .finalize()
            .expect("susan completes on the prototype")
            .mean_s,
        misses: cell.real.periodic.misses(),
    }
}

/// Runs one cell of Figure 4 on both stacks, through the sweep engine.
///
/// # Panics
///
/// Panics if the aperiodic task never completes within the horizon (the
/// horizon is sized to fit every activation).
pub fn fig4_point(n_procs: usize, utilization: f64, config: &ExperimentConfig) -> Fig4Point {
    let mut spec = fig4_spec(config);
    spec.proc_counts = vec![n_procs];
    spec.utilizations = vec![utilization];
    let report = run_sweep(&spec, 1).expect("the Figure 4 spec is valid");
    point_from_cell(&report.cells[0])
}

/// Runs the full Figure 4 grid through the sweep engine over `workers`
/// threads and returns the raw report (cells in canonical order).
///
/// # Panics
///
/// Panics if the built-in Figure 4 spec fails validation (a bug, not an
/// input condition).
pub fn fig4_report(config: &ExperimentConfig, workers: usize) -> SweepReport {
    run_sweep(&fig4_spec(config), workers).expect("the Figure 4 spec is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_cell_reproduces_the_papers_shape() {
        let point = fig4_point(2, 0.4, &ExperimentConfig::quick());
        // Response at least susan's execution time.
        assert!(point.theoretical_s >= 5.438, "{point:?}");
        // Prototype slower than theoretical, but not absurdly so.
        assert!(point.real_s > point.theoretical_s, "{point:?}");
        assert!(point.slowdown_pct() < 60.0, "{point:?}");
        assert_eq!(point.misses, 0, "{point:?}");
    }

    #[test]
    fn arrival_schedule_is_sorted_and_sized() {
        let cfg = ExperimentConfig::new();
        let arr = arrival_schedule(&cfg);
        assert_eq!(arr.len(), cfg.activations);
        assert!(arr.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
