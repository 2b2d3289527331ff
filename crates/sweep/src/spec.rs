//! Declarative sweep specifications: the full cross product of utilization
//! grid × processor counts × RNG seeds × configuration knobs, enumerated in
//! a fixed row-major order so every cell has a stable index.
//!
//! The cell index is load-bearing: each cell's RNG stream is derived from
//! `(master_seed, cell index)` (plus the cell's own seed coordinate), so a
//! cell's inputs — and therefore its results — depend only on the spec,
//! never on which worker thread happens to execute it.

use mpdp_core::hash::mix;
use mpdp_core::policy::DegradationPolicy;
use mpdp_core::time::{Cycles, DEFAULT_TICK};
use mpdp_faults::FaultPlan;

use crate::error::SweepError;

/// Scheduling policy to analyze the task set under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Dual priority with offline promotion analysis (the paper's system).
    Mpdp,
    /// Partitioned fixed priority, aperiodics served in background idle.
    Background,
    /// Aperiodics at top priority, unconditionally.
    AperiodicFirst,
}

impl PolicyKind {
    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Mpdp => "mpdp",
            PolicyKind::Background => "background",
            PolicyKind::AperiodicFirst => "aperiodic-first",
        }
    }
}

/// One knob setting: everything about a cell that is not a grid coordinate.
#[derive(Debug, Clone, PartialEq)]
pub struct Knobs {
    /// Label used in reports and exports (must be unique within a spec).
    pub label: String,
    /// Scheduler tick (paper: 0.1 s).
    pub tick: Cycles,
    /// Theoretical-simulator overhead fraction (paper: 2%).
    pub theoretical_overhead: f64,
    /// Offline-analysis WCET margin on the prototype.
    pub wcet_margin: f64,
    /// Context-size scale for the prototype's switch-cost model (1.0 =
    /// measured size).
    pub context_scale: f64,
    /// Scheduling policy.
    pub policy: PolicyKind,
    /// Declarative fault plan, compiled per cell from the cell's RNG
    /// stream. The default (empty) plan injects nothing and leaves every
    /// export byte untouched.
    pub faults: FaultPlan,
    /// Detection-and-degradation configuration the scheduler runs under.
    /// The default is inert: no budget enforcement, no shedding.
    pub degradation: DegradationPolicy,
}

impl Default for Knobs {
    fn default() -> Self {
        Knobs {
            label: "paper".to_string(),
            tick: DEFAULT_TICK,
            theoretical_overhead: 0.02,
            wcet_margin: 1.15,
            context_scale: 1.0,
            policy: PolicyKind::Mpdp,
            faults: FaultPlan::default(),
            degradation: DegradationPolicy::default(),
        }
    }
}

impl Knobs {
    /// The paper's configuration under the given label.
    pub fn named(label: impl Into<String>) -> Self {
        Knobs {
            label: label.into(),
            ..Self::default()
        }
    }

    /// Sets the scheduler tick.
    pub fn with_tick(mut self, tick: Cycles) -> Self {
        self.tick = tick;
        self
    }

    /// Sets the context-size scale.
    pub fn with_context_scale(mut self, scale: f64) -> Self {
        self.context_scale = scale;
        self
    }

    /// Sets the WCET margin.
    pub fn with_wcet_margin(mut self, margin: f64) -> Self {
        self.wcet_margin = margin;
        self
    }

    /// Sets the policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the degradation policy.
    pub fn with_degradation(mut self, degradation: DegradationPolicy) -> Self {
        self.degradation = degradation;
        self
    }
}

/// Which task set a cell simulates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadSpec {
    /// The paper's 18-task MiBench automotive set plus `susan`-large,
    /// periods synthesized for the cell's utilization. Deterministic given
    /// the grid coordinates; seeds only vary the arrival stream.
    Automotive,
    /// UUniFast-synthesized periodic sets (Monte Carlo mode): `tasks` per
    /// processor, plus one aperiodic task of `aperiodic_exec` execution
    /// time. The set itself is drawn from the cell's RNG stream.
    Random {
        /// Periodic tasks per processor.
        tasks: usize,
        /// Aperiodic execution time.
        aperiodic_exec: Cycles,
    },
}

/// How aperiodic arrivals are generated for a cell.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalSpec {
    /// The paper's one-at-a-time setup: `activations` triggers of aperiodic
    /// task 0, spaced `gap` apart starting at 1 s, each with a sub-tick
    /// phase jitter drawn from the cell's RNG stream.
    Bursts {
        /// Number of activations.
        activations: usize,
        /// Spacing (must exceed the worst response).
        gap: Cycles,
    },
    /// A Poisson stream of mean inter-arrival `mean_gap` over `[0, window)`.
    Poisson {
        /// Mean inter-arrival gap.
        mean_gap: Cycles,
        /// Arrival window; the simulation horizon extends past it to let
        /// late arrivals complete.
        window: Cycles,
    },
    /// A fixed, caller-provided schedule `(instant, aperiodic index)` used
    /// verbatim in every cell (seeds then only matter for `Random`
    /// workloads). Must be sorted by instant.
    Explicit {
        /// The arrival schedule.
        arrivals: Vec<(Cycles, usize)>,
        /// Simulation horizon.
        horizon: Cycles,
    },
}

/// A declarative sweep: the grid, the knobs, and the workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Target system utilizations (fraction of total capacity).
    pub utilizations: Vec<f64>,
    /// Processor counts.
    pub proc_counts: Vec<usize>,
    /// Seed coordinates — one cell per seed per grid point. Each is mixed
    /// with `master_seed` and the cell index into the cell's RNG stream.
    pub seeds: Vec<u64>,
    /// Knob settings (each multiplies the grid).
    pub knobs: Vec<Knobs>,
    /// Task-set source.
    pub workload: WorkloadSpec,
    /// Arrival-stream source.
    pub arrivals: ArrivalSpec,
    /// Root of every cell's RNG derivation.
    pub master_seed: u64,
}

impl SweepSpec {
    /// The paper's Figure 4 grid: 2–4 processors × 40/50/60% utilization,
    /// automotive workload, paper knobs, one seed.
    pub fn figure4() -> Self {
        SweepSpec {
            utilizations: vec![0.4, 0.5, 0.6],
            proc_counts: vec![2, 3, 4],
            seeds: vec![0],
            knobs: vec![Knobs::default()],
            workload: WorkloadSpec::Automotive,
            arrivals: ArrivalSpec::Bursts {
                activations: 4,
                gap: Cycles::from_secs(12),
            },
            master_seed: 0,
        }
    }

    /// Sets the seed coordinates to `0..n`. Kept for the small grids of
    /// `tests/determinism.rs` and the spec and fingerprint unit tests.
    pub fn with_seed_count(mut self, n: usize) -> Self {
        self.seeds = (0..n as u64).collect();
        self
    }

    /// Sets the master seed.
    pub fn with_master_seed(mut self, master_seed: u64) -> Self {
        self.master_seed = master_seed;
        self
    }

    /// Number of cells in the cross product.
    pub fn cell_count(&self) -> usize {
        self.knobs.len() * self.proc_counts.len() * self.utilizations.len() * self.seeds.len()
    }

    /// Enumerates every cell in the canonical order: knobs outermost, then
    /// processor counts, utilizations, and seeds innermost. The returned
    /// order (and each cell's `index`) is part of the determinism contract —
    /// exports list cells in exactly this order regardless of worker count.
    pub fn cells(&self) -> Vec<CellSpec> {
        let mut out = Vec::with_capacity(self.cell_count());
        for (knob_index, _) in self.knobs.iter().enumerate() {
            for &n_procs in &self.proc_counts {
                for &utilization in &self.utilizations {
                    for &seed in &self.seeds {
                        out.push(CellSpec {
                            index: out.len(),
                            knob_index,
                            n_procs,
                            utilization,
                            seed,
                        });
                    }
                }
            }
        }
        out
    }

    /// The RNG stream seed for one cell: a SplitMix64-style mix of the
    /// master seed, the cell index, and the cell's seed coordinate.
    pub fn cell_stream(&self, cell: &CellSpec) -> u64 {
        mix(mix(self.master_seed, cell.index as u64), cell.seed)
    }

    /// Whether any knob injects faults or runs a non-inert degradation
    /// policy. Reports gate their survivability columns on this so that
    /// fault-free sweeps export byte-identical files to older builds.
    pub fn is_faulted(&self) -> bool {
        self.knobs
            .iter()
            .any(|k| !k.faults.is_empty() || !k.degradation.is_inert())
    }

    /// Checks the spec before any cell runs.
    ///
    /// # Errors
    ///
    /// - [`SweepError::EmptyAxis`] when a grid axis has no entries;
    /// - [`SweepError::InvalidUtilization`] for NaN, infinite, or
    ///   non-positive utilizations;
    /// - [`SweepError::ZeroProcs`] for a zero processor count;
    /// - [`SweepError::InvalidKnob`] for non-finite or non-positive knob
    ///   numerics (a zero overhead is allowed; a zero tick is not);
    /// - [`SweepError::DuplicateKnobLabel`] when two knobs share a label;
    /// - [`SweepError::InvalidFaultPlan`] when a knob's fault plan fails
    ///   validation against any of the spec's processor counts.
    pub fn validate(&self) -> Result<(), SweepError> {
        for (axis, empty) in [
            ("utilizations", self.utilizations.is_empty()),
            ("proc_counts", self.proc_counts.is_empty()),
            ("seeds", self.seeds.is_empty()),
            ("knobs", self.knobs.is_empty()),
        ] {
            if empty {
                return Err(SweepError::EmptyAxis(axis));
            }
        }
        for &u in &self.utilizations {
            if !u.is_finite() || u <= 0.0 {
                return Err(SweepError::InvalidUtilization(u));
            }
        }
        if self.proc_counts.contains(&0) {
            return Err(SweepError::ZeroProcs);
        }
        for (i, knob) in self.knobs.iter().enumerate() {
            let bad = |field| SweepError::InvalidKnob {
                label: knob.label.clone(),
                field,
            };
            if knob.tick == Cycles::ZERO {
                return Err(bad("tick"));
            }
            if !knob.theoretical_overhead.is_finite() || knob.theoretical_overhead < 0.0 {
                return Err(bad("theoretical_overhead"));
            }
            if !knob.wcet_margin.is_finite() || knob.wcet_margin <= 0.0 {
                return Err(bad("wcet_margin"));
            }
            // Zero is meaningful: the switch-cost ablation's "free
            // switches" point. Only negative or non-finite scales are out.
            if !knob.context_scale.is_finite() || knob.context_scale < 0.0 {
                return Err(bad("context_scale"));
            }
            if !knob.degradation.budget_margin.is_finite() || knob.degradation.budget_margin <= 0.0
            {
                return Err(bad("degradation.budget_margin"));
            }
            if self.knobs[..i].iter().any(|k| k.label == knob.label) {
                return Err(SweepError::DuplicateKnobLabel(knob.label.clone()));
            }
            // Validate against the widest grid column: `FaultPlan::compile`
            // deliberately drops a fail-stop on cells with fewer processors
            // so one plan can sweep processor counts.
            let max_procs = self.proc_counts.iter().copied().max().unwrap_or(1);
            knob.faults
                .validate(max_procs)
                .map_err(|source| SweepError::InvalidFaultPlan {
                    label: knob.label.clone(),
                    source,
                })?;
        }
        Ok(())
    }
}

/// One point of the cross product.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSpec {
    /// Position in the canonical enumeration order.
    pub index: usize,
    /// Index into [`SweepSpec::knobs`].
    pub knob_index: usize,
    /// Processor count.
    pub n_procs: usize,
    /// Target system utilization.
    pub utilization: f64,
    /// Seed coordinate.
    pub seed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_is_row_major_and_indexed() {
        let spec = SweepSpec::figure4().with_seed_count(2);
        let cells = spec.cells();
        assert_eq!(cells.len(), spec.cell_count());
        assert_eq!(cells.len(), 18);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
        // Seeds vary fastest, then utilizations, then processor counts.
        assert_eq!(
            (cells[0].n_procs, cells[0].utilization, cells[0].seed),
            (2, 0.4, 0)
        );
        assert_eq!(
            (cells[1].n_procs, cells[1].utilization, cells[1].seed),
            (2, 0.4, 1)
        );
        assert_eq!(
            (cells[2].n_procs, cells[2].utilization, cells[2].seed),
            (2, 0.5, 0)
        );
        assert_eq!(cells[17].n_procs, 4);
    }

    #[test]
    fn validate_accepts_the_paper_grid() {
        assert_eq!(SweepSpec::figure4().validate(), Ok(()));
        assert!(!SweepSpec::figure4().is_faulted());
    }

    #[test]
    fn validate_rejects_each_empty_axis() {
        for axis in ["utilizations", "proc_counts", "seeds", "knobs"] {
            let mut spec = SweepSpec::figure4();
            match axis {
                "utilizations" => spec.utilizations.clear(),
                "proc_counts" => spec.proc_counts.clear(),
                "seeds" => spec.seeds.clear(),
                _ => spec.knobs.clear(),
            }
            assert_eq!(spec.validate(), Err(SweepError::EmptyAxis(axis)));
        }
    }

    #[test]
    fn validate_rejects_bad_utilizations() {
        for u in [0.0, -0.4, f64::NAN, f64::INFINITY] {
            let mut spec = SweepSpec::figure4();
            spec.utilizations = vec![u];
            match spec.validate() {
                Err(SweepError::InvalidUtilization(got)) => {
                    assert!(got == u || (got.is_nan() && u.is_nan()));
                }
                other => panic!("utilization {u} accepted: {other:?}"),
            }
        }
    }

    #[test]
    fn validate_rejects_zero_processors() {
        let mut spec = SweepSpec::figure4();
        spec.proc_counts = vec![2, 0];
        assert_eq!(spec.validate(), Err(SweepError::ZeroProcs));
    }

    #[test]
    fn validate_rejects_nan_and_nonpositive_knobs() {
        type Poison = fn(&mut Knobs);
        let cases: [(&str, Poison); 5] = [
            ("tick", |k| k.tick = Cycles::ZERO),
            ("theoretical_overhead", |k| {
                k.theoretical_overhead = f64::NAN
            }),
            ("wcet_margin", |k| k.wcet_margin = 0.0),
            ("context_scale", |k| k.context_scale = -1.0),
            ("degradation.budget_margin", |k| {
                k.degradation.budget_margin = f64::NAN
            }),
        ];
        for (field, poison) in cases {
            let mut spec = SweepSpec::figure4();
            poison(&mut spec.knobs[0]);
            assert_eq!(
                spec.validate(),
                Err(SweepError::InvalidKnob {
                    label: "paper".into(),
                    field,
                }),
                "field {field}"
            );
        }
    }

    #[test]
    fn validate_rejects_duplicate_knob_labels() {
        let mut spec = SweepSpec::figure4();
        spec.knobs = vec![Knobs::named("x"), Knobs::named("x")];
        assert_eq!(
            spec.validate(),
            Err(SweepError::DuplicateKnobLabel("x".into()))
        );
    }

    #[test]
    fn validate_rejects_fault_plans_out_of_processor_range() {
        use mpdp_faults::FailStop;
        let mut spec = SweepSpec::figure4();
        // Figure 4 sweeps 2–4 processors. A fail-stop of processor 3 fits
        // the widest column (compile drops it on the narrower ones); a
        // fail-stop of processor 5 fits nowhere.
        spec.knobs[0].faults =
            FaultPlan::default().with_fail_stop(FailStop::new(3, Cycles::from_secs(2)));
        assert_eq!(spec.validate(), Ok(()));
        assert!(spec.is_faulted());
        spec.knobs[0].faults =
            FaultPlan::default().with_fail_stop(FailStop::new(5, Cycles::from_secs(2)));
        assert!(matches!(
            spec.validate(),
            Err(SweepError::InvalidFaultPlan { .. })
        ));
    }

    #[test]
    fn cell_streams_are_distinct_and_stable() {
        let spec = SweepSpec::figure4().with_seed_count(4);
        let cells = spec.cells();
        let streams: Vec<u64> = cells.iter().map(|c| spec.cell_stream(c)).collect();
        let mut unique = streams.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), streams.len(), "stream collision");
        // Stable across identical spec constructions.
        let again = SweepSpec::figure4().with_seed_count(4);
        assert_eq!(
            streams,
            again
                .cells()
                .iter()
                .map(|c| again.cell_stream(c))
                .collect::<Vec<_>>()
        );
        // And sensitive to the master seed.
        let other = spec.clone().with_master_seed(1);
        assert_ne!(streams[0], other.cell_stream(&other.cells()[0]));
    }
}
