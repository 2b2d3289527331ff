//! Runtime-verification audits over sweep cells.
//!
//! Re-runs cells with an [`mpdp_obs::EventRecorder`] threaded through both
//! simulator stacks, replays the recorded streams through an
//! [`InvariantMonitor`] per stack, and cross-checks the two streams with
//! the differential oracle. This is how the `--monitor` flags and the
//! `exp_monitor_audit` binary validate a sweep: the *exported* numbers stay
//! byte-identical (observation never perturbs the simulation — the audited
//! run is a separate probed re-run), while every MPDP invariant is checked
//! against the paper's scheduling rules.
//!
//! ## Tolerances
//!
//! The two stacks stamp events with different fidelity, so they get
//! different monitor configurations:
//!
//! - **theoretical**: releases and promotions are stamped at the
//!   scheduling pass that applies them, so stamps trail nominal times by
//!   at most one tick — late-tolerance of one tick, zero early slack.
//! - **prototype**: stamps are taken inside ISRs and carry interrupt
//!   latency, which can also make a promotion *appear* earlier than a
//!   late-stamped release — late-tolerance of two ticks plus one tick of
//!   early slack.
//!
//! The oracle compares occurrence *histories* (per-task release and
//! completion counts and met/missed verdicts), never raw stamps, so it is
//! immune to the prototype's latency shift; it is only sound for
//! fault-free cells, where both stacks see the same workload.

use mpdp_monitor::{
    diff_streams, InvariantMonitor, MonitorConfig, MonitorReport, OracleReport, TaskCatalog,
};
use mpdp_sweep::{cell_table, run_cell_probed, CellSpec, Knobs, SweepError, SweepSpec};

/// Whether a knob setting leaves both stacks fault-free: empty fault plan
/// and an inert degradation policy. Only then do the guaranteed-deadline,
/// FIFO, and band-ordering invariants (and the oracle) apply.
pub fn knob_is_fault_free(knob: &Knobs) -> bool {
    knob.faults.is_empty() && knob.degradation.is_inert()
}

/// Monitor configuration for the theoretical stack of a cell.
pub fn theoretical_config(knob: &Knobs) -> MonitorConfig {
    if knob_is_fault_free(knob) {
        MonitorConfig::fault_free(knob.tick)
    } else {
        MonitorConfig::faulted(knob.tick)
    }
}

/// Monitor configuration for the prototype stack of a cell.
pub fn prototype_config(knob: &Knobs) -> MonitorConfig {
    let tolerance = knob.tick.saturating_add(knob.tick);
    let base = if knob_is_fault_free(knob) {
        MonitorConfig::fault_free(tolerance)
    } else {
        MonitorConfig::faulted(tolerance)
    };
    base.with_early_slack(knob.tick)
}

/// Verdict of auditing one sweep cell: an invariant report per stack plus
/// the differential oracle's cross-check (fault-free cells only).
#[derive(Debug, Clone)]
pub struct CellAudit {
    /// The audited cell's grid coordinates.
    pub cell: CellSpec,
    /// Label of the knob setting the cell ran under.
    pub knob_label: String,
    /// Whether the offline analysis admitted the task set. Unschedulable
    /// cells run nothing and carry trivially clean reports.
    pub schedulable: bool,
    /// Invariant report for the theoretical stack.
    pub theoretical: MonitorReport,
    /// Invariant report for the prototype stack.
    pub real: MonitorReport,
    /// Differential cross-check, `None` for faulted knobs (the stacks
    /// legitimately diverge once faults land).
    pub oracle: Option<OracleReport>,
}

impl CellAudit {
    /// Whether both stacks were violation-free and the oracle (if run)
    /// found the streams in agreement.
    pub fn is_clean(&self) -> bool {
        self.theoretical.is_clean()
            && self.real.is_clean()
            && self.oracle.as_ref().is_none_or(OracleReport::is_agreed)
    }

    /// Total violations across both stacks.
    pub fn violation_count(&self) -> usize {
        self.theoretical.violations.len() + self.real.violations.len()
    }
}

/// Audits one cell: probed re-run, monitor replay per stack, oracle for
/// fault-free knobs.
///
/// # Errors
///
/// Propagates any [`SweepError`] from the underlying cell run.
pub fn audit_cell(spec: &SweepSpec, cell: &CellSpec) -> Result<CellAudit, SweepError> {
    let knob = &spec.knobs[cell.knob_index];
    let (result, obs) = run_cell_probed(spec, cell)?;
    if !result.schedulable {
        return Ok(CellAudit {
            cell: *cell,
            knob_label: result.knob_label,
            schedulable: false,
            theoretical: MonitorReport::default(),
            real: MonitorReport::default(),
            oracle: None,
        });
    }
    let (table, _target) =
        cell_table(spec, cell).expect("schedulable cell reconstructs its task table");
    let catalog = TaskCatalog::new(&table);

    let mut theo = InvariantMonitor::new(catalog.clone(), theoretical_config(knob));
    theo.replay(&obs.theoretical);
    let theoretical = theo.finish(obs.horizon);

    let mut proto = InvariantMonitor::new(catalog, prototype_config(knob));
    proto.replay(&obs.real);
    let real = proto.finish(obs.horizon);

    let oracle =
        knob_is_fault_free(knob).then(|| diff_streams(obs.theoretical.events(), obs.real.events()));

    Ok(CellAudit {
        cell: *cell,
        knob_label: result.knob_label,
        schedulable: true,
        theoretical,
        real,
        oracle,
    })
}

/// Aggregate verdict of auditing every cell of a sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepAudit {
    /// Per-cell audits, in cell-index order.
    pub audits: Vec<CellAudit>,
}

impl SweepAudit {
    /// Whether every cell came back clean.
    pub fn is_clean(&self) -> bool {
        self.audits.iter().all(CellAudit::is_clean)
    }

    /// Total invariant violations across all cells and both stacks.
    pub fn violation_count(&self) -> usize {
        self.audits.iter().map(CellAudit::violation_count).sum()
    }

    /// One diagnostic line per dirty cell (empty when clean), suitable for
    /// stderr: the first violation of each stack and the first divergence.
    pub fn diagnostics(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for a in &self.audits {
            if a.is_clean() {
                continue;
            }
            let coord = format!(
                "cell {} ({}, {} procs, util {:.2}, seed {})",
                a.cell.index, a.knob_label, a.cell.n_procs, a.cell.utilization, a.cell.seed
            );
            if let Some(v) = a.theoretical.violations.first() {
                lines.push(format!("{coord}: theoretical: {v}"));
            }
            if let Some(v) = a.real.violations.first() {
                lines.push(format!("{coord}: prototype: {v}"));
            }
            if let Some(d) = a.oracle.as_ref().and_then(|o| o.divergence.as_ref()) {
                lines.push(format!("{coord}: oracle: {d}"));
            }
        }
        lines
    }
}

/// Audits every cell of a sweep, sequentially (cells are short; auditing
/// is for correctness runs, not throughput).
///
/// # Errors
///
/// Propagates the first [`SweepError`] from the underlying cell runs.
pub fn audit_sweep(spec: &SweepSpec) -> Result<SweepAudit, SweepError> {
    let mut audits = Vec::with_capacity(spec.cells().len());
    for cell in spec.cells() {
        audits.push(audit_cell(spec, &cell)?);
    }
    Ok(SweepAudit { audits })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SweepSpec {
        let mut spec = SweepSpec::figure4();
        spec.proc_counts = vec![2];
        spec.utilizations = vec![0.4];
        spec.seeds = vec![0];
        spec
    }

    #[test]
    fn figure4_cell_audits_clean() {
        let spec = tiny_spec();
        let audit = audit_sweep(&spec).expect("sweep runs");
        assert_eq!(audit.audits.len(), 1);
        assert!(
            audit.is_clean(),
            "expected a clean audit, got:\n{}",
            audit.diagnostics().join("\n")
        );
        let cell = &audit.audits[0];
        assert!(cell.schedulable);
        assert!(cell.theoretical.events_seen > 0);
        assert!(cell.real.events_seen > 0);
        assert!(cell.oracle.as_ref().is_some_and(|o| o.matched > 0));
    }

    #[test]
    fn prototype_tolerances_are_wider() {
        let knob = Knobs::default();
        let theo = theoretical_config(&knob);
        let proto = prototype_config(&knob);
        assert!(theo.fault_free && proto.fault_free);
        assert!(proto.tolerance > theo.tolerance);
        assert!(proto.early_slack > theo.early_slack);
        assert_eq!(theo.early_slack.as_u64(), 0);
    }
}
