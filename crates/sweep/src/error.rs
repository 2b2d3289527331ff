//! Typed errors for sweep specification and execution.
//!
//! A malformed [`SweepSpec`](crate::SweepSpec) — an empty grid axis, a NaN
//! knob, an out-of-range fault plan — is a caller mistake the engine
//! reports as a value instead of panicking mid-fan-out on a worker thread,
//! where a panic would poison result slots and lose the diagnostic.

use std::error::Error;
use std::fmt;

use mpdp_core::TaskSetError;
use mpdp_faults::FaultPlanError;

/// Why a sweep could not be specified or executed.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// A grid axis (`utilizations`, `proc_counts`, `seeds`, or `knobs`) is
    /// empty — the cross product would contain no cells.
    EmptyAxis(&'static str),
    /// A target utilization is not a finite, positive fraction.
    InvalidUtilization(f64),
    /// A processor count of zero was requested.
    ZeroProcs,
    /// A knob's numeric field is not finite and positive.
    InvalidKnob {
        /// The knob's label.
        label: String,
        /// The offending field.
        field: &'static str,
    },
    /// Two knob settings share a label, which would make report groups
    /// ambiguous.
    DuplicateKnobLabel(String),
    /// A knob's fault plan failed validation for one of the spec's
    /// processor counts.
    InvalidFaultPlan {
        /// The knob's label.
        label: String,
        /// The plan-level diagnosis.
        source: FaultPlanError,
    },
    /// A cell's simulation rejected its inputs.
    Cell {
        /// Canonical index of the failing cell.
        cell: usize,
        /// The simulator's diagnosis.
        source: TaskSetError,
    },
    /// A cell panicked on its first attempt and again on its retry.
    CellPanicked {
        /// Canonical index of the failing cell.
        cell: usize,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// The run stopped before covering its range (the plan's `max_cells`
    /// budget was spent); completed cells are in the journal.
    Interrupted {
        /// Cells completed (and journaled) before the stop.
        completed: usize,
        /// Cells in the run's range.
        total: usize,
    },
    /// A shard's cell-index range does not fit the spec's grid (a stale or
    /// mistyped range handed to a worker process).
    ShardRange {
        /// First cell index of the requested shard (inclusive).
        start: usize,
        /// One past the last cell index (exclusive).
        end: usize,
        /// Total cells in the grid.
        total: usize,
    },
    /// The checkpoint journal could not be opened, read, or appended.
    Journal {
        /// Path of the journal file.
        path: String,
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::EmptyAxis(axis) => {
                write!(f, "sweep axis `{axis}` is empty; the grid has no cells")
            }
            SweepError::InvalidUtilization(u) => {
                write!(f, "utilization {u} is not a finite positive fraction")
            }
            SweepError::ZeroProcs => write!(f, "processor counts must be at least 1"),
            SweepError::InvalidKnob { label, field } => {
                write!(f, "knob `{label}`: {field} must be finite and positive")
            }
            SweepError::DuplicateKnobLabel(label) => {
                write!(f, "knob label `{label}` appears more than once")
            }
            SweepError::InvalidFaultPlan { label, source } => {
                write!(f, "knob `{label}`: invalid fault plan: {source}")
            }
            SweepError::Cell { cell, source } => {
                write!(f, "cell {cell}: {source}")
            }
            SweepError::CellPanicked { cell, message } => {
                write!(f, "cell {cell} panicked after retries: {message}")
            }
            SweepError::Interrupted { completed, total } => {
                write!(
                    f,
                    "sweep interrupted after {completed} of {total} cells; completed cells \
                     are journaled and the run can be resumed"
                )
            }
            SweepError::ShardRange { start, end, total } => {
                write!(
                    f,
                    "shard range {start}..{end} does not fit a {total}-cell grid"
                )
            }
            SweepError::Journal { path, detail } => {
                write!(f, "checkpoint journal {path}: {detail}")
            }
        }
    }
}

impl Error for SweepError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SweepError::InvalidFaultPlan { source, .. } => Some(source),
            SweepError::Cell { source, .. } => Some(source),
            _ => None,
        }
    }
}
