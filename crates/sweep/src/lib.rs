//! # mpdp-sweep — deterministic parallel scenario sweeps
//!
//! A batch-simulation engine for Monte Carlo and ablation studies over the
//! MPDP simulator stacks. A declarative [`SweepSpec`] names a grid —
//! utilizations × processor counts × RNG seeds × configuration
//! [`Knobs`] — and [`run_sweep`] fans its cells over a scoped-thread
//! worker pool, runs **both** the theoretical simulator and the prototype
//! stack per cell, and merges the per-cell statistics into an aggregate
//! report with percentile curves and byte-stable CSV/JSON exports.
//! `run_sweep` is the default plan of the one executor, [`execute`].
//!
//! ## Determinism contract
//!
//! Running the same spec with one worker or N workers produces
//! byte-identical exports. Each cell's RNG stream is derived from
//! `(master_seed, cell index, seed coordinate)`; no mutable state is
//! shared between cells; aggregation folds results in cell-index order and
//! keeps statistics in integer cycles until formatting (see
//! `mpdp_sim::stats::ResponseAccumulator`). Wall-clock time is reported to
//! the caller but never exported.
//!
//! ```
//! use mpdp_sweep::{run_sweep, SweepSpec};
//!
//! # fn main() -> Result<(), mpdp_sweep::SweepError> {
//! let mut spec = SweepSpec::figure4();
//! spec.proc_counts = vec![2];
//! spec.utilizations = vec![0.4];
//! let report = run_sweep(&spec, 2)?;
//! assert_eq!(report.cells.len(), 1);
//! assert!(report.cells[0].slowdown_pct().expect("both stacks ran") > 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! ## Fault injection
//!
//! A knob may carry a declarative [`mpdp_faults::FaultPlan`] (compiled per
//! cell from the cell's RNG stream) and a
//! [`mpdp_core::policy::DegradationPolicy`]; the report then grows
//! survivability columns. Both default to inert, in which case every
//! export byte is identical to a fault-free build.
//!
//! ## Plans
//!
//! [`execute`] runs whatever a [`SweepPlan`] selects: a cell range (the
//! whole grid, or one shard of it), an fsynced checkpoint [`Journal`], a
//! content-addressed [`CellCache`], and a `max_cells` budget. Every cell
//! runs under `catch_unwind` with one seed-preserving retry, and an
//! interrupted sweep resumes from its journal with byte-identical exports,
//! because every cell is a pure function of `(spec, cell index)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod error;
pub mod executor;
pub mod fingerprint;
pub mod journal;
pub mod linejournal;
pub mod merge;
pub mod report;
pub mod shard;
pub mod spec;

pub use cache::{CacheStats, CellCache, DEFAULT_CACHE_CAP_BYTES};
pub use engine::{
    cell_table, run_cell, run_cell_cached, run_cell_probed, CellObservation, CellProfile,
    CellResult, StackResult, SweepReport, TableCache,
};
pub use error::SweepError;
pub use executor::{execute, execute_with, run_sweep, CellOutcome, SweepPlan, SweepRun};
pub use fingerprint::{cell_fingerprint, spec_fingerprint, ENGINE_VERSION};
pub use journal::{Journal, JournalTail};
pub use linejournal::{LineJournal, LineJournalError};
pub use merge::{merge_journal_files, read_shard_journal, MergeError};
pub use report::{cells_csv, find_cell, group_summaries, report_json, summary_csv, GroupSummary};
pub use shard::{plan_shards, plan_spec_shards, ShardPlan};
pub use spec::{ArrivalSpec, CellSpec, Knobs, PolicyKind, SweepSpec, WorkloadSpec};
