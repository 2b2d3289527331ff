//! # mpdp-bench — experiment harness
//!
//! Shared machinery for the binaries that regenerate every figure and table
//! of the paper (see `DESIGN.md` §4 for the experiment index and
//! `EXPERIMENTS.md` for paper-vs-measured results):
//!
//! | binary | artifact |
//! |---|---|
//! | `fig1_architecture` | Figure 1 (system topology) |
//! | `fig2_queues` | Figure 2 (queue organization) |
//! | `fig3_schedule` | Figure 3 (sample schedule A/B) |
//! | `fig4_response_time` | Figure 4 + the §5 slowdown percentages |
//! | `text_metrics` | §5 in-text numbers (5.438 s, worst case, …) |
//! | `ablate_*` | design-choice ablations |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod baseline;
pub mod cli;
pub mod experiment;
pub mod faultmatrix;

pub use audit::{
    audit_cell, audit_sweep, knob_is_fault_free, prototype_config, theoretical_config, CellAudit,
    SweepAudit,
};
pub use baseline::{
    load_baseline, Baseline, BaselineEntry, BaselineError, BenchSchema, SERVE_SCHEMA, SWEEP_SCHEMA,
};
pub use experiment::{
    fig4_point, fig4_report, fig4_seeded_spec, fig4_spec, knobs_of, point_from_cell,
    ExperimentConfig, Fig4Point,
};
pub use faultmatrix::{fault_matrix_spec, INTENSITIES};
