//! # mpdp-analysis — the offline configuration tool and baselines
//!
//! The paper configures its system with "an in-house tool that takes in
//! input worst case execution times, period and deadlines of the tasks and
//! produces the task tables with processor assignments and all the required
//! information for both our target architecture and the simulator". This
//! crate is that tool:
//!
//! * [`partition`](mod@partition) — static distribution of periodic tasks over
//!   processors (first/best/worst-fit decreasing with exact RTA admission);
//! * [`tool`](mod@tool) — partition → response-time analysis → promotion times
//!   → validated [`mpdp_core::task::TaskTable`], with options for WCET
//!   margins, tick quantization, and promotion modes;
//! * [`baselines`](mod@baselines) — the degenerate promotion modes used as
//!   ablation baselines (background service, aperiodic-first);
//! * [`report`](mod@report) — printable task tables.
//!
//! ```
//! use mpdp_analysis::tool::{prepare, ToolOptions};
//! use mpdp_workload::automotive_task_set;
//! use mpdp_core::time::DEFAULT_TICK;
//!
//! # fn main() -> Result<(), mpdp_core::TaskSetError> {
//! let set = automotive_task_set(0.5, 3, DEFAULT_TICK);
//! let table = prepare(set.periodic, set.aperiodic, 3,
//!     ToolOptions::new().with_quantization(DEFAULT_TICK))?;
//! assert_eq!(table.periodic().len(), 18);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod baselines;
pub mod partition;
pub mod polling;
pub mod report;
pub mod sensitivity;
pub mod tool;

pub use admission::{AdmissionOutcome, AdmissionSession, RejectReason};
pub use baselines::{aperiodic_first, background_service};
pub use partition::{partition, per_proc_utilization, PartitionHeuristic};
pub use polling::{polling_server, PollingServerPolicy, ServerKind};
pub use report::{format_report, report_rows, ReportRow};
pub use sensitivity::{breakdown_utilization, is_schedulable_at};
pub use tool::{prepare, PromotionMode, ToolOptions};
