//! # mpdp-kernel — the dual-priority real-time microkernel
//!
//! The "thin real time operating system layer" of the paper (§4.2): the
//! scheduling cycle, the aperiodic-release ISR path, and the context-switch
//! mechanics (register file + stack through the shared-memory context
//! vector), all with an explicit [cost model](costs) so the prototype
//! simulator can charge every kernel action in CPU cycles and bus traffic.
//!
//! The kernel is generic over the [`mpdp_core::policy::Scheduler`] policy:
//! MPDP and the ablation baselines run on identical kernel mechanics, so
//! measured differences come from the policy alone.
//!
//! ```
//! use mpdp_kernel::{Microkernel, KernelCosts, SchedulingPass};
//! use mpdp_core::policy::MpdpPolicy;
//! use mpdp_core::rta::build_task_table;
//! use mpdp_core::task::PeriodicTask;
//! use mpdp_core::ids::{ProcId, TaskId};
//! use mpdp_core::priority::Priority;
//! use mpdp_core::time::Cycles;
//!
//! # fn main() -> Result<(), mpdp_core::TaskSetError> {
//! let t = PeriodicTask::new(TaskId::new(0), "diag", Cycles::new(10), Cycles::new(100))
//!     .with_priorities(Priority::new(0), Priority::new(1));
//! let table = build_task_table(vec![t], vec![], 1)?;
//! let mut kernel = Microkernel::new(MpdpPolicy::new(table), KernelCosts::default());
//! let mut pass = SchedulingPass::default();
//! kernel.scheduling_pass(ProcId::new(0), Cycles::ZERO, true, &mut pass);
//! assert_eq!(pass.released.len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod costs;
pub mod microkernel;

pub use costs::{KernelCost, KernelCosts};
pub use microkernel::{KernelStats, Microkernel, SchedulingPass};
