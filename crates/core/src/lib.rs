//! # mpdp-core — the Multiprocessor Dual Priority scheduling model
//!
//! Platform-independent heart of the reproduction of *"A Dual-Priority
//! Real-Time Multiprocessor System on FPGA for Automotive Applications"*
//! (Tumeo et al., DATE 2008): the task model, the three-band dual-priority
//! scheme, the offline response-time analysis that yields promotion times,
//! the four queue kinds of the paper's implementation, and the MPDP
//! scheduling policy as a pure state machine.
//!
//! Higher layers add everything time- and hardware-dependent: `mpdp-hw`
//! models the FPGA MPSoC substrate, `mpdp-kernel` the microkernel with real
//! overheads, and `mpdp-sim` the two simulators the paper compares
//! ("Theoretical" vs "Real").
//!
//! ## Quick tour
//!
//! ```
//! use mpdp_core::ids::TaskId;
//! use mpdp_core::priority::Priority;
//! use mpdp_core::rta::build_task_table;
//! use mpdp_core::task::{AperiodicTask, PeriodicTask};
//! use mpdp_core::policy::MpdpPolicy;
//! use mpdp_core::time::Cycles;
//!
//! # fn main() -> Result<(), mpdp_core::error::TaskSetError> {
//! // Two hard periodic tasks and one soft aperiodic task on one processor.
//! let diag = PeriodicTask::new(TaskId::new(0), "sensor_diag", Cycles::from_millis(5), Cycles::from_millis(50))
//!     .with_priorities(Priority::new(1), Priority::new(4));
//! let ctrl = PeriodicTask::new(TaskId::new(1), "stability_ctl", Cycles::from_millis(10), Cycles::from_millis(100))
//!     .with_priorities(Priority::new(0), Priority::new(3));
//! let warn = AperiodicTask::new(TaskId::new(2), "security_warning", Cycles::from_millis(8));
//!
//! // The offline tool: response-time analysis + promotion times.
//! let table = build_task_table(vec![diag, ctrl], vec![warn], 1)?;
//! assert!(table.promotion(0) > Cycles::ZERO);
//!
//! // The runtime policy.
//! let mut policy = MpdpPolicy::new(table);
//! let released = policy.release_due(Cycles::ZERO);
//! assert_eq!(released.len(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod hash;
pub mod ids;
pub mod policy;
pub mod priority;
pub mod queue;
pub mod rta;
pub mod task;
pub mod time;

pub use error::TaskSetError;
pub use ids::{JobId, PeripheralId, ProcId, TaskId};
pub use policy::{Job, JobClass, MpdpPolicy, Scheduler, SwitchAction};
pub use priority::{Band, BandedPriority, DualPriority, Priority};
pub use rta::{analyze, build_task_table, RtaResult};
pub use task::{AperiodicTask, MemoryProfile, PeriodicTask, TaskTable};
pub use time::{gcd, hyperperiod, Cycles, CLOCK_HZ, DEFAULT_TICK};
