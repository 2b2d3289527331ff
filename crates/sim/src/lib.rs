//! # mpdp-sim — the two simulators the paper compares
//!
//! The paper evaluates its FPGA prototype against "the theoretical
//! performance obtained with the simulation of the scheduling algorithm,
//! observing the aspects that in an actual architecture can impact the
//! performance". Both ends of that comparison live here:
//!
//! * [`theoretical`] — the idealized simulator: same MPDP policy, zero
//!   contention, instantaneous switches, a single fractional overhead knob
//!   (the paper's 2%);
//! * [`prototype`] — the full stack: microkernel + multiprocessor interrupt
//!   controller + timer over the modeled bus/memory platform, with explicit
//!   context-switch traffic, scheduling-cycle costs, interrupt latency, and
//!   bus contention;
//! * [`trace`] and [`stats`] — completions, deadline verdicts,
//!   response-time statistics; [`export`] writes them as CSV;
//! * [`gantt`] — ASCII schedule rendering (Figure 3) from the activity
//!   spans a probed run records;
//! * [`micro`] — a cycle-level bus and cache micro-simulator, kept as the
//!   reference the tests check the fluid contention model against.
//!
//! Both simulators take one sorted arrival slice. A caller that perturbs
//! arrivals (the explorer's ISR delays and tie orders) resolves them into
//! that slice itself and hands the same slice to both stacks.
//!
//! ```
//! use mpdp_sim::theoretical::{run_theoretical, TheoreticalConfig};
//! use mpdp_core::policy::MpdpPolicy;
//! use mpdp_core::rta::build_task_table;
//! use mpdp_core::task::PeriodicTask;
//! use mpdp_core::ids::TaskId;
//! use mpdp_core::priority::Priority;
//! use mpdp_core::time::Cycles;
//!
//! # fn main() -> Result<(), mpdp_core::TaskSetError> {
//! let t = PeriodicTask::new(TaskId::new(0), "diag", Cycles::new(1000), Cycles::new(100_000))
//!     .with_priorities(Priority::new(0), Priority::new(1));
//! let table = build_task_table(vec![t], vec![], 1)?;
//! let outcome = run_theoretical(
//!     MpdpPolicy::new(table),
//!     &[],
//!     TheoreticalConfig::new(Cycles::new(500_000)).with_tick(Cycles::new(100_000)),
//! )?;
//! assert_eq!(outcome.trace.deadline_misses(), 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod gantt;
pub mod micro;
pub mod prototype;
pub mod stats;
pub mod theoretical;
pub mod trace;

pub use export::completions_csv;
pub use gantt::render_gantt;
pub use micro::{run_micro, AccessModel, MicroConfig, MicroResult, MicroTask};
pub use prototype::{
    run_prototype, run_prototype_probed, run_prototype_with, PrototypeConfig, PrototypeOutcome,
    PrototypeSim,
};
pub use stats::{miss_ratio, response_stats, ResponseStats, SurvivalStats};
pub use theoretical::{
    run_theoretical, run_theoretical_probed, run_theoretical_with, SimOutcome, TheoreticalConfig,
};
pub use trace::{CompletionRecord, Trace};
