//! # mpdp-hw — behavioural models of the FPGA MPSoC substrate
//!
//! Rust substitutes for the hardware the paper's prototype is built from
//! (Virtex-II PRO @ 50 MHz, Xilinx EDK 8.2): the shared [OPB bus](bus) with a
//! cycle-accurate arbiter and a scalable [analytic contention
//! model](contention), the [memory hierarchy](mem) (local BRAMs, shared DDR
//! with the context vector, boot BRAM), the per-processor [instruction
//! cache](cache), the processors' [register files](processor), and the
//! [system timer](timer).
//!
//! See `DESIGN.md` at the workspace root for the substitution rationale:
//! each model reproduces the *observable timing behaviour* the paper
//! measures, not the RTL. The prototype's synchronization engine and
//! crossbar are not modeled: no measurement here depends on them. The
//! prototype simulator serializes ISRs on its own scheduler lock and
//! signals processors with inter-processor interrupts through
//! `mpdp-intc`.
//!
//! ```
//! use mpdp_hw::bus::{Arbiter, ArbitrationPolicy};
//! use mpdp_hw::contention::ContentionModel;
//! use mpdp_core::ids::ProcId;
//!
//! // Exact, per-transaction:
//! let mut bus = Arbiter::new(2, ArbitrationPolicy::FixedPriority);
//! bus.push_request(ProcId::new(0), 12, 0);
//! assert_eq!(bus.drain().len(), 1);
//!
//! // Scalable, steady-state:
//! let speeds = ContentionModel::new().speeds(&[0.02, 0.02]);
//! assert!(speeds[0] < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
pub mod cache;
pub mod contention;
pub mod mem;
pub mod processor;
pub mod timer;

pub use bus::{Arbiter, ArbitrationPolicy, BusStats, Completion, MasterStats, DDR_SERVICE_CYCLES};
pub use cache::{CacheStats, DirectMappedCache};
pub use contention::ContentionModel;
pub use mem::{Memory, MemoryMap, Region, LOCAL_LATENCY, REGFILE_WORDS, SHARED_LATENCY};
pub use processor::{Processor, RegisterFile};
pub use timer::SystemTimer;
