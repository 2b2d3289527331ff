//! # perfbench — end-to-end and per-layer benchmark of the mpdp stack
//!
//! Two workloads, each run from one process with at most two threads and
//! two connections:
//!
//! * `sweep_mc` — the paper's Figure 4 grid at Monte Carlo scale through
//!   `run_sweep` with no journal and no cache: the simulators and the
//!   sweep fan-out;
//! * `serve_mixed` — a fresh `mpdpd` daemon under a closed loop of seeded
//!   admission sessions: the daemon and the analysis behind it.
//!
//! An untraced run reports the end-to-end metrics; a traced run times
//! every call the benchmark makes into a layer's public functions and
//! reports the per-layer metrics. See `README.md` for the reasoning.

pub mod bench;
pub mod serve;
pub mod stats;
pub mod sweeps;
pub mod trace;
