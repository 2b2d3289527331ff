//! # mpdp-shard — crash-tolerant multi-process sharded sweeps
//!
//! The process-level robustness layer over
//! [`mpdp-sweep`](mpdp_sweep): a [`supervise`]d fleet of independent OS
//! worker processes, each running one disjoint shard of a `SweepSpec`
//! grid and journaling every completed cell into its own fingerprinted
//! checkpoint [`Journal`](mpdp_sweep::Journal), whose growth is how the
//! supervisor tells slow from dead. Workers that are `kill -9`ed,
//! hang, exit nonzero, or leave torn journals are relaunched with
//! deterministic capped exponential backoff and resume from their
//! journal's fsynced prefix — and because every cell is a pure function
//! of `(spec, cell index)`, the merged output is **byte-identical** to a
//! single-process [`run_sweep`](mpdp_sweep::run_sweep) at any shard count
//! and any crash/retry history.
//!
//! ## The protocol
//!
//! - **Shard**: a contiguous range of the canonical cell enumeration
//!   ([`plan_shards`](mpdp_sweep::plan_shards)); pure planning, no I/O.
//! - **Worker** ([`run_worker`]): runs its range under the self-healing
//!   executor and appends each completion to its journal (fsynced). The
//!   journal and its metrics sidecar are the only files a worker writes.
//! - **Supervisor** ([`supervise`]): polls children and their journal
//!   lengths, kills workers whose journal stops growing, retries typed
//!   [`ShardFailure`]s, and finally merges the journals
//!   ([`merge_journal_files`](mpdp_sweep::merge_journal_files)) — which
//!   rejects wrong-spec, overlapping, duplicated, or incomplete inputs
//!   rather than silently combining.
//! - **Chaos** ([`ChaosPlan`]): the supervisor SIGKILLs its own workers
//!   at seeded journal-progress points and optionally tears a journal
//!   mid-record, proving the recovery path on every CI run.
//!
//! Binaries join the fleet by self re-execution ([`reexec`]): the
//! supervisor relaunches `current_exe()` with hidden flags naming the
//! range and journal path, so the spec never needs serializing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod reexec;
pub mod supervisor;
pub mod worker;

pub use error::{ShardError, ShardFailure};
pub use reexec::{parse_worker_invocation, self_launcher, WorkerInvocation, WORKER_FLAG};
pub use supervisor::{
    supervise, ChaosPlan, ShardOutcome, ShardReport, SuperviseConfig, SupervisedSweep,
};
pub use worker::{fleet_snapshot, run_worker, WorkerConfig};
