//! Typed errors and per-shard failure taxonomy for supervised runs.
//!
//! A worker process can die in more ways than a worker thread: spawn
//! failure, nonzero exit, fatal signal (`kill -9`), a hang the stall
//! watchdog has to break, or a clean exit that nevertheless left its
//! journal short. Each is a value the supervisor records and retries —
//! never a panic — and only a shard that exhausts its retry budget turns
//! into a run-level [`ShardError`].

use std::error::Error;
use std::fmt;

use mpdp_sweep::{MergeError, SweepError};
use mpdp_telemetry::FailureKind;

/// One way a single worker launch can fail. Failures are *per attempt*:
/// the supervisor records them, backs off, and relaunches until the
/// shard's retry budget is spent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardFailure {
    /// The worker process could not be spawned at all.
    Spawn {
        /// The OS diagnosis.
        detail: String,
    },
    /// The worker exited with a nonzero status code.
    Exited {
        /// The exit code.
        code: i32,
    },
    /// The worker was terminated by a signal (e.g. `kill -9`) before it
    /// could exit.
    Crashed {
        /// The signal number, when the platform reports one.
        signal: Option<i32>,
    },
    /// The worker stopped making progress: its journal did not change
    /// length within the stall deadline, so the supervisor killed it.
    Stalled {
        /// Cells the shard had durably completed when it was declared hung.
        journaled: usize,
    },
    /// The worker exited cleanly but its journal does not cover the
    /// shard's range — a protocol violation treated like any other
    /// failure (the relaunch resumes from the intact journal prefix).
    Incomplete {
        /// Cells found in the shard journal.
        journaled: usize,
        /// Cells the shard was assigned.
        expected: usize,
    },
}

impl ShardFailure {
    /// The telemetry mirror of this failure — the self-contained
    /// [`FailureKind`] events carry. The transcript wording lives on
    /// `FailureKind`'s `Display` (this type's `Display` delegates), so
    /// the two can never drift.
    pub fn kind(&self) -> FailureKind {
        match self {
            ShardFailure::Spawn { detail } => FailureKind::Spawn {
                detail: detail.clone(),
            },
            ShardFailure::Exited { code } => FailureKind::Exited { code: *code },
            ShardFailure::Crashed { signal } => FailureKind::Crashed { signal: *signal },
            ShardFailure::Stalled { journaled } => FailureKind::Stalled {
                journaled: *journaled,
            },
            ShardFailure::Incomplete {
                journaled,
                expected,
            } => FailureKind::Incomplete {
                journaled: *journaled,
                expected: *expected,
            },
        }
    }
}

impl fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.kind().fmt(f)
    }
}

/// Why a supervised sharded sweep could not complete.
#[derive(Debug)]
pub enum ShardError {
    /// The spec failed validation before any worker launched.
    Spec(SweepError),
    /// Supervisor-side I/O failed (creating the shard directory).
    Io {
        /// Path involved.
        path: String,
        /// The OS diagnosis.
        detail: String,
    },
    /// The worker binary could not be spawned for a reason retrying
    /// cannot heal (missing or non-executable) — the supervisor fails
    /// fast instead of burning the whole backoff budget on a binary
    /// that will never start.
    SpawnFailed {
        /// Index of the shard whose launch failed.
        shard: usize,
        /// The OS diagnosis (e.g. "No such file or directory").
        detail: String,
    },
    /// One shard failed every attempt; its journal keeps whatever prefix
    /// completed, so a rerun resumes rather than restarts.
    ShardFailed {
        /// Index of the failed shard.
        shard: usize,
        /// The final attempt's failure.
        failure: ShardFailure,
        /// Launches consumed (including the first).
        launches: u32,
    },
    /// All shards completed but their journals would not merge — this is
    /// a supervisor bug or on-disk tampering, surfaced loudly.
    Merge(MergeError),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Spec(source) => write!(f, "invalid sweep spec: {source}"),
            ShardError::Io { path, detail } => write!(f, "{path}: {detail}"),
            ShardError::SpawnFailed { shard, detail } => write!(
                f,
                "shard {shard}: worker binary cannot be spawned ({detail}); \
                 not retryable — check the worker command"
            ),
            ShardError::ShardFailed {
                shard,
                failure,
                launches,
            } => write!(
                f,
                "shard {shard} failed after {launches} launches: {failure}"
            ),
            ShardError::Merge(source) => write!(f, "shard journals would not merge: {source}"),
        }
    }
}

impl Error for ShardError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ShardError::Spec(source) => Some(source),
            ShardError::Merge(source) => Some(source),
            _ => None,
        }
    }
}

impl From<MergeError> for ShardError {
    fn from(source: MergeError) -> Self {
        ShardError::Merge(source)
    }
}
