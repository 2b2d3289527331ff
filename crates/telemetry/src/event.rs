//! The typed fleet event stream: everything the shard supervisor and the
//! self-healing cell executor can observe, as plain data.
//!
//! Every event is stamped with the wall-clock offset since the run
//! started ([`FleetEvent::at`]) and, where it concerns one shard, the
//! shard index. The variants mirror the supervisor's recovery transcript
//! one-for-one — [`TranscriptObserver`](crate::TranscriptObserver) can
//! replay a recorded event stream back into the exact human-readable
//! lines — plus the cell-level events the in-process executor emits
//! (per-cell wall latency, retries, journal resumes) that the transcript
//! never showed.

use std::fmt;
use std::time::Duration;

/// One observation from a supervised or self-healing sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetEvent {
    /// Wall-clock offset since the run started.
    pub at: Duration,
    /// The shard this event concerns, when it concerns exactly one.
    /// `None` for run-level events (merge, cell events of an unsharded
    /// healing run).
    pub shard: Option<usize>,
    /// What happened.
    pub kind: FleetEventKind,
}

/// The failure taxonomy of one worker launch, mirroring
/// `mpdp_shard::ShardFailure` field-for-field. It lives here so events
/// are self-contained plain data; the shard crate converts into it and
/// delegates its own `Display` to this one, keeping the transcript
/// wording in exactly one place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
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
    /// The worker was terminated by a signal before it could exit.
    Crashed {
        /// The signal number, when the platform reports one.
        signal: Option<i32>,
    },
    /// The worker's journal stopped growing and the watchdog killed it.
    Stalled {
        /// Cells durably journaled when the worker was declared hung.
        journaled: usize,
    },
    /// The worker exited cleanly with an incomplete journal.
    Incomplete {
        /// Cells found in the shard journal.
        journaled: usize,
        /// Cells the shard was assigned.
        expected: usize,
    },
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::Spawn { detail } => write!(f, "failed to spawn worker: {detail}"),
            FailureKind::Exited { code } => write!(f, "worker exited with code {code}"),
            FailureKind::Crashed { signal: Some(s) } => {
                write!(f, "worker killed by signal {s}")
            }
            FailureKind::Crashed { signal: None } => write!(f, "worker killed by a signal"),
            FailureKind::Stalled { journaled } => {
                write!(f, "worker stalled after {journaled} journaled cells")
            }
            FailureKind::Incomplete {
                journaled,
                expected,
            } => write!(
                f,
                "worker exited 0 with {journaled} of {expected} cells journaled"
            ),
        }
    }
}

impl FailureKind {
    /// Stable counter-name suffix for the metrics registry.
    pub fn counter_name(&self) -> &'static str {
        match self {
            FailureKind::Spawn { .. } => "spawn",
            FailureKind::Exited { .. } => "exited",
            FailureKind::Crashed { .. } => "crashed",
            FailureKind::Stalled { .. } => "stalled",
            FailureKind::Incomplete { .. } => "incomplete",
        }
    }
}

/// What happened. Supervisor-side variants carry exactly the data the
/// recovery transcript printed; cell-level variants come from the
/// in-process executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetEventKind {
    /// A worker process started for a shard.
    ShardLaunched {
        /// OS process id of the worker.
        pid: u32,
        /// Launch number for this shard (1-based, including this one).
        launch: u32,
        /// First cell index of the shard's range.
        cells_start: usize,
        /// One past the last cell index of the shard's range.
        cells_end: usize,
    },
    /// The shard's journal changed length: the worker is alive, and the
    /// journal holds `journaled` checksum-verified records.
    Heartbeat {
        /// Records in the shard journal — the shard's durably completed
        /// cells, resumed ones included.
        journaled: usize,
    },
    /// The stall watchdog fired: the journal did not change length within
    /// the deadline and the supervisor killed the worker.
    Stalled {
        /// The configured stall deadline that expired.
        timeout: Duration,
    },
    /// The chaos harness SIGKILLed this shard's worker.
    ChaosKill {
        /// Journal records on disk when the kill was delivered.
        journaled: usize,
        /// The seeded record-count threshold that triggered it.
        threshold: usize,
    },
    /// Chaos kills that never landed because the worker finished first.
    ChaosSkipped {
        /// Kills remaining in this shard's plan when it completed.
        remaining: usize,
    },
    /// The chaos harness tore the victim's journal mid-record before the
    /// relaunch.
    JournalTear,
    /// A chaos victim's corpse was reaped; the shard will relaunch
    /// without spending retry budget.
    ChaosReaped,
    /// An organic failure was recorded and a relaunch scheduled.
    Retry {
        /// What the launch attempt died of.
        failure: FailureKind,
        /// Backoff before the relaunch.
        backoff: Duration,
    },
    /// An organic failure exhausted the shard's retry budget.
    RetriesExhausted {
        /// The final attempt's failure.
        failure: FailureKind,
        /// Launches consumed (including the first).
        launches: u32,
    },
    /// A relaunched worker found journaled cells to resume from.
    Resumed {
        /// Complete records already on disk at relaunch.
        cells: usize,
    },
    /// A shard's journal covers its whole range.
    ShardDone {
        /// Cells journaled.
        cells: usize,
        /// Launches consumed (including the first).
        launches: u32,
    },
    /// The supervisor started merging the shard journals.
    MergeStarted {
        /// Journals being merged.
        journals: usize,
    },
    /// The merge completed; exports are byte-identical to a
    /// single-process run.
    MergeDone {
        /// Journals merged.
        journals: usize,
        /// Cells in the merged report.
        cells: usize,
        /// Total chaos SIGKILLs delivered over the run.
        chaos_kills: u32,
        /// Journals torn mid-record by chaos injection.
        torn: u32,
    },
    /// The in-process executor durably completed one cell.
    CellDone {
        /// Cell index in the canonical enumeration.
        cell: usize,
        /// Wall time of the successful attempt chain.
        wall: Duration,
        /// Failed attempts before the success (0 for first-try).
        attempts: u32,
    },
    /// A cell attempt panicked and will be retried after `backoff`.
    CellRetried {
        /// Cell index in the canonical enumeration.
        cell: usize,
        /// Backoff before the retry.
        backoff: Duration,
    },
    /// A cell was recovered from the checkpoint journal instead of
    /// executed.
    CellResumed {
        /// Cell index in the canonical enumeration.
        cell: usize,
    },
    /// Content-addressed cell-cache activity since the previous report
    /// (**deltas**, not running totals — the metrics fold adds them, so
    /// repeated reports from one worker must not double-count).
    CacheReport {
        /// Lookups answered from the cache since the last report.
        hits: u64,
        /// Lookups that fell through to execution since the last report.
        misses: u64,
        /// Records dropped by segment eviction since the last report.
        evictions: u64,
        /// Segment bytes loaded or appended since the last report.
        bytes: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_kind_displays_match_the_shard_transcript_wording() {
        let cases: Vec<(FailureKind, &str)> = vec![
            (
                FailureKind::Spawn {
                    detail: "boom".into(),
                },
                "failed to spawn worker: boom",
            ),
            (FailureKind::Exited { code: 9 }, "worker exited with code 9"),
            (
                FailureKind::Crashed { signal: Some(9) },
                "worker killed by signal 9",
            ),
            (
                FailureKind::Crashed { signal: None },
                "worker killed by a signal",
            ),
            (
                FailureKind::Stalled { journaled: 3 },
                "worker stalled after 3 journaled cells",
            ),
            (
                FailureKind::Incomplete {
                    journaled: 8,
                    expected: 9,
                },
                "worker exited 0 with 8 of 9 cells journaled",
            ),
        ];
        for (kind, expected) in cases {
            assert_eq!(kind.to_string(), expected);
        }
    }
}
