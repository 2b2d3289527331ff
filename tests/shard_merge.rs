//! Merge contract of the sharded sweep: however the cell grid is
//! partitioned into disjoint contiguous shards, and in whatever order the
//! shard journals are handed to the merger, the merged report exports
//! **byte-identical** CSV and JSON to a single-process `run_sweep` of the
//! same spec — including when every cell runs under an active fault plan.
//!
//! Each shard is executed through the same executor plan the supervised
//! worker processes use (a cell range and a journal per shard, fsynced
//! records), so this exercises the real journal write →
//! `merge_journal_files` read round-trip, not an in-memory shortcut.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use mpdp::core::policy::{DegradationPolicy, OverrunAction};
use mpdp::core::time::Cycles;
use mpdp::sweep::{
    cells_csv, execute, merge_journal_files, report_json, run_sweep, ArrivalSpec, Knobs,
    MergeError, SweepPlan, SweepSpec, WorkloadSpec,
};
use mpdp_faults::{FailStop, FaultPlan, WcetOverrun};
use mpdp_telemetry::NullFleetObserver;
use proptest::prelude::*;

/// A 16-cell grid small enough to re-shard dozens of times under proptest
/// but wide enough (2 utilizations × 2 knobs × 4 seeds) that shard
/// boundaries cross every axis of the canonical cell enumeration.
fn grid(faulted: bool) -> SweepSpec {
    let knob = |name: &str, tick_ms: u64| {
        let k = Knobs::named(name).with_tick(Cycles::from_millis(tick_ms));
        if faulted {
            k.with_faults(
                FaultPlan::default()
                    .with_wcet(WcetOverrun::new(0.10, 1.4))
                    .with_fail_stop(FailStop::new(1, Cycles::from_secs(4))),
            )
            .with_degradation(
                DegradationPolicy::default()
                    .with_overrun(OverrunAction::Kill)
                    .with_budget_margin(1.2),
            )
        } else {
            k
        }
    };
    SweepSpec {
        utilizations: vec![0.4, 0.5],
        proc_counts: vec![2],
        seeds: (0..4).collect(),
        knobs: vec![knob("base", 100), knob("fast-tick", 50)],
        workload: WorkloadSpec::Automotive,
        arrivals: ArrivalSpec::Bursts {
            activations: 1,
            gap: Cycles::from_secs(8),
        },
        master_seed: 0xD1CE,
    }
}

/// Golden exports of the uninterrupted single-process run, computed once
/// per fault mode and shared across all proptest cases.
fn golden(faulted: bool) -> &'static (String, String) {
    static PLAIN: OnceLock<(String, String)> = OnceLock::new();
    static FAULTED: OnceLock<(String, String)> = OnceLock::new();
    let slot = if faulted { &FAULTED } else { &PLAIN };
    slot.get_or_init(|| {
        let report = run_sweep(&grid(faulted), 1).expect("golden run");
        (cells_csv(&report), report_json(&report))
    })
}

/// A fresh per-case journal directory (proptest cases run concurrently, so
/// a shared name would interleave journals from different partitions),
/// removed with everything in it when dropped, so a failing case cleans up
/// too.
struct CaseDir(PathBuf);

impl CaseDir {
    fn new() -> Self {
        static CASE: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mpdp-shard-merge-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create case dir");
        CaseDir(dir)
    }
}

impl Drop for CaseDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Turns random interior cut points into a partition of `0..total` —
/// between 1 shard (no cuts) and 8 shards, all disjoint and contiguous.
fn partition(total: usize, cuts: &[usize]) -> Vec<std::ops::Range<usize>> {
    let mut bounds: Vec<usize> = cuts.iter().map(|c| 1 + c % (total - 1)).collect();
    bounds.push(0);
    bounds.push(total);
    bounds.sort_unstable();
    bounds.dedup();
    bounds.windows(2).map(|w| w[0]..w[1]).collect()
}

/// Executes each shard through the journaled worker path and returns the
/// case directory with the journal files in shard order.
fn run_shards(spec: &SweepSpec, ranges: &[std::ops::Range<usize>]) -> (CaseDir, Vec<PathBuf>) {
    let dir = CaseDir::new();
    let journals = ranges
        .iter()
        .enumerate()
        .map(|(i, range)| {
            let path = dir.0.join(format!("shard-{i}.mpdpj"));
            let plan = SweepPlan {
                range: Some(range.clone()),
                journal: Some(path.clone()),
                ..SweepPlan::default()
            };
            execute(spec, 1, &plan, &NullFleetObserver).expect("shard run completes");
            path
        })
        .collect();
    (dir, journals)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any partition into 1..=8 contiguous shards, merged in any order,
    /// reproduces the single-process bytes exactly.
    #[test]
    fn any_partition_merges_byte_identically(
        cuts in prop::collection::vec(0usize..1000, 0..8),
        shuffle_seed in any::<u64>(),
        faulted in any::<bool>(),
    ) {
        let spec = grid(faulted);
        let total = spec.cell_count();
        let ranges = partition(total, &cuts);
        prop_assert!((1..=8).contains(&ranges.len()));
        prop_assert_eq!(ranges.iter().map(std::ops::Range::len).sum::<usize>(), total);

        let (_dir, mut journals) = run_shards(&spec, &ranges);
        // Deterministic Fisher–Yates driven by the proptest-drawn seed:
        // merge order must not matter.
        let mut state = shuffle_seed | 1;
        for i in (1..journals.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            journals.swap(i, (state >> 33) as usize % (i + 1));
        }

        let merged = merge_journal_files(&spec, &journals).expect("merge accepts the partition");
        let (golden_csv, golden_json) = golden(faulted);
        prop_assert_eq!(&cells_csv(&merged), golden_csv);
        prop_assert_eq!(&report_json(&merged), golden_json);
        prop_assert_eq!(merged.cells.len(), total);
    }

    /// Dropping any one shard from an otherwise complete partition is a
    /// typed `MissingCells` rejection, never a silently short report.
    #[test]
    fn a_missing_shard_is_rejected_not_truncated(
        cuts in prop::collection::vec(0usize..1000, 1..8),
        drop_pick in any::<usize>(),
    ) {
        let spec = grid(false);
        let ranges = partition(spec.cell_count(), &cuts);
        prop_assume!(ranges.len() >= 2);
        let (_dir, mut journals) = run_shards(&spec, &ranges);
        journals.remove(drop_pick % ranges.len());

        let err = merge_journal_files(&spec, &journals).expect_err("incomplete merge");
        prop_assert!(matches!(err, MergeError::MissingCells { .. }), "got {err}");
    }
}
