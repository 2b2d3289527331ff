//! The worker side of the shard protocol: run one shard's cells and
//! journal every completion. The journal is the protocol — the
//! supervisor reads its growth as progress and its contents as the
//! shard's output.
//!
//! A worker is deliberately boring: it is the sweep executor
//! ([`execute`]) over its cell range (panic isolation, one in-process
//! retry, checkpoint journal) plus a metrics side channel. All of its
//! crash tolerance lives in the journal — a worker that is SIGKILLed
//! mid-cell leaves an fsynced prefix, and its replacement resumes from
//! it.
//!
//! ## Metrics side channel
//!
//! Worker processes share no memory with the supervisor, so cell-level
//! telemetry (wall-latency histograms, retry counts) travels as an
//! advisory file next to the journal (`<journal>.metrics`, the
//! [`snapshot_to_text`] format), rewritten atomically
//! (write-temp-then-rename) after every durable cell, so a kill
//! mid-rewrite leaves the previous complete snapshot rather than a torn
//! file. A relaunched worker preloads the previous snapshot, so counters
//! survive crashes; the supervisor-side binary folds the per-shard files
//! into the fleet snapshot with [`fleet_snapshot`] after the run.
//! Histogram merges are exact, so the fleet totals are independent of
//! shard count and crash history.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

use mpdp_sweep::{
    execute, CacheStats, CellCache, Journal, SweepError, SweepPlan, SweepRun, SweepSpec,
};
use mpdp_telemetry::{
    snapshot_from_text, snapshot_to_text, FleetEvent, FleetEventKind, FleetObserver, FleetSnapshot,
    MetricsRegistry,
};

use crate::supervisor::ShardReport;

/// Worker-side knobs.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Worker-pool threads inside this process.
    pub threads: usize,
    /// Artificial pause after each completed cell. Zero in production;
    /// chaos tests use it to keep workers alive long enough to be killed
    /// mid-run deterministically.
    pub throttle: Duration,
    /// Content-addressed cell-result cache directory, shared by every
    /// worker of the fleet (per-process segment files — no locking).
    /// Advisory: a cache that cannot be opened degrades to uncached
    /// execution rather than failing the shard.
    pub cache_dir: Option<PathBuf>,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            threads: 1,
            throttle: Duration::ZERO,
            cache_dir: None,
        }
    }
}

/// The metrics snapshot path for a shard journal: `<journal>.metrics`
/// beside it. Shared by workers (writing) and [`fleet_snapshot`]
/// (collecting).
fn metrics_path(journal: &Path) -> PathBuf {
    let mut name = journal
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".metrics");
    journal.with_file_name(name)
}

/// The fleet snapshot of a supervised run: the supervisor's own
/// `registry` merged with the metrics sidecar every shard's workers
/// persisted next to its journal. The sidecars are advisory: a missing
/// or unparsable one is skipped, never fatal.
pub fn fleet_snapshot(registry: &MetricsRegistry, shards: &[ShardReport]) -> FleetSnapshot {
    let mut fleet = registry.snapshot();
    for shard in shards {
        if let Ok(text) = std::fs::read_to_string(metrics_path(&shard.journal)) {
            if let Ok(worker) = snapshot_from_text(&text) {
                fleet.merge(&worker);
            }
        }
    }
    fleet
}

/// An observer that folds events into a registry and rewrites the
/// advisory snapshot file after every durable completion or resume, then
/// applies the chaos throttle after each completion.
struct PersistedMetrics<'a> {
    registry: &'a MetricsRegistry,
    path: &'a Path,
    /// The worker's cell cache, polled for counter deltas at each
    /// persist point; `None` when the worker runs uncached.
    cache: Option<&'a CellCache>,
    /// Cache counters as of the last report, so each synthesized
    /// [`FleetEventKind::CacheReport`] carries deltas — the metrics fold
    /// adds report events, and running totals would double-count.
    reported: Mutex<CacheStats>,
    /// [`WorkerConfig::throttle`].
    throttle: Duration,
}

/// Rewrites the sidecar atomically: write the full snapshot to a `.tmp`
/// sibling, then rename over the live file. A SIGKILL landing between a
/// journal append and this rewrite (the `CellDone` loss window) can then
/// leave only the *previous complete* snapshot — never a torn file that
/// the relaunch would have to discard, resetting `cells_executed` to
/// zero. The in-window cell itself is re-accounted as a `CellResumed` on
/// relaunch, so no cell goes missing from the merged fleet counters.
/// Still advisory: errors are ignored.
fn persist_snapshot(path: &Path, text: &str) {
    let mut tmp_name = path.as_os_str().to_os_string();
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    if std::fs::write(&tmp, text).is_ok() {
        let _ = std::fs::rename(&tmp, path);
    }
}

impl FleetObserver for PersistedMetrics<'_> {
    fn event(&self, event: &FleetEvent) {
        self.registry.event(event);
        if matches!(
            event.kind,
            FleetEventKind::CellDone { .. } | FleetEventKind::CellResumed { .. }
        ) {
            if let Some(cache) = self.cache {
                let now = cache.stats();
                let mut last = self.reported.lock().unwrap_or_else(|p| p.into_inner());
                let kind = FleetEventKind::CacheReport {
                    hits: now.hits - last.hits,
                    misses: now.misses - last.misses,
                    evictions: now.evictions - last.evictions,
                    bytes: now.bytes.saturating_sub(last.bytes),
                };
                *last = now;
                drop(last);
                if kind
                    != (FleetEventKind::CacheReport {
                        hits: 0,
                        misses: 0,
                        evictions: 0,
                        bytes: 0,
                    })
                {
                    self.registry.event(&FleetEvent {
                        at: event.at,
                        shard: event.shard,
                        kind,
                    });
                }
            }
            persist_snapshot(self.path, &snapshot_to_text(&self.registry.snapshot()));
        }
        // The throttle pauses after the cell is durable and accounted, so
        // a kill landing in the pause loses nothing.
        if matches!(event.kind, FleetEventKind::CellDone { .. }) && !self.throttle.is_zero() {
            std::thread::sleep(self.throttle);
        }
    }
}

/// Runs the cells `range` of `spec`, journaling into `journal` and
/// persisting cell telemetry to its `<journal>.metrics` sidecar. Returns the
/// shard bookkeeping on success; the caller (a binary's hidden worker
/// mode) maps errors to a nonzero exit the supervisor observes and
/// retries.
///
/// # Errors
///
/// Everything [`execute`] can return; the journal keeps every completed
/// cell regardless.
pub fn run_worker(
    spec: &SweepSpec,
    range: std::ops::Range<usize>,
    journal: &Path,
    cfg: &WorkerConfig,
) -> Result<SweepRun, SweepError> {
    // The cell cache is advisory end to end: an unopenable directory
    // degrades to uncached execution (results are identical either way).
    let cache = cfg
        .cache_dir
        .as_deref()
        .and_then(|dir| CellCache::open(dir).ok());
    let plan = SweepPlan {
        range: Some(range),
        journal: Some(journal.to_path_buf()),
        cache: cache.as_ref(),
        max_cells: None,
    };
    let snapshot_path = metrics_path(journal);
    // Resume the counters a previous (killed) launch persisted; a
    // missing or torn snapshot file starts fresh — advisory data must
    // never fail the shard.
    let registry = match std::fs::read_to_string(&snapshot_path) {
        Ok(text) => match snapshot_from_text(&text) {
            Ok(snapshot) => MetricsRegistry::preloaded(snapshot),
            Err(_) => MetricsRegistry::new(),
        },
        Err(_) => MetricsRegistry::new(),
    };
    // Reconcile against the journal: the sidecar is persisted *after*
    // the journal append it accounts, so a SIGKILL in that window leaves
    // the snapshot one cell behind the journal. The journal's recovered
    // count is ground truth for durably completed work; floor the
    // executed counter with it so kill-only chaos can never undercount.
    // (Best-effort: an unreadable journal changes nothing — the shard
    // itself will surface real journal errors.)
    if let Ok(j) = Journal::open(journal, spec) {
        registry.floor_cells_executed(j.recovered().len() as u64);
    }
    let observer = PersistedMetrics {
        registry: &registry,
        path: &snapshot_path,
        cache: cache.as_ref(),
        reported: Mutex::new(CacheStats::default()),
        throttle: cfg.throttle,
    };
    execute(spec, cfg.threads, &plan, &observer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdp_sweep::SweepSpec;

    fn tempdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mpdp-worker-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn worker_journals_its_range_and_resumes_from_it() {
        let mut spec = SweepSpec::figure4();
        spec.proc_counts = vec![2];
        spec.utilizations = vec![0.4, 0.5];
        let dir = tempdir("happy");
        let journal = dir.join("shard.mpdpj");
        let run =
            run_worker(&spec, 0..2, &journal, &WorkerConfig::default()).expect("worker completes");
        assert_eq!((run.report.cells.len(), run.resumed), (2, 0));
        // A relaunch resumes entirely from the journal.
        let rerun =
            run_worker(&spec, 0..2, &journal, &WorkerConfig::default()).expect("relaunch resumes");
        assert_eq!((rerun.report.cells.len(), rerun.resumed), (2, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_persists_a_metrics_snapshot_that_survives_relaunches() {
        let mut spec = SweepSpec::figure4();
        spec.proc_counts = vec![2];
        spec.utilizations = vec![0.4, 0.5];
        let dir = tempdir("metrics");
        let journal = dir.join("shard.mpdpj");
        run_worker(&spec, 0..2, &journal, &WorkerConfig::default()).expect("worker completes");
        let path = metrics_path(&journal);
        let text = std::fs::read_to_string(&path).expect("snapshot written");
        let snapshot = snapshot_from_text(&text).expect("snapshot parses");
        assert_eq!(snapshot.cells_executed, 2);
        assert_eq!(snapshot.cells_resumed, 0);
        assert_eq!(snapshot.cell_wall_us.count(), 2);
        // A relaunch resumes from the journal and *extends* the previous
        // snapshot rather than resetting it.
        run_worker(&spec, 0..2, &journal, &WorkerConfig::default()).expect("relaunch resumes");
        let text = std::fs::read_to_string(&path).expect("snapshot rewritten");
        let resumed = snapshot_from_text(&text).expect("snapshot parses");
        assert_eq!(resumed.cells_executed, 2, "no re-execution");
        assert_eq!(resumed.cells_resumed, 2, "both cells resumed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sigkill_in_the_celldone_window_cannot_lose_executed_counts() {
        // Regression for the documented `CellDone` loss window: a SIGKILL
        // between the journal append and the sidecar rewrite. Under the
        // old non-atomic `std::fs::write` rewrite, the kill could land
        // mid-write and leave a TORN sidecar; the relaunch discarded it
        // and `cells_executed` silently reset to zero. The atomic
        // temp-then-rename rewrite makes every reachable kill state one
        // of: (a) old complete snapshot (+ maybe a stale `.tmp`), or
        // (b) new complete snapshot. This test replays both states on
        // disk and asserts no counters are lost, then replays the OLD
        // failure state (a torn sidecar) and asserts the crc-guarded
        // parser rejects it so the journal resume still accounts every
        // cell instead of half-read garbage poisoning the merge.
        let mut spec = SweepSpec::figure4();
        spec.proc_counts = vec![2];
        spec.utilizations = vec![0.4, 0.5];
        let dir = tempdir("kill-window");
        let journal = dir.join("shard.mpdpj");
        run_worker(&spec, 0..2, &journal, &WorkerConfig::default()).expect("worker completes");
        let path = metrics_path(&journal);
        let text = std::fs::read_to_string(&path).expect("snapshot written");
        let tmp = {
            let mut name = path.as_os_str().to_os_string();
            name.push(".tmp");
            std::path::PathBuf::from(name)
        };
        assert!(!tmp.exists(), "rename consumed the temp file");

        // State (a): killed after the temp write, before the rename — the
        // live sidecar is the previous complete snapshot and a stale
        // `.tmp` sits beside it. Relaunch must preload the live file
        // intact (no under-count) and keep working.
        std::fs::write(&tmp, "garbage left by a kill before rename").expect("plant stale tmp");
        run_worker(&spec, 0..2, &journal, &WorkerConfig::default()).expect("relaunch resumes");
        let resumed = snapshot_from_text(&std::fs::read_to_string(&path).expect("rewritten"))
            .expect("sidecar still parses");
        assert_eq!(
            resumed.cells_executed, 2,
            "executed count survived the stale tmp"
        );
        assert_eq!(
            resumed.cells_resumed, 2,
            "journal resume accounted both cells"
        );
        assert!(!tmp.exists(), "stale tmp overwritten and renamed away");

        // State (torn): the OLD failure mode — a kill mid-`fs::write`
        // truncating the sidecar on a byte boundary. Every strict prefix
        // must now fail to parse (crc trailer), so the relaunch starts
        // counters fresh and rebuilds cell accounting from the journal
        // rather than trusting a half-written file.
        for cut in [text.len() / 3, text.len() - 1] {
            assert!(
                snapshot_from_text(&text[..cut]).is_err(),
                "torn sidecar (cut at {cut}) must be rejected"
            );
        }
        std::fs::write(&path, &text[..text.len() / 2]).expect("plant torn sidecar");
        run_worker(&spec, 0..2, &journal, &WorkerConfig::default())
            .expect("relaunch after torn sidecar");
        let rebuilt = snapshot_from_text(&std::fs::read_to_string(&path).expect("rewritten"))
            .expect("sidecar parses again");
        assert_eq!(
            rebuilt.cells_resumed, 2,
            "counters rebuilt from the journal, not the torn file"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_cache_worker_skips_execution_and_reports_hits_in_the_sidecar() {
        let mut spec = SweepSpec::figure4();
        spec.proc_counts = vec![2];
        spec.utilizations = vec![0.4, 0.5];
        let dir = tempdir("cache");
        let cfg = WorkerConfig {
            cache_dir: Some(dir.join("cache")),
            ..WorkerConfig::default()
        };
        let cold_journal = dir.join("cold.mpdpj");
        run_worker(&spec, 0..2, &cold_journal, &cfg).expect("cold worker completes");
        let cold = snapshot_from_text(
            &std::fs::read_to_string(metrics_path(&cold_journal)).expect("cold sidecar"),
        )
        .expect("cold sidecar parses");
        assert_eq!((cold.cache_hits, cold.cache_misses), (0, 2));

        // A fresh journal (a brand-new run, not a resume) over the same
        // spec answers every cell from the shared cache directory.
        let warm_journal = dir.join("warm.mpdpj");
        let run = run_worker(&spec, 0..2, &warm_journal, &cfg).expect("warm worker completes");
        assert_eq!(
            run.resumed, 0,
            "cache hits count as executed cells, not journal resumes"
        );
        let warm = snapshot_from_text(
            &std::fs::read_to_string(metrics_path(&warm_journal)).expect("warm sidecar"),
        )
        .expect("warm sidecar parses");
        assert_eq!((warm.cache_hits, warm.cache_misses), (2, 0));
        // Both journals hold the same records: a hit is journaled exactly
        // like an execution.
        assert_eq!(
            std::fs::read_to_string(&cold_journal)
                .expect("cold journal")
                .lines()
                .skip(1)
                .collect::<Vec<_>>(),
            std::fs::read_to_string(&warm_journal)
                .expect("warm journal")
                .lines()
                .skip(1)
                .collect::<Vec<_>>(),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_reports_a_bad_range_as_a_typed_error() {
        let spec = SweepSpec::figure4();
        let dir = tempdir("bad-range");
        let err = run_worker(
            &spec,
            0..spec.cell_count() + 1,
            &dir.join("j"),
            &WorkerConfig::default(),
        )
        .expect_err("range exceeds grid");
        assert!(matches!(err, SweepError::ShardRange { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
