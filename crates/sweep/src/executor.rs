//! The sweep executor: one plan-driven fan-out behind every sweep.
//!
//! [`execute`] claims the cells of a [`SweepPlan`]'s range from one atomic
//! cursor over a scoped-thread pool. A plan holds everything a caller can
//! ask of a sweep beyond the grid itself — a cell range (the whole grid is
//! one shard), a checkpoint [`Journal`], a content-addressed
//! [`CellCache`], and a `max_cells` budget — and [`run_sweep`] is the plan
//! with none of them. Figures, ablations, resumes, shard workers and
//! benches all run through the same loop.
//!
//! # Determinism contract
//!
//! `run_sweep(spec, 1)` and `run_sweep(spec, N)` produce **byte-identical**
//! reports, and so does any mix of journal resumes, cache hits, retries
//! and shard boundaries. Three properties make that hold:
//!
//! 1. A cell's entire input — task set, arrival stream, simulator configs —
//!    is a pure function of `(spec, cell.index)`; its RNG stream is seeded
//!    from [`SweepSpec::cell_stream`] and never shared across cells, so a
//!    retry, a cache hit or a journal record reproduces it exactly.
//! 2. Workers claim cells through one atomic counter but write each result
//!    into the slot reserved for its cell index; no result depends on
//!    claim order.
//! 3. Aggregation (in [`report`](crate::report)) folds cells in index
//!    order and keeps all statistics in integer cycles until the final
//!    formatting step (see `ResponseAccumulator`).
//!
//! # Failure envelope
//!
//! Every attempt runs under `catch_unwind`: a panicking cell is retried
//! once after a 50 ms pause ([`CellOutcome::Retried`] on success) and, if
//! it panics again, ends the run with [`SweepError::CellPanicked`] instead
//! of tearing down the fan-out. Completed cells are appended to the
//! journal (fsynced) as they finish, and a later run against the same spec
//! skips them ([`CellOutcome::Resumed`]). A hung cell is stopped one level
//! up: the shard supervisor kills a worker whose journal stops growing,
//! and its relaunch resumes from the journal.
//!
//! Wall-clock time is measured for the caller's benefit but deliberately
//! kept out of every export.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use mpdp_obs::NullProbe;
use mpdp_telemetry::{FleetEvent, FleetEventKind, FleetObserver, NullFleetObserver};

use crate::cache::CellCache;
use crate::engine::{
    run_cell_inner, CellProfile, CellResult, CellScratch, SweepReport, TableCache,
};
use crate::error::SweepError;
use crate::journal::Journal;
use crate::spec::{CellSpec, SweepSpec};

/// Failed attempts a panicking cell is retried after.
const RETRIES: u32 = 1;

/// Pause before each retry.
const BACKOFF: Duration = Duration::from_millis(50);

/// What one run of the executor covers. The default plan — the whole
/// grid, no journal, no cache, no budget — is a plain [`run_sweep`].
#[derive(Debug, Clone, Default)]
pub struct SweepPlan<'a> {
    /// The cell-index range to run (one shard of the grid); `None` runs
    /// the whole grid.
    pub range: Option<Range<usize>>,
    /// Checkpoint journal path. Completed cells are appended (fsynced) as
    /// they finish; cells already in the journal are not re-run.
    pub journal: Option<PathBuf>,
    /// Content-addressed cell-result cache consulted before each pending
    /// cell: a hit skips both simulators but is still journaled and still
    /// emits `CellDone` — downstream, a cached cell is indistinguishable
    /// from an executed one. Cells recovered from the journal never
    /// consult the cache.
    pub cache: Option<&'a CellCache>,
    /// Stop after executing this many cells (journal resumes do not
    /// count). The run then returns [`SweepError::Interrupted`] with the
    /// completed work journaled — the hook for kill-and-resume tests.
    pub max_cells: Option<usize>,
}

/// How one cell of a run concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellOutcome {
    /// Completed on the first attempt (or answered by the cell cache).
    Ok,
    /// Completed after `attempts` panicking attempts; the rerun used the
    /// same RNG stream, so the result is identical to a first-try success.
    Retried {
        /// Failed attempts before the success.
        attempts: u32,
    },
    /// Skipped: recovered from the checkpoint journal.
    Resumed,
}

/// A completed run of one [`SweepPlan`].
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// The plan's cells in index order, bit-identical to the same cells of
    /// [`run_sweep`]'s report. Profiles follow one rule: executed cells
    /// carry their horizon and completion count, while journal resumes
    /// and cache hits simulated nothing here and carry zeros.
    pub report: SweepReport,
    /// Per-cell outcomes, in the report's order.
    pub outcomes: Vec<CellOutcome>,
    /// Cells recovered from the journal instead of executed.
    pub resumed: usize,
}

/// Runs every cell of `spec` over `workers` threads (clamped to at least
/// one) and returns the report. See the module docs for the determinism
/// contract.
///
/// # Errors
///
/// Same as [`execute`] with the default plan.
pub fn run_sweep(spec: &SweepSpec, workers: usize) -> Result<SweepReport, SweepError> {
    execute(spec, workers, &SweepPlan::default(), &NullFleetObserver).map(|run| run.report)
}

/// Runs the cells `plan` selects over `workers` threads. `observer`
/// receives typed cell events (durable completions with wall latency,
/// retries, journal resumes); with [`NullFleetObserver`] every emission
/// compiles out.
///
/// # Errors
///
/// - the spec's [`SweepSpec::validate`] rejection, before any cell runs;
/// - [`SweepError::ShardRange`] when the plan's range does not fit the grid;
/// - [`SweepError::Journal`] when the journal cannot be opened or written;
/// - the lowest-indexed cell failure ([`SweepError::Cell`], or
///   [`SweepError::CellPanicked`] after the retry) — worker count never
///   changes *which* error is reported, and cells completed before the
///   stop stay journaled;
/// - [`SweepError::Interrupted`] when `max_cells` stops the run before the
///   range is covered (`completed`/`total` count cells of the range).
pub fn execute<O>(
    spec: &SweepSpec,
    workers: usize,
    plan: &SweepPlan<'_>,
    observer: &O,
) -> Result<SweepRun, SweepError>
where
    O: FleetObserver + Sync,
{
    execute_with(spec, workers, plan, observer, |_| {})
}

/// [`execute`] calling `inject` with the cell at the start of every
/// attempt — the seam the retry tests use to make a cell panic without
/// corrupting a simulator.
///
/// # Errors
///
/// Same as [`execute`].
pub fn execute_with<O, I>(
    spec: &SweepSpec,
    workers: usize,
    plan: &SweepPlan<'_>,
    observer: &O,
    inject: I,
) -> Result<SweepRun, SweepError>
where
    O: FleetObserver + Sync,
    I: Fn(&CellSpec) + Sync,
{
    let start = Instant::now();
    spec.validate()?;
    let cells = spec.cells();
    let range = plan.range.clone().unwrap_or(0..cells.len());
    let Some(ranged) = cells.get(range.clone()) else {
        return Err(SweepError::ShardRange {
            start: range.start,
            end: range.end,
            total: cells.len(),
        });
    };
    let journal = plan
        .journal
        .as_deref()
        .map(|path| Journal::open(path, spec))
        .transpose()?;
    let recovered = |cell: &CellSpec| {
        journal
            .as_ref()
            .and_then(|j| j.recovered().get(&cell.index))
    };
    let mut pending: Vec<CellSpec> = ranged
        .iter()
        .filter(|c| recovered(c).is_none())
        .copied()
        .collect();
    pending.truncate(plan.max_cells.unwrap_or(usize::MAX));
    if O::ENABLED {
        for cell in ranged.iter().filter(|c| recovered(c).is_some()) {
            emit(observer, start, || FleetEventKind::CellResumed {
                cell: cell.index,
            });
        }
    }

    type Entry = (CellResult, CellOutcome, CellProfile);
    let slots: Vec<Mutex<Option<Result<Entry, SweepError>>>> =
        pending.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let n_workers = workers.max(1).min(pending.len().max(1));
    // One analysis memo for the whole run (see `TableCache`).
    let tables = TableCache::default();
    std::thread::scope(|scope| {
        for _ in 0..n_workers {
            scope.spawn(|| {
                let mut scratch = CellScratch::default();
                // Claims are handed out in index order and a claimed cell
                // always finishes, so stopping new claims after a failure
                // still runs every lower-indexed cell: the lowest failing
                // index is the same at any worker count.
                while !abort.load(Ordering::Relaxed) {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(cell) = pending.get(i) else { break };
                    let t0 = Instant::now();
                    let mut failed = 0u32;
                    // A cache hit replaces the simulation wholesale; its
                    // `None` horizon marks a cell that simulated nothing.
                    let ran = match plan.cache.and_then(|cc| cc.lookup(spec, cell)) {
                        Some(hit) => Ok((hit, None)),
                        None => loop {
                            let attempt = catch_unwind(AssertUnwindSafe(|| {
                                inject(cell);
                                run_cell_inner(
                                    spec,
                                    cell,
                                    NullProbe,
                                    NullProbe,
                                    Some(&tables),
                                    &mut scratch,
                                )
                            }));
                            match attempt {
                                Ok(result) => {
                                    break result.map(|(c, _, _, horizon)| (c, Some(horizon)))
                                }
                                Err(_) if failed < RETRIES => {
                                    emit(observer, start, || FleetEventKind::CellRetried {
                                        cell: cell.index,
                                        backoff: BACKOFF,
                                    });
                                    std::thread::sleep(BACKOFF);
                                    failed += 1;
                                }
                                Err(payload) => {
                                    break Err(SweepError::CellPanicked {
                                        cell: cell.index,
                                        message: payload_message(payload),
                                    })
                                }
                            }
                        },
                    };
                    let wall = t0.elapsed();
                    let entry = ran.and_then(|(result, horizon)| {
                        if let (Some(cc), Some(_)) = (plan.cache, horizon) {
                            cc.insert(spec, cell, &result);
                        }
                        // Journal successes immediately, so a later kill
                        // loses nothing that finished.
                        if let Some(j) = &journal {
                            j.append(spec.cell_stream(cell), &result)?;
                        }
                        emit(observer, start, || FleetEventKind::CellDone {
                            cell: cell.index,
                            wall,
                            attempts: failed,
                        });
                        let outcome = match failed {
                            0 => CellOutcome::Ok,
                            attempts => CellOutcome::Retried { attempts },
                        };
                        let (sim_cycles, completions) =
                            horizon.map_or((0, 0), |h| (h.as_u64(), completion_count(&result)));
                        let profile = CellProfile {
                            index: cell.index,
                            wall,
                            sim_cycles,
                            completions,
                        };
                        Ok((result, outcome, profile))
                    });
                    if entry.is_err() {
                        abort.store(true, Ordering::Relaxed);
                    }
                    *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(entry);
                }
            });
        }
    });

    // Walk the range in index order, taking each cell from the journal or
    // from its slot. Claimed slots form a prefix of `pending`, so the
    // first error met is the lowest-indexed one.
    let mut slots = slots
        .into_iter()
        .map(|s| s.into_inner().unwrap_or_else(PoisonError::into_inner));
    let mut report = SweepReport {
        cells: Vec::with_capacity(ranged.len()),
        faulted: spec.is_faulted(),
        workers: n_workers,
        wall: Duration::ZERO,
        profiles: Vec::with_capacity(ranged.len()),
    };
    let mut outcomes = Vec::with_capacity(ranged.len());
    let mut resumed = 0;
    for cell in ranged {
        let (result, outcome, profile) = match recovered(cell) {
            Some(result) => {
                resumed += 1;
                let profile = CellProfile {
                    index: cell.index,
                    wall: Duration::ZERO,
                    sim_cycles: 0,
                    completions: 0,
                };
                (result.clone(), CellOutcome::Resumed, profile)
            }
            None => match slots.next().flatten() {
                Some(entry) => entry?,
                None => continue, // never claimed: budget spent
            },
        };
        report.cells.push(result);
        outcomes.push(outcome);
        report.profiles.push(profile);
    }
    if report.cells.len() < ranged.len() {
        return Err(SweepError::Interrupted {
            completed: report.cells.len(),
            total: ranged.len(),
        });
    }
    report.wall = start.elapsed();
    Ok(SweepRun {
        report,
        outcomes,
        resumed,
    })
}

/// Completion records folded into a cell's accumulators, both stacks.
fn completion_count(result: &CellResult) -> u64 {
    (result.theoretical.aperiodic.len()
        + result.theoretical.periodic.len()
        + result.real.aperiodic.len()
        + result.real.periodic.len()) as u64
}

/// Emits one executor event iff the observer is enabled: the clock read
/// and the event construction compile out entirely for
/// [`NullFleetObserver`].
#[inline]
fn emit<O: FleetObserver>(observer: &O, start: Instant, kind: impl FnOnce() -> FleetEventKind) {
    if O::ENABLED {
        observer.event(&FleetEvent {
            at: start.elapsed(),
            shard: None,
            kind: kind(),
        });
    }
}

fn payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
