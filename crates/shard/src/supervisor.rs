//! The supervisor side of the shard protocol: launch one OS process per
//! shard, watch journal growth and exits, retry failures with
//! deterministic capped exponential backoff, and merge the shard journals
//! into a report whose exports are byte-identical to a single-process run.
//!
//! ## Failure envelope
//!
//! The supervisor treats worker fail-stop as a first-class, recoverable
//! event. Every launch can end five ways — spawn failure, nonzero exit,
//! fatal signal (`kill -9`), stall (the journal stopped growing and the
//! watchdog killed the process), or a clean exit with an incomplete
//! journal — and each is recorded as a typed [`ShardFailure`] and
//! retried until the shard's budget is spent. Retries are
//! *seed-preserving by construction*: a relaunched worker runs the same
//! `(spec, cell index)` functions, resumes from the journal's fsynced
//! prefix (including a torn tail, which journal recovery truncates), and
//! therefore cannot change a single merged byte.
//!
//! ## Chaos harness
//!
//! [`ChaosPlan`] makes the supervisor its own adversary: it SIGKILLs
//! victim workers when their journals reach seeded record-count
//! thresholds (progress-based, so the kill provably lands mid-run rather
//! than racing wall-clock against a fast worker), and optionally tears the
//! first victim's journal mid-record before the relaunch. Chaos kills do
//! not consume the organic retry budget — they test the recovery path,
//! not the budget arithmetic.
//!
//! ## Progress
//!
//! The journal is the only progress signal. Each poll reads the running
//! shard's journal length (one `metadata` call, seeded just before the
//! launch); a change of length is progress, and no change for
//! [`SuperviseConfig::stall_timeout`] is a stall. The first interval thus
//! runs from launch to the worker's first journal write: a fresh
//! journal's header, else its first new record. Records are counted only
//! when the length changed and an observer or a pending chaos threshold
//! needs the number.

use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, ExitStatus};
use std::time::{Duration, Instant};

use mpdp_core::hash::mix;
use mpdp_sweep::{
    merge_journal_files, plan_spec_shards, read_shard_journal, JournalTail, ShardPlan, SweepReport,
    SweepSpec,
};
use mpdp_telemetry::{FleetEvent, FleetEventKind, FleetObserver};

use crate::error::{ShardError, ShardFailure};

/// Sleep before the first relaunch after a failure (doubling per further
/// failure), and before a chaos victim's relaunch.
const BACKOFF: Duration = Duration::from_millis(50);

/// Ceiling on the relaunch backoff.
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Supervisor poll cadence.
const POLL_INTERVAL: Duration = Duration::from_millis(10);

/// Emits one supervision event iff the observer is enabled: the clock
/// read, the journal stats, and the event construction all compile out
/// for [`NullFleetObserver`](mpdp_telemetry::NullFleetObserver) — the
/// disabled path allocates nothing.
#[inline]
fn emit<O: FleetObserver>(
    observer: &O,
    started: Instant,
    shard: Option<usize>,
    kind: impl FnOnce() -> FleetEventKind,
) {
    if O::ENABLED {
        observer.event(&FleetEvent {
            at: started.elapsed(),
            shard,
            kind: kind(),
        });
    }
}

/// Deterministic fault injection for supervised runs: SIGKILL `kills`
/// victim workers at seeded points of their journal progress.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// Workers to SIGKILL over the run.
    pub kills: u32,
    /// Seed for victim shard and kill-point selection.
    pub seed: u64,
    /// Additionally truncate the first victim's journal mid-record before
    /// its relaunch, exercising torn-tail recovery end to end.
    pub tear_first: bool,
}

impl ChaosPlan {
    /// A plan that kills `kills` workers, seeded by `seed`.
    pub fn new(kills: u32, seed: u64) -> Self {
        ChaosPlan {
            kills,
            seed,
            tear_first: false,
        }
    }

    /// Enables the torn-journal injection.
    pub fn with_tear(mut self) -> Self {
        self.tear_first = true;
        self
    }
}

/// Supervisor knobs.
#[derive(Debug, Clone)]
pub struct SuperviseConfig {
    /// Worker processes to split the grid across (clamped to the cell
    /// count by shard planning).
    pub shards: usize,
    /// Directory for shard journals (`shard-N.mpdpj`) and their metrics
    /// sidecars. Created if absent. Journals persist across supervisor
    /// restarts, so a rerun of the same spec resumes; use a fresh
    /// directory per spec.
    pub dir: PathBuf,
    /// Relaunches after a failed launch (so `retries + 1` launches per
    /// shard before it is declared failed). Chaos kills are exempt.
    pub retries: u32,
    /// A worker whose journal does not change length for this long is
    /// declared hung and killed (then retried). The first interval runs
    /// from launch, so it must exceed worker start-up plus the longest
    /// single cell.
    pub stall_timeout: Duration,
    /// Optional chaos injection.
    pub chaos: Option<ChaosPlan>,
}

impl Default for SuperviseConfig {
    fn default() -> Self {
        SuperviseConfig {
            shards: 2,
            dir: std::env::temp_dir().join("mpdp-shards"),
            retries: 2,
            stall_timeout: Duration::from_secs(10),
            chaos: None,
        }
    }
}

impl SuperviseConfig {
    /// Sets the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the journal directory.
    pub fn with_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.dir = dir.into();
        self
    }

    /// Sets the per-shard relaunch budget.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Sets the stall deadline.
    pub fn with_stall_timeout(mut self, timeout: Duration) -> Self {
        self.stall_timeout = timeout;
        self
    }

    /// Enables chaos injection.
    pub fn with_chaos(mut self, chaos: ChaosPlan) -> Self {
        self.chaos = Some(chaos);
        self
    }
}

/// Deterministic capped exponential backoff before relaunch number
/// `failures + 1`: `BACKOFF * 2^failures`, capped.
fn backoff_for(failures: u32) -> Duration {
    let factor = 1u32 << failures.min(10);
    BACKOFF.saturating_mul(factor).min(BACKOFF_CAP)
}

/// How one shard's supervision concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardOutcome {
    /// The shard's journal covers its whole range.
    Completed,
    /// The shard exhausted its retry budget; the payload is the final
    /// launch's failure.
    Failed(ShardFailure),
}

/// Per-shard bookkeeping of a supervised run.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// The shard's slice of the grid.
    pub plan: ShardPlan,
    /// The shard's journal path (kept on disk — it is the shard's output).
    pub journal: PathBuf,
    /// Worker processes launched for this shard (including the first).
    pub launches: u32,
    /// Chaos SIGKILLs delivered to this shard's workers.
    pub chaos_kills: u32,
    /// Organic (non-chaos) failures, in order of occurrence.
    pub failures: Vec<ShardFailure>,
    /// Terminal state.
    pub outcome: ShardOutcome,
}

/// A completed supervised sharded sweep.
#[derive(Debug)]
pub struct SupervisedSweep {
    /// The merged report — exports byte-identical to a single-process
    /// [`run_sweep`](mpdp_sweep::run_sweep) of the same spec.
    pub report: SweepReport,
    /// Per-shard supervision bookkeeping.
    pub shards: Vec<ShardReport>,
    /// Total chaos SIGKILLs delivered.
    pub chaos_kills: u32,
    /// Journals torn mid-record by chaos injection.
    pub torn: u32,
}

/// The journal's byte length, zero while it does not exist: the
/// supervisor's per-poll progress probe.
fn journal_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |meta| meta.len())
}

/// Tears the journal's last record mid-write (drops the final 7 bytes —
/// inside the checksum field), as a crash between `write` and `fsync`
/// would. Returns false when there is no complete record to tear.
fn tear_tail(path: &Path) -> bool {
    let Ok(bytes) = std::fs::read(path) else {
        return false;
    };
    let lines = bytes.iter().filter(|b| **b == b'\n').count();
    if lines < 2 || bytes.last() != Some(&b'\n') {
        return false; // header only, or already torn
    }
    std::fs::write(path, &bytes[..bytes.len() - 7]).is_ok()
}

#[cfg(unix)]
fn signal_of(status: &ExitStatus) -> Option<i32> {
    use std::os::unix::process::ExitStatusExt;
    status.signal()
}

#[cfg(not(unix))]
fn signal_of(_status: &ExitStatus) -> Option<i32> {
    None
}

/// One shard's live supervision state.
enum Phase {
    /// Waiting to (re)launch at `at`.
    Pending { at: Instant },
    /// A worker process is running.
    Running {
        child: Child,
        /// Journal length as last observed, seeded just before the launch.
        len: u64,
        /// The journal's record count, read only when it is needed.
        tail: JournalTail,
        /// Launch, or when the journal length last changed.
        progress_at: Instant,
        /// The supervisor killed this worker as a chaos victim; its death
        /// must not count against the organic retry budget.
        chaos_kill: bool,
        /// The supervisor killed this worker for a stall.
        stall_kill: bool,
    },
    /// Journal covers the range.
    Done,
    /// Retry budget exhausted.
    Dead,
}

struct ShardState {
    plan: ShardPlan,
    journal: PathBuf,
    launches: u32,
    chaos_kills: u32,
    failures: Vec<ShardFailure>,
    /// Pending chaos kill thresholds (journal record counts), ascending.
    kill_at: VecDeque<usize>,
    phase: Phase,
}

impl ShardState {
    /// Records an organic failure and either schedules a relaunch or
    /// declares the shard dead.
    fn fail<O: FleetObserver>(
        &mut self,
        failure: ShardFailure,
        cfg: &SuperviseConfig,
        observer: &O,
        started: Instant,
    ) {
        let failures = self.failures.len() as u32;
        self.failures.push(failure.clone());
        if failures >= cfg.retries {
            let launches = self.launches;
            emit(observer, started, Some(self.plan.index), || {
                FleetEventKind::RetriesExhausted {
                    failure: failure.kind(),
                    launches,
                }
            });
            self.phase = Phase::Dead;
        } else {
            let wait = backoff_for(failures);
            emit(observer, started, Some(self.plan.index), || {
                FleetEventKind::Retry {
                    failure: failure.kind(),
                    backoff: wait,
                }
            });
            self.phase = Phase::Pending {
                at: Instant::now() + wait,
            };
        }
    }
}

/// Supervises a full sharded run of `spec`: plans disjoint shards,
/// launches a worker per shard via `launch`, watches journal growth and
/// exits, retries failures, applies the configured chaos, and merges the
/// shard journals into a [`SupervisedSweep`]. Every supervision decision
/// (launches, journal progress, chaos kills, tears, retries, stalls,
/// completions, the merge) is emitted to `observer` as a [`FleetEvent`];
/// a [`TranscriptObserver`](mpdp_telemetry::TranscriptObserver) renders
/// them as the human-readable recovery transcript, and with
/// [`NullFleetObserver`](mpdp_telemetry::NullFleetObserver) the whole
/// telemetry path — formatting included — compiles out.
///
/// `launch` is called as `launch(&plan, launch_number, journal_path)` and
/// must start a worker process that runs exactly the plan's cells into
/// that journal — normally by re-executing the current binary with hidden
/// worker flags (see [`reexec`](crate::reexec)); tests substitute shell
/// stand-ins.
///
/// # Errors
///
/// [`ShardError::Spec`] before anything launches,
/// [`ShardError::ShardFailed`] when a shard exhausts its budget (other
/// shards are still driven to completion first, so their journals remain
/// resumable), [`ShardError::Merge`] if the completed journals will not
/// recombine, and [`ShardError::Io`] for supervisor-side filesystem
/// failures.
pub fn supervise<L, O>(
    spec: &SweepSpec,
    cfg: &SuperviseConfig,
    mut launch: L,
    observer: &O,
) -> Result<SupervisedSweep, ShardError>
where
    L: FnMut(&ShardPlan, u32, &Path) -> io::Result<Child>,
    O: FleetObserver,
{
    let plans = plan_spec_shards(spec, cfg.shards).map_err(ShardError::Spec)?;
    std::fs::create_dir_all(&cfg.dir).map_err(|e| ShardError::Io {
        path: cfg.dir.display().to_string(),
        detail: e.to_string(),
    })?;

    // Seeded chaos schedule: (victim shard, record-count threshold) pairs.
    // Thresholds are strictly below the shard's cell count, so the kill
    // lands while the worker still has cells to run.
    let mut tear_pending = cfg.chaos.as_ref().is_some_and(|c| c.tear_first);
    let mut kill_plan: Vec<VecDeque<usize>> = vec![VecDeque::new(); plans.len()];
    if let Some(chaos) = &cfg.chaos {
        let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); plans.len()];
        for k in 0..chaos.kills {
            let lane = 2 * u64::from(k);
            let victim = (mix(chaos.seed, lane) % plans.len() as u64) as usize;
            let span = plans[victim].len().saturating_sub(1).max(1) as u64;
            let threshold = 1 + (mix(chaos.seed, lane + 1) % span) as usize;
            per_shard[victim].push(threshold);
        }
        for (shard, mut thresholds) in per_shard.into_iter().enumerate() {
            thresholds.sort_unstable();
            kill_plan[shard] = thresholds.into();
        }
    }

    let started = Instant::now();
    let mut shards: Vec<ShardState> = plans
        .iter()
        .map(|plan| ShardState {
            plan: *plan,
            journal: cfg.dir.join(format!("shard-{}.mpdpj", plan.index)),
            launches: 0,
            chaos_kills: 0,
            failures: Vec::new(),
            kill_at: std::mem::take(&mut kill_plan[plan.index]),
            phase: Phase::Pending { at: started },
        })
        .collect();
    let mut total_chaos_kills = 0u32;
    let mut torn = 0u32;
    // Set when a spawn fails in a way retrying cannot heal (missing or
    // non-executable binary): the poll loop stops, running children are
    // reaped, and the run fails fast.
    let mut fatal_spawn: Option<(usize, String)> = None;

    'poll: loop {
        let mut active = false;
        for s in &mut shards {
            match &mut s.phase {
                Phase::Done | Phase::Dead => continue,
                Phase::Pending { at } => {
                    active = true;
                    if Instant::now() < *at {
                        continue;
                    }
                    let attempt = s.launches;
                    // Seeded before the launch: anything the new worker
                    // writes from here on is progress.
                    let len = journal_len(&s.journal);
                    match launch(&s.plan, attempt, &s.journal) {
                        Ok(child) => {
                            s.launches += 1;
                            let pid = child.id();
                            let launch_number = s.launches;
                            emit(observer, started, Some(s.plan.index), || {
                                FleetEventKind::ShardLaunched {
                                    pid,
                                    launch: launch_number,
                                    cells_start: s.plan.start,
                                    cells_end: s.plan.end,
                                }
                            });
                            let mut tail = JournalTail::new(&s.journal, spec);
                            if O::ENABLED {
                                let cells = tail.count();
                                if cells > 0 {
                                    emit(observer, started, Some(s.plan.index), || {
                                        FleetEventKind::Resumed { cells }
                                    });
                                }
                            }
                            s.phase = Phase::Running {
                                child,
                                len,
                                tail,
                                progress_at: Instant::now(),
                                chaos_kill: false,
                                stall_kill: false,
                            };
                        }
                        Err(e) => {
                            s.launches += 1;
                            // A binary that does not exist or cannot be
                            // executed will fail every relaunch exactly
                            // the same way — backing off and retrying
                            // only delays the inevitable error. Transient
                            // spawn failures (fd/process exhaustion) stay
                            // on the retry path.
                            if matches!(
                                e.kind(),
                                io::ErrorKind::NotFound | io::ErrorKind::PermissionDenied
                            ) {
                                fatal_spawn = Some((s.plan.index, e.to_string()));
                                break 'poll;
                            }
                            s.fail(
                                ShardFailure::Spawn {
                                    detail: e.to_string(),
                                },
                                cfg,
                                observer,
                                started,
                            );
                        }
                    }
                }
                Phase::Running {
                    child,
                    len,
                    tail,
                    progress_at,
                    chaos_kill,
                    stall_kill,
                } => {
                    active = true;
                    match child.try_wait() {
                        Err(e) => {
                            let detail = e.to_string();
                            let _ = child.kill();
                            let _ = child.wait();
                            s.fail(ShardFailure::Spawn { detail }, cfg, observer, started);
                            continue;
                        }
                        Ok(Some(status)) => {
                            let was_chaos = *chaos_kill;
                            let was_stall = *stall_kill;
                            let index = s.plan.index;
                            if was_chaos {
                                if tear_pending && tear_tail(&s.journal) {
                                    tear_pending = false;
                                    torn += 1;
                                    emit(observer, started, Some(index), || {
                                        FleetEventKind::JournalTear
                                    });
                                }
                                emit(observer, started, Some(index), || {
                                    FleetEventKind::ChaosReaped
                                });
                                s.phase = Phase::Pending {
                                    at: Instant::now() + BACKOFF,
                                };
                            } else if was_stall {
                                let journaled = tail.count();
                                s.fail(ShardFailure::Stalled { journaled }, cfg, observer, started);
                            } else if status.success() {
                                let journaled = match read_shard_journal(&s.journal, spec) {
                                    Ok(records) => records
                                        .iter()
                                        .filter(|(i, _)| s.plan.range().contains(i))
                                        .count(),
                                    Err(_) => 0,
                                };
                                if journaled == s.plan.len() {
                                    if !s.kill_at.is_empty() {
                                        let remaining = s.kill_at.len();
                                        emit(observer, started, Some(index), || {
                                            FleetEventKind::ChaosSkipped { remaining }
                                        });
                                        s.kill_at.clear();
                                    }
                                    let launches = s.launches;
                                    emit(observer, started, Some(index), || {
                                        FleetEventKind::ShardDone {
                                            cells: journaled,
                                            launches,
                                        }
                                    });
                                    s.phase = Phase::Done;
                                } else {
                                    s.fail(
                                        ShardFailure::Incomplete {
                                            journaled,
                                            expected: s.plan.len(),
                                        },
                                        cfg,
                                        observer,
                                        started,
                                    );
                                }
                            } else if let Some(code) = status.code() {
                                s.fail(ShardFailure::Exited { code }, cfg, observer, started);
                            } else {
                                s.fail(
                                    ShardFailure::Crashed {
                                        signal: signal_of(&status),
                                    },
                                    cfg,
                                    observer,
                                    started,
                                );
                            }
                        }
                        Ok(None) => {
                            // Still running. Journal growth is progress:
                            // chaos thresholds first, then the heartbeat
                            // event; an unchanged length ages the stall
                            // watchdog.
                            let now_len = journal_len(&s.journal);
                            if now_len != *len {
                                *len = now_len;
                                *progress_at = Instant::now();
                                if O::ENABLED || !s.kill_at.is_empty() {
                                    let journaled = tail.count();
                                    let index = s.plan.index;
                                    if let Some(&threshold) =
                                        s.kill_at.front().filter(|&&t| journaled >= t)
                                    {
                                        s.kill_at.pop_front();
                                        let _ = child.kill();
                                        *chaos_kill = true;
                                        s.chaos_kills += 1;
                                        total_chaos_kills += 1;
                                        emit(observer, started, Some(index), || {
                                            FleetEventKind::ChaosKill {
                                                journaled,
                                                threshold,
                                            }
                                        });
                                        continue;
                                    }
                                    emit(observer, started, Some(index), || {
                                        FleetEventKind::Heartbeat { journaled }
                                    });
                                }
                            } else if progress_at.elapsed() > cfg.stall_timeout {
                                let _ = child.kill();
                                *stall_kill = true;
                                emit(observer, started, Some(s.plan.index), || {
                                    FleetEventKind::Stalled {
                                        timeout: cfg.stall_timeout,
                                    }
                                });
                            }
                        }
                    }
                }
            }
        }
        if !active {
            break;
        }
        std::thread::sleep(POLL_INTERVAL);
    }

    if let Some((shard, detail)) = fatal_spawn {
        // Reap whatever is still running — their journals keep every
        // completed cell, so fixing the command and rerunning resumes.
        for s in &mut shards {
            if let Phase::Running { child, .. } = &mut s.phase {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
        return Err(ShardError::SpawnFailed { shard, detail });
    }

    let reports: Vec<ShardReport> = shards
        .iter()
        .map(|s| ShardReport {
            plan: s.plan,
            journal: s.journal.clone(),
            launches: s.launches,
            chaos_kills: s.chaos_kills,
            failures: s.failures.clone(),
            outcome: if matches!(s.phase, Phase::Done) {
                ShardOutcome::Completed
            } else {
                ShardOutcome::Failed(s.failures.last().cloned().unwrap_or(ShardFailure::Spawn {
                    detail: "never launched".to_string(),
                }))
            },
        })
        .collect();

    if let Some(failed) = reports
        .iter()
        .find(|r| matches!(r.outcome, ShardOutcome::Failed(_)))
    {
        let ShardOutcome::Failed(failure) = failed.outcome.clone() else {
            unreachable!("filtered on Failed");
        };
        return Err(ShardError::ShardFailed {
            shard: failed.plan.index,
            failure,
            launches: failed.launches,
        });
    }

    let journals: Vec<PathBuf> = reports.iter().map(|r| r.journal.clone()).collect();
    emit(observer, started, None, || FleetEventKind::MergeStarted {
        journals: journals.len(),
    });
    let report = merge_journal_files(spec, &journals)?;
    emit(observer, started, None, || FleetEventKind::MergeDone {
        journals: journals.len(),
        cells: report.cells.len(),
        chaos_kills: total_chaos_kills,
        torn,
    });
    Ok(SupervisedSweep {
        report,
        shards: reports,
        chaos_kills: total_chaos_kills,
        torn,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdp_sweep::{run_cell, spec_fingerprint, CellResult, CellSpec, Journal, SweepSpec};
    use mpdp_telemetry::{FleetRecorder, TranscriptObserver};
    use std::process::{ChildStdin, Command, Stdio};

    /// A 9-cell grid (3 procs × 3 utilizations × 1 seed × 1 knob).
    fn spec() -> SweepSpec {
        let mut spec = SweepSpec::figure4();
        spec.seeds = vec![0];
        spec
    }

    fn tempdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mpdp-sup-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cfg_in(dir: PathBuf) -> SuperviseConfig {
        SuperviseConfig::default().with_dir(dir)
    }

    /// Completes `plan`'s cells in its journal in-process, then returns a
    /// trivially-succeeding child. The supervisor cannot tell this from a
    /// real worker: the journal is the protocol.
    fn fill_journal(spec: &SweepSpec, plan: &ShardPlan, journal: &Path) {
        let cells = spec.cells();
        let j = Journal::open(journal, spec).expect("journal opens");
        let done = j.recovered().clone();
        for index in plan.range() {
            if done.contains_key(&index) {
                continue;
            }
            let result = run_cell(spec, &cells[index]).expect("cell runs");
            j.append(spec.cell_stream(&cells[index]), &result)
                .expect("appends");
        }
    }

    fn sh(script: &str) -> io::Result<Child> {
        Command::new("sh").arg("-c").arg(script).spawn()
    }

    #[test]
    fn happy_path_supervises_and_merges_byte_identically() {
        let spec = spec();
        let golden = mpdp_sweep::run_sweep(&spec, 1).expect("golden");
        let dir = tempdir("happy");
        let cfg = cfg_in(dir.clone()).with_shards(3);
        let mut transcript = Vec::new();
        let sup = supervise(
            &spec,
            &cfg,
            |plan, _attempt, journal| {
                fill_journal(&spec, plan, journal);
                sh("true")
            },
            &TranscriptObserver::new(|line: &str| transcript.push(line.to_string())),
        )
        .expect("supervised run completes");
        assert_eq!(sup.shards.len(), 3);
        assert!(sup
            .shards
            .iter()
            .all(|s| s.outcome == ShardOutcome::Completed && s.launches == 1));
        assert_eq!(
            mpdp_sweep::cells_csv(&golden),
            mpdp_sweep::cells_csv(&sup.report)
        );
        assert_eq!(
            mpdp_sweep::report_json(&golden),
            mpdp_sweep::report_json(&sup.report)
        );
        assert!(transcript.iter().any(|l| l.contains("completed")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crashed_worker_is_retried_and_the_run_still_completes() {
        let spec = spec();
        let dir = tempdir("crash");
        let cfg = cfg_in(dir.clone()).with_shards(1).with_retries(2);
        let mut transcript = Vec::new();
        let sup = supervise(
            &spec,
            &cfg,
            |plan, attempt, journal| {
                if attempt == 0 {
                    // First launch dies by SIGKILL before journaling.
                    sh("kill -9 $$")
                } else {
                    fill_journal(&spec, plan, journal);
                    sh("true")
                }
            },
            &TranscriptObserver::new(|line: &str| transcript.push(line.to_string())),
        )
        .expect("retry recovers the crash");
        assert_eq!(sup.shards[0].launches, 2);
        assert_eq!(
            sup.shards[0].failures,
            vec![ShardFailure::Crashed { signal: Some(9) }]
        );
        assert!(transcript.iter().any(|l| l.contains("killed by signal 9")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stalled_worker_is_killed_and_retried() {
        let spec = spec();
        let dir = tempdir("stall");
        let cfg = cfg_in(dir.clone())
            .with_shards(1)
            .with_retries(1)
            .with_stall_timeout(Duration::from_millis(40));
        let sup = supervise(
            &spec,
            &cfg,
            |plan, attempt, journal| {
                if attempt == 0 {
                    // Never journals, never exits: a hang.
                    sh("sleep 30")
                } else {
                    fill_journal(&spec, plan, journal);
                    sh("true")
                }
            },
            &TranscriptObserver::new(|_: &str| {}),
        )
        .expect("watchdog breaks the hang");
        assert_eq!(sup.shards[0].launches, 2);
        assert_eq!(
            sup.shards[0].failures,
            vec![ShardFailure::Stalled { journaled: 0 }]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exhausted_retries_surface_the_failed_shard() {
        let spec = spec();
        let dir = tempdir("dead");
        let cfg = cfg_in(dir.clone()).with_shards(2).with_retries(1);
        let err = supervise(
            &spec,
            &cfg,
            |plan, _attempt, journal| {
                if plan.index == 1 {
                    sh("exit 9")
                } else {
                    fill_journal(&spec, plan, journal);
                    sh("true")
                }
            },
            &TranscriptObserver::new(|_: &str| {}),
        )
        .expect_err("shard 1 must fail");
        match err {
            ShardError::ShardFailed {
                shard,
                failure,
                launches,
            } => {
                assert_eq!(shard, 1);
                assert_eq!(failure, ShardFailure::Exited { code: 9 });
                assert_eq!(launches, 2, "retries + 1 launches");
            }
            other => panic!("expected ShardFailed, got {other}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_worker_binary_fails_fast_without_burning_the_backoff_budget() {
        let spec = spec();
        let dir = tempdir("no-binary");
        // A generous budget: a supervisor that treated a missing binary
        // as retryable would sit through 50 + 100 + 200 + … ms of
        // pointless backoff before dying.
        let cfg = cfg_in(dir.clone()).with_shards(2).with_retries(10);
        let started = std::time::Instant::now();
        let err = supervise(
            &spec,
            &cfg,
            |_plan, _attempt, _journal| Command::new("/nonexistent/mpdp-no-such-worker").spawn(),
            &TranscriptObserver::new(|_: &str| {}),
        )
        .expect_err("spawn must fail");
        match err {
            ShardError::SpawnFailed { detail, .. } => {
                assert!(
                    started.elapsed() < Duration::from_secs(1),
                    "fail-fast must not wait out the backoff schedule"
                );
                assert!(!detail.is_empty(), "carries the OS diagnosis");
            }
            other => panic!("expected SpawnFailed, got {other}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_spawn_errors_stay_on_the_retry_path() {
        let spec = spec();
        let dir = tempdir("transient-spawn");
        let cfg = cfg_in(dir.clone()).with_shards(1).with_retries(1);
        let mut attempts = 0;
        let sup = supervise(
            &spec,
            &cfg,
            |plan, attempt, journal| {
                attempts += 1;
                if attempt == 0 {
                    // e.g. momentary fd/process exhaustion: worth retrying.
                    Err(io::Error::other("resource temporarily unavailable"))
                } else {
                    fill_journal(&spec, plan, journal);
                    sh("true")
                }
            },
            &TranscriptObserver::new(|_: &str| {}),
        )
        .expect("retry succeeds after the transient spawn error");
        assert_eq!(attempts, 2);
        assert!(matches!(
            sup.shards[0].failures.as_slice(),
            [ShardFailure::Spawn { .. }]
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_exit_with_a_short_journal_counts_as_a_failure() {
        let spec = spec();
        let dir = tempdir("short");
        let cfg = cfg_in(dir.clone()).with_shards(1).with_retries(1);
        let sup = supervise(
            &spec,
            &cfg,
            |plan, attempt, journal| {
                if attempt == 0 {
                    // Journals all but the last cell, then lies with exit 0.
                    let partial = ShardPlan {
                        end: plan.end - 1,
                        ..*plan
                    };
                    fill_journal(&spec, &partial, journal);
                } else {
                    fill_journal(&spec, plan, journal);
                }
                sh("true")
            },
            &TranscriptObserver::new(|_: &str| {}),
        )
        .expect("retry completes the journal");
        assert_eq!(
            sup.shards[0].failures,
            vec![ShardFailure::Incomplete {
                journaled: 8,
                expected: 9
            }]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_kill_and_torn_journal_recover_without_spending_the_budget() {
        let spec = spec();
        let golden = mpdp_sweep::run_sweep(&spec, 1).expect("golden");
        let dir = tempdir("chaos");
        // retries 0: any organic failure would abort, proving the chaos
        // kill and the torn journal are exempt from the budget. The torn
        // journal shows up as one extra Incomplete? No — the relaunched
        // worker (fill_journal) completes the missing cells before exit,
        // so no organic failure occurs at all.
        let cfg = cfg_in(dir.clone())
            .with_shards(1)
            .with_retries(0)
            .with_chaos(ChaosPlan::new(1, 0xC0FFEE).with_tear());
        let mut transcript = Vec::new();
        let sup = supervise(
            &spec,
            &cfg,
            |plan, attempt, journal| {
                // First launch journals everything, then hangs: the chaos
                // kill always lands mid-"run". The relaunch repairs the
                // torn tail and exits cleanly.
                fill_journal(&spec, plan, journal);
                if attempt == 0 {
                    sh("sleep 30")
                } else {
                    sh("true")
                }
            },
            &TranscriptObserver::new(|line: &str| transcript.push(line.to_string())),
        )
        .expect("chaos victim recovers");
        assert_eq!(sup.chaos_kills, 1);
        assert_eq!(sup.torn, 1);
        assert!(sup.shards[0].failures.is_empty(), "{:?}", sup.shards[0]);
        assert!(sup.shards[0].launches >= 2);
        assert_eq!(
            mpdp_sweep::cells_csv(&golden),
            mpdp_sweep::cells_csv(&sup.report)
        );
        assert_eq!(
            mpdp_sweep::report_json(&golden),
            mpdp_sweep::report_json(&sup.report)
        );
        assert!(transcript.iter().any(|l| l.contains("chaos SIGKILL")));
        assert!(transcript.iter().any(|l| l.contains("torn mid-record")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journals_persist_for_resume_across_supervisor_restarts() {
        let spec = spec();
        let dir = tempdir("restart");
        let cfg = cfg_in(dir.clone()).with_shards(1).with_retries(0);
        // First supervision run completes and leaves the journal behind.
        supervise(
            &spec,
            &cfg,
            |plan, _a, journal| {
                fill_journal(&spec, plan, journal);
                sh("true")
            },
            &TranscriptObserver::new(|_: &str| {}),
        )
        .expect("first run");
        // A second supervisor over the same dir needs no cell work at all:
        // its worker (a bare `true`) exits instantly and the journal
        // already covers the range.
        let sup = supervise(
            &spec,
            &cfg,
            |_p, _a, _j| sh("true"),
            &TranscriptObserver::new(|_: &str| {}),
        )
        .expect("restart resumes from journals");
        assert_eq!(sup.shards[0].launches, 1);
        assert_eq!(sup.report.cells.len(), spec.cell_count());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_record_counter_ignores_torn_tails() {
        let spec = spec();
        let dir = tempdir("records");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("j.mpdpj");
        let count = || JournalTail::new(&path, &spec).count();
        assert_eq!(count(), 0, "missing file");
        let plan = ShardPlan {
            index: 0,
            count: 1,
            start: 0,
            end: 3,
        };
        fill_journal(&spec, &plan, &path);
        assert_eq!(count(), 3);
        assert!(tear_tail(&path));
        assert_eq!(count(), 2, "torn record no longer counts");
        // Sanity: the torn journal still opens and recovers the prefix.
        let j = Journal::open(&path, &spec).expect("recovery");
        assert_eq!(j.recovered().len(), 2);
        assert_eq!(spec_fingerprint(&spec), spec_fingerprint(&spec));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every cell of `spec`, run once up front so a stand-in worker can
    /// append records at a chosen pace.
    fn precomputed(spec: &SweepSpec) -> Vec<(CellSpec, CellResult)> {
        spec.cells()
            .into_iter()
            .map(|cell| {
                let result = run_cell(spec, &cell).expect("cell runs");
                (cell, result)
            })
            .collect()
    }

    /// A stand-in worker process that runs until its stdin closes: the
    /// returned handle is the only thing keeping it alive.
    fn held_child() -> io::Result<(Child, ChildStdin)> {
        let mut child = Command::new("sh")
            .arg("-c")
            .arg("cat >/dev/null")
            .stdin(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        Ok((child, stdin))
    }

    /// Appends the records `journal` lacks, `spacing` apart — a worker
    /// whose only output is its journal.
    fn append_paced(
        spec: &SweepSpec,
        journal: &Path,
        records: &[(CellSpec, CellResult)],
        spacing: Duration,
    ) {
        let j = Journal::open(journal, spec).expect("journal opens");
        let done = j.recovered().clone();
        for (cell, result) in records.iter().filter(|(c, _)| !done.contains_key(&c.index)) {
            std::thread::sleep(spacing);
            j.append(spec.cell_stream(cell), result).expect("appends");
        }
    }

    #[test]
    fn a_journal_only_worker_is_never_stall_killed() {
        let spec = spec();
        let records = precomputed(&spec);
        let dir = tempdir("journal-only");
        let stall = Duration::from_millis(400);
        // Appends land a fifth of the stall deadline apart, and the whole
        // fill outlasts the deadline: only journal growth keeps it alive.
        let spacing = stall / 5;
        assert!(spacing * records.len() as u32 >= stall * 3 / 2);
        let cfg = cfg_in(dir.clone())
            .with_shards(1)
            .with_retries(0)
            .with_stall_timeout(stall);
        let sup = std::thread::scope(|scope| {
            supervise(
                &spec,
                &cfg,
                |_plan, _attempt, journal| {
                    let (child, stdin) = held_child()?;
                    let journal = journal.to_path_buf();
                    let (spec, records) = (&spec, &records);
                    scope.spawn(move || {
                        append_paced(spec, &journal, records, spacing);
                        drop(stdin);
                    });
                    Ok(child)
                },
                &TranscriptObserver::new(|_: &str| {}),
            )
        })
        .expect("journal growth keeps the worker alive");
        assert_eq!(sup.shards[0].launches, 1);
        assert!(sup.shards[0].failures.is_empty(), "{:?}", sup.shards[0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeats_after_a_relaunch_count_the_whole_journal() {
        let spec = spec();
        let records = precomputed(&spec);
        let dir = tempdir("relaunch-beats");
        let cfg = cfg_in(dir.clone()).with_shards(1).with_retries(1);
        let recorder = FleetRecorder::new();
        let full = FleetEventKind::Heartbeat {
            journaled: spec.cell_count(),
        };
        let sup = std::thread::scope(|scope| {
            supervise(
                &spec,
                &cfg,
                |plan, attempt, journal| {
                    if attempt == 0 {
                        // Journals 4 cells, then crashes.
                        let partial = ShardPlan {
                            end: plan.start + 4,
                            ..*plan
                        };
                        fill_journal(&spec, &partial, journal);
                        return sh("kill -9 $$");
                    }
                    let (child, stdin) = held_child()?;
                    let journal = journal.to_path_buf();
                    let (spec, records, recorder, full) = (&spec, &records, &recorder, &full);
                    scope.spawn(move || {
                        append_paced(spec, &journal, records, Duration::from_millis(30));
                        // Exit once the supervisor has reported the full
                        // journal (bounded, so a missing beat fails the
                        // assertions below instead of hanging).
                        let deadline = Instant::now() + Duration::from_secs(2);
                        while Instant::now() < deadline
                            && !recorder.events().iter().any(|e| e.kind == *full)
                        {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        drop(stdin);
                    });
                    Ok(child)
                },
                &recorder,
            )
        })
        .expect("the relaunch completes the shard");
        assert_eq!(sup.shards[0].launches, 2);
        let events = recorder.events();
        let relaunch = events
            .iter()
            .position(|e| matches!(e.kind, FleetEventKind::ShardLaunched { launch: 2, .. }))
            .expect("relaunched");
        let after = &events[relaunch..];
        let resumed = after
            .iter()
            .find_map(|e| match e.kind {
                FleetEventKind::Resumed { cells } => Some(cells),
                _ => None,
            })
            .expect("the relaunch resumes the crashed journal");
        assert_eq!(resumed, 4);
        let beats: Vec<usize> = after
            .iter()
            .filter_map(|e| match e.kind {
                FleetEventKind::Heartbeat { journaled } => Some(journaled),
                _ => None,
            })
            .collect();
        assert!(beats.iter().all(|&b| b >= resumed), "{beats:?}");
        assert_eq!(beats.last(), Some(&spec.cell_count()), "{beats:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
