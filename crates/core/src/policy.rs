//! The Multiprocessor Dual Priority (MPDP) scheduling policy as a pure,
//! platform-independent state machine.
//!
//! Both the theoretical simulator and the prototype microkernel drive this
//! same state machine — exactly as the paper's theoretical simulator "adopts
//! the same approach of the scheduling kernel of the target architecture".
//! The state machine owns the job bookkeeping and the four queue kinds; the
//! caller owns *time* and *work* (when releases, promotions, and completions
//! happen, and how fast jobs progress, which is where overheads and
//! contention enter).
//!
//! Queue discipline (paper §4.1–4.2):
//!
//! * unpromoted periodic jobs sit in the global Periodic Ready Queue at their
//!   fixed lower-band priority and may execute on *any* processor;
//! * aperiodic jobs sit in the global Aperiodic Ready Queue in FIFO order
//!   (middle band — they beat unpromoted periodics);
//! * at its promotion time a periodic job moves to the High Priority Local
//!   Ready Queue of its design-time processor and from then on runs only
//!   there (upper band — it beats everything else);
//! * a processor with pending promoted work may not serve the global queues.
//!
//! Jobs remain in their queue while running; the `running` map is a view
//! saying which queued job each processor currently executes. This makes
//! [`MpdpPolicy::assign_into`] a pure function of queue contents.
//!
//! The scheduling primitives the simulators call on every event
//! ([`Scheduler::release_due_into`], [`Scheduler::promote_due_into`],
//! [`Scheduler::assign_into`], [`Scheduler::diff_into`]) fill buffers the
//! caller owns and reuses, so a scheduling pass allocates nothing, and
//! every scan over jobs covers only the live ones.
//!
//! # Examples
//!
//! ```
//! use mpdp_core::policy::MpdpPolicy;
//! use mpdp_core::task::{PeriodicTask, AperiodicTask, TaskTable};
//! use mpdp_core::rta::build_task_table;
//! use mpdp_core::time::Cycles;
//! use mpdp_core::ids::TaskId;
//! use mpdp_core::priority::Priority;
//!
//! # fn main() -> Result<(), mpdp_core::error::TaskSetError> {
//! let t0 = PeriodicTask::new(TaskId::new(0), "t0", Cycles::new(10), Cycles::new(100))
//!     .with_priorities(Priority::new(0), Priority::new(3));
//! let table = build_task_table(vec![t0], vec![], 1)?;
//! let mut policy = MpdpPolicy::new(table);
//! let released = policy.release_due(Cycles::ZERO);
//! assert_eq!(released.len(), 1);
//! let desired = policy.assign();
//! assert_eq!(desired[0], Some(released[0]));
//! # Ok(())
//! # }
//! ```

use std::fmt;
use std::sync::Arc;

use crate::ids::{JobId, ProcId, TaskId};
use crate::priority::Priority;
use crate::queue::{
    AperiodicReadyQueue, HighPrioLocalQueue, PeriodicReadyQueue, WaitingPeriodicQueue,
};
use crate::rta;
use crate::task::{PeriodicTask, TaskTable};
use crate::time::Cycles;

/// Whether a job is an activation of a periodic or an aperiodic task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobClass {
    /// Activation of `table.periodic()[task_index]`.
    Periodic {
        /// Index into [`TaskTable::periodic`].
        task_index: usize,
    },
    /// Activation of `table.aperiodic()[task_index]`.
    Aperiodic {
        /// Index into [`TaskTable::aperiodic`].
        task_index: usize,
    },
}

/// Runtime record of one job (one activation of a task).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// This job's id.
    pub id: JobId,
    /// Periodic or aperiodic, and which task.
    pub class: JobClass,
    /// Nominal release instant (for periodic jobs, the theoretical release,
    /// even if the scheduler only noticed it at a later tick).
    pub release: Cycles,
    /// Absolute deadline (`release + D`); `None` for soft aperiodic jobs.
    pub absolute_deadline: Option<Cycles>,
    /// Absolute promotion instant; `None` for aperiodic jobs and for jobs
    /// already promoted.
    pub promotion_at: Option<Cycles>,
    /// Whether the job has been promoted to the upper band.
    pub promoted: bool,
    /// Last processor this job executed on (`None` if it never ran) — used
    /// for migration-avoiding assignment.
    pub last_proc: Option<ProcId>,
}

impl Job {
    /// Whether this is a periodic (hard) job.
    pub fn is_periodic(&self) -> bool {
        matches!(self.class, JobClass::Periodic { .. })
    }
}

/// One context-switch decision produced by diffing the current running map
/// against a desired assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchAction {
    /// The processor whose task changes.
    pub proc: ProcId,
    /// The job it was running (to be saved), if any.
    pub save: Option<JobId>,
    /// The job it should run next (to be restored), if any.
    pub restore: Option<JobId>,
}

impl fmt::Display for SwitchAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.save, self.restore) {
            (Some(s), Some(r)) => write!(f, "{}: {} -> {}", self.proc, s, r),
            (Some(s), None) => write!(f, "{}: {} -> idle", self.proc, s),
            (None, Some(r)) => write!(f, "{}: idle -> {}", self.proc, r),
            (None, None) => write!(f, "{}: idle", self.proc),
        }
    }
}

/// What the scheduler does with a job caught exceeding its execution budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverrunAction {
    /// Let the job finish and only log the violation (the paper's implicit
    /// behaviour — WCETs are trusted).
    #[default]
    RunToCompletion,
    /// Abort the job immediately; the task's next activation is unaffected.
    Kill,
    /// Strip the job's promotion and park it at the bottom of the lower
    /// band, where it can only consume slack.
    Demote,
}

/// Graceful-degradation configuration: how the scheduler detects and reacts
/// to misbehaviour at runtime. The default polices nothing, which is the
/// fault-free fast path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationPolicy {
    /// Budget-overrun response; `None` disables budget enforcement.
    pub overrun: Option<OverrunAction>,
    /// Budget as a multiple of the task's WCET (`1.0` = exactly the WCET;
    /// the prototype typically allows its offline analysis margin).
    pub budget_margin: f64,
    /// Maximum Aperiodic Ready Queue length before new aperiodic arrivals
    /// are shed; `None` disables shedding.
    pub shed_limit: Option<usize>,
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        DegradationPolicy {
            overrun: None,
            budget_margin: 1.0,
            shed_limit: None,
        }
    }
}

impl DegradationPolicy {
    /// Enables budget enforcement with the given action.
    pub fn with_overrun(mut self, action: OverrunAction) -> Self {
        self.overrun = Some(action);
        self
    }

    /// Sets the budget margin.
    pub fn with_budget_margin(mut self, margin: f64) -> Self {
        self.budget_margin = margin;
        self
    }

    /// Enables aperiodic shedding beyond `limit` queued jobs.
    pub fn with_shed_limit(mut self, limit: usize) -> Self {
        self.shed_limit = Some(limit);
        self
    }

    /// `true` if this policy never intervenes (pure fault-free behaviour).
    pub fn is_inert(&self) -> bool {
        self.overrun.is_none() && self.shed_limit.is_none()
    }
}

/// What the scheduler did about a processor fail-stop: which tasks were
/// re-homed and how many of the periodic tasks remain guaranteed after the
/// online re-admission analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct FailoverReport {
    /// The processor that died.
    pub proc: ProcId,
    /// Instant the scheduler acted.
    pub at: Cycles,
    /// The job that was executing on the dead processor, if any; the caller
    /// decides how to record its loss (typically via `kill_job`).
    pub lost: Option<JobId>,
    /// Periodic tasks re-homed off the dead processor, in table order.
    pub moved: Vec<TaskId>,
    /// Periodic tasks whose deadlines remain guaranteed by the re-run
    /// response-time analysis.
    pub guaranteed: usize,
    /// Total periodic tasks.
    pub total: usize,
}

/// The interface a scheduling policy presents to the simulators.
///
/// Both the theoretical and the prototype simulator drive a policy through
/// this trait, so alternative policies (the baselines in `mpdp-analysis`)
/// can be swapped in for ablation studies. The policy owns job bookkeeping
/// and queue state; the driver owns time and work progress.
pub trait Scheduler {
    /// The task table being executed.
    fn table(&self) -> &TaskTable;
    /// Number of processors.
    fn n_procs(&self) -> usize;
    /// The record of a live job.
    ///
    /// # Panics
    ///
    /// Implementations panic if `id` is not live.
    fn job(&self, id: JobId) -> &Job;
    /// Releases periodic tasks due at or before `now`, replacing the
    /// contents of `out` with the new job ids.
    fn release_due_into(&mut self, now: Cycles, out: &mut Vec<JobId>);
    /// Releases an aperiodic job (ISR path).
    fn release_aperiodic(&mut self, task_index: usize, now: Cycles) -> JobId;
    /// Applies promotions due at or before `now` (no-op for single-band
    /// policies), replacing the contents of `out` with the promoted job ids
    /// in ascending id order.
    fn promote_due_into(&mut self, now: Cycles, out: &mut Vec<JobId>);
    /// Earliest pending promotion instant, if the policy promotes.
    fn next_promotion_time(&self) -> Option<Cycles>;
    /// Earliest parked periodic release.
    fn next_release_time(&self) -> Option<Cycles>;
    /// Records which job a processor executes.
    fn set_running(&mut self, proc: ProcId, job: Option<JobId>);
    /// The current running map.
    fn running(&self) -> &[Option<JobId>];
    /// Completes a job, returning its final record.
    fn complete(&mut self, id: JobId, now: Cycles) -> Job;
    /// Replaces the contents of `desired` with the processor → job
    /// assignment this policy wants, one slot per processor.
    fn assign_into(&self, desired: &mut Vec<Option<JobId>>);
    /// Local pick for a single idle processor (completion path).
    fn pick_for_idle(&self, proc: ProcId) -> Option<JobId>;
    /// Notification that `job` executed for `amount` of work ending at
    /// `now`; used by budget-based policies (polling servers). Default:
    /// no-op.
    fn on_progress(&mut self, job: JobId, amount: Cycles, now: Cycles) {
        let _ = (job, amount, now);
    }

    /// The next instant at which this policy's internal state changes on its
    /// own (e.g. a server budget replenishment). Simulators wake up and run
    /// a scheduling pass at this instant. Default: never.
    fn next_internal_event(&self) -> Option<Cycles> {
        None
    }

    /// The graceful-degradation configuration in force. Default: inert.
    fn degradation(&self) -> DegradationPolicy {
        DegradationPolicy::default()
    }

    /// Whether a processor is still alive (has not fail-stopped). Default:
    /// always alive.
    fn is_alive(&self, proc: ProcId) -> bool {
        let _ = proc;
        true
    }

    /// Releases an aperiodic job unless the degradation policy sheds it
    /// (overload protection). `None` means the arrival was shed and no job
    /// exists. Default: never sheds.
    fn try_release_aperiodic(&mut self, task_index: usize, now: Cycles) -> Option<JobId> {
        Some(self.release_aperiodic(task_index, now))
    }

    /// Scans live hard-deadline jobs for deadline misses at a scheduling
    /// tick; each miss is reported exactly once. Default: detects nothing
    /// (single-band policies that predate the fault subsystem).
    fn detect_missed(&mut self, now: Cycles) -> Vec<JobId> {
        let _ = now;
        Vec::new()
    }

    /// Aborts a job (budget-overrun kill). Equivalent to completion as far
    /// as queue bookkeeping goes; the caller records the abort. Default:
    /// delegates to [`Scheduler::complete`].
    fn kill_job(&mut self, id: JobId, now: Cycles) -> Job {
        self.complete(id, now)
    }

    /// Strips a job's promotion and parks it at the bottom of the lower
    /// band (budget-overrun demotion). Default: no-op.
    fn demote_job(&mut self, id: JobId) {
        let _ = id;
    }

    /// Handles a processor fail-stop at `now`: marks it dead, re-homes its
    /// task partition, and re-runs the admission analysis online. Default:
    /// records nothing and guarantees nothing (policies without a failover
    /// path).
    fn fail_processor(&mut self, proc: ProcId, now: Cycles) -> FailoverReport {
        FailoverReport {
            proc,
            at: now,
            lost: None,
            moved: Vec::new(),
            guaranteed: 0,
            total: self.table().periodic().len(),
        }
    }

    /// `(guaranteed, total)` periodic tasks under the current (possibly
    /// degraded) analysis. Default: everything the table admitted.
    fn guaranteed_tasks(&self) -> (usize, usize) {
        let total = self.table().periodic().len();
        (total, total)
    }

    /// Diffs the current running map against a desired assignment,
    /// replacing the contents of `actions` with a context-switch action for
    /// every processor whose job changes. Processors already running their
    /// desired job produce no action ("the processor is not interrupted and
    /// can continue its work").
    fn diff_into(&self, desired: &[Option<JobId>], actions: &mut Vec<SwitchAction>) {
        assert_eq!(desired.len(), self.n_procs(), "one slot per processor");
        actions.clear();
        for (p, (cur, want)) in self.running().iter().zip(desired).enumerate() {
            if cur != want {
                actions.push(SwitchAction {
                    proc: ProcId::new(p as u32),
                    save: *cur,
                    restore: *want,
                });
            }
        }
    }
}

/// The MPDP scheduling state machine.
///
/// See the [module documentation](self) for the queue discipline and the
/// division of labour between the policy and its caller.
#[derive(Debug, Clone)]
pub struct MpdpPolicy {
    /// The analyzed table, shared: a sweep hands every cell of a
    /// `(workload, procs)` coordinate the same `Arc`, so constructing a
    /// policy never deep-copies the task set. The policy itself only
    /// writes to it on [`MpdpPolicy::fail_processor`] (online
    /// re-admission), which clones-on-write via [`Arc::make_mut`] and so
    /// never perturbs other cells sharing the allocation.
    table: Arc<TaskTable>,
    /// Every job ever released, indexed by id; `None` once retired.
    jobs: Vec<Option<Job>>,
    /// Ids of the live (`Some`) entries of `jobs`, ascending. Every scan
    /// over jobs walks this index, so its cost follows the live set rather
    /// than the number of jobs ever released.
    live: Vec<JobId>,
    /// Nominal next release per periodic task.
    next_release: Vec<Cycles>,
    wpq: WaitingPeriodicQueue,
    prq: PeriodicReadyQueue,
    arq: AperiodicReadyQueue,
    hplrq: Vec<HighPrioLocalQueue>,
    running: Vec<Option<JobId>>,
    degradation: DegradationPolicy,
    /// Liveness per processor; a fail-stopped processor never runs again.
    alive: Vec<bool>,
    /// Deadline-miss flag per job index, so each miss is reported once.
    miss_seen: Vec<bool>,
    /// Per periodic task: does the current (possibly degraded) analysis
    /// still guarantee its deadline? Initially `promotion < deadline`, i.e.
    /// the task has upper-band protection before its deadline; recomputed by
    /// [`MpdpPolicy::fail_processor`].
    guaranteed: Vec<bool>,
    /// Mutation-campaign injection point (`StaleTableAfterFailover`): when
    /// armed, [`MpdpPolicy::fail_processor`] re-homes the dead partition
    /// but skips the online re-admission analysis, leaving stale promotion
    /// offsets and pre-failure guarantees in the table.
    #[cfg(any(test, feature = "mutation"))]
    stale_failover: bool,
}

impl MpdpPolicy {
    /// Creates the initial state: every periodic task parked in the Waiting
    /// Periodic Queue at its first-release offset; all processors idle.
    pub fn new(table: impl Into<Arc<TaskTable>>) -> Self {
        let table = table.into();
        let n_procs = table.n_procs();
        let mut wpq = WaitingPeriodicQueue::new();
        let mut next_release = Vec::with_capacity(table.periodic().len());
        for (i, t) in table.periodic().iter().enumerate() {
            wpq.push(i, t.offset());
            next_release.push(t.offset());
        }
        let guaranteed = table
            .periodic()
            .iter()
            .enumerate()
            .map(|(i, t)| table.promotion(i) < t.deadline())
            .collect();
        MpdpPolicy {
            table,
            jobs: Vec::new(),
            live: Vec::new(),
            next_release,
            wpq,
            prq: PeriodicReadyQueue::new(),
            arq: AperiodicReadyQueue::new(),
            hplrq: (0..n_procs).map(|_| HighPrioLocalQueue::new()).collect(),
            running: vec![None; n_procs],
            degradation: DegradationPolicy::default(),
            alive: vec![true; n_procs],
            miss_seen: Vec::new(),
            guaranteed,
            #[cfg(any(test, feature = "mutation"))]
            stale_failover: false,
        }
    }

    /// Sets the graceful-degradation configuration.
    pub fn with_degradation(mut self, degradation: DegradationPolicy) -> Self {
        self.degradation = degradation;
        self
    }

    /// Arms the `StaleTableAfterFailover` mutant: [`Self::fail_processor`]
    /// will re-home the dead processor's partition but skip the online
    /// re-admission analysis, so the table keeps its pre-failure promotion
    /// offsets and guarantees. Mutation-campaign injection point — never
    /// compiled into production builds.
    #[cfg(any(test, feature = "mutation"))]
    pub fn with_stale_failover(mut self) -> Self {
        self.stale_failover = true;
        self
    }

    /// The task table this policy executes.
    pub fn table(&self) -> &TaskTable {
        &self.table
    }

    /// Number of processors.
    pub fn n_procs(&self) -> usize {
        self.running.len()
    }

    /// The job record for a live job.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to a live job.
    pub fn job(&self, id: JobId) -> &Job {
        self.jobs[id.index()]
            .as_ref()
            .expect("job id refers to a completed or unknown job")
    }

    /// The job a processor currently executes, if any.
    pub fn running_on(&self, proc: ProcId) -> Option<JobId> {
        self.running[proc.index()]
    }

    /// The current running map, indexed by processor.
    pub fn running(&self) -> &[Option<JobId>] {
        &self.running
    }

    /// Ids of all live jobs (queued or running), ascending.
    pub fn live_jobs(&self) -> impl Iterator<Item = JobId> + '_ {
        self.live.iter().copied()
    }

    /// The records of all live jobs, in ascending id order.
    fn live_records(&self) -> impl Iterator<Item = &Job> + '_ {
        self.live.iter().map(|id| self.job(*id))
    }

    /// [`Self::release_due_into`] into a fresh `Vec`.
    pub fn release_due(&mut self, now: Cycles) -> Vec<JobId> {
        let mut out = Vec::new();
        self.release_due_into(now, &mut out);
        out
    }

    /// Releases every periodic task whose nominal release time is `≤ now`,
    /// creating jobs in the Periodic Ready Queue, and replaces the contents
    /// of `out` with the new job ids.
    ///
    /// Deadlines and promotion instants are computed from the *nominal*
    /// release, so a scheduler that only checks at ticks (like the paper's
    /// prototype) does not gain slack by noticing releases late.
    pub fn release_due_into(&mut self, now: Cycles, out: &mut Vec<JobId>) {
        out.clear();
        for task_index in self.wpq.pop_due(now) {
            let release = self.next_release[task_index];
            let spec = &self.table.periodic()[task_index];
            let job_id = JobId::new(self.jobs.len() as u32);
            let job = Job {
                id: job_id,
                class: JobClass::Periodic { task_index },
                release,
                absolute_deadline: Some(release + spec.deadline()),
                promotion_at: Some(release + self.table.promotion(task_index)),
                promoted: false,
                last_proc: None,
            };
            self.jobs.push(Some(job));
            // Ids grow with every release, so pushing keeps `live` sorted.
            self.live.push(job_id);
            self.miss_seen.push(false);
            self.prq.push(job_id, spec.priorities().low);
            out.push(job_id);
        }
    }

    /// Releases an aperiodic job (called from the peripheral ISR path).
    ///
    /// # Panics
    ///
    /// Panics if `task_index` is out of range for [`TaskTable::aperiodic`].
    pub fn release_aperiodic(&mut self, task_index: usize, now: Cycles) -> JobId {
        assert!(
            task_index < self.table.aperiodic().len(),
            "aperiodic task index {task_index} out of range"
        );
        let job_id = JobId::new(self.jobs.len() as u32);
        let job = Job {
            id: job_id,
            class: JobClass::Aperiodic { task_index },
            release: now,
            absolute_deadline: None,
            promotion_at: None,
            promoted: false,
            last_proc: None,
        };
        self.jobs.push(Some(job));
        self.live.push(job_id);
        self.miss_seen.push(false);
        self.arq.push(job_id);
        job_id
    }

    /// [`MpdpPolicy::release_aperiodic`] guarded by the degradation
    /// policy's shed limit: when the Aperiodic Ready Queue already holds
    /// `shed_limit` jobs the arrival is shed and `None` is returned.
    pub fn try_release_aperiodic(&mut self, task_index: usize, now: Cycles) -> Option<JobId> {
        if let Some(limit) = self.degradation.shed_limit {
            if self.arq.len() >= limit {
                return None;
            }
        }
        Some(self.release_aperiodic(task_index, now))
    }

    /// [`Self::promote_due_into`] into a fresh `Vec`.
    pub fn promote_due(&mut self, now: Cycles) -> Vec<JobId> {
        let mut out = Vec::new();
        self.promote_due_into(now, &mut out);
        out
    }

    /// Promotes every periodic job whose promotion instant is `≤ now`,
    /// moving it from the Periodic Ready Queue to the High Priority Local
    /// Ready Queue of its design-time processor, and replaces the contents
    /// of `out` with the promoted ids. Jobs are promoted in ascending id
    /// order, which is also their insertion order into the HPLRQ, where it
    /// breaks ties between equal priorities.
    pub fn promote_due_into(&mut self, now: Cycles, out: &mut Vec<JobId>) {
        out.clear();
        for &id in &self.live {
            let job = self.jobs[id.index()].as_mut().expect("live job");
            if job.promoted || job.promotion_at.is_none_or(|p| p > now) {
                continue;
            }
            let JobClass::Periodic { task_index } = job.class else {
                unreachable!("only periodic jobs have promotion instants")
            };
            job.promoted = true;
            job.promotion_at = None;
            let spec = &self.table.periodic()[task_index];
            self.prq.remove(id);
            self.hplrq[spec.processor().index()].push(id, spec.priorities().high);
            out.push(id);
        }
    }

    /// The earliest pending promotion instant among live unpromoted jobs.
    pub fn next_promotion_time(&self) -> Option<Cycles> {
        self.live_records().filter_map(|j| j.promotion_at).min()
    }

    /// The earliest nominal release time parked in the Waiting Periodic
    /// Queue.
    pub fn next_release_time(&self) -> Option<Cycles> {
        self.wpq.next_release()
    }

    /// Records that `proc` now executes `job` (or idles on `None`).
    ///
    /// # Panics
    ///
    /// Panics if `job` is not live or is already running on another
    /// processor.
    pub fn set_running(&mut self, proc: ProcId, job: Option<JobId>) {
        if let Some(id) = job {
            assert!(
                self.jobs[id.index()].is_some(),
                "cannot run completed job {id}"
            );
            for (p, slot) in self.running.iter().enumerate() {
                if p != proc.index() && *slot == Some(id) {
                    panic!("job {id} is already running on P{p}");
                }
            }
            let j = self.jobs[id.index()].as_mut().expect("live job");
            j.last_proc = Some(proc);
        }
        self.running[proc.index()] = job;
    }

    /// Completes a job: removes it from every queue and the running map.
    /// Periodic tasks are re-parked in the Waiting Periodic Queue for their
    /// next nominal release. Returns the final job record.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live job.
    pub fn complete(&mut self, id: JobId, _now: Cycles) -> Job {
        let job = self.jobs[id.index()]
            .take()
            .expect("completing a job that is not live");
        let pos = self
            .live
            .binary_search(&id)
            .expect("every live job is indexed");
        self.live.remove(pos);
        self.prq.remove(id);
        self.arq.remove(id);
        for q in &mut self.hplrq {
            q.remove(id);
        }
        for slot in &mut self.running {
            if *slot == Some(id) {
                *slot = None;
            }
        }
        if let JobClass::Periodic { task_index } = job.class {
            let next = self.next_release[task_index] + self.table.periodic()[task_index].period();
            self.next_release[task_index] = next;
            self.wpq.push(task_index, next);
        }
        job
    }

    /// [`Self::assign_into`] into a fresh `Vec`.
    pub fn assign(&self) -> Vec<Option<JobId>> {
        let mut desired = Vec::new();
        self.assign_into(&mut desired);
        desired
    }

    /// Computes the MPDP-desired assignment of jobs to processors as a pure
    /// function of the current queues, replacing the contents of `desired`
    /// (one slot per processor):
    ///
    /// 1. every processor with promoted work gets the top of its own High
    ///    Priority Local Ready Queue;
    /// 2. remaining processors serve the Aperiodic Ready Queue in FIFO
    ///    order, then the Periodic Ready Queue in priority order;
    /// 3. global jobs are placed with affinity — a job keeps the processor
    ///    it last ran on when that processor is available — so that context
    ///    switches happen "only when necessary" (§5).
    pub fn assign_into(&self, desired: &mut Vec<Option<JobId>>) {
        // Dead processors never receive work (their HPLRQs are drained by
        // `fail_processor`, but guard anyway).
        desired.clear();
        desired.extend(
            self.hplrq
                .iter()
                .zip(&self.alive)
                .map(|(q, &alive)| if alive { q.peek() } else { None }),
        );
        let free = |desired: &[Option<JobId>], p: usize| desired[p].is_none() && self.alive[p];
        let n_free = (0..desired.len()).filter(|&p| free(desired, p)).count();
        let globals = || self.arq.iter().chain(self.prq.iter()).take(n_free);
        // Affinity pass: place each selected global job on its last
        // processor when that slot is still free.
        for id in globals() {
            if let Some(p) = self.job(id).last_proc {
                if free(desired, p.index()) {
                    desired[p.index()] = Some(id);
                }
            }
        }
        // Placement pass: every global job the affinity pass left out goes
        // to the lowest-index free live processor. A global job is never in
        // a HPLRQ, so it sits on its last processor exactly when the
        // affinity pass placed it there.
        let mut next_free = 0;
        for id in globals() {
            let placed = self
                .job(id)
                .last_proc
                .is_some_and(|p| desired[p.index()] == Some(id));
            if placed {
                continue;
            }
            let p = (next_free..desired.len())
                .find(|&p| free(desired, p))
                .expect("one free slot per selected global job");
            desired[p] = Some(id);
            next_free = p + 1;
        }
    }

    /// Picks the next job for a single idle processor without disturbing the
    /// rest of the system — the paper's completion path: "If a processor
    /// completes execution of its current task, it will not wait until the
    /// next scheduling cycle but it will automatically check if there is an
    /// available task to run, following the priority rules."
    ///
    /// Returns the top of the processor's own High Priority Local Ready
    /// Queue, else the oldest *not currently running* aperiodic job, else the
    /// most urgent *not currently running* unpromoted periodic job.
    pub fn pick_for_idle(&self, proc: ProcId) -> Option<JobId> {
        if !self.alive[proc.index()] {
            return None;
        }
        if let Some(j) = self.hplrq[proc.index()].peek() {
            if !self.is_running(j) {
                return Some(j);
            }
        }
        self.arq
            .iter()
            .find(|&j| !self.is_running(j))
            .or_else(|| self.prq.iter().find(|&j| !self.is_running(j)))
    }

    /// Whether `job` is currently executing on some processor.
    pub fn is_running(&self, job: JobId) -> bool {
        self.running.contains(&Some(job))
    }

    /// The oldest live aperiodic job (head of the Aperiodic Ready Queue),
    /// whether or not it is currently running.
    pub fn next_aperiodic(&self) -> Option<JobId> {
        self.arq.peek()
    }

    /// The Aperiodic Ready Queue (middle band), read-only.
    ///
    /// Kept for `prop_policy::primitives_match_references`, whose
    /// reference assignment reads the three bands directly.
    pub fn aperiodic_queue(&self) -> &AperiodicReadyQueue {
        &self.arq
    }

    /// The Periodic Ready Queue (lower band), read-only.
    ///
    /// Kept for `prop_policy::primitives_match_references` (see
    /// [`MpdpPolicy::aperiodic_queue`]).
    pub fn periodic_queue(&self) -> &PeriodicReadyQueue {
        &self.prq
    }

    /// `proc`'s High Priority Local Ready Queue (upper band), read-only.
    ///
    /// Kept for `prop_policy::primitives_match_references` (see
    /// [`MpdpPolicy::aperiodic_queue`]).
    pub fn local_queue(&self, proc: ProcId) -> &HighPrioLocalQueue {
        &self.hplrq[proc.index()]
    }

    /// [`MpdpPolicy::pick_for_idle`] with middle-band (aperiodic) jobs
    /// excluded — used by server-based policies that gate aperiodic service
    /// on a budget.
    pub fn pick_periodic_for_idle(&self, proc: ProcId) -> Option<JobId> {
        if !self.alive[proc.index()] {
            return None;
        }
        if let Some(j) = self.hplrq[proc.index()].peek() {
            if !self.is_running(j) {
                return Some(j);
            }
        }
        self.prq.iter().find(|&j| !self.is_running(j))
    }

    /// The graceful-degradation configuration in force.
    pub fn degradation(&self) -> DegradationPolicy {
        self.degradation
    }

    /// Whether `proc` is still alive (has not fail-stopped).
    pub fn is_alive(&self, proc: ProcId) -> bool {
        self.alive[proc.index()]
    }

    /// Number of live processors.
    pub fn alive_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// `(guaranteed, total)` periodic tasks under the current analysis.
    pub fn guaranteed_tasks(&self) -> (usize, usize) {
        (
            self.guaranteed.iter().filter(|&&g| g).count(),
            self.guaranteed.len(),
        )
    }

    /// Scans live hard-deadline jobs whose absolute deadline has passed;
    /// each job is reported exactly once, on the first scan that sees the
    /// miss. Called by the simulators at every scheduling tick so that a
    /// job that never completes (e.g. starved after a fail-stop) still
    /// surfaces as a miss.
    pub fn detect_missed(&mut self, now: Cycles) -> Vec<JobId> {
        let mut out = Vec::new();
        for &id in &self.live {
            let job = self.jobs[id.index()].as_ref().expect("live job");
            let seen = &mut self.miss_seen[id.index()];
            if job.absolute_deadline.is_some_and(|d| d < now) && !*seen {
                *seen = true;
                out.push(id);
            }
        }
        out
    }

    /// Aborts a job: identical queue bookkeeping to [`MpdpPolicy::complete`]
    /// (periodic tasks are re-parked for their next activation); the caller
    /// records the abort in its trace.
    pub fn kill_job(&mut self, id: JobId, now: Cycles) -> Job {
        self.complete(id, now)
    }

    /// Strips a periodic job's promotion (actual or pending) and parks it
    /// at the bottom of the lower band, where it only consumes slack — the
    /// `Demote` overrun action. No-op for aperiodic or completed jobs.
    pub fn demote_job(&mut self, id: JobId) {
        let Some(job) = self.jobs[id.index()].as_mut() else {
            return;
        };
        if !job.is_periodic() {
            return;
        }
        if job.promoted {
            for q in &mut self.hplrq {
                q.remove(id);
            }
        } else {
            self.prq.remove(id);
        }
        job.promoted = false;
        job.promotion_at = None;
        self.prq.push(id, Priority::new(0));
    }

    /// Handles a fail-stop of `proc` at `now`:
    ///
    /// 1. marks the processor dead (it never runs or receives work again)
    ///    and withdraws whatever job it was executing (returned as `lost`;
    ///    the caller typically records and [`MpdpPolicy::kill_job`]s it);
    /// 2. re-homes the dead processor's periodic partition onto the live
    ///    processors, least-utilized first;
    /// 3. re-runs the promotion-time analysis *online* on every live
    ///    processor — using nominal WCETs, and conservatively counting
    ///    equal upper-band priorities (which re-homing can create) as
    ///    interference — re-deriving `U_i = D_i − W_i` (never later than
    ///    the existing promotion) for tasks that still pass and marking the
    ///    rest unguaranteed with immediate promotion (best effort). Tasks
    ///    with no upper-band protection to begin with (a never-promote
    ///    baseline table) are left alone and stay unguaranteed;
    /// 4. re-homes promoted jobs stranded in the dead processor's HPLRQ.
    ///
    /// Idempotent: failing an already-dead processor reports no changes.
    pub fn fail_processor(&mut self, proc: ProcId, now: Cycles) -> FailoverReport {
        let p = proc.index();
        let total = self.table.periodic().len();
        if !self.alive[p] {
            let (guaranteed, _) = self.guaranteed_tasks();
            return FailoverReport {
                proc,
                at: now,
                lost: None,
                moved: Vec::new(),
                guaranteed,
                total,
            };
        }
        self.alive[p] = false;
        let lost = self.running[p].take();
        if let Some(id) = lost {
            // The job's context lives in the dead core's registers and is
            // unrecoverable: abort it (periodic tasks re-park for their next
            // activation; the caller records the loss).
            let _ = self.complete(id, now);
        }

        let dead_tasks: Vec<usize> = (0..total)
            .filter(|&i| self.table.periodic()[i].processor() == proc)
            .collect();
        let moved: Vec<TaskId> = dead_tasks
            .iter()
            .map(|&i| self.table.periodic()[i].id())
            .collect();
        if self.alive_count() == 0 {
            // Last processor died: nothing left to re-admit onto.
            self.guaranteed = vec![false; total];
            return FailoverReport {
                proc,
                at: now,
                lost,
                moved,
                guaranteed: 0,
                total,
            };
        }

        // 2. Greedy re-partition: each orphaned task goes to the live
        // processor with the least periodic utilization so far.
        let mut load: Vec<f64> = (0..self.n_procs())
            .map(|q| {
                if !self.alive[q] {
                    return f64::INFINITY;
                }
                self.table
                    .periodic()
                    .iter()
                    .filter(|t| t.processor().index() == q)
                    .map(PeriodicTask::utilization)
                    .sum()
            })
            .collect();
        for &ti in &dead_tasks {
            let best = (0..self.n_procs())
                .filter(|&q| self.alive[q])
                .min_by(|&a, &b| load[a].total_cmp(&load[b]))
                .expect("at least one live processor");
            load[best] += self.table.periodic()[ti].utilization();
            Arc::make_mut(&mut self.table).set_processor(ti, ProcId::new(best as u32));
        }

        // 3. Online re-admission: per live processor, recompute worst-case
        // responses and promotion offsets for the degraded partition. Only
        // tasks that had upper-band protection before the failure
        // (promotion < deadline) participate: a never-promote baseline
        // table made no offline guarantee, and re-homing cannot conjure
        // one — reshaping its promotions would silently turn the baseline
        // into MPDP. Promotions only ever move *earlier* (more
        // protection), so an immediate-promotion table stays immediate.
        #[cfg(any(test, feature = "mutation"))]
        if self.stale_failover {
            // Seeded bug (`StaleTableAfterFailover`): skip the re-admission
            // analysis. The re-homed tasks keep the promotion offsets and
            // guarantees the *pre-failure* analysis proved — which the
            // degraded platform can no longer honor.
            let guaranteed = self.guaranteed.iter().filter(|&&g| g).count();
            while let Some(id) = self.hplrq[p].peek() {
                self.hplrq[p].remove(id);
                let JobClass::Periodic { task_index } = self.job(id).class else {
                    unreachable!("only periodic jobs live in a HPLRQ")
                };
                let spec = &self.table.periodic()[task_index];
                let (new_proc, high) = (spec.processor(), spec.priorities().high);
                self.hplrq[new_proc.index()].push(id, high);
            }
            return FailoverReport {
                proc,
                at: now,
                lost,
                moved,
                guaranteed,
                total,
            };
        }
        let protected: Vec<bool> = (0..total)
            .map(|i| self.table.promotion(i) < self.table.periodic()[i].deadline())
            .collect();
        let mut updates: Vec<(usize, Option<Cycles>)> = Vec::with_capacity(total);
        for q in (0..self.n_procs()).filter(|&q| self.alive[q]) {
            let members: Vec<usize> = (0..total)
                .filter(|&i| self.table.periodic()[i].processor().index() == q)
                .collect();
            let refs: Vec<&PeriodicTask> =
                members.iter().map(|&i| &self.table.periodic()[i]).collect();
            for (li, &ti) in members.iter().enumerate() {
                updates.push((ti, response_with_ties(&refs, li)));
            }
        }
        self.guaranteed = vec![false; total];
        for (ti, response) in updates {
            if !protected[ti] {
                continue;
            }
            match response {
                Some(w) => {
                    let deadline = self.table.periodic()[ti].deadline();
                    let promotion = (deadline - w).min(self.table.promotion(ti));
                    Arc::make_mut(&mut self.table).set_promotion(ti, promotion);
                    self.guaranteed[ti] = true;
                }
                None => Arc::make_mut(&mut self.table).set_promotion(ti, Cycles::ZERO),
            }
        }

        // 4. Re-home promoted jobs stranded on the dead processor.
        while let Some(id) = self.hplrq[p].peek() {
            self.hplrq[p].remove(id);
            let JobClass::Periodic { task_index } = self.job(id).class else {
                unreachable!("only periodic jobs live in a HPLRQ")
            };
            let spec = &self.table.periodic()[task_index];
            let (new_proc, high) = (spec.processor(), spec.priorities().high);
            self.hplrq[new_proc.index()].push(id, high);
        }

        let guaranteed = self.guaranteed.iter().filter(|&&g| g).count();
        FailoverReport {
            proc,
            at: now,
            lost,
            moved,
            guaranteed,
            total,
        }
    }

    /// Checks internal invariants. Kept as the oracle of
    /// `prop_policy::invariants_under_random_interleavings` and of this
    /// module's unit tests, which call it after every step.
    ///
    /// # Panics
    ///
    /// Panics with a description of the violated invariant.
    pub fn check_invariants(&self) {
        // The live index lists exactly the live jobs, ascending.
        let live: Vec<JobId> = self.jobs.iter().flatten().map(|j| j.id).collect();
        assert_eq!(self.live, live, "live index out of step with the job table");
        // Every live job is in exactly one queue.
        for slot in self.live_records() {
            let in_prq = self.prq.contains(slot.id) as usize;
            let in_arq = self.arq.contains(slot.id) as usize;
            let in_hp: usize = self
                .hplrq
                .iter()
                .map(|q| q.contains(slot.id) as usize)
                .sum();
            assert_eq!(
                in_prq + in_arq + in_hp,
                1,
                "job {} must be in exactly one queue",
                slot.id
            );
            if slot.promoted {
                assert_eq!(in_hp, 1, "promoted job {} must be in a HPLRQ", slot.id);
            }
        }
        // No job runs on two processors.
        for (i, a) in self.running.iter().enumerate() {
            if let Some(job) = a {
                assert!(
                    self.jobs[job.index()].is_some(),
                    "running job {job} must be live"
                );
                for b in &self.running[i + 1..] {
                    assert_ne!(Some(*job), *b, "job {job} running on two processors");
                }
            }
        }
    }
}

/// Worst-case response of `tasks[index]` among `tasks` sharing one
/// processor, like `mpdp_core::rta::worst_case_response` but counting tasks
/// at an *equal* upper-band priority as interference (both ways). Failover
/// re-homing can place two tasks with the same high priority on one
/// processor — the runtime breaks the tie by queue order, so the analysis
/// must assume the worst for each. `None` if the response exceeds the
/// deadline.
fn response_with_ties(tasks: &[&PeriodicTask], index: usize) -> Option<Cycles> {
    let task = tasks[index];
    let high = task.priorities().high;
    let interference = tasks
        .iter()
        .enumerate()
        .filter(move |&(k, t)| k != index && t.priorities().high >= high)
        .map(|(_, t)| (t.wcet(), t.period()));
    rta::busy_period(task.wcet(), task.deadline(), interference)
}

impl Scheduler for MpdpPolicy {
    fn table(&self) -> &TaskTable {
        self.table()
    }
    fn n_procs(&self) -> usize {
        self.n_procs()
    }
    fn job(&self, id: JobId) -> &Job {
        self.job(id)
    }
    fn release_due_into(&mut self, now: Cycles, out: &mut Vec<JobId>) {
        self.release_due_into(now, out)
    }
    fn release_aperiodic(&mut self, task_index: usize, now: Cycles) -> JobId {
        self.release_aperiodic(task_index, now)
    }
    fn promote_due_into(&mut self, now: Cycles, out: &mut Vec<JobId>) {
        self.promote_due_into(now, out)
    }
    fn next_promotion_time(&self) -> Option<Cycles> {
        self.next_promotion_time()
    }
    fn next_release_time(&self) -> Option<Cycles> {
        self.next_release_time()
    }
    fn set_running(&mut self, proc: ProcId, job: Option<JobId>) {
        self.set_running(proc, job)
    }
    fn running(&self) -> &[Option<JobId>] {
        self.running()
    }
    fn complete(&mut self, id: JobId, now: Cycles) -> Job {
        self.complete(id, now)
    }
    fn assign_into(&self, desired: &mut Vec<Option<JobId>>) {
        self.assign_into(desired)
    }
    fn pick_for_idle(&self, proc: ProcId) -> Option<JobId> {
        self.pick_for_idle(proc)
    }
    fn degradation(&self) -> DegradationPolicy {
        self.degradation()
    }
    fn is_alive(&self, proc: ProcId) -> bool {
        self.is_alive(proc)
    }
    fn try_release_aperiodic(&mut self, task_index: usize, now: Cycles) -> Option<JobId> {
        self.try_release_aperiodic(task_index, now)
    }
    fn detect_missed(&mut self, now: Cycles) -> Vec<JobId> {
        self.detect_missed(now)
    }
    fn kill_job(&mut self, id: JobId, now: Cycles) -> Job {
        self.kill_job(id, now)
    }
    fn demote_job(&mut self, id: JobId) {
        self.demote_job(id)
    }
    fn fail_processor(&mut self, proc: ProcId, now: Cycles) -> FailoverReport {
        self.fail_processor(proc, now)
    }
    fn guaranteed_tasks(&self) -> (usize, usize) {
        self.guaranteed_tasks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TaskId;
    use crate::priority::Priority;
    use crate::rta::build_task_table;
    use crate::task::{AperiodicTask, PeriodicTask};

    /// Two processors; three periodic tasks with the paper's Figure-3-style
    /// priorities (low band 0/1, aperiodics at 2, high band 3/4) and two
    /// aperiodic tasks.
    fn fig3_like_table() -> TaskTable {
        let p1 = PeriodicTask::new(TaskId::new(0), "P1", Cycles::new(40), Cycles::new(100))
            .with_priorities(Priority::new(1), Priority::new(4))
            .with_processor(ProcId::new(0));
        let p2 = PeriodicTask::new(TaskId::new(1), "P2", Cycles::new(50), Cycles::new(100))
            .with_priorities(Priority::new(0), Priority::new(3))
            .with_processor(ProcId::new(1));
        let p3 = PeriodicTask::new(TaskId::new(2), "P3", Cycles::new(30), Cycles::new(200))
            .with_priorities(Priority::new(0), Priority::new(3))
            .with_processor(ProcId::new(0));
        let a1 = AperiodicTask::new(TaskId::new(3), "A1", Cycles::new(60));
        let a2 = AperiodicTask::new(TaskId::new(4), "A2", Cycles::new(30));
        build_task_table(vec![p1, p2, p3], vec![a1, a2], 2).expect("schedulable")
    }

    #[test]
    fn initial_state_parks_all_periodics() {
        let policy = MpdpPolicy::new(fig3_like_table());
        assert_eq!(policy.next_release_time(), Some(Cycles::ZERO));
        assert!(policy.assign().iter().all(Option::is_none));
        policy.check_invariants();
    }

    #[test]
    fn release_creates_jobs_with_nominal_deadlines() {
        let mut policy = MpdpPolicy::new(fig3_like_table());
        let jobs = policy.release_due(Cycles::ZERO);
        assert_eq!(jobs.len(), 3);
        let j = policy.job(jobs[0]);
        assert_eq!(j.release, Cycles::ZERO);
        assert_eq!(j.absolute_deadline, Some(Cycles::new(100)));
        assert!(!j.promoted);
        policy.check_invariants();
    }

    #[test]
    fn assign_prefers_aperiodics_over_unpromoted_periodics() {
        let mut policy = MpdpPolicy::new(fig3_like_table());
        policy.release_due(Cycles::ZERO);
        let ap = policy.release_aperiodic(0, Cycles::ZERO);
        let desired = policy.assign();
        assert!(desired.contains(&Some(ap)), "aperiodic must get a slot");
        // The other slot goes to the most urgent low-band periodic: P1
        // (low prio 1 beats 0).
        let other: Vec<JobId> = desired.iter().flatten().copied().collect();
        assert_eq!(other.len(), 2);
        policy.check_invariants();
    }

    #[test]
    fn promotion_moves_job_to_local_queue_and_beats_aperiodic() {
        let mut policy = MpdpPolicy::new(fig3_like_table());
        let jobs = policy.release_due(Cycles::ZERO);
        let a1 = policy.release_aperiodic(0, Cycles::ZERO);
        let a2 = policy.release_aperiodic(1, Cycles::ZERO);
        // Run both aperiodics.
        policy.set_running(ProcId::new(0), Some(a1));
        policy.set_running(ProcId::new(1), Some(a2));
        // Force promotion of every periodic job.
        let promoted = policy.promote_due(Cycles::new(1_000_000));
        assert_eq!(promoted.len(), 3);
        let desired = policy.assign();
        // P0's HPLRQ has P1 (high 4) and P3 (high 3): P1 wins; P1's job id is
        // jobs[0]. P1 (task 1 = "P2") is alone on processor 1.
        assert_eq!(desired[0], Some(jobs[0]));
        assert_eq!(desired[1], Some(jobs[1]));
        policy.check_invariants();
    }

    #[test]
    fn promoted_job_must_run_on_its_design_time_processor() {
        let mut policy = MpdpPolicy::new(fig3_like_table());
        let jobs = policy.release_due(Cycles::ZERO);
        // "P2" (task index 1, assigned P1) starts on processor 0 (global
        // low-band phase allows it).
        policy.set_running(ProcId::new(0), Some(jobs[1]));
        policy.promote_due(Cycles::new(1_000_000));
        let desired = policy.assign();
        // After promotion it must be scheduled on P1, its assigned processor.
        assert_eq!(desired[1], Some(jobs[1]));
        assert_ne!(desired[0], Some(jobs[1]));
        policy.check_invariants();
    }

    #[test]
    fn affinity_keeps_running_jobs_in_place() {
        let mut policy = MpdpPolicy::new(fig3_like_table());
        let jobs = policy.release_due(Cycles::ZERO);
        let desired1 = policy.assign();
        for (p, d) in desired1.iter().enumerate() {
            policy.set_running(ProcId::new(p as u32), *d);
        }
        // Re-running assignment with unchanged state changes nothing.
        let desired2 = policy.assign();
        assert_eq!(desired1, desired2);
        let mut actions = vec![];
        policy.diff_into(&desired2, &mut actions);
        assert!(actions.is_empty());
        let _ = jobs;
        policy.check_invariants();
    }

    #[test]
    fn completion_reparks_periodic_for_next_period() {
        let mut policy = MpdpPolicy::new(fig3_like_table());
        let jobs = policy.release_due(Cycles::ZERO);
        policy.set_running(ProcId::new(0), Some(jobs[0]));
        let done = policy.complete(jobs[0], Cycles::new(40));
        assert!(done.is_periodic());
        // Task 0 has period 100: next release at 100.
        assert_eq!(policy.wpq_len(), 1);
        assert_eq!(policy.next_release_time(), Some(Cycles::new(100)));
        let released = policy.release_due(Cycles::new(100));
        assert_eq!(released.len(), 1);
        let j = policy.job(released[0]);
        assert_eq!(j.release, Cycles::new(100));
        assert_eq!(j.absolute_deadline, Some(Cycles::new(200)));
        policy.check_invariants();
    }

    #[test]
    fn pick_for_idle_follows_band_order() {
        let mut policy = MpdpPolicy::new(fig3_like_table());
        let jobs = policy.release_due(Cycles::ZERO);
        let ap = policy.release_aperiodic(0, Cycles::ZERO);
        // Nothing running: idle P0 should pick the aperiodic (middle band)
        // over unpromoted periodics.
        assert_eq!(policy.pick_for_idle(ProcId::new(0)), Some(ap));
        // Promote P1's job: its HPLRQ entry wins on P0.
        policy.promote_due(Cycles::new(1_000_000));
        assert_eq!(policy.pick_for_idle(ProcId::new(0)), Some(jobs[0]));
        // A job running elsewhere is not picked again.
        policy.set_running(ProcId::new(1), Some(ap));
        assert_ne!(policy.pick_for_idle(ProcId::new(0)), Some(ap));
        policy.check_invariants();
    }

    #[test]
    fn diff_reports_only_changes() {
        let mut policy = MpdpPolicy::new(fig3_like_table());
        let jobs = policy.release_due(Cycles::ZERO);
        let desired = policy.assign();
        let mut actions = vec![];
        policy.diff_into(&desired, &mut actions);
        assert_eq!(actions.len(), desired.iter().flatten().count());
        for a in &actions {
            assert!(a.save.is_none());
            assert!(a.restore.is_some());
        }
        let _ = jobs;
    }

    #[test]
    #[should_panic(expected = "already running")]
    fn running_same_job_twice_panics() {
        let mut policy = MpdpPolicy::new(fig3_like_table());
        let jobs = policy.release_due(Cycles::ZERO);
        policy.set_running(ProcId::new(0), Some(jobs[0]));
        policy.set_running(ProcId::new(1), Some(jobs[0]));
    }

    #[test]
    fn aperiodic_fifo_order_is_respected_in_assign() {
        let mut policy = MpdpPolicy::new(fig3_like_table());
        let a1 = policy.release_aperiodic(0, Cycles::ZERO);
        let a2 = policy.release_aperiodic(1, Cycles::new(5));
        let desired = policy.assign();
        // Both fit (two processors, no periodic released yet).
        assert!(desired.contains(&Some(a1)) && desired.contains(&Some(a2)));
        // Complete a1; a2 remains, new slot must pick a2 first.
        policy.complete(a1, Cycles::new(10));
        assert_eq!(policy.pick_for_idle(ProcId::new(0)), Some(a2));
        policy.check_invariants();
    }

    impl MpdpPolicy {
        fn wpq_len(&self) -> usize {
            self.wpq.len()
        }
    }

    #[test]
    fn detect_missed_reports_each_miss_exactly_once() {
        let mut policy = MpdpPolicy::new(fig3_like_table());
        let jobs = policy.release_due(Cycles::ZERO);
        assert!(
            policy.detect_missed(Cycles::new(100)).is_empty(),
            "deadline not passed yet"
        );
        // All three deadlines (100, 100, 200) passed at 201.
        let missed = policy.detect_missed(Cycles::new(201));
        assert_eq!(missed.len(), 3);
        assert!(
            policy.detect_missed(Cycles::new(500)).is_empty(),
            "flagged once"
        );
        let _ = jobs;
        policy.check_invariants();
    }

    #[test]
    fn demote_strips_promotion_and_parks_in_low_band() {
        let mut policy = MpdpPolicy::new(fig3_like_table());
        let jobs = policy.release_due(Cycles::ZERO);
        policy.promote_due(Cycles::new(1_000_000));
        let ap = policy.release_aperiodic(0, Cycles::ZERO);
        policy.demote_job(jobs[0]);
        let j = policy.job(jobs[0]);
        assert!(!j.promoted);
        assert_eq!(j.promotion_at, None);
        // P3's promoted job now tops P0's HPLRQ; demote it too and the
        // aperiodic middle band wins the slot over both demoted periodics.
        policy.demote_job(jobs[2]);
        let desired = policy.assign();
        assert_eq!(desired[0], Some(ap));
        policy.check_invariants();
    }

    #[test]
    fn shed_limit_drops_aperiodic_arrivals() {
        let mut policy = MpdpPolicy::new(fig3_like_table())
            .with_degradation(DegradationPolicy::default().with_shed_limit(2));
        assert!(policy.try_release_aperiodic(0, Cycles::ZERO).is_some());
        assert!(policy.try_release_aperiodic(1, Cycles::ZERO).is_some());
        assert_eq!(policy.try_release_aperiodic(0, Cycles::new(5)), None);
        // Completing one frees a slot.
        let head = policy.next_aperiodic().expect("queued");
        policy.complete(head, Cycles::new(10));
        assert!(policy.try_release_aperiodic(0, Cycles::new(20)).is_some());
        policy.check_invariants();
    }

    #[test]
    fn fail_processor_rehomes_partition_and_reruns_analysis() {
        let mut policy = MpdpPolicy::new(fig3_like_table());
        let jobs = policy.release_due(Cycles::ZERO);
        policy.set_running(ProcId::new(0), Some(jobs[0]));
        assert_eq!(policy.guaranteed_tasks(), (3, 3));
        let report = policy.fail_processor(ProcId::new(0), Cycles::new(50));
        assert_eq!(report.lost, Some(jobs[0]));
        // P1 and P3 lived on P0; both must be re-homed to P1.
        assert_eq!(report.moved.len(), 2);
        assert!(!policy.is_alive(ProcId::new(0)));
        assert_eq!(policy.alive_count(), 1);
        for t in policy.table().periodic() {
            assert_eq!(t.processor(), ProcId::new(1));
        }
        // C = 40+50+30 = 120 > D = 100 for the lowest-priority task: not
        // every task survives re-admission, but some do.
        assert!(
            report.guaranteed >= 1 && report.guaranteed < 3,
            "got {}",
            report.guaranteed
        );
        assert_eq!(report.total, 3);
        // The lost job was aborted inside the failover (its context died
        // with the core), and the dead processor never receives work again.
        let desired = policy.assign();
        assert_eq!(desired[0], None);
        assert_eq!(policy.pick_for_idle(ProcId::new(0)), None);
        // Idempotent.
        let again = policy.fail_processor(ProcId::new(0), Cycles::new(60));
        assert!(again.moved.is_empty() && again.lost.is_none());
        policy.check_invariants();
    }

    #[test]
    fn fail_processor_rehomes_stranded_promoted_jobs() {
        let mut policy = MpdpPolicy::new(fig3_like_table());
        let jobs = policy.release_due(Cycles::ZERO);
        policy.promote_due(Cycles::new(1_000_000));
        // jobs[0] (P1) and jobs[2] (P3) are promoted into P0's HPLRQ.
        let report = policy.fail_processor(ProcId::new(0), Cycles::new(10));
        assert_eq!(report.lost, None);
        // Both stranded jobs must now be runnable on P1.
        let desired = policy.assign();
        assert_eq!(desired[0], None);
        assert!(desired[1].is_some());
        let _ = jobs;
        policy.check_invariants();
    }

    #[test]
    fn last_processor_failure_guarantees_nothing() {
        let t0 = PeriodicTask::new(TaskId::new(0), "t0", Cycles::new(10), Cycles::new(100))
            .with_priorities(Priority::new(0), Priority::new(1));
        let table = build_task_table(vec![t0], vec![], 1).expect("schedulable");
        let mut policy = MpdpPolicy::new(table);
        let report = policy.fail_processor(ProcId::new(0), Cycles::new(5));
        assert_eq!(report.guaranteed, 0);
        assert_eq!(policy.guaranteed_tasks(), (0, 1));
        assert!(policy.assign().iter().all(Option::is_none));
    }
}
