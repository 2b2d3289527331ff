//! A classic **polling server** (Lehoczky, Sha & Strosnider) as a third
//! baseline — the standard pre-dual-priority answer to aperiodic service
//! that the related work the paper cites compares against.
//!
//! One server with budget `C_s` and period `T_s` is bound to processor 0 at
//! a priority above every periodic task there. At each replenishment the
//! budget is refilled — and immediately discarded if no aperiodic work is
//! pending (the defining polling-server property). While the budget lasts,
//! the oldest aperiodic job executes on the server's processor, preempting
//! periodic work; when it is exhausted (or between replenishments with an
//! empty poll), aperiodic jobs wait. Periodic tasks run partitioned
//! fixed-priority (promoted at release).
//!
//! Budget enforcement is event-granular in the simulators (ticks,
//! arrivals, completions, replenishments), so a running aperiodic can
//! overrun its budget by at most one inter-event gap; choose `C_s` at least
//! a tick for faithful accounting.
//!
//! For the hard guarantee, the server must be entered into processor 0's
//! response-time analysis as its highest-priority task; [`polling_server`]
//! does exactly that by admitting a synthetic `(C_s, T_s)` task during
//! partitioning, then removing it from the executed table.

use mpdp_core::error::TaskSetError;
use mpdp_core::ids::{JobId, ProcId, TaskId};
use mpdp_core::policy::{Job, MpdpPolicy, Scheduler};
use mpdp_core::priority::Priority;
use mpdp_core::task::{AperiodicTask, PeriodicTask, TaskTable};
use mpdp_core::time::Cycles;

use crate::tool::{prepare, PromotionMode, ToolOptions};

/// The replenishment discipline of a periodic server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServerKind {
    /// Classic polling server: at each replenishment the budget is granted
    /// only if aperiodic work is already pending; otherwise it is discarded
    /// for the whole period.
    #[default]
    Polling,
    /// Deferrable server (Strosnider, Lehoczky & Sha): the budget is always
    /// refilled at each period boundary and *retained* — aperiodic work
    /// arriving mid-period is served immediately while budget remains.
    Deferrable,
}

/// The polling/deferrable server scheduling policy.
///
/// Wraps the MPDP machinery with all periodic promotions at release
/// (partitioned fixed-priority) and gates aperiodic service on the server
/// budget.
#[derive(Debug, Clone)]
pub struct PollingServerPolicy {
    base: MpdpPolicy,
    kind: ServerKind,
    capacity: Cycles,
    period: Cycles,
    budget: Cycles,
    next_replenish: Cycles,
    server_proc: ProcId,
}

impl PollingServerPolicy {
    /// Creates the policy over a task table whose promotions are all zero
    /// (see [`polling_server`] for the full construction including
    /// admission analysis).
    ///
    /// # Panics
    ///
    /// Panics if capacity or period is zero, or capacity exceeds period.
    pub fn new(table: TaskTable, capacity: Cycles, period: Cycles) -> Self {
        assert!(
            !capacity.is_zero() && !period.is_zero(),
            "server needs capacity and period"
        );
        assert!(capacity <= period, "server capacity beyond its period");
        PollingServerPolicy {
            base: MpdpPolicy::new(table),
            kind: ServerKind::Polling,
            capacity,
            period,
            budget: Cycles::ZERO,
            next_replenish: Cycles::ZERO,
            server_proc: ProcId::new(0),
        }
    }

    /// Switches the replenishment discipline (builder style).
    pub fn with_kind(mut self, kind: ServerKind) -> Self {
        self.kind = kind;
        self
    }

    /// The replenishment discipline in force.
    pub fn kind(&self) -> ServerKind {
        self.kind
    }

    /// Remaining server budget in the current period.
    pub fn budget(&self) -> Cycles {
        self.budget
    }

    /// The processor the server runs on.
    pub fn server_proc(&self) -> ProcId {
        self.server_proc
    }

    fn has_pending_aperiodic(&self) -> bool {
        self.base.next_aperiodic().is_some()
    }

    fn replenish_due(&mut self, now: Cycles) {
        while self.next_replenish <= now {
            self.budget = match self.kind {
                // The defining polling property: budget is granted only if
                // work is already waiting when the server polls; otherwise
                // it is lost for the whole period.
                ServerKind::Polling => {
                    if self.has_pending_aperiodic() {
                        self.capacity
                    } else {
                        Cycles::ZERO
                    }
                }
                // A deferrable server always holds a full budget at the
                // period boundary, ready for later arrivals.
                ServerKind::Deferrable => self.capacity,
            };
            self.next_replenish += self.period;
        }
    }

    /// The aperiodic job the server would execute right now, if any.
    fn server_job(&self) -> Option<JobId> {
        if self.budget.is_zero() {
            return None;
        }
        self.base.next_aperiodic()
    }
}

impl Scheduler for PollingServerPolicy {
    fn table(&self) -> &TaskTable {
        self.base.table()
    }
    fn n_procs(&self) -> usize {
        self.base.n_procs()
    }
    fn job(&self, id: JobId) -> &Job {
        self.base.job(id)
    }

    fn release_due_into(&mut self, now: Cycles, out: &mut Vec<JobId>) {
        self.replenish_due(now);
        self.base.release_due_into(now, out)
    }

    fn release_aperiodic(&mut self, task_index: usize, now: Cycles) -> JobId {
        self.base.release_aperiodic(task_index, now)
    }

    fn promote_due_into(&mut self, now: Cycles, out: &mut Vec<JobId>) {
        self.base.promote_due_into(now, out)
    }

    fn next_promotion_time(&self) -> Option<Cycles> {
        self.base.next_promotion_time()
    }

    fn next_release_time(&self) -> Option<Cycles> {
        self.base.next_release_time()
    }

    fn set_running(&mut self, proc: ProcId, job: Option<JobId>) {
        self.base.set_running(proc, job)
    }

    fn running(&self) -> &[Option<JobId>] {
        self.base.running()
    }

    fn complete(&mut self, id: JobId, now: Cycles) -> Job {
        self.base.complete(id, now)
    }

    fn assign_into(&self, desired: &mut Vec<Option<JobId>>) {
        self.base.assign_into(desired);
        // Strip every aperiodic placement the base (background) assignment
        // made: under a pure polling server, aperiodic work runs only inside
        // the server.
        for slot in desired.iter_mut() {
            if slot.is_some_and(|j| !self.base.job(j).is_periodic()) {
                *slot = None;
            }
        }
        // Backfill freed non-server slots with periodic work the base gave
        // to other processors? Promoted jobs are processor-bound and already
        // placed; with promote-at-release there is no global periodic work,
        // so a freed slot simply idles.
        if let Some(job) = self.server_job() {
            desired[self.server_proc.index()] = Some(job);
        }
    }

    fn pick_for_idle(&self, proc: ProcId) -> Option<JobId> {
        if proc == self.server_proc {
            if let Some(job) = self.server_job() {
                if !self.base.is_running(job) {
                    return Some(job);
                }
            }
        }
        self.base.pick_periodic_for_idle(proc)
    }

    fn on_progress(&mut self, job: JobId, amount: Cycles, _now: Cycles) {
        let is_server_work = !self.base.job(job).is_periodic()
            && self.base.running_on(self.server_proc) == Some(job);
        if is_server_work {
            self.budget = self.budget.saturating_sub(amount);
        }
    }

    fn next_internal_event(&self) -> Option<Cycles> {
        Some(self.next_replenish)
    }
}

/// Builds a polling-server configuration over a workload: partitions the
/// periodic tasks *with the server admitted on processor 0 as its
/// highest-priority task*, then returns the policy.
///
/// # Errors
///
/// Propagates partitioning/analysis failures, including the case where the
/// server itself does not fit.
pub fn polling_server(
    periodic: Vec<PeriodicTask>,
    aperiodic: Vec<AperiodicTask>,
    n_procs: usize,
    capacity: Cycles,
    period: Cycles,
) -> Result<PollingServerPolicy, TaskSetError> {
    // Admission: a synthetic top-priority task (C_s, T_s) pinned to P0.
    let max_prio = periodic
        .iter()
        .map(|t| t.priorities().high.level())
        .max()
        .unwrap_or(0);
    let server_id = periodic
        .iter()
        .map(|t| t.id().as_u32())
        .max()
        .map_or(10_000, |m| m + 10_000);
    let server_task = PeriodicTask::new(TaskId::new(server_id), "polling_server", capacity, period)
        .with_priorities(Priority::new(max_prio + 1), Priority::new(max_prio + 1))
        .with_processor(ProcId::new(0));
    let mut with_server = periodic.clone();
    with_server.push(server_task);
    let admitted = prepare(
        with_server,
        Vec::new(),
        n_procs,
        ToolOptions::new().with_promotion_mode(PromotionMode::Immediate),
    )?;
    // Rebuild the executed table: same assignments, server removed.
    let assignments: std::collections::HashMap<u32, ProcId> = admitted
        .periodic()
        .iter()
        .map(|t| (t.id().as_u32(), t.processor()))
        .collect();
    let assigned: Vec<PeriodicTask> = periodic
        .into_iter()
        .map(|t| {
            let proc = assignments[&t.id().as_u32()];
            t.with_processor(proc)
        })
        .collect();
    let promotions = vec![Cycles::ZERO; assigned.len()];
    let table = TaskTable::new(assigned, aperiodic, promotions, n_procs)?;
    Ok(PollingServerPolicy::new(table, capacity, period))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdp_core::time::DEFAULT_TICK;
    use mpdp_workload::automotive_task_set;

    fn release_due(p: &mut PollingServerPolicy, now: Cycles) -> Vec<JobId> {
        let mut out = Vec::new();
        p.release_due_into(now, &mut out);
        out
    }

    fn assign(p: &PollingServerPolicy) -> Vec<Option<JobId>> {
        let mut desired = Vec::new();
        p.assign_into(&mut desired);
        desired
    }

    fn policy() -> PollingServerPolicy {
        let set = automotive_task_set(0.4, 2, DEFAULT_TICK);
        polling_server(
            set.periodic,
            set.aperiodic,
            2,
            DEFAULT_TICK * 2,
            DEFAULT_TICK * 10,
        )
        .expect("server fits at 40%")
    }

    #[test]
    fn budget_is_lost_when_poll_finds_no_work() {
        let mut p = policy();
        release_due(&mut p, Cycles::ZERO);
        assert_eq!(p.budget(), Cycles::ZERO, "empty poll discards budget");
        // An aperiodic arriving mid-period waits for the next replenishment.
        p.release_aperiodic(0, DEFAULT_TICK);
        assert_eq!(p.budget(), Cycles::ZERO);
        assert!(assign(&p)[0].is_none_or(|j| p.job(j).is_periodic()));
        // At the replenishment the pending work earns a full budget.
        release_due(&mut p, DEFAULT_TICK * 10);
        assert_eq!(p.budget(), DEFAULT_TICK * 2);
        let job = p.server_job().expect("server has work");
        assert!(!p.job(job).is_periodic());
    }

    #[test]
    fn aperiodics_never_run_outside_the_server() {
        let mut p = policy();
        release_due(&mut p, Cycles::ZERO);
        p.release_aperiodic(0, Cycles::ZERO);
        // Budget zero (poll at 0 preceded the arrival): nothing aperiodic
        // anywhere in the assignment.
        for slot in assign(&p).iter().flatten() {
            assert!(p.job(*slot).is_periodic());
        }
        for proc in 0..2 {
            if let Some(j) = p.pick_for_idle(ProcId::new(proc)) {
                assert!(p.job(j).is_periodic());
            }
        }
    }

    #[test]
    fn progress_drains_budget_until_exhaustion() {
        let mut p = policy();
        p.release_aperiodic(0, Cycles::ZERO);
        release_due(&mut p, Cycles::ZERO); // poll finds work → full budget
        assert_eq!(p.budget(), DEFAULT_TICK * 2);
        let job = p.server_job().expect("work");
        p.set_running(ProcId::new(0), Some(job));
        p.on_progress(job, DEFAULT_TICK, Cycles::new(1));
        assert_eq!(p.budget(), DEFAULT_TICK);
        p.on_progress(job, DEFAULT_TICK * 3, Cycles::new(2));
        assert_eq!(p.budget(), Cycles::ZERO);
        // Exhausted: the server offers nothing even though the job lives.
        assert!(p.server_job().is_none());
    }

    #[test]
    fn promoted_for_yields_nothing_where_the_server_runs() {
        let mut p = policy();
        let server = p.server_proc();
        // Promote-at-release: the poll at 0 finds no aperiodic work, and
        // every periodic job is promoted into its processor's HPLRQ.
        release_due(&mut p, Cycles::ZERO);
        let mut promoted = Vec::new();
        p.promote_due_into(Cycles::ZERO, &mut promoted);
        assert!(!promoted.is_empty());
        let promoted_slots = |p: &PollingServerPolicy| -> Vec<Option<JobId>> {
            assign(p)
                .into_iter()
                .map(|slot| slot.filter(|&j| p.job(j).promoted))
                .collect()
        };
        let before = promoted_slots(&p);
        let head = before[server.index()];
        assert!(
            head.is_some(),
            "promoted work waits on the server processor"
        );
        // An arrival earns the server a budget at the next poll: its job
        // takes the server processor's slot, which then holds no promoted
        // job.
        p.release_aperiodic(0, DEFAULT_TICK);
        release_due(&mut p, DEFAULT_TICK * 10);
        assert!(p.server_job().is_some());
        assert_eq!(assign(&p)[server.index()], p.server_job());
        assert_eq!(p.promoted_for(server), None);
        for (proc, slot) in promoted_slots(&p).into_iter().enumerate() {
            assert_eq!(p.promoted_for(ProcId::new(proc as u32)), slot, "P{proc}");
        }
    }

    #[test]
    fn internal_event_is_the_replenishment() {
        let mut p = policy();
        assert_eq!(p.next_internal_event(), Some(Cycles::ZERO));
        release_due(&mut p, Cycles::ZERO);
        assert_eq!(p.next_internal_event(), Some(DEFAULT_TICK * 10));
    }

    #[test]
    fn periodic_work_is_unaffected_by_the_server_gate() {
        let mut p = policy();
        let released = release_due(&mut p, Cycles::ZERO);
        assert_eq!(released.len(), 18);
        let desired = assign(&p);
        assert!(desired.iter().flatten().count() > 0);
        for j in desired.iter().flatten() {
            assert!(p.job(*j).is_periodic());
        }
    }

    #[test]
    fn deferrable_server_keeps_budget_for_later_arrivals() {
        let set = automotive_task_set(0.4, 2, DEFAULT_TICK);
        let mut p = polling_server(
            set.periodic,
            set.aperiodic,
            2,
            DEFAULT_TICK * 2,
            DEFAULT_TICK * 10,
        )
        .expect("fits")
        .with_kind(ServerKind::Deferrable);
        // Empty poll at t = 0: the deferrable server KEEPS its budget…
        release_due(&mut p, Cycles::ZERO);
        assert_eq!(p.budget(), DEFAULT_TICK * 2);
        // …so an arrival mid-period is served immediately.
        p.release_aperiodic(0, DEFAULT_TICK);
        let job = assign(&p)[0].expect("server slot filled");
        assert!(!p.job(job).is_periodic());
    }

    #[test]
    fn oversized_server_is_rejected_by_admission() {
        let set = automotive_task_set(0.6, 2, DEFAULT_TICK);
        // A server demanding 90% of P0 cannot be admitted at 60% load.
        let result = polling_server(
            set.periodic,
            set.aperiodic,
            2,
            DEFAULT_TICK * 9,
            DEFAULT_TICK * 10,
        );
        assert!(result.is_err());
    }
}
