//! The dual-priority microkernel (paper §4.2).
//!
//! The kernel glues the MPDP policy to the platform: it runs the scheduling
//! cycle when the timer interrupt arrives, releases aperiodic tasks from
//! peripheral ISRs, and performs context switches by moving register files
//! and stacks through the shared memory's context vector. It is
//! *time-agnostic*: every operation takes `now` and returns its
//! [`KernelCost`], and the simulator decides how long that cost takes under
//! the current bus contention. The kernel is generic over the
//! [`Scheduler`] policy so the ablation baselines run on identical kernel
//! mechanics.
//!
//! Scheduling cycle (on one processor, the others keep running):
//! 1. move released periodic tasks from the Waiting Periodic Queue to the
//!    Periodic Ready Queue;
//! 2. check promotions, moving due jobs to their High Priority Local Queue;
//! 3. compute the MPDP assignment;
//! 4. diff against what is running; processors whose task changed get an
//!    inter-processor interrupt to start their context change ("If a task is
//!    allocated on the same processor it was currently running on, the
//!    processor is not interrupted").

use mpdp_core::ids::{JobId, ProcId};
use mpdp_core::policy::{Job, JobClass, Scheduler, SwitchAction};
use mpdp_core::time::Cycles;
use mpdp_hw::mem::MemoryMap;
use mpdp_hw::processor::{Processor, RegisterFile, CONTEXT_WORDS};
use mpdp_obs::{EventKind, Probe};

use crate::costs::{KernelCost, KernelCosts};

/// Everything a scheduling pass decided.
///
/// The caller owns one and hands it to every pass, which overwrites all of
/// it; its buffers keep their capacity, so a pass allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct SchedulingPass {
    /// Jobs released into the ready queues.
    pub released: Vec<JobId>,
    /// Jobs promoted to the upper band.
    pub promoted: Vec<JobId>,
    /// The assignment the pass computed, one slot per processor.
    pub desired: Vec<Option<JobId>>,
    /// Context-switch actions to carry out (the scheduling processor's own
    /// action, if any, is included).
    pub actions: Vec<SwitchAction>,
    /// CPU + bus cost of the pass on the scheduling processor.
    pub cost: KernelCost,
}

impl SchedulingPass {
    /// Records a pass that decided nothing and cost `cost`.
    fn set_empty(&mut self, cost: KernelCost) {
        self.released.clear();
        self.promoted.clear();
        self.desired.clear();
        self.actions.clear();
        self.cost = cost;
    }
}

/// Kernel activity counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelStats {
    /// Scheduling passes executed.
    pub sched_passes: u64,
    /// Context switches applied.
    pub context_switches: u64,
    /// Switches that moved a job to a different processor than it last ran
    /// on.
    pub migrations: u64,
    /// Total context words moved through the bus.
    pub context_words: u64,
    /// Aperiodic releases served.
    pub aperiodic_releases: u64,
    /// Aperiodic arrivals shed by the policy's overload-degradation limit.
    pub aperiodic_shed: u64,
    /// Inter-processor interrupts requested.
    pub ipis: u64,
}

/// The microkernel instance: policy + processors + context-vector memory +
/// cost model.
#[derive(Debug, Clone)]
pub struct Microkernel<S> {
    policy: S,
    processors: Vec<Processor>,
    mem: MemoryMap,
    costs: KernelCosts,
    stats: KernelStats,
    /// Seeded bug (`IsrReleaseDrop`): when `Some(n)`, every `n`-th aperiodic
    /// ISR silently drops its release — the interrupt is acknowledged but no
    /// job is enqueued, exactly as if the peripheral event were lost between
    /// latch and handler.
    #[cfg(any(test, feature = "mutation"))]
    isr_drop_every: Option<u32>,
    #[cfg(any(test, feature = "mutation"))]
    isr_seq: u32,
}

impl<S: Scheduler> Microkernel<S> {
    /// Boots the kernel over a policy, sizing the context vector for every
    /// task in the policy's table.
    pub fn new(policy: S, costs: KernelCosts) -> Self {
        let n_procs = policy.n_procs();
        let n_tasks = policy.table().periodic().len() + policy.table().aperiodic().len();
        let max_stack = policy
            .table()
            .periodic()
            .iter()
            .map(|t| t.stack_words())
            .chain(policy.table().aperiodic().iter().map(|t| t.stack_words()))
            .max()
            .unwrap_or(mpdp_core::task::DEFAULT_STACK_WORDS);
        let mem = MemoryMap::with_context_slot(
            n_procs,
            n_tasks.max(1),
            mpdp_hw::mem::REGFILE_WORDS + max_stack,
        );
        Microkernel {
            processors: (0..n_procs as u32)
                .map(ProcId::new)
                .map(Processor::new)
                .collect(),
            policy,
            mem,
            costs,
            stats: KernelStats::default(),
            #[cfg(any(test, feature = "mutation"))]
            isr_drop_every: None,
            #[cfg(any(test, feature = "mutation"))]
            isr_seq: 0,
        }
    }

    /// Arms the seeded `IsrReleaseDrop` bug: every `every`-th aperiodic ISR
    /// (1-based) drops its release on the floor. Mutation-campaign only.
    #[cfg(any(test, feature = "mutation"))]
    pub fn set_isr_drop_every(&mut self, every: Option<u32>) {
        self.isr_drop_every = every;
    }

    /// The modeled cores (architectural state, retirement counters).
    pub fn processors(&self) -> &[Processor] {
        &self.processors
    }

    /// The scheduling policy.
    pub fn policy(&self) -> &S {
        &self.policy
    }

    /// Mutable access to the policy (the simulator's event paths).
    pub fn policy_mut(&mut self) -> &mut S {
        &mut self.policy
    }

    /// The platform memory (context vector lives in its shared DDR).
    pub fn mem(&self) -> &MemoryMap {
        &self.mem
    }

    /// The cost model in force.
    pub fn costs(&self) -> &KernelCosts {
        &self.costs
    }

    /// Activity counters.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Runs one scheduling cycle on `on_proc` at `now`, recording what it
    /// decided in `pass`.
    ///
    /// When `check_releases` is false, the pass skips steps 1–2 (used by the
    /// aperiodic-arrival path, which only needs re-assignment).
    pub fn scheduling_pass(
        &mut self,
        on_proc: ProcId,
        now: Cycles,
        check_releases: bool,
        pass: &mut SchedulingPass,
    ) {
        if check_releases {
            self.policy.release_due_into(now, &mut pass.released);
            self.policy.promote_due_into(now, &mut pass.promoted);
        } else {
            pass.released.clear();
            pass.promoted.clear();
        }
        self.policy.assign_into(&mut pass.desired);
        self.policy.diff_into(&pass.desired, &mut pass.actions);
        let ipis = pass.actions.iter().filter(|a| a.proc != on_proc).count();
        self.stats.ipis += ipis as u64;
        self.stats.sched_passes += 1;
        let moved = pass.released.len() + pass.promoted.len() + pass.actions.len();
        pass.cost = self.costs.scheduling_pass(moved, ipis);
    }

    /// Releases an aperiodic job from the peripheral ISR on `on_proc`,
    /// returning the job and recording in `pass` the follow-up assignment
    /// ("part of task A1 is executed as soon as it arrives") and the ISR
    /// cost.
    ///
    /// `arrival` is the instant the peripheral latched the event (the job's
    /// nominal release, from which its response time is measured); `now` is
    /// when the ISR runs.
    ///
    /// The release is subject to the policy's overload-degradation limit:
    /// when the policy sheds the arrival
    /// ([`Scheduler::try_release_aperiodic`] returns `None`), the ISR
    /// acknowledges the peripheral and returns without enqueuing a job or
    /// running the re-assignment pass. The shed still pays the ISR entry
    /// cost — the interrupt fired either way.
    pub fn try_aperiodic_isr(
        &mut self,
        task_index: usize,
        on_proc: ProcId,
        arrival: Cycles,
        now: Cycles,
        pass: &mut SchedulingPass,
    ) -> Option<JobId> {
        #[cfg(any(test, feature = "mutation"))]
        if let Some(every) = self.isr_drop_every {
            self.isr_seq += 1;
            if self.isr_seq.is_multiple_of(every) {
                // The interrupt fired and is acknowledged (ISR entry cost
                // paid), but the release never reaches the policy.
                self.stats.aperiodic_shed += 1;
                pass.set_empty(self.costs.aperiodic_isr());
                return None;
            }
        }
        match self.policy.try_release_aperiodic(task_index, arrival) {
            Some(job) => {
                self.stats.aperiodic_releases += 1;
                self.scheduling_pass(on_proc, now, false, pass);
                pass.cost = pass.cost.plus(self.costs.aperiodic_isr());
                Some(job)
            }
            None => {
                self.stats.aperiodic_shed += 1;
                pass.set_empty(self.costs.aperiodic_isr());
                None
            }
        }
    }

    /// Cost of carrying out `action` on its processor.
    pub fn switch_cost(&self, action: &SwitchAction) -> KernelCost {
        self.costs.context_switch(
            action.save.map(|j| self.stack_words_of(j)),
            action.restore.map(|j| self.stack_words_of(j)),
        )
    }

    /// Applies a context switch: saves the outgoing job's full register file
    /// into the shared-memory context vector, loads (and verifies) the
    /// incoming one into the processor, and updates the running map.
    ///
    /// Each job's register file carries a deterministic per-job stamp, so a
    /// restore that reads back anything other than exactly what was saved —
    /// a cross-job mix-up or a memory-model bug — panics immediately.
    ///
    /// # Panics
    ///
    /// Panics if a restored job's context slot was corrupted (save/restore
    /// mismatch), or if the action references dead jobs.
    pub fn apply_switch(&mut self, action: &SwitchAction, _now: Cycles) {
        if let Some(save) = action.save {
            let slot = self.context_slot_of(save);
            let addr = self.mem.context_slot_addr(slot);
            let outgoing = self.processors[action.proc.index()].swap_context(RegisterFile::new());
            self.mem
                .shared_mut()
                .write_block(addr, &outgoing.to_words());
            self.stats.context_words += u64::from(self.stack_words_of(save));
        }
        if let Some(restore) = action.restore {
            let slot = self.context_slot_of(restore);
            let addr = self.mem.context_slot_addr(slot);
            let words = self.mem.shared().read_block(addr, CONTEXT_WORDS);
            let incoming = if words.iter().all(|&w| w == 0) {
                // First activation on a fresh slot: boot a stamped register
                // file for this job.
                let mut rf = RegisterFile::new();
                rf.stamp(restore.as_u32());
                rf
            } else {
                let rf = RegisterFile::from_words(words);
                let mut expected = RegisterFile::new();
                expected.stamp(restore.as_u32());
                // Internal invariant, deliberately a panic rather than a
                // typed error: a mismatched stamp means the shared-memory
                // context vector handed us another job's registers, and no
                // caller can meaningfully recover mid-switch. The sweep's
                // self-healing executor isolates the panic per cell, and
                // the runtime monitor reports the same class of breach as
                // an overlapping-execution/context-slot violation.
                assert_eq!(
                    rf, expected,
                    "context slot for {restore} corrupted or mixed up"
                );
                rf
            };
            self.processors[action.proc.index()].swap_context(incoming);
            self.stats.context_words += u64::from(self.stack_words_of(restore));
            if self
                .policy
                .job(restore)
                .last_proc
                .is_some_and(|p| p != action.proc)
            {
                self.stats.migrations += 1;
            }
        }
        if action.save.is_some() || action.restore.is_some() {
            self.stats.context_switches += 1;
        }
        self.policy.set_running(action.proc, action.restore);
    }

    /// [`Self::apply_switch`] with observability: emits a preemption event
    /// for the saved job and a migration event when the restored job last
    /// ran elsewhere (the kernel is the layer that knows `last_proc`, so
    /// migration detection lives here, next to the `migrations` counter).
    pub fn apply_switch_probed<P: Probe>(
        &mut self,
        action: &SwitchAction,
        now: Cycles,
        probe: &mut P,
    ) {
        if P::ENABLED {
            let here = action.proc.as_u32();
            if let Some(save) = action.save {
                probe.event(
                    now,
                    Some(here),
                    EventKind::Preemption { job: save.as_u32() },
                );
            }
            if let Some(restore) = action.restore {
                if let Some(from) = self
                    .policy
                    .job(restore)
                    .last_proc
                    .filter(|&p| p != action.proc)
                {
                    probe.event(
                        now,
                        Some(here),
                        EventKind::Migration {
                            job: restore.as_u32(),
                            from: from.as_u32(),
                            to: here,
                        },
                    );
                }
            }
        }
        self.apply_switch(action, now);
    }

    /// Completion path: retires `job` on `proc` and locally picks the next
    /// job for the now-idle processor without waiting for the next tick.
    /// Returns the finished record and the follow-up switch action, if any
    /// work is available.
    ///
    /// # Panics
    ///
    /// Panics if `job` is not running on `proc`.
    pub fn complete_job(
        &mut self,
        proc: ProcId,
        job: JobId,
        now: Cycles,
    ) -> (Job, Option<SwitchAction>) {
        assert_eq!(
            self.policy.running()[proc.index()],
            Some(job),
            "{job} is not running on {proc}"
        );
        let record = self.policy.complete(job, now);
        // Free the context slot (the job is gone; its next activation gets a
        // fresh stack) and reset the core's register file.
        let slot = self.context_slot_of_class(record.class);
        let addr = self.mem.context_slot_addr(slot);
        self.mem
            .shared_mut()
            .write_block(addr, &[0u32; CONTEXT_WORDS]);
        self.processors[proc.index()].swap_context(RegisterFile::new());
        let next = self.policy.pick_for_idle(proc);
        (
            record,
            next.map(|restore| SwitchAction {
                proc,
                save: None,
                restore: Some(restore),
            }),
        )
    }

    /// Budget-overrun abort: retires `job` on `proc` without a completion,
    /// freeing its context slot and the core's register file exactly like
    /// [`Self::complete_job`] so the task's next activation boots a fresh
    /// stack. Returns the aborted record and the follow-up switch action.
    ///
    /// # Panics
    ///
    /// Panics if `job` is not running on `proc`.
    pub fn abort_job(
        &mut self,
        proc: ProcId,
        job: JobId,
        now: Cycles,
    ) -> (Job, Option<SwitchAction>) {
        assert_eq!(
            self.policy.running()[proc.index()],
            Some(job),
            "{job} is not running on {proc}"
        );
        let record = self.policy.kill_job(job, now);
        let slot = self.context_slot_of_class(record.class);
        let addr = self.mem.context_slot_addr(slot);
        self.mem
            .shared_mut()
            .write_block(addr, &[0u32; CONTEXT_WORDS]);
        self.processors[proc.index()].swap_context(RegisterFile::new());
        let next = self.policy.pick_for_idle(proc);
        (
            record,
            next.map(|restore| SwitchAction {
                proc,
                save: None,
                restore: Some(restore),
            }),
        )
    }

    /// Processor fail-stop: delegates to the policy's failover (which
    /// aborts the lost running job and re-homes the partition) and frees
    /// the lost job's context slot — its saved context describes a stale
    /// activation, and the task's next release must boot a fresh stack.
    pub fn fail_stop(&mut self, proc: ProcId, now: Cycles) -> mpdp_core::policy::FailoverReport {
        // The policy's failover aborts the running job, retiring its
        // record — capture the context slot it was using first.
        let doomed_slot = self.policy.running()[proc.index()].map(|job| self.context_slot_of(job));
        let report = self.policy.fail_processor(proc, now);
        if let (Some(slot), Some(_)) = (doomed_slot, report.lost) {
            let addr = self.mem.context_slot_addr(slot);
            self.mem
                .shared_mut()
                .write_block(addr, &[0u32; CONTEXT_WORDS]);
        }
        report
    }

    fn stack_words_of(&self, job: JobId) -> u32 {
        match self.policy.job(job).class {
            JobClass::Periodic { task_index } => {
                self.policy.table().periodic()[task_index].stack_words()
            }
            JobClass::Aperiodic { task_index } => {
                self.policy.table().aperiodic()[task_index].stack_words()
            }
        }
    }

    fn context_slot_of(&self, job: JobId) -> usize {
        self.context_slot_of_class(self.policy.job(job).class)
    }

    fn context_slot_of_class(&self, class: JobClass) -> usize {
        match class {
            JobClass::Periodic { task_index } => task_index,
            JobClass::Aperiodic { task_index } => self.policy.table().periodic().len() + task_index,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdp_core::ids::TaskId;
    use mpdp_core::policy::MpdpPolicy;
    use mpdp_core::priority::Priority;
    use mpdp_core::rta::build_task_table;
    use mpdp_core::task::{AperiodicTask, PeriodicTask};

    fn kernel_2cpu() -> Microkernel<MpdpPolicy> {
        let p1 = PeriodicTask::new(TaskId::new(0), "P1", Cycles::new(40), Cycles::new(100))
            .with_priorities(Priority::new(1), Priority::new(4))
            .with_processor(ProcId::new(0));
        let p2 = PeriodicTask::new(TaskId::new(1), "P2", Cycles::new(50), Cycles::new(100))
            .with_priorities(Priority::new(0), Priority::new(3))
            .with_processor(ProcId::new(1));
        let a1 = AperiodicTask::new(TaskId::new(2), "A1", Cycles::new(60));
        let table = build_task_table(vec![p1, p2], vec![a1], 2).unwrap();
        Microkernel::new(MpdpPolicy::new(table), KernelCosts::default())
    }

    fn boot_pass(k: &mut Microkernel<MpdpPolicy>) -> SchedulingPass {
        let mut pass = SchedulingPass::default();
        k.scheduling_pass(ProcId::new(0), Cycles::ZERO, true, &mut pass);
        pass
    }

    #[test]
    fn boot_pass_assigns_released_tasks() {
        let mut k = kernel_2cpu();
        let pass = boot_pass(&mut k);
        assert_eq!(pass.released.len(), 2);
        assert_eq!(pass.actions.len(), 2);
        assert!(pass.cost.cpu > 0);
        // One action targets another processor → one IPI.
        assert_eq!(k.stats().ipis, 1);
    }

    #[test]
    fn apply_switch_round_trips_context_through_shared_memory() {
        let mut k = kernel_2cpu();
        let pass = boot_pass(&mut k);
        for a in &pass.actions {
            k.apply_switch(a, Cycles::new(100));
        }
        assert_eq!(k.stats().context_switches, 2);
        // Preempt job on P0: save it, then restore it again later.
        let job = k.policy().running()[0].expect("running");
        let out = SwitchAction {
            proc: ProcId::new(0),
            save: Some(job),
            restore: None,
        };
        k.apply_switch(&out, Cycles::new(200));
        let back = SwitchAction {
            proc: ProcId::new(0),
            save: None,
            restore: Some(job),
        };
        k.apply_switch(&back, Cycles::new(300)); // must not panic: tag matches
        assert_eq!(k.policy().running()[0], Some(job));
    }

    #[test]
    fn completion_picks_next_work_locally() {
        let mut k = kernel_2cpu();
        let pass = boot_pass(&mut k);
        for a in &pass.actions {
            k.apply_switch(a, Cycles::ZERO);
        }
        // Release an aperiodic while both processors are busy.
        let mut pass = SchedulingPass::default();
        let ap = k
            .try_aperiodic_isr(
                0,
                ProcId::new(0),
                Cycles::new(10),
                Cycles::new(10),
                &mut pass,
            )
            .expect("released");
        // P0 completes its periodic job → should pick the aperiodic.
        let job = k.policy().running()[0].expect("running");
        let (record, next) = k.complete_job(ProcId::new(0), job, Cycles::new(50));
        assert!(record.is_periodic());
        assert_eq!(next.map(|a| a.restore), Some(Some(ap)));
    }

    #[test]
    fn switch_cost_scales_with_stack_words() {
        let mut k = kernel_2cpu();
        let pass = boot_pass(&mut k);
        let action = &pass.actions[0];
        let cost = k.switch_cost(action);
        // Restore-only switch of a default-stack task.
        assert_eq!(
            cost.bus_words,
            mpdp_hw::mem::REGFILE_WORDS + mpdp_core::task::DEFAULT_STACK_WORDS
        );
    }

    #[test]
    fn aperiodic_isr_triggers_reassignment() {
        let mut k = kernel_2cpu();
        // Boot with nothing released: processors idle.
        let mut pass = SchedulingPass::default();
        k.try_aperiodic_isr(0, ProcId::new(0), Cycles::ZERO, Cycles::ZERO, &mut pass);
        assert_eq!(pass.actions.len(), 1, "idle processor gets the aperiodic");
        assert_eq!(k.stats().aperiodic_releases, 1);
    }

    #[test]
    fn try_aperiodic_isr_sheds_beyond_the_policy_limit() {
        use mpdp_core::policy::DegradationPolicy;
        let p1 = PeriodicTask::new(TaskId::new(0), "P1", Cycles::new(40), Cycles::new(100))
            .with_priorities(Priority::new(1), Priority::new(4))
            .with_processor(ProcId::new(0));
        let a1 = AperiodicTask::new(TaskId::new(1), "A1", Cycles::new(60));
        let table = build_task_table(vec![p1], vec![a1], 1).unwrap();
        let policy = MpdpPolicy::new(table)
            .with_degradation(DegradationPolicy::default().with_shed_limit(1));
        let mut k = Microkernel::new(policy, KernelCosts::default());
        // Occupy the processor so arrivals queue in the ARQ.
        let mut pass = boot_pass(&mut k);
        for a in &pass.actions {
            k.apply_switch(a, Cycles::ZERO);
        }
        let first = k.try_aperiodic_isr(
            0,
            ProcId::new(0),
            Cycles::new(10),
            Cycles::new(10),
            &mut pass,
        );
        assert!(first.is_some(), "first arrival admitted");
        let second = k.try_aperiodic_isr(
            0,
            ProcId::new(0),
            Cycles::new(20),
            Cycles::new(20),
            &mut pass,
        );
        assert!(second.is_none(), "second arrival shed at the limit");
        assert!(
            pass.actions.is_empty(),
            "shed arrival triggers no reassignment"
        );
        assert!(pass.cost.cpu > 0, "shed still pays the ISR entry cost");
        assert_eq!(k.stats().aperiodic_shed, 1);
        assert_eq!(k.stats().aperiodic_releases, 1);
    }

    #[test]
    fn migration_counter_tracks_cross_processor_moves() {
        let mut k = kernel_2cpu();
        let pass = boot_pass(&mut k);
        for a in &pass.actions {
            k.apply_switch(a, Cycles::ZERO);
        }
        let job = k.policy().running()[0].expect("running");
        // Save on P0, restore on P1 (forced migration).
        k.apply_switch(
            &SwitchAction {
                proc: ProcId::new(0),
                save: Some(job),
                restore: None,
            },
            Cycles::new(10),
        );
        let other = k.policy().running()[1].expect("running");
        k.apply_switch(
            &SwitchAction {
                proc: ProcId::new(1),
                save: Some(other),
                restore: Some(job),
            },
            Cycles::new(20),
        );
        assert_eq!(k.stats().migrations, 1);
    }
}
