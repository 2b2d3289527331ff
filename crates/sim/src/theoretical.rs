//! The "Theoretical" simulator — the paper's comparison baseline.
//!
//! "The theoretical data for 2, 3, 4 processors architectures are calculated
//! with a simulator that adopts the same approach of the scheduling kernel
//! of the target architecture, considering a small overhead (2%) for context
//! switching and contentions" (paper §5).
//!
//! The simulator drives the same [`Scheduler`] policy as the prototype's
//! microkernel, tick by tick, but idealizes the platform: processors run at
//! full speed with no bus contention, context switches are instantaneous,
//! and all overheads are folded into a configurable fractional inflation of
//! every job's execution demand (the paper's 2%).

use std::collections::VecDeque;

use mpdp_core::error::TaskSetError;
use mpdp_core::ids::{JobId, ProcId, TaskId};
use mpdp_core::policy::{JobClass, OverrunAction, Scheduler};
use mpdp_core::time::{Cycles, DEFAULT_TICK};
use mpdp_faults::CompiledFaults;
use mpdp_obs::{Bucket, EventKind, NullProbe, Probe, Span, SpanKind};

use crate::stats::SurvivalStats;
use crate::trace::Trace;

/// Configuration of a theoretical run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TheoreticalConfig {
    /// Scheduler tick (default: the paper's 0.1 s).
    pub tick: Cycles,
    /// Fractional execution inflation standing in for all overheads
    /// (default: the paper's 2%).
    pub overhead: f64,
    /// Simulated horizon.
    pub horizon: Cycles,
    /// Also fire releases/promotions at their exact instants instead of
    /// waiting for the next tick (the "pure algorithm" mode; the paper's
    /// simulator is tick-driven, so this defaults to off).
    pub event_driven: bool,
}

impl TheoreticalConfig {
    /// Paper-default configuration for the given horizon.
    pub fn new(horizon: Cycles) -> Self {
        TheoreticalConfig {
            tick: DEFAULT_TICK,
            overhead: 0.02,
            horizon,
            event_driven: false,
        }
    }

    /// Sets the tick. Validated when the simulator runs: a zero tick makes
    /// [`run_theoretical`] return [`TaskSetError::InvalidParameter`].
    pub fn with_tick(mut self, tick: Cycles) -> Self {
        self.tick = tick;
        self
    }

    /// Sets the overhead fraction. Validated when the simulator runs: a
    /// negative or non-finite value makes [`run_theoretical`] return
    /// [`TaskSetError::InvalidParameter`].
    pub fn with_overhead(mut self, overhead: f64) -> Self {
        self.overhead = overhead;
        self
    }

    /// Enables exact (event-driven) releases and promotions.
    pub fn with_event_driven(mut self) -> Self {
        self.event_driven = true;
        self
    }
}

/// Result of a simulation run.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Completions and deadline verdicts.
    pub trace: Trace,
    /// Context switches performed (running-map changes).
    pub switches: u64,
    /// Simulated end time.
    pub end: Cycles,
    /// Survivability counters (all-zero for fault-free runs).
    pub survival: SurvivalStats,
}

/// Runs the theoretical simulator over `policy` until the horizon, injecting
/// aperiodic arrivals `(instant, aperiodic task index)` (must be sorted by
/// instant). Equivalent to [`run_theoretical_with`] with no faults.
///
/// # Errors
///
/// [`TaskSetError::UnsortedArrivals`] if arrivals are unsorted;
/// [`TaskSetError::InvalidParameter`] if the tick is zero or the configured
/// overhead is negative or non-finite.
pub fn run_theoretical<S: Scheduler>(
    policy: S,
    arrivals: &[(Cycles, usize)],
    config: TheoreticalConfig,
) -> Result<SimOutcome, TaskSetError> {
    run_theoretical_with(policy, arrivals, config, &CompiledFaults::none())
}

/// [`run_theoretical`] under a compiled fault plan.
///
/// Fault semantics in the theoretical (idealized) stack:
///
/// * **WCET overruns** multiply the demand of the afflicted job;
/// * **bus spikes** inflate the demand of jobs *released* inside the spike
///   window (the idealized stack has no bus, so the slowdown is folded into
///   demand; the prototype stack instead slows execution during the window);
/// * **processor fail-stop** invokes the policy's online failover at the
///   configured instant;
/// * **lost/spurious interrupts** are prototype-only (this stack has no
///   interrupt controller) and are ignored here;
/// * extra arrivals from overload bursts are merged into `arrivals` by the
///   caller (the sweep engine does this), not here.
///
/// Budget enforcement and deadline-miss detection run at scheduling passes
/// (tick-granular), matching how a real enforcement timer behaves. Budgets
/// compare *executed work* against `nominal demand × budget_margin`, where
/// nominal demand includes the overhead inflation but **not** the fault
/// factor — so a margin of 1.0 never flags healthy jobs.
///
/// With an empty plan and an inert degradation policy this function is
/// byte-for-byte equivalent to the pre-fault simulator: no extra floating
/// point touches healthy quantities and no survival bookkeeping runs.
///
/// # Errors
///
/// Same as [`run_theoretical`].
pub fn run_theoretical_with<S: Scheduler>(
    policy: S,
    arrivals: &[(Cycles, usize)],
    config: TheoreticalConfig,
    faults: &CompiledFaults,
) -> Result<SimOutcome, TaskSetError> {
    run_theoretical_probed(policy, arrivals, config, faults, NullProbe).map(|(o, _)| o)
}

/// [`run_theoretical_with`] under an observability [`Probe`].
///
/// The idealized stack has no kernel bursts, bus stalls, or lock
/// contention, so its cycle ledger uses only two buckets: `TaskWork` while
/// a processor runs a job at full speed and `Idle` otherwise. The buckets
/// still partition the timeline exactly (`horizon × n_procs` cycles), which
/// is what makes the theoretical-vs-prototype gap decomposition in
/// `exp_gap_attribution` well-defined. Events emitted: job releases,
/// promotions, completions/aborts, fail-stop, and recovery; task spans are
/// reported per processor. With [`NullProbe`] this monomorphizes to the
/// exact unprobed code path.
///
/// # Errors
///
/// Same as [`run_theoretical`].
pub fn run_theoretical_probed<S: Scheduler, P: Probe>(
    mut policy: S,
    arrivals: &[(Cycles, usize)],
    config: TheoreticalConfig,
    faults: &CompiledFaults,
    mut probe: P,
) -> Result<(SimOutcome, P), TaskSetError> {
    if arrivals.windows(2).any(|w| w[0].0 > w[1].0) {
        return Err(TaskSetError::UnsortedArrivals);
    }
    if !config.overhead.is_finite() || config.overhead < 0.0 {
        return Err(TaskSetError::InvalidParameter("overhead"));
    }
    if config.tick.is_zero() {
        return Err(TaskSetError::InvalidParameter("tick"));
    }
    let n_aperiodic = policy.table().aperiodic().len();
    // Fault/degradation state. `track` gates every piece of survival
    // bookkeeping so fault-free runs take the exact pre-fault code path.
    let deg = policy.degradation();
    let track = !faults.is_empty() || !deg.is_inert();
    let mut jobs = Jobs {
        remaining: Vec::new(),
        ledger: Vec::new(),
        outstanding: vec![0; n_aperiodic],
        deferred: vec![VecDeque::new(); n_aperiodic],
        faults,
        scale: 1.0 + config.overhead,
        budget_margin: deg.budget_margin,
        track,
    };
    let mut trace = Trace::new();
    let mut switches = 0u64;
    let mut now = Cycles::ZERO;
    let mut next_tick = Cycles::ZERO;
    let mut arrival_idx = 0usize;
    // Per-processor open task span (job, task, start), filled only when
    // the probe records.
    let mut open: Vec<Option<(JobId, TaskId, Cycles)>> = vec![None; policy.n_procs()];
    // Scratch the scheduling passes reuse, so a pass allocates nothing.
    let mut released = Vec::new();
    let mut promoted = Vec::new();
    let mut desired = Vec::new();

    let mut survival = SurvivalStats::default();
    let mut fail_pending = faults.fail_stop();
    let mut awaiting_recovery = false;

    loop {
        // --- Find the next event time. ---
        let mut t = next_tick.min(config.horizon);
        if arrival_idx < arrivals.len() {
            t = t.min(arrivals[arrival_idx].0);
        }
        for p in 0..policy.n_procs() {
            if let Some(job) = policy.running()[p] {
                t = t.min(now + jobs.remaining[job.index()]);
            }
        }
        if config.event_driven {
            if let Some(r) = policy.next_release_time() {
                t = t.min(r);
            }
            if let Some(pr) = policy.next_promotion_time() {
                t = t.min(pr);
            }
        }
        if let Some(internal) = policy.next_internal_event() {
            if internal > now {
                t = t.min(internal);
            }
        }
        if let Some((_, at)) = fail_pending {
            if at > now {
                t = t.min(at);
            }
        }
        if t >= config.horizon {
            t = config.horizon;
        }

        // --- Advance work to t. ---
        let dt = t - now;
        if !dt.is_zero() {
            for p in 0..policy.n_procs() {
                if let Some(job) = policy.running()[p] {
                    // `t` was clamped to `now + remaining` above, so the
                    // whole interval is productive work at full speed.
                    if P::ENABLED {
                        probe.charge(p, Bucket::TaskWork, dt.as_u64());
                    }
                    jobs.remaining[job.index()] = jobs.remaining[job.index()].saturating_sub(dt);
                    policy.on_progress(job, dt, t);
                } else if P::ENABLED {
                    probe.charge(p, Bucket::Idle, dt.as_u64());
                }
            }
        }
        now = t;
        if now >= config.horizon {
            break;
        }

        let mut reassign = false;

        // --- Processor fail-stop. ---
        if let Some((p, at)) = fail_pending {
            if at <= now {
                fail_pending = None;
                let report = policy.fail_processor(ProcId::new(p as u32), now);
                survival.failed_proc = Some(p as u32);
                survival.fail_at = Some(now);
                survival.guaranteed_tasks = report.guaranteed as u64;
                survival.total_tasks = report.total as u64;
                if report.lost.is_some() {
                    // The running job's context died with the core.
                    survival.kills += 1;
                }
                if P::ENABLED {
                    probe.event(now, Some(p as u32), EventKind::FailStop { proc: p as u32 });
                }
                close_span(&mut open, ProcId::new(p as u32), now, &mut probe);
                // Recovery completes at the next scheduling pass, which
                // re-applies the (re-homed) assignment.
                awaiting_recovery = true;
            }
        }

        // --- Completions. ---
        loop {
            let done: Option<(ProcId, JobId)> = (0..policy.n_procs()).find_map(|p| {
                policy.running()[p]
                    .filter(|j| jobs.remaining[j.index()].is_zero())
                    .map(|j| (ProcId::new(p as u32), j))
            });
            let Some((proc, job)) = done else { break };
            let task = task_of(&policy, job);
            let record = policy.complete(job, now);
            trace.record_completion(&record, task, now);
            if P::ENABLED {
                probe.event(
                    now,
                    Some(proc.as_u32()),
                    EventKind::JobComplete {
                        job: job.as_u32(),
                        task: task.as_u32(),
                        met: record.absolute_deadline.is_none_or(|d| now <= d),
                    },
                );
            }
            if let JobClass::Aperiodic { task_index } = record.class {
                if jobs.retire(&mut policy, task_index, now, &mut probe, &mut survival) {
                    reassign = true;
                }
            }
            close_span(&mut open, proc, now, &mut probe);
            // Completion path: local pickup, no global reshuffle.
            if let Some(next) = policy.pick_for_idle(proc) {
                policy.set_running(proc, Some(next));
                switches += 1;
                if P::ENABLED {
                    open[proc.index()] = Some((next, task_of(&policy, next), now));
                }
            }
        }

        // --- Aperiodic arrivals. ---
        while arrival_idx < arrivals.len() && arrivals[arrival_idx].0 <= now {
            let (at, task_index) = arrivals[arrival_idx];
            if jobs.outstanding[task_index] > 0 {
                jobs.deferred[task_index].push_back(at);
            } else if jobs.activate(&mut policy, task_index, at, now, &mut probe, &mut survival) {
                reassign = true;
            }
            arrival_idx += 1;
        }

        // --- Tick: releases, promotions, global assignment. ---
        if next_tick <= now {
            next_tick += config.tick;
            reassign = true;
        }
        // Policy-internal instants (budget replenishments) also force a pass.
        if policy.next_internal_event().is_some_and(|e| e <= now) {
            reassign = true;
        }
        if config.event_driven {
            // Exact releases/promotions also force a pass.
            if policy.next_release_time().is_some_and(|r| r <= now)
                || policy.next_promotion_time().is_some_and(|p| p <= now)
            {
                reassign = true;
            }
        }

        if reassign {
            // --- Detection: deadline misses and budget overruns (the
            // enforcement timer fires with the scheduling pass). ---
            if track {
                for _miss in policy.detect_missed(now) {
                    survival.miss_events += 1;
                    if survival.first_miss.is_none() {
                        survival.first_miss = Some(now);
                    }
                }
                if let Some(action) = deg.overrun {
                    for p in 0..policy.n_procs() {
                        let Some(job) = policy.running()[p] else {
                            continue;
                        };
                        let idx = job.index();
                        let (init, bud, done) = jobs.ledger[idx];
                        if done || init.saturating_sub(jobs.remaining[idx]) <= bud {
                            continue;
                        }
                        jobs.ledger[idx].2 = true;
                        survival.overruns += 1;
                        match action {
                            OverrunAction::RunToCompletion => {}
                            OverrunAction::Kill => {
                                let task = task_of(&policy, job);
                                let record = policy.kill_job(job, now);
                                trace.record_abort(&record, task, now);
                                survival.kills += 1;
                                if P::ENABLED {
                                    probe.event(
                                        now,
                                        Some(p as u32),
                                        EventKind::JobComplete {
                                            job: job.as_u32(),
                                            task: task.as_u32(),
                                            met: false,
                                        },
                                    );
                                }
                                close_span(&mut open, ProcId::new(p as u32), now, &mut probe);
                                if let JobClass::Aperiodic { task_index } = record.class {
                                    // Same re-trigger bookkeeping as a
                                    // completion.
                                    jobs.retire(
                                        &mut policy,
                                        task_index,
                                        now,
                                        &mut probe,
                                        &mut survival,
                                    );
                                }
                            }
                            OverrunAction::Demote => {
                                policy.demote_job(job);
                                survival.demotions += 1;
                            }
                        }
                    }
                }
            }
            policy.release_due_into(now, &mut released);
            for &job in &released {
                jobs.release(&policy, job, now, &mut probe);
            }
            policy.promote_due_into(now, &mut promoted);
            for &job in &promoted {
                if P::ENABLED {
                    probe.event(
                        now,
                        None,
                        EventKind::Promotion {
                            job: job.as_u32(),
                            task: task_of(&policy, job).as_u32(),
                        },
                    );
                }
            }
            policy.assign_into(&mut desired);
            // Two-phase application: processor pairs can exchange tasks
            // ("it could be possible that two processors switch each other
            // their tasks"), so every changed processor releases its job
            // before any new assignment lands. After the first phase a
            // processor still differs from `desired` exactly when it
            // changed and has a job to take on.
            for (p, &want) in desired.iter().enumerate() {
                if policy.running()[p] == want {
                    continue;
                }
                let proc = ProcId::new(p as u32);
                close_span(&mut open, proc, now, &mut probe);
                policy.set_running(proc, None);
                switches += 1;
            }
            for (p, &want) in desired.iter().enumerate() {
                let Some(j) = want.filter(|_| policy.running()[p] != want) else {
                    continue;
                };
                policy.set_running(ProcId::new(p as u32), Some(j));
                if P::ENABLED {
                    open[p] = Some((j, task_of(&policy, j), now));
                }
            }
            if awaiting_recovery {
                // First scheduling pass after the fail-stop: the degraded
                // assignment is in force.
                awaiting_recovery = false;
                survival.recovery_at = Some(now);
                if P::ENABLED {
                    probe.event(now, None, EventKind::Recovery);
                }
            }
        }
    }

    // Close any open spans at the horizon.
    for p in 0..policy.n_procs() {
        close_span(&mut open, ProcId::new(p as u32), config.horizon, &mut probe);
    }

    if track && survival.failed_proc.is_none() {
        let (g, total) = policy.guaranteed_tasks();
        survival.guaranteed_tasks = g as u64;
        survival.total_tasks = total as u64;
    }
    Ok((
        SimOutcome {
            trace,
            switches,
            end: now,
            survival,
        },
        probe,
    ))
}

/// The per-job books of a run and its one release path.
struct Jobs<'a> {
    /// Work left, per job id.
    remaining: Vec<Cycles>,
    /// Budget ledger, per job id (filled only when `track`): demand at
    /// release, enforcement budget, and whether the overrun was already
    /// acted on.
    ledger: Vec<(Cycles, Cycles, bool)>,
    /// Per-task activation serialization: a trigger arriving while the
    /// same task's previous activation is in flight waits in `deferred`
    /// until it retires (one context slot per task); response is still
    /// measured from arrival.
    outstanding: Vec<usize>,
    deferred: Vec<VecDeque<Cycles>>,
    faults: &'a CompiledFaults,
    /// `1 + overhead`.
    scale: f64,
    budget_margin: f64,
    track: bool,
}

impl Jobs<'_> {
    /// Registers a job the policy just released: its demand, its
    /// `JobRelease` event and, when tracking, its budget-ledger row.
    fn release<S: Scheduler, P: Probe>(
        &mut self,
        policy: &S,
        job: JobId,
        now: Cycles,
        probe: &mut P,
    ) {
        let idx = job.index();
        grow_to(&mut self.remaining, idx, Cycles::ZERO);
        self.remaining[idx] = self.demand_of(policy, job);
        if P::ENABLED {
            probe.event(
                now,
                None,
                EventKind::JobRelease {
                    job: job.as_u32(),
                    task: task_of(policy, job).as_u32(),
                    aperiodic: matches!(policy.job(job).class, JobClass::Aperiodic { .. }),
                },
            );
        }
        if self.track {
            grow_to(&mut self.ledger, idx, (Cycles::ZERO, Cycles::ZERO, true));
            let budget = base_demand(policy, job)
                .scale(self.scale)
                .scale(self.budget_margin);
            self.ledger[idx] = (self.remaining[idx], budget, false);
        }
    }

    /// Releases a job of aperiodic task `task_index` for the trigger at
    /// `arrival`, or counts the trigger shed when the policy refuses it.
    /// Returns whether a job was released.
    fn activate<S: Scheduler, P: Probe>(
        &mut self,
        policy: &mut S,
        task_index: usize,
        arrival: Cycles,
        now: Cycles,
        probe: &mut P,
        survival: &mut SurvivalStats,
    ) -> bool {
        match policy.try_release_aperiodic(task_index, arrival) {
            Some(job) => {
                self.outstanding[task_index] += 1;
                self.release(policy, job, now, probe);
                true
            }
            None => {
                survival.shed += 1;
                false
            }
        }
    }

    /// Retires an activation of aperiodic task `task_index` (completed or
    /// killed) and activates the oldest deferred trigger the policy
    /// admits. Returns whether a job was released.
    fn retire<S: Scheduler, P: Probe>(
        &mut self,
        policy: &mut S,
        task_index: usize,
        now: Cycles,
        probe: &mut P,
        survival: &mut SurvivalStats,
    ) -> bool {
        self.outstanding[task_index] -= 1;
        while let Some(arrival) = self.deferred[task_index].pop_front() {
            if self.activate(policy, task_index, arrival, now, probe, survival) {
                return true;
            }
        }
        false
    }

    /// Execution demand of a just-released job: its base demand inflated
    /// by the overhead and, under a fault plan, by the job's WCET-overrun
    /// and bus-spike factors.
    fn demand_of<S: Scheduler>(&self, policy: &S, job: JobId) -> Cycles {
        let base = base_demand(policy, job);
        if self.faults.is_empty() {
            return base.scale(self.scale);
        }
        let coord = match policy.job(job).class {
            JobClass::Periodic { task_index } => task_index,
            JobClass::Aperiodic { task_index } => policy.table().periodic().len() + task_index,
        };
        // Bus spikes have no bus to act on in this stack; they inflate the
        // demand of jobs released inside the window instead.
        let release = policy.job(job).release;
        let f = self.faults.exec_factor(coord, release) * self.faults.bus_factor(release);
        base.scale(self.scale * f)
    }
}

/// A job's nominal demand: its task's WCET or execution time.
fn base_demand<S: Scheduler>(policy: &S, job: JobId) -> Cycles {
    match policy.job(job).class {
        JobClass::Periodic { task_index } => policy.table().periodic()[task_index].wcet(),
        JobClass::Aperiodic { task_index } => policy.table().aperiodic()[task_index].exec(),
    }
}

fn task_of<S: Scheduler>(policy: &S, job: JobId) -> TaskId {
    match policy.job(job).class {
        JobClass::Periodic { task_index } => policy.table().periodic()[task_index].id(),
        JobClass::Aperiodic { task_index } => policy.table().aperiodic()[task_index].id(),
    }
}

fn grow_to<T: Clone>(v: &mut Vec<T>, idx: usize, fill: T) {
    if v.len() <= idx {
        v.resize(idx + 1, fill);
    }
}

/// Closes `proc`'s open task span at `now` and hands it to the probe.
fn close_span<P: Probe>(
    open: &mut [Option<(JobId, TaskId, Cycles)>],
    proc: ProcId,
    now: Cycles,
    probe: &mut P,
) {
    if let Some((job, task, start)) = open[proc.index()].take() {
        if start < now {
            probe.span(Span {
                proc: proc.as_u32(),
                kind: SpanKind::Task,
                job: Some(job.as_u32()),
                task: Some(task.as_u32()),
                start,
                end: now,
            });
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

    fn simple_policy(n_procs: usize) -> MpdpPolicy {
        let tick = Cycles::new(1000);
        let t0 = PeriodicTask::new(TaskId::new(0), "t0", Cycles::new(300), tick * 10)
            .with_priorities(Priority::new(1), Priority::new(4))
            .with_processor(ProcId::new(0));
        let t1 = PeriodicTask::new(TaskId::new(1), "t1", Cycles::new(400), tick * 20)
            .with_priorities(Priority::new(0), Priority::new(3))
            .with_processor(ProcId::new((n_procs - 1) as u32));
        let ap = AperiodicTask::new(TaskId::new(2), "ap", Cycles::new(500));
        build_task_table(vec![t0, t1], vec![ap], n_procs)
            .map(MpdpPolicy::new)
            .unwrap()
    }

    fn cfg(horizon: u64) -> TheoreticalConfig {
        TheoreticalConfig::new(Cycles::new(horizon))
            .with_tick(Cycles::new(1000))
            .with_overhead(0.0)
    }

    #[test]
    fn periodic_jobs_complete_each_period() {
        let outcome = run_theoretical(simple_policy(1), &[], cfg(40_000)).unwrap();
        // t0: period 10k over 40k → 4 jobs; t1: period 20k → 2 jobs.
        let t0: Vec<_> = outcome.trace.completions_of(TaskId::new(0)).collect();
        let t1: Vec<_> = outcome.trace.completions_of(TaskId::new(1)).collect();
        assert_eq!(t0.len(), 4);
        assert_eq!(t1.len(), 2);
        assert_eq!(outcome.trace.deadline_misses(), 0);
    }

    #[test]
    fn single_processor_serializes_sums_of_wcets() {
        let outcome = run_theoretical(simple_policy(1), &[], cfg(10_000)).unwrap();
        // Both jobs released at tick 0; t0 (prio 1) runs first: done at 300;
        // then t1: done at 700.
        let t0 = outcome.trace.completions_of(TaskId::new(0)).next().unwrap();
        let t1 = outcome.trace.completions_of(TaskId::new(1)).next().unwrap();
        assert_eq!(t0.finish, Cycles::new(300));
        assert_eq!(t1.finish, Cycles::new(700));
    }

    #[test]
    fn two_processors_run_in_parallel() {
        let outcome = run_theoretical(simple_policy(2), &[], cfg(10_000)).unwrap();
        let t1 = outcome.trace.completions_of(TaskId::new(1)).next().unwrap();
        assert_eq!(t1.finish, Cycles::new(400), "no serialization on 2 CPUs");
    }

    #[test]
    fn overhead_inflates_execution() {
        let config = cfg(10_000).with_overhead(0.10);
        let outcome = run_theoretical(simple_policy(2), &[], config).unwrap();
        let t0 = outcome.trace.completions_of(TaskId::new(0)).next().unwrap();
        assert_eq!(t0.finish, Cycles::new(330));
    }

    #[test]
    fn aperiodic_preempts_low_band_periodic() {
        // One processor: periodic starts at 0; aperiodic arrives at 100 and
        // (middle band > lower band) takes over immediately.
        let outcome =
            run_theoretical(simple_policy(1), &[(Cycles::new(100), 0)], cfg(20_000)).unwrap();
        let ap = outcome.trace.completions_of(TaskId::new(2)).next().unwrap();
        assert_eq!(ap.finish, Cycles::new(600), "arrival + 500 exec");
        assert_eq!(ap.response, Cycles::new(500));
    }

    #[test]
    fn promotion_protects_periodic_deadline_under_aperiodic_flood() {
        // Saturating aperiodic arrivals; promotions must still let periodic
        // tasks meet deadlines.
        // The raw table's promotion instants are not tick-aligned, so exact
        // (event-driven) promotion is required for the guarantee; the
        // experiments instead quantize promotions to the tick grid via the
        // offline tool.
        let arrivals: Vec<(Cycles, usize)> = (0..30).map(|i| (Cycles::new(i * 600), 0)).collect();
        let outcome =
            run_theoretical(simple_policy(1), &arrivals, cfg(40_000).with_event_driven()).unwrap();
        assert_eq!(outcome.trace.deadline_misses(), 0);
        // And aperiodic work still progresses.
        assert!(outcome.trace.completions_of(TaskId::new(2)).count() > 5);
    }

    #[test]
    fn event_driven_mode_matches_or_beats_tick_mode_promptness() {
        let tick_mode = run_theoretical(simple_policy(1), &[], cfg(40_000)).unwrap();
        let exact =
            run_theoretical(simple_policy(1), &[], cfg(40_000).with_event_driven()).unwrap();
        // Same completions in both.
        assert_eq!(
            tick_mode.trace.completions.len(),
            exact.trace.completions.len()
        );
    }

    #[test]
    fn spans_cover_busy_time() {
        let (_, rec) = run_theoretical_probed(
            simple_policy(1),
            &[],
            cfg(10_000),
            &CompiledFaults::none(),
            mpdp_obs::EventRecorder::new(1),
        )
        .unwrap();
        // 300 + 400 cycles of work on P0, as spans and in the ledger.
        let busy: u64 = rec.spans().iter().map(|s| (s.end - s.start).as_u64()).sum();
        assert_eq!(busy, 700);
        assert_eq!(rec.ledger().get(0, Bucket::TaskWork), 700);
    }

    #[test]
    fn probed_run_matches_unprobed_and_conserves_cycles() {
        let arrivals = [(Cycles::new(100), 0)];
        let plain = run_theoretical(simple_policy(2), &arrivals, cfg(20_000)).unwrap();
        let (probed, rec) = run_theoretical_probed(
            simple_policy(2),
            &arrivals,
            cfg(20_000),
            &CompiledFaults::none(),
            mpdp_obs::EventRecorder::new(2),
        )
        .unwrap();
        // Observation never perturbs the simulation.
        assert_eq!(
            plain.trace.completions.len(),
            probed.trace.completions.len()
        );
        assert_eq!(plain.switches, probed.switches);
        // Every cycle on every processor lands in exactly one bucket.
        rec.ledger()
            .check_conservation(Cycles::new(20_000))
            .unwrap();
        assert!(rec.count_events("release") > 0);
        assert!(rec.count_events("aperiodic-release") == 1);
        assert!(rec.count_events("complete") > 0);
        assert!(rec.spans().iter().all(|s| s.kind == SpanKind::Task));
    }

    #[test]
    fn horizon_cuts_cleanly() {
        let outcome = run_theoretical(simple_policy(1), &[], cfg(350)).unwrap();
        assert_eq!(outcome.end, Cycles::new(350));
        // Only t0 finished by then.
        assert_eq!(outcome.trace.completions.len(), 1);
    }
}
