//! The "Real" simulator: the full prototype stack.
//!
//! This simulator executes the microkernel on the modeled platform the way
//! the paper's FPGA prototype does:
//!
//! * the system timer raises its interrupt through the multiprocessor
//!   interrupt controller, which distributes it to a *free* processor; that
//!   processor runs the scheduling cycle while the others keep working;
//! * processors whose task changed receive inter-processor interrupts and
//!   perform their own context switches, moving register files and stacks
//!   through the shared-memory context vector — bus traffic that slows
//!   everyone else;
//! * aperiodic tasks are released by peripheral interrupts, again
//!   distributed to free processors ("if a processor is executing the
//!   scheduling cycle, or it is executing a context switch, it will not be
//!   burdened by the aperiodic task release");
//! * task execution progresses at piecewise-constant speeds computed by the
//!   analytic bus-contention model from the memory profiles of whatever is
//!   running *right now*; kernel bursts (context moves, controller register
//!   traffic) are priced at the current queueing delay.
//!
//! Everything the paper identifies as the gap between theory and prototype —
//! context switching, scheduling-cycle cost, interrupt latency, and
//! bus/memory contention — is explicit here and individually tunable for
//! the ablation benches.

use std::collections::VecDeque;

use mpdp_core::error::TaskSetError;
use mpdp_core::ids::{JobId, PeripheralId, ProcId, TaskId};
use mpdp_core::policy::{DegradationPolicy, JobClass, OverrunAction, Scheduler, SwitchAction};
use mpdp_core::time::{Cycles, DEFAULT_TICK};
use mpdp_faults::CompiledFaults;
use mpdp_hw::contention::{ClassMemo, ContentionModel};
use mpdp_hw::timer::SystemTimer;
use mpdp_intc::{IntcStats, InterruptSource, MpInterruptController};
use mpdp_kernel::{KernelCost, KernelCosts, KernelStats, Microkernel, SchedulingPass};
use mpdp_obs::{Bucket, EventKind, IrqKind, NullProbe, Probe, Span, SpanKind, WorkSplitter};

use crate::stats::SurvivalStats;
use crate::trace::Trace;

/// Configuration of a prototype run.
#[derive(Debug, Clone, PartialEq)]
pub struct PrototypeConfig {
    /// Scheduler tick (default: the paper's 0.1 s).
    pub tick: Cycles,
    /// Simulated horizon.
    pub horizon: Cycles,
    /// Cycles between an interrupt line rising and the processor's
    /// acknowledge (vector fetch, pipeline drain).
    pub ack_latency: Cycles,
    /// Interrupt controller acknowledge timeout before re-routing.
    pub intc_ack_timeout: Cycles,
    /// Kernel cost model.
    pub kernel_costs: KernelCosts,
    /// Bus-access rate a processor exhibits while moving contexts
    /// (accesses per cycle; context traffic is bus-heavy).
    pub kernel_bus_rate: f64,
    /// Bus-access rate during ISR bookkeeping (register pokes).
    pub isr_bus_rate: f64,
    /// Emulate the stock single-target Xilinx controller: every interrupt
    /// (timer and peripherals) is delivered only to this processor. `None`
    /// (the default) uses the paper's multiprocessor distribution.
    pub pin_interrupts_to: Option<ProcId>,
    /// Seeded bug (`IsrReleaseDrop`): forwarded to the microkernel's
    /// `set_isr_drop_every` — every n-th aperiodic ISR drops its release.
    /// Gated on the `mutation` feature alone (not `cfg(test)`) because it
    /// reaches across the crate boundary into mpdp-kernel, whose injection
    /// point only exists when *its* feature is on.
    #[cfg(feature = "mutation")]
    pub isr_drop_every: Option<u32>,
    /// Seeded bug (`WorkAccountingTruncation`): report each advance's
    /// retired work truncated independently instead of as the delta of the
    /// rounded cumulative total, and skip the completion flush — the exact
    /// float-drift bug the cumulative ledger exists to prevent.
    #[cfg(any(test, feature = "mutation"))]
    pub truncate_progress: bool,
}

impl PrototypeConfig {
    /// Paper-default configuration for the given horizon.
    pub fn new(horizon: Cycles) -> Self {
        PrototypeConfig {
            tick: DEFAULT_TICK,
            horizon,
            ack_latency: Cycles::new(60),
            intc_ack_timeout: Cycles::new(50_000),
            kernel_costs: KernelCosts::default(),
            kernel_bus_rate: 0.05,
            isr_bus_rate: 0.01,
            pin_interrupts_to: None,
            #[cfg(feature = "mutation")]
            isr_drop_every: None,
            #[cfg(any(test, feature = "mutation"))]
            truncate_progress: false,
        }
    }

    /// Arms the seeded `IsrReleaseDrop` bug (every `every`-th aperiodic ISR
    /// drops its release). Mutation-campaign only.
    #[cfg(feature = "mutation")]
    pub fn with_isr_drop_every(mut self, every: u32) -> Self {
        self.isr_drop_every = Some(every);
        self
    }

    /// Arms the seeded `WorkAccountingTruncation` bug (per-step truncation
    /// of reported progress). Mutation-campaign only.
    #[cfg(any(test, feature = "mutation"))]
    pub fn with_truncated_progress(mut self) -> Self {
        self.truncate_progress = true;
        self
    }

    /// Pins every interrupt to one processor (the stock-controller
    /// baseline of the `ablate_intc` experiment).
    pub fn with_pinned_interrupts(mut self, proc: ProcId) -> Self {
        self.pin_interrupts_to = Some(proc);
        self
    }

    /// Sets the tick. Validated when the simulator runs: a zero tick makes
    /// [`PrototypeSim::run`] return [`TaskSetError::InvalidParameter`].
    pub fn with_tick(mut self, tick: Cycles) -> Self {
        self.tick = tick;
        self
    }

    /// Sets the kernel cost model.
    pub fn with_kernel_costs(mut self, costs: KernelCosts) -> Self {
        self.kernel_costs = costs;
        self
    }
}

/// Result of a prototype run.
#[derive(Debug, Clone)]
pub struct PrototypeOutcome {
    /// Completions and deadline verdicts.
    pub trace: Trace,
    /// Simulated end time.
    pub end: Cycles,
    /// Microkernel activity counters.
    pub kernel: KernelStats,
    /// Interrupt-controller counters.
    pub intc: IntcStats,
    /// ISRs that found the scheduler/controller lock held ("controller
    /// management is sequential, but the execution of the interrupt
    /// handlers is parallel").
    pub lock_contentions: u64,
    /// Total cycles ISRs spent waiting for that lock.
    pub lock_wait_cycles: Cycles,
    /// Survivability counters (all-zero for fault-free runs).
    pub survival: SurvivalStats,
    /// Event-loop iterations taken to reach `end` — the liveness budget.
    /// Bounded by the number of scheduling events (ticks, arrivals, busy
    /// ends, completions, acks), never by float residue: a zero-length
    /// step churning at one instant would blow this up, which is exactly
    /// what the liveness regression test pins.
    pub loop_iterations: u64,
}

/// What a busy (non-task) period resolves into when it ends.
#[derive(Debug, Clone)]
enum BusyWork {
    /// Scheduling pass (timer or aperiodic ISR): at the end, raise IPIs
    /// and start the local switch if needed.
    SchedPass,
    /// IPI handler: resolve the local switch decision at the end.
    IpiResolve,
    /// Context move in progress; policy state already updated.
    Switch { from_isr: bool },
}

#[derive(Debug, Clone)]
enum Activity {
    Idle,
    Running(JobId),
    Busy {
        until: Cycles,
        work: BusyWork,
        /// Job paused by the interrupt (still mapped to this processor).
        paused: Option<JobId>,
        /// Whether the processor holds the controller's "handling" state.
        in_isr: bool,
    },
}

/// Per-job work-accounting ledger backing `Scheduler::on_progress`.
///
/// `advance_to` retires fractional cycles (`f64`), but the policy's
/// progress ledger is integral; rounding each advance independently lets
/// the reported total drift from the work actually retired over long
/// horizons. Instead the cumulative retired work is accumulated here and
/// only the integer *delta* of its rounding is reported, so the emitted
/// deltas always sum to `round(done)` exactly, and a completion flush
/// tops the ledger up to the job's integer execution demand.
#[derive(Debug, Clone, Copy)]
struct JobProgress {
    /// Fractional work retired so far (capped at `demand`).
    done: f64,
    /// Integer cycles already reported via `on_progress`.
    reported: u64,
    /// Execution demand at release (fractional under WCET-overrun faults).
    demand: f64,
    /// Rate class of the job's memory profile in the run's [`ClassMemo`],
    /// read by every speed lookup and burst pricing while it runs.
    class: usize,
}

impl JobProgress {
    const UNTRACKED: JobProgress = JobProgress {
        done: 0.0,
        reported: 0,
        demand: f64::NAN,
        class: usize::MAX,
    };
}

/// Cycles until a `Running` job's remaining work retires at `speed`
/// (work-cycles per wall-cycle), as seen by the next-event scan.
///
/// Clamped to ≥1: float residue can leave `remaining` at ~0 on a
/// processor still marked `Running`, and an unclamped `ceil` of that
/// residue schedules a zero-length step that churns the event loop at the
/// same instant. Completion itself is decided by the 0.5-cycle threshold
/// in `handle_completions`, so for any job that survives a completion
/// sweep (`remaining > 0.5`) the clamp never alters the event time.
///
/// Equal to `(remaining / speed).ceil().max(1.0) as u64` for every
/// non-negative quotient, `+inf` included (it saturates at `u64::MAX`), by
/// cast arithmetic instead of a libm call: the cast truncates, and the
/// quotient exceeds the truncation exactly when it has a fraction.
fn running_eta(remaining: f64, speed: f64) -> u64 {
    let q = remaining / speed;
    let t = q as u64;
    t.saturating_add(u64::from((t as f64) < q)).max(1)
}

/// `x.round() as u64` (half away from zero) for non-negative `x`, by cast
/// arithmetic instead of a libm call. `x - trunc(x)` is exact for every
/// finite `x`, so comparing it with 0.5 rounds exactly where `round` does;
/// `x + 0.5` would not (it rounds 0.49999999999999994 up).
fn round_nonneg(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add(u64::from(x - t as f64 >= 0.5))
}

/// The prototype simulator.
///
/// Generic over an observability [`Probe`]; the default [`NullProbe`]
/// monomorphises every probe site to nothing, so uninstrumented runs
/// compile to the pre-observability code.
pub struct PrototypeSim<S: Scheduler, P: Probe = NullProbe> {
    kernel: Microkernel<S>,
    intc: MpInterruptController,
    timer: SystemTimer,
    contention: ContentionModel,
    config: PrototypeConfig,
    activity: Vec<Activity>,
    /// Remaining work per job (fractional cycles).
    remaining: Vec<f64>,
    /// Per-job progress ledger mirroring `remaining` (same indexing).
    progress: Vec<JobProgress>,
    speeds: Vec<f64>,
    /// This run's operating points by rate-class code, built once the
    /// configured rates are validated.
    points: ClassMemo,
    /// Rate class of each task's memory profile, periodic tasks first.
    task_classes: Vec<usize>,
    /// Rate classes of a context move and of ISR bookkeeping.
    switch_class: usize,
    isr_class: usize,
    /// Code of the rate vector the current `speeds` belong to; an event
    /// that leaves every processor's rate class unchanged leaves the speeds
    /// alone. `None` before the first lookup.
    solved_code: Option<usize>,
    /// Scratch for assembling per-processor rates without reallocating
    /// when the codes do not fit or faults force a solve (shared by the
    /// speed solve and burst pricing, which never nest).
    rates_scratch: Vec<f64>,
    /// Scratch for the kernel's scheduling passes.
    pass: SchedulingPass,
    /// Scratch for the desired assignment the event handlers compare
    /// against the running map.
    desired: Vec<Option<JobId>>,
    now: Cycles,
    trace: Trace,
    /// Open activity span per processor (tracked only when the probe
    /// records).
    open: Vec<Option<(SpanKind, Option<JobId>, Cycles)>>,
    /// Instant the scheduler/controller lock becomes free; ISRs on other
    /// processors serialize behind it.
    sched_lock_free_at: Cycles,
    /// Last policy-internal instant for which a pass was already requested
    /// (prevents re-raising while the ISR is still in flight).
    internal_event_raised: Option<Cycles>,
    lock_contentions: u64,
    lock_wait_cycles: Cycles,
    /// Arrival timestamps latched by each peripheral, consumed by its ISR.
    arrival_fifo: Vec<VecDeque<Cycles>>,
    /// Arrivals held back while an activation of the same task is still in
    /// flight (the peripheral/driver serializes re-triggers; the context
    /// vector has one slot per task).
    deferred: Vec<VecDeque<Cycles>>,
    /// In-flight activations per aperiodic task (0 or 1).
    outstanding: Vec<usize>,
    /// Compiled fault plan (inert by default).
    faults: CompiledFaults,
    /// Degradation policy snapshot (from the scheduler).
    deg: DegradationPolicy,
    /// Whether any survival bookkeeping is needed this run.
    track: bool,
    survival: SurvivalStats,
    /// Pending fail-stop `(proc, at)` from the fault plan.
    fail_pending: Option<(usize, Cycles)>,
    /// Recovery latency measurement armed by a fail-stop.
    awaiting_recovery: bool,
    /// Timer raises so far (coordinate for lost-interrupt decisions).
    tick_seq: u64,
    /// Next spurious-timer instant to inject (index into the plan's list).
    spurious_idx: usize,
    /// Per-job budget ledger: demand at release, enforcement budget, and
    /// whether the overrun was already acted on (filled when `track`).
    ledger: Vec<(f64, f64, bool)>,
    /// The observability probe (zero-sized no-op by default).
    probe: P,
    /// Per-processor instant until which a busy period is scheduler-lock
    /// wait rather than useful kernel work (cycle-ledger attribution).
    contention_until: Vec<Cycles>,
    /// Per-processor exact work/stall splitters (cycle-ledger attribution).
    splitters: Vec<WorkSplitter>,
}

impl<S: Scheduler> PrototypeSim<S> {
    /// Builds the simulator around a policy, without instrumentation.
    pub fn new(policy: S, config: PrototypeConfig) -> Self {
        PrototypeSim::probed(policy, config, NullProbe)
    }
}

impl<S: Scheduler, P: Probe> PrototypeSim<S, P> {
    /// Builds the simulator around a policy with an observability probe.
    pub fn probed(policy: S, config: PrototypeConfig, probe: P) -> Self {
        let n_procs = policy.n_procs();
        let n_periph = policy.table().aperiodic().len().max(1);
        let deg = policy.degradation();
        #[allow(unused_mut)]
        let mut kernel = Microkernel::new(policy, config.kernel_costs);
        #[cfg(feature = "mutation")]
        kernel.set_isr_drop_every(config.isr_drop_every);
        PrototypeSim {
            intc: MpInterruptController::new(n_procs, n_periph, config.intc_ack_timeout),
            // `run` rejects a zero tick before the timer fires; the clamp
            // only keeps construction from panicking on one.
            timer: SystemTimer::new(config.tick.max(Cycles::new(1))),
            contention: ContentionModel::new(),
            activity: vec![Activity::Idle; n_procs],
            remaining: Vec::new(),
            progress: Vec::new(),
            speeds: vec![1.0; n_procs],
            points: ClassMemo::default(),
            task_classes: Vec::new(),
            switch_class: 0,
            isr_class: 0,
            solved_code: None,
            rates_scratch: Vec::new(),
            pass: SchedulingPass::default(),
            desired: Vec::new(),
            now: Cycles::ZERO,
            trace: Trace::new(),
            open: vec![None; n_procs],
            sched_lock_free_at: Cycles::ZERO,
            internal_event_raised: None,
            lock_contentions: 0,
            lock_wait_cycles: Cycles::ZERO,
            arrival_fifo: vec![VecDeque::new(); n_periph],
            deferred: vec![VecDeque::new(); n_periph],
            outstanding: vec![0; n_periph],
            track: !deg.is_inert(),
            deg,
            faults: CompiledFaults::none(),
            survival: SurvivalStats::default(),
            fail_pending: None,
            awaiting_recovery: false,
            tick_seq: 0,
            spurious_idx: 0,
            ledger: Vec::new(),
            probe,
            contention_until: vec![Cycles::ZERO; n_procs],
            splitters: vec![WorkSplitter::new(); n_procs],
            kernel,
            config,
        }
    }

    /// Arms a compiled fault plan for this run.
    pub fn with_faults(mut self, faults: CompiledFaults) -> Self {
        self.fail_pending = faults.fail_stop();
        self.track = self.track || !faults.is_empty();
        self.faults = faults;
        self
    }

    /// Access to the interrupt controller (for pre-run configuration such
    /// as booking or multicast, used by the ablation benches).
    pub fn intc_mut(&mut self) -> &mut MpInterruptController {
        &mut self.intc
    }

    /// Runs to the horizon, injecting aperiodic arrivals
    /// `(instant, aperiodic task index)` (sorted).
    ///
    /// # Errors
    ///
    /// [`TaskSetError::UnsortedArrivals`] if arrivals are unsorted;
    /// [`TaskSetError::InvalidParameter`] if the tick is zero, a configured
    /// bus rate is negative or non-finite, or a task's
    /// [`MemoryProfile`](mpdp_core::task::MemoryProfile) is invalid.
    pub fn run(self, arrivals: &[(Cycles, usize)]) -> Result<PrototypeOutcome, TaskSetError> {
        self.run_probed(arrivals).map(|(outcome, _)| outcome)
    }

    /// [`Self::run`], also returning the probe with everything it recorded.
    ///
    /// # Errors
    ///
    /// See [`Self::run`].
    pub fn run_probed(
        mut self,
        arrivals: &[(Cycles, usize)],
    ) -> Result<(PrototypeOutcome, P), TaskSetError> {
        if arrivals.windows(2).any(|w| w[0].0 > w[1].0) {
            return Err(TaskSetError::UnsortedArrivals);
        }
        if !self.config.kernel_bus_rate.is_finite() || self.config.kernel_bus_rate < 0.0 {
            return Err(TaskSetError::InvalidParameter("kernel_bus_rate"));
        }
        if !self.config.isr_bus_rate.is_finite() || self.config.isr_bus_rate < 0.0 {
            return Err(TaskSetError::InvalidParameter("isr_bus_rate"));
        }
        if self.config.tick.is_zero() {
            return Err(TaskSetError::InvalidParameter("tick"));
        }
        let table = self.kernel.policy().table();
        let profiles = || {
            let periodic = table.periodic().iter().map(|t| t.profile());
            periodic.chain(table.aperiodic().iter().map(|t| t.profile()))
        };
        if !profiles().all(|p| p.is_valid()) {
            return Err(TaskSetError::InvalidParameter("memory profile"));
        }
        let task_rates: Vec<f64> = profiles()
            .map(|p| self.contention.rate_for_profile(p))
            .collect();
        self.points = ClassMemo::new(
            self.n_procs(),
            [self.config.kernel_bus_rate, self.config.isr_bus_rate]
                .into_iter()
                .chain(task_rates.iter().copied()),
        );
        self.task_classes = task_rates
            .iter()
            .map(|&rate| self.points.class_of(rate))
            .collect();
        self.switch_class = self.points.class_of(self.config.kernel_bus_rate);
        self.isr_class = self.points.class_of(self.config.isr_bus_rate);
        let mut arrival_idx = 0usize;
        if let Some(pin) = self.config.pin_interrupts_to {
            for per in 0..self.kernel.policy().table().aperiodic().len().max(1) {
                self.intc.book(PeripheralId::new(per as u32), Some(pin));
            }
        }
        self.recompute_speeds();
        let mut loop_iterations = 0u64;
        loop {
            loop_iterations += 1;
            let mut t = self.config.horizon;
            if self.timer.next_fire() < t {
                t = self.timer.next_fire();
            }
            if arrival_idx < arrivals.len() {
                t = t.min(arrivals[arrival_idx].0);
            }
            if let Some(to) = self.intc.next_timeout() {
                t = t.min(to);
            }
            if let Some(internal) = self.kernel.policy().next_internal_event() {
                if internal > self.now {
                    t = t.min(internal);
                }
            }
            if !self.faults.is_empty() {
                if let Some((_, at)) = self.fail_pending {
                    if at > self.now {
                        t = t.min(at);
                    }
                }
                if let Some(&sp) = self.faults.spurious().get(self.spurious_idx) {
                    if sp > self.now {
                        t = t.min(sp);
                    }
                }
                if let Some(edge) = self.faults.next_bus_edge(self.now) {
                    t = t.min(edge);
                }
            }
            for p in 0..self.n_procs() {
                match &self.activity[p] {
                    Activity::Busy { until, .. } => t = t.min(*until),
                    Activity::Running(job) => {
                        if self.speeds[p] > 0.0 {
                            let eta = running_eta(self.remaining[job.index()], self.speeds[p]);
                            t = t.min(self.now + Cycles::new(eta));
                        }
                    }
                    Activity::Idle => {}
                }
                if let Some(ack) = self.ack_time(ProcId::new(p as u32)) {
                    t = t.min(ack);
                }
            }
            let t = t.min(self.config.horizon);
            self.advance_to(t);
            if self.now >= self.config.horizon {
                break;
            }

            // 0. Processor fail-stop (fault plan).
            if let Some((p, at)) = self.fail_pending {
                if at <= self.now {
                    self.fail_pending = None;
                    self.apply_fail_stop(p);
                }
            }
            // 1. Busy periods ending.
            for p in 0..self.n_procs() {
                if let Activity::Busy { until, .. } = &self.activity[p] {
                    if *until <= self.now {
                        self.finish_busy(ProcId::new(p as u32));
                    }
                }
            }
            // 2. Completions.
            self.handle_completions();
            // 3. Controller acknowledge timeouts.
            if self.intc.next_timeout().is_some_and(|to| to <= self.now) {
                self.intc.expire_timeouts(self.now);
            }
            // 4. Interrupt acknowledges.
            for p in 0..self.n_procs() {
                let proc = ProcId::new(p as u32);
                if self.ack_time(proc).is_some_and(|a| a <= self.now) {
                    self.acknowledge(proc);
                }
            }
            // 5. Aperiodic arrivals → peripheral interrupts.
            while arrival_idx < arrivals.len() && arrivals[arrival_idx].0 <= self.now {
                let (at, task_index) = arrivals[arrival_idx];
                self.inject_arrival(task_index, at);
                arrival_idx += 1;
            }
            // 6. Policy-internal instants (e.g. server replenishment) get a
            // scheduling pass via a timer-style interrupt (raised once per
            // instant; the ISR's release path consumes it).
            if let Some(e) = self.kernel.policy().next_internal_event() {
                if e <= self.now && self.internal_event_raised != Some(e) {
                    self.internal_event_raised = Some(e);
                    self.intc.raise_timer(self.now);
                }
            }
            // 7. Timer ticks (a tick whose interrupt the fault plan loses
            // never reaches the controller; its releases are recovered by
            // the next surviving tick).
            while self.timer.is_due(self.now) {
                self.timer.acknowledge();
                self.tick_seq += 1;
                if !self.faults.is_empty() && self.faults.interrupt_lost(self.tick_seq) {
                    self.survival.lost_irqs += 1;
                    continue;
                }
                match self.config.pin_interrupts_to {
                    Some(pin) => self.intc.raise_timer_to(pin, self.now),
                    None => self.intc.raise_timer(self.now),
                }
            }
            // 7b. Spurious timer interrupts from the fault plan.
            while let Some(&sp) = self.faults.spurious().get(self.spurious_idx) {
                if sp > self.now {
                    break;
                }
                self.spurious_idx += 1;
                self.survival.spurious_irqs += 1;
                match self.config.pin_interrupts_to {
                    Some(pin) => self.intc.raise_timer_to(pin, self.now),
                    None => self.intc.raise_timer(self.now),
                }
            }
            // 7c. Detection: deadline misses and budget overruns.
            if self.track {
                for _miss in self.kernel.policy_mut().detect_missed(self.now) {
                    self.survival.miss_events += 1;
                    if self.survival.first_miss.is_none() {
                        self.survival.first_miss = Some(self.now);
                    }
                }
                self.enforce_budgets();
            }
            // 8. Idle processors pull queued work.
            self.scavenge();
            self.recompute_speeds();
        }
        // Close open spans.
        for p in 0..self.n_procs() {
            self.close_span(ProcId::new(p as u32));
        }
        if self.track {
            self.survival.shed += self.kernel.stats().aperiodic_shed;
            if self.survival.failed_proc.is_none() {
                let (g, total) = self.kernel.policy().guaranteed_tasks();
                self.survival.guaranteed_tasks = g as u64;
                self.survival.total_tasks = total as u64;
            }
        }
        Ok((
            PrototypeOutcome {
                trace: self.trace,
                end: self.now,
                kernel: self.kernel.stats(),
                intc: self.intc.stats(),
                lock_contentions: self.lock_contentions,
                lock_wait_cycles: self.lock_wait_cycles,
                survival: self.survival,
                loop_iterations,
            },
            self.probe,
        ))
    }

    /// Applies a fail-stop of processor `p` right now: whatever the core
    /// was doing — running a job, moving a context, or handling an
    /// interrupt — dies with it. The controller withdraws and re-routes any
    /// unacknowledged line; the policy aborts the running job and re-homes
    /// the partition (online re-admission).
    fn apply_fail_stop(&mut self, p: usize) {
        let proc = ProcId::new(p as u32);
        if P::ENABLED {
            self.probe.event(
                self.now,
                Some(p as u32),
                EventKind::FailStop { proc: p as u32 },
            );
        }
        self.close_span(proc);
        self.activity[p] = Activity::Idle;
        self.intc.fail_stop(proc, self.now);
        let report = self.kernel.fail_stop(proc, self.now);
        self.survival.failed_proc = Some(p as u32);
        self.survival.fail_at = Some(self.now);
        self.survival.guaranteed_tasks = report.guaranteed as u64;
        self.survival.total_tasks = report.total as u64;
        if report.lost.is_some() {
            // The running job's context died in the core's registers.
            self.survival.kills += 1;
        }
        self.awaiting_recovery = true;
    }

    /// Tick-granular execution-budget enforcement over the jobs currently
    /// executing, applying the configured overrun action once per job.
    fn enforce_budgets(&mut self) {
        let Some(action) = self.deg.overrun else {
            return;
        };
        for p in 0..self.n_procs() {
            let Activity::Running(job) = self.activity[p] else {
                continue;
            };
            let idx = job.index();
            let Some(&(init, bud, done)) = self.ledger.get(idx) else {
                continue;
            };
            if done || init - self.remaining[idx] <= bud {
                continue;
            }
            self.ledger[idx].2 = true;
            self.survival.overruns += 1;
            match action {
                OverrunAction::RunToCompletion => {}
                OverrunAction::Kill => {
                    let proc = ProcId::new(p as u32);
                    let task = self.task_of(job);
                    self.close_span(proc);
                    let (record, next) = self.kernel.abort_job(proc, job, self.now);
                    if P::ENABLED {
                        self.probe.event(
                            self.now,
                            Some(proc.as_u32()),
                            EventKind::JobComplete {
                                job: job.as_u32(),
                                task: task.as_u32(),
                                met: false,
                            },
                        );
                    }
                    self.trace.record_abort(&record, task, self.now);
                    self.survival.kills += 1;
                    if let JobClass::Aperiodic { task_index } = record.class {
                        // Same re-trigger bookkeeping as a completion.
                        self.outstanding[task_index] -= 1;
                        if let Some(arrival) = self.deferred[task_index].pop_front() {
                            self.outstanding[task_index] += 1;
                            self.arrival_fifo[task_index].push_back(arrival);
                            self.intc
                                .raise_peripheral(PeripheralId::new(task_index as u32), self.now);
                        }
                    }
                    self.set_activity(proc, Activity::Idle);
                    if let Some(action) = next {
                        self.start_switch(proc, action, false);
                    }
                }
                OverrunAction::Demote => {
                    self.kernel.policy_mut().demote_job(job);
                    self.survival.demotions += 1;
                }
            }
        }
    }

    fn n_procs(&self) -> usize {
        self.activity.len()
    }

    /// When the pending signal to `proc` (if any) can be acknowledged.
    fn ack_time(&self, proc: ProcId) -> Option<Cycles> {
        let sig = self.intc.signaled(proc)?;
        let base = sig.signaled_at + self.config.ack_latency;
        match &self.activity[proc.index()] {
            // A processor mid-switch (completion path) finishes first.
            Activity::Busy { until, .. } => Some(base.max(*until)),
            _ => Some(base),
        }
    }

    fn advance_to(&mut self, t: Cycles) {
        let dt = t.saturating_sub(self.now);
        if !dt.is_zero() {
            let dtf = dt.as_u64() as f64;
            for p in 0..self.n_procs() {
                if P::ENABLED {
                    self.account(p, dt);
                }
                if let Activity::Running(job) = self.activity[p] {
                    let executed = dtf * self.speeds[p];
                    let r = &mut self.remaining[job.index()];
                    // Retired work is capped by the work left: an advance
                    // that overshoots (ceil'd ETA) must not retire cycles
                    // that were never demanded.
                    let retired = executed.min(*r);
                    *r -= retired;
                    // Report the integer delta of the *cumulative* retired
                    // work — per-step rounding would drift from `remaining`
                    // over long horizons (each step can mis-round by up to
                    // 0.5 cycles, and the errors do not cancel).
                    let prog = &mut self.progress[job.index()];
                    prog.done += retired;
                    #[cfg(any(test, feature = "mutation"))]
                    if self.config.truncate_progress {
                        // Seeded bug (`WorkAccountingTruncation`): truncate
                        // each step independently — the fractional residue
                        // is dropped every step and never made up, so the
                        // reported total drifts below the retired work.
                        let delta = retired as u64;
                        prog.reported += delta;
                        self.kernel
                            .policy_mut()
                            .on_progress(job, Cycles::new(delta), t);
                        continue;
                    }
                    let total = round_nonneg(prog.done);
                    let delta = total - prog.reported;
                    prog.reported = total;
                    self.kernel
                        .policy_mut()
                        .on_progress(job, Cycles::new(delta), t);
                }
            }
        }
        self.now = t;
    }

    /// Cycle-ledger attribution of the wall interval `[now, now + dt)` on
    /// processor `p`. Called for every advance step, so the per-processor
    /// charges tile the horizon exactly — the conservation invariant.
    fn account(&mut self, p: usize, dt: Cycles) {
        let dtu = dt.as_u64();
        match &self.activity[p] {
            Activity::Running(_) => {
                // Split wall time into retired work and bus/memory stall.
                // The splitter keeps the integer split exactly conserving.
                let executed = dtu as f64 * self.speeds[p];
                let (work, stall) = self.splitters[p].split(dtu, executed);
                self.probe.charge(p, Bucket::TaskWork, work);
                self.probe.charge(p, Bucket::BusStall, stall);
            }
            Activity::Busy { work, .. } => {
                // The leading part of a busy period up to `contention_until`
                // is scheduler-lock wait; the rest is the kernel burst.
                let contended = self.contention_until[p]
                    .saturating_sub(self.now)
                    .as_u64()
                    .min(dtu);
                if contended > 0 {
                    self.probe.charge(p, Bucket::Contention, contended);
                }
                let bucket = match work {
                    BusyWork::SchedPass => Bucket::Sched,
                    BusyWork::IpiResolve => Bucket::Isr,
                    BusyWork::Switch { .. } => Bucket::Switch,
                };
                self.probe.charge(p, bucket, dtu - contended);
            }
            Activity::Idle => self.probe.charge(p, Bucket::Idle, dtu),
        }
    }

    /// Rate class of processor `p`'s current activity; with
    /// `running_only`, a kernel burst counts as idle.
    fn rate_class(&self, p: usize, running_only: bool) -> usize {
        match &self.activity[p] {
            Activity::Running(job) => self.progress[job.index()].class,
            Activity::Busy { work, .. } if !running_only => match work {
                BusyWork::Switch { .. } => self.switch_class,
                _ => self.isr_class,
            },
            _ => 0,
        }
    }

    /// The code of every processor's rate class (see [`ClassMemo`]).
    fn rate_code(&self, running_only: bool) -> usize {
        let radix = self.points.radix();
        (0..self.n_procs())
            .rev()
            .fold(0, |code, p| code * radix + self.rate_class(p, running_only))
    }

    /// Every processor's bus-access rate, in the `rates_scratch` buffer
    /// (the caller hands it back).
    fn rate_vector(&mut self, running_only: bool) -> Vec<f64> {
        let mut rates = std::mem::take(&mut self.rates_scratch);
        rates.clear();
        rates.extend(
            (0..self.n_procs()).map(|p| self.points.rate(self.rate_class(p, running_only))),
        );
        rates
    }

    fn recompute_speeds(&mut self) {
        // Called on every event-loop iteration, but most events (ticks,
        // acks, arrivals that change nothing) leave every processor's
        // activity — and hence its rate class — untouched, and the codes
        // that do occur repeat. The fixed point is a pure function of the
        // rates, so: an unchanged code skips everything, and any other is
        // answered from the run's memo, filled from the thread's
        // operating-point table, which pays for the damped up-to-MAX_ITERS
        // solve once per distinct vector. Fault plans inject a
        // *time-varying* bus factor on top, so any run with faults always
        // re-solves.
        if self.faults.is_empty() {
            if self.points.fits() {
                let code = self.rate_code(false);
                if self.solved_code != Some(code) {
                    self.solved_code = Some(code);
                    let (speeds, _) = self.points.point(code);
                    self.speeds.clear();
                    self.speeds.extend_from_slice(speeds);
                }
                return;
            }
            let rates = self.rate_vector(false);
            self.contention.cached_speeds_into(&rates, &mut self.speeds);
            self.rates_scratch = rates;
            return;
        }
        let rates = self.rate_vector(false);
        self.contention.speeds_into(&rates, &mut self.speeds);
        self.rates_scratch = rates;
        // Transient bus-latency spike: every memory access is slower, so
        // all execution slows by the compounded window factor.
        let f = self.faults.bus_factor(self.now);
        if f > 1.0 {
            for s in &mut self.speeds {
                *s /= f;
            }
        }
    }

    /// Prices a kernel burst under current load. A context move is a
    /// *finite* burst, so near-saturation open-system queueing delays do not
    /// apply; instead, concurrent bursts serialize on the bus (each word
    /// waits behind one word from every other bursting processor) and
    /// steady task traffic adds a bounded queueing delay.
    fn cost_duration(&mut self, cost: KernelCost) -> Cycles {
        let service = f64::from(mpdp_hw::DDR_SERVICE_CYCLES);
        let other_bursts = self
            .activity
            .iter()
            .filter(|a| matches!(a, Activity::Busy { .. }))
            .count() as f64;
        let task_wait = if self.points.fits() {
            let code = self.rate_code(true);
            self.points.point(code).1
        } else {
            let running_rates = self.rate_vector(true);
            let delay = self.contention.cached_queueing_delay(&running_rates);
            self.rates_scratch = running_rates;
            delay
        };
        let task_wait = task_wait.min(3.0 * service);
        let per_word = service * (1.0 + other_bursts) + task_wait;
        let cycles = f64::from(cost.cpu) + f64::from(cost.bus_words) * per_word;
        Cycles::new(round_nonneg(cycles).max(1))
    }

    /// Cycles this ISR must wait for the scheduler/controller lock, and
    /// bookkeeping for the contention statistics. The lock is then held
    /// until `held_until`.
    fn acquire_sched_lock(&mut self, proc: ProcId, held_until_estimate: Cycles) -> Cycles {
        let wait = self.sched_lock_free_at.saturating_sub(self.now);
        if !wait.is_zero() {
            self.lock_contentions += 1;
            self.lock_wait_cycles += wait;
            if P::ENABLED {
                self.contention_until[proc.index()] = self.now + wait;
                self.probe.event(
                    self.now,
                    Some(proc.as_u32()),
                    EventKind::LockContention { wait },
                );
            }
        }
        self.sched_lock_free_at = held_until_estimate + wait;
        wait
    }

    /// Prices a burst via [`Self::cost_duration`] and emits a bus-stall
    /// event carrying the burst's contention excess over its uncontended
    /// cost (the hardware model knows the deterministic service time).
    fn priced_burst(&mut self, proc: ProcId, cost: KernelCost) -> Cycles {
        let busy = self.cost_duration(cost);
        if P::ENABLED {
            let excess = self.contention.burst_excess(busy, cost.cpu, cost.bus_words);
            if !excess.is_zero() {
                self.probe.event(
                    self.now,
                    Some(proc.as_u32()),
                    EventKind::BusStall { excess },
                );
            }
        }
        busy
    }

    /// Emits release/promotion events for the outcome of the scheduling
    /// pass in `self.pass`.
    fn release_events(&mut self) {
        let pass = std::mem::take(&mut self.pass);
        for &j in &pass.released {
            let aperiodic = matches!(
                self.kernel.policy().job(j).class,
                JobClass::Aperiodic { .. }
            );
            let task = self.task_of(j).as_u32();
            self.probe.event(
                self.now,
                None,
                EventKind::JobRelease {
                    job: j.as_u32(),
                    task,
                    aperiodic,
                },
            );
        }
        for &j in &pass.promoted {
            let task = self.task_of(j).as_u32();
            self.probe.event(
                self.now,
                None,
                EventKind::Promotion {
                    job: j.as_u32(),
                    task,
                },
            );
        }
        self.pass = pass;
    }

    fn acknowledge(&mut self, proc: ProcId) {
        if matches!(self.activity[proc.index()], Activity::Busy { .. }) {
            // A completion-path switch is still in flight; the acknowledge
            // time derived in `ack_time` defers past it.
            return;
        }
        let sig = self.intc.acknowledge(proc, self.now);
        let paused = match self.activity[proc.index()] {
            Activity::Running(j) => Some(j),
            _ => None,
        };
        self.close_span(proc);
        if P::ENABLED {
            let irq = match sig.source {
                InterruptSource::Timer => IrqKind::Timer,
                InterruptSource::Peripheral(_) => IrqKind::Peripheral,
                InterruptSource::Ipi { .. } => IrqKind::Ipi,
            };
            self.probe
                .event(self.now, Some(proc.as_u32()), EventKind::IsrEnter { irq });
            if matches!(sig.source, InterruptSource::Ipi { .. }) {
                self.probe
                    .event(self.now, Some(proc.as_u32()), EventKind::IpiDeliver);
            }
        }
        match sig.source {
            InterruptSource::Timer => {
                self.kernel
                    .scheduling_pass(proc, self.now, true, &mut self.pass);
                if P::ENABLED {
                    self.release_events();
                }
                let busy = self.priced_burst(proc, self.pass.cost);
                let wait = self.acquire_sched_lock(proc, self.now + busy);
                let until = self.now + wait + busy;
                self.set_activity(
                    proc,
                    Activity::Busy {
                        until,
                        work: BusyWork::SchedPass,
                        paused,
                        in_isr: true,
                    },
                );
            }
            InterruptSource::Peripheral(per) => {
                let Some(arrival) = self.arrival_fifo[per.index()].pop_front() else {
                    // A raise with no latched arrival is a spurious line:
                    // pay the ISR prologue/epilogue and release nothing.
                    let cost = KernelCost {
                        cpu: self.config.kernel_costs.isr_entry + self.config.kernel_costs.isr_exit,
                        bus_words: 2,
                    };
                    let busy = self.priced_burst(proc, cost);
                    let wait = self.acquire_sched_lock(proc, self.now + busy);
                    self.set_activity(
                        proc,
                        Activity::Busy {
                            until: self.now + wait + busy,
                            work: BusyWork::IpiResolve,
                            paused,
                            in_isr: true,
                        },
                    );
                    return;
                };
                let job = self.kernel.try_aperiodic_isr(
                    per.index(),
                    proc,
                    arrival,
                    self.now,
                    &mut self.pass,
                );
                if job.is_none() {
                    // Shed under overload: acknowledge only. A deferred
                    // re-trigger (if any) gets its chance next.
                    self.outstanding[per.index()] -= 1;
                    if let Some(next) = self.deferred[per.index()].pop_front() {
                        self.outstanding[per.index()] += 1;
                        self.arrival_fifo[per.index()].push_back(next);
                        self.intc.raise_peripheral(per, self.now);
                    }
                }
                if P::ENABLED {
                    // The ISR's pass only re-assigns (it neither releases
                    // periodic jobs nor promotes), and the aperiodic job is
                    // released by `try_aperiodic_isr` itself, so emit that
                    // release here or the event stream shows completions
                    // with no matching release.
                    if let Some(j) = job {
                        let task = self.task_of(j).as_u32();
                        self.probe.event(
                            self.now,
                            None,
                            EventKind::JobRelease {
                                job: j.as_u32(),
                                task,
                                aperiodic: true,
                            },
                        );
                    }
                }
                let busy = self.priced_burst(proc, self.pass.cost);
                let wait = self.acquire_sched_lock(proc, self.now + busy);
                let until = self.now + wait + busy;
                self.set_activity(
                    proc,
                    Activity::Busy {
                        until,
                        work: BusyWork::SchedPass,
                        paused,
                        in_isr: true,
                    },
                );
            }
            InterruptSource::Ipi { .. } => {
                let cost = KernelCost {
                    cpu: self.config.kernel_costs.isr_entry + self.config.kernel_costs.isr_exit,
                    bus_words: 2,
                };
                let busy = self.priced_burst(proc, cost);
                let wait = self.acquire_sched_lock(proc, self.now + busy);
                let until = self.now + wait + busy;
                self.set_activity(
                    proc,
                    Activity::Busy {
                        until,
                        work: BusyWork::IpiResolve,
                        paused,
                        in_isr: true,
                    },
                );
            }
        }
    }

    fn finish_busy(&mut self, proc: ProcId) {
        let Activity::Busy {
            work,
            paused,
            in_isr,
            ..
        } = std::mem::replace(&mut self.activity[proc.index()], Activity::Idle)
        else {
            unreachable!("finish_busy on a non-busy processor");
        };
        match work {
            BusyWork::SchedPass => {
                if self.awaiting_recovery {
                    // First scheduling pass completed after a fail-stop:
                    // the re-homed assignment takes effect here.
                    self.awaiting_recovery = false;
                    self.survival.recovery_at = Some(self.now);
                    if P::ENABLED {
                        self.probe
                            .event(self.now, Some(proc.as_u32()), EventKind::Recovery);
                    }
                }
                // Recompute the assignment *now* — completions and other
                // processors' switches may have landed during the pass — and
                // raise IPIs for every remote processor whose task changed.
                self.kernel.policy().assign_into(&mut self.desired);
                for p in 0..self.n_procs() {
                    let changed = self.desired[p] != self.kernel.policy().running()[p];
                    if p == proc.index() || !changed {
                        continue;
                    }
                    let to = ProcId::new(p as u32);
                    self.intc.raise_ipi(proc, to, 0, self.now);
                    if P::ENABLED {
                        self.probe.event(
                            self.now,
                            Some(proc.as_u32()),
                            EventKind::IpiSend { to: to.as_u32() },
                        );
                    }
                }
                // Raising IPIs leaves the policy alone, so the assignment
                // just computed is still the one to switch to.
                self.switch_to_desired(proc, paused, in_isr);
            }
            BusyWork::IpiResolve => {
                self.resolve_local_switch(proc, paused, in_isr);
            }
            BusyWork::Switch { from_isr } => {
                // Context move done; the policy was updated at switch start.
                if from_isr {
                    self.intc.end_of_interrupt(proc, self.now);
                    if P::ENABLED {
                        self.probe
                            .event(self.now, Some(proc.as_u32()), EventKind::IsrExit);
                    }
                }
                let running = self.kernel.policy().running()[proc.index()];
                self.set_activity(
                    proc,
                    match running {
                        Some(j) => Activity::Running(j),
                        None => Activity::Idle,
                    },
                );
            }
        }
    }

    /// Decides and starts this processor's own context switch from the
    /// current desired assignment (the IPI handler's logic).
    fn resolve_local_switch(&mut self, proc: ProcId, paused: Option<JobId>, in_isr: bool) {
        self.kernel.policy().assign_into(&mut self.desired);
        self.switch_to_desired(proc, paused, in_isr);
    }

    /// Starts this processor's own context switch towards its slot of
    /// `desired`, which the caller has just computed (shared by the IPI
    /// handler and the scheduling-pass epilogue).
    fn switch_to_desired(&mut self, proc: ProcId, paused: Option<JobId>, in_isr: bool) {
        let want = self.desired[proc.index()];
        let cur = self.kernel.policy().running()[proc.index()];
        debug_assert_eq!(cur, paused);
        if want == cur {
            self.end_isr_and_resume(proc, paused, in_isr);
            return;
        }
        let restore = want.filter(|j| {
            // The desired job may still be running elsewhere (processor-pair
            // swap); the scavenger picks it up once its processor releases
            // it.
            !self
                .kernel
                .policy()
                .running()
                .iter()
                .enumerate()
                .any(|(q, r)| q != proc.index() && *r == Some(*j))
        });
        if restore.is_none() && cur.is_none() {
            self.end_isr_and_resume(proc, None, in_isr);
        } else {
            self.start_switch(
                proc,
                SwitchAction {
                    proc,
                    save: cur,
                    restore,
                },
                in_isr,
            );
        }
    }

    /// Applies a switch to the policy immediately and models its duration.
    fn start_switch(&mut self, proc: ProcId, action: SwitchAction, from_isr: bool) {
        let cost = self.kernel.switch_cost(&action);
        if let Some(restore) = action.restore {
            self.ensure_job(restore);
        }
        self.kernel
            .apply_switch_probed(&action, self.now, &mut self.probe);
        let busy = self.priced_burst(proc, cost);
        let until = self.now + busy;
        self.set_activity(
            proc,
            Activity::Busy {
                until,
                work: BusyWork::Switch { from_isr },
                paused: None,
                in_isr: from_isr,
            },
        );
    }

    fn end_isr_and_resume(&mut self, proc: ProcId, paused: Option<JobId>, in_isr: bool) {
        if in_isr {
            self.intc.end_of_interrupt(proc, self.now);
            if P::ENABLED {
                self.probe
                    .event(self.now, Some(proc.as_u32()), EventKind::IsrExit);
            }
        }
        self.set_activity(
            proc,
            match paused {
                Some(j) => Activity::Running(j),
                None => Activity::Idle,
            },
        );
    }

    fn handle_completions(&mut self) {
        loop {
            let done = (0..self.n_procs()).find_map(|p| match self.activity[p] {
                Activity::Running(j) if self.remaining[j.index()] <= 0.5 => {
                    Some((ProcId::new(p as u32), j))
                }
                _ => None,
            });
            let Some((proc, job)) = done else { break };
            let task = self.task_of(job);
            // Completion flush: the ≤0.5-cycle float residue left in
            // `remaining` is work the job will never run for, but it *was*
            // demanded — top the progress ledger up to the integer demand
            // so the deltas reported via `on_progress` sum exactly to it.
            let prog = &mut self.progress[job.index()];
            let target = round_nonneg(prog.demand);
            #[cfg(any(test, feature = "mutation"))]
            let skip_flush = self.config.truncate_progress;
            #[cfg(not(any(test, feature = "mutation")))]
            let skip_flush = false;
            if !skip_flush && target > prog.reported {
                let delta = target - prog.reported;
                prog.reported = target;
                prog.done = prog.demand;
                self.kernel
                    .policy_mut()
                    .on_progress(job, Cycles::new(delta), self.now);
            }
            self.close_span(proc);
            let (record, next) = self.kernel.complete_job(proc, job, self.now);
            if P::ENABLED {
                self.probe.event(
                    self.now,
                    Some(proc.as_u32()),
                    EventKind::JobComplete {
                        job: job.as_u32(),
                        task: task.as_u32(),
                        met: record.absolute_deadline.is_none_or(|d| self.now <= d),
                    },
                );
            }
            self.trace.record_completion(&record, task, self.now);
            if let JobClass::Aperiodic { task_index } = record.class {
                self.outstanding[task_index] -= 1;
                if let Some(arrival) = self.deferred[task_index].pop_front() {
                    // A re-trigger was held back by the peripheral; deliver
                    // it now that the previous activation retired.
                    self.outstanding[task_index] += 1;
                    self.arrival_fifo[task_index].push_back(arrival);
                    self.intc
                        .raise_peripheral(PeripheralId::new(task_index as u32), self.now);
                }
            }
            // Drop the dead job from the activity map before anything
            // (switch pricing, speed recomputation) walks it.
            self.set_activity(proc, Activity::Idle);
            if let Some(action) = next {
                self.start_switch(proc, action, false);
            }
        }
    }

    /// Latches an external trigger of aperiodic task `task_index` that
    /// occurred at `at`. Serialized per task: a trigger for a task whose
    /// previous activation is still in flight is deferred until it
    /// completes, but its response time is still measured from `at`.
    fn inject_arrival(&mut self, task_index: usize, at: Cycles) {
        if self.outstanding[task_index] > 0 {
            self.deferred[task_index].push_back(at);
        } else {
            self.outstanding[task_index] += 1;
            self.arrival_fifo[task_index].push_back(at);
            self.intc
                .raise_peripheral(PeripheralId::new(task_index as u32), self.now);
        }
    }

    fn scavenge(&mut self) {
        for p in 0..self.n_procs() {
            let proc = ProcId::new(p as u32);
            if matches!(self.activity[p], Activity::Idle) {
                if let Some(next) = self.kernel.policy().pick_for_idle(proc) {
                    self.start_switch(
                        proc,
                        SwitchAction {
                            proc,
                            save: None,
                            restore: Some(next),
                        },
                        false,
                    );
                }
            }
        }
        // Promoted-work preemption: the kernel's switch-completion path
        // re-checks the local High Priority Ready Queue, so a processor
        // running lower-band filler yields as soon as its own promoted job
        // becomes available (e.g. it just finished being saved by the
        // processor it migrated from). Without this, a mid-migration
        // promoted job could wait until the next tick — violating the
        // promotion analysis. The switches started here change only the
        // running map, never a queue, so each processor's promoted job is
        // the one the assignment had before the first of them.
        for p in 0..self.n_procs() {
            let proc = ProcId::new(p as u32);
            let Activity::Running(cur) = self.activity[p] else {
                continue;
            };
            let Some(want) = self.kernel.policy().promoted_for(proc) else {
                continue;
            };
            if want == cur {
                continue;
            }
            let available = !self.kernel.policy().running().contains(&Some(want));
            if available {
                self.start_switch(
                    proc,
                    SwitchAction {
                        proc,
                        save: Some(cur),
                        restore: Some(want),
                    },
                    false,
                );
            }
        }
    }

    fn ensure_job(&mut self, job: JobId) {
        let idx = job.index();
        if self.remaining.len() <= idx {
            self.remaining.resize(idx + 1, f64::NAN);
            self.progress.resize(idx + 1, JobProgress::UNTRACKED);
        }
        if self.remaining[idx].is_nan() {
            let table = self.kernel.policy().table();
            let (nominal, coord) = match self.kernel.policy().job(job).class {
                JobClass::Periodic { task_index } => {
                    (table.periodic()[task_index].wcet(), task_index)
                }
                JobClass::Aperiodic { task_index } => (
                    table.aperiodic()[task_index].exec(),
                    table.periodic().len() + task_index,
                ),
            };
            let nominal = nominal.as_u64() as f64;
            let mut demand = nominal;
            if !self.faults.is_empty() {
                let release = self.kernel.policy().job(job).release;
                demand *= self.faults.exec_factor(coord, release);
            }
            self.remaining[idx] = demand;
            self.progress[idx] = JobProgress {
                done: 0.0,
                reported: 0,
                demand,
                class: self.task_classes[coord],
            };
            if self.track {
                if self.ledger.len() <= idx {
                    self.ledger.resize(idx + 1, (0.0, 0.0, true));
                }
                self.ledger[idx] = (demand, nominal * self.deg.budget_margin, false);
            }
        }
    }

    fn task_of(&self, job: JobId) -> TaskId {
        match self.kernel.policy().job(job).class {
            JobClass::Periodic { task_index } => {
                self.kernel.policy().table().periodic()[task_index].id()
            }
            JobClass::Aperiodic { task_index } => {
                self.kernel.policy().table().aperiodic()[task_index].id()
            }
        }
    }

    fn set_activity(&mut self, proc: ProcId, activity: Activity) {
        self.close_span(proc);
        if P::ENABLED {
            let open = match &activity {
                Activity::Running(j) => Some((SpanKind::Task, Some(*j))),
                Activity::Busy { work, .. } => match work {
                    BusyWork::Switch { .. } => Some((SpanKind::Switch, None)),
                    BusyWork::SchedPass => Some((SpanKind::Sched, None)),
                    BusyWork::IpiResolve => Some((SpanKind::Isr, None)),
                },
                Activity::Idle => None,
            };
            if let Some((kind, job)) = open {
                self.open[proc.index()] = Some((kind, job, self.now));
            }
        }
        self.activity[proc.index()] = activity;
    }

    fn close_span(&mut self, proc: ProcId) {
        if let Some((kind, job, start)) = self.open[proc.index()].take() {
            if start < self.now {
                self.probe.span(Span {
                    proc: proc.as_u32(),
                    kind,
                    job: job.map(JobId::as_u32),
                    task: job.map(|j| self.task_of(j).as_u32()),
                    start,
                    end: self.now,
                });
            }
        }
    }
}

/// Convenience: builds and runs a prototype simulation over an MPDP policy.
///
/// # Errors
///
/// See [`PrototypeSim::run`].
pub fn run_prototype<S: Scheduler>(
    policy: S,
    arrivals: &[(Cycles, usize)],
    config: PrototypeConfig,
) -> Result<PrototypeOutcome, TaskSetError> {
    // Jobs released through the timer path have their ledgers created in
    // `acknowledge`/`start_switch`; pre-size nothing.
    PrototypeSim::new(policy, config).run(arrivals)
}

/// [`run_prototype`] under a compiled fault plan.
///
/// Fault semantics in the prototype stack: WCET overruns multiply job
/// demand; bus spikes slow every processor while the window is open; a
/// fail-stop kills the core mid-whatever-it-was-doing, and the interrupt
/// controller re-routes its unacknowledged line; lost interrupts swallow
/// timer raises (their releases recover at the next tick); spurious
/// interrupts add extra timer raises. Budget enforcement and deadline-miss
/// detection are tick-granular, as in the theoretical stack.
///
/// # Errors
///
/// See [`PrototypeSim::run`].
pub fn run_prototype_with<S: Scheduler>(
    policy: S,
    arrivals: &[(Cycles, usize)],
    config: PrototypeConfig,
    faults: &CompiledFaults,
) -> Result<PrototypeOutcome, TaskSetError> {
    PrototypeSim::new(policy, config)
        .with_faults(faults.clone())
        .run(arrivals)
}

/// [`run_prototype_with`] under an observability probe, returning the probe
/// with its recorded events, spans, and cycle ledger.
///
/// # Errors
///
/// See [`PrototypeSim::run`].
pub fn run_prototype_probed<S: Scheduler, P: Probe>(
    policy: S,
    arrivals: &[(Cycles, usize)],
    config: PrototypeConfig,
    faults: &CompiledFaults,
    probe: P,
) -> Result<(PrototypeOutcome, P), TaskSetError> {
    PrototypeSim::probed(policy, config, probe)
        .with_faults(faults.clone())
        .run_probed(arrivals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdp_analysis_shim::build_quantized_table;
    use mpdp_core::ids::TaskId;
    use mpdp_core::policy::MpdpPolicy;
    use mpdp_core::priority::Priority;
    use mpdp_core::task::{AperiodicTask, PeriodicTask};
    use proptest::prelude::*;

    /// Minimal stand-in for the offline tool (the sim crate cannot depend
    /// on `mpdp-analysis`, which sits above it).
    mod mpdp_analysis_shim {
        use super::*;
        use mpdp_core::rta;
        use mpdp_core::task::TaskTable;

        pub fn build_quantized_table(
            periodic: Vec<PeriodicTask>,
            aperiodic: Vec<AperiodicTask>,
            n_procs: usize,
            tick: Cycles,
        ) -> TaskTable {
            let results = rta::analyze(&periodic, n_procs).expect("schedulable");
            let promotions = results
                .iter()
                .map(|r| Cycles::new(r.promotion.as_u64() / tick.as_u64() * tick.as_u64()))
                .collect();
            TaskTable::new(periodic, aperiodic, promotions, n_procs).expect("valid")
        }
    }

    const TICK: Cycles = Cycles::new(100_000);

    fn policy(n_procs: usize) -> MpdpPolicy {
        let t0 = PeriodicTask::new(TaskId::new(0), "t0", Cycles::new(30_000), TICK * 10)
            .with_priorities(Priority::new(1), Priority::new(4))
            .with_processor(ProcId::new(0));
        let t1 = PeriodicTask::new(TaskId::new(1), "t1", Cycles::new(40_000), TICK * 20)
            .with_priorities(Priority::new(0), Priority::new(3))
            .with_processor(ProcId::new((n_procs - 1) as u32));
        let ap = AperiodicTask::new(TaskId::new(2), "ap", Cycles::new(50_000));
        MpdpPolicy::new(build_quantized_table(vec![t0, t1], vec![ap], n_procs, TICK))
    }

    fn cfg(horizon_ticks: u64) -> PrototypeConfig {
        PrototypeConfig::new(TICK * horizon_ticks).with_tick(TICK)
    }

    #[test]
    fn running_eta_never_schedules_a_zero_length_step() {
        // The raw `ceil(remaining / speed)` collapses to 0 when the residue
        // is 0.0 (or a denormal that divides to < 1 ulp above an integer the
        // ceil leaves alone at 0); the clamp keeps the event loop strictly
        // advancing.
        assert_eq!(running_eta(0.0, 1.0), 1);
        assert_eq!(running_eta(f64::MIN_POSITIVE, 1.0), 1);
        assert_eq!(running_eta(0.4, 0.8), 1);
        // Regular cases are untouched by the clamp.
        assert_eq!(running_eta(100.0, 1.0), 100);
        assert_eq!(running_eta(100.0, 0.5), 200);
        assert_eq!(running_eta(99.1, 1.0), 100);
        // Completion leaves at most 0.5 cycles of residue behind
        // (`handle_completions` retires anything at or below it), so for a
        // surviving job `remaining > 0.5` and, at full speed, the ceil alone
        // already yields ≥ 1 — the clamp is behaviour-neutral there.
        assert_eq!(running_eta(0.5000001, 1.0), 1);
    }

    /// The libm answers the cast arithmetic must reproduce.
    fn libm_eta(remaining: f64, speed: f64) -> u64 {
        (remaining / speed).ceil().max(1.0) as u64
    }

    fn libm_round(x: f64) -> u64 {
        x.round() as u64
    }

    #[test]
    fn rounding_helpers_match_libm_at_the_edges() {
        let two52 = 2f64.powi(52);
        for x in [
            0.0,
            0.5,
            0.49999999999999994,
            1.5,
            2.5,
            two52 - 0.5,
            two52 + 1.0,
            2f64.powi(53),
        ] {
            assert_eq!(round_nonneg(x), libm_round(x), "round({x})");
            assert_eq!(running_eta(x, 1.0), libm_eta(x, 1.0), "eta({x})");
        }
        assert_eq!(round_nonneg(0.49999999999999994), 0, "x + 0.5 would say 1");
        assert_eq!(round_nonneg(two52 - 0.5), 1 << 52);
        // A quotient landing exactly on an integer is its own ceiling, and
        // one a rounding error below it is not.
        assert_eq!(3.0 / 0.75, 4.0);
        assert_eq!(running_eta(3.0, 0.75), 4);
        assert_eq!(0.3 / 0.1, 2.9999999999999996);
        assert_eq!(running_eta(0.3, 0.1), libm_eta(0.3, 0.1));
        assert_eq!(running_eta(0.3, 0.1), 3);
        // An infinite quotient saturates, as the float-to-int cast does.
        assert_eq!(running_eta(f64::INFINITY, 1.0), u64::MAX);
        assert_eq!(running_eta(1e300, 1e-10), libm_eta(1e300, 1e-10));
        assert_eq!(round_nonneg(1e300), libm_round(1e300));
    }

    /// A non-negative finite `f64`: any bit pattern, integers and exact
    /// halves on both sides of 2^52, and the neighbours of halves.
    fn nonneg_finite() -> impl Strategy<Value = f64> {
        prop_oneof![
            any::<u64>()
                .prop_map(|bits| f64::from_bits(bits >> 1))
                .prop_map(|x| if x.is_finite() { x } else { f64::MAX }),
            (0u64..1 << 55).prop_map(|n| n as f64 / 2.0),
            (0u64..1 << 20, 0u64..3)
                .prop_map(|(n, step)| { f64::from_bits((n as f64 + 0.5).to_bits() + step - 1) }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn rounding_helpers_match_libm(x in nonneg_finite(), speed in nonneg_finite()) {
            prop_assert_eq!(round_nonneg(x), libm_round(x), "round({})", x);
            prop_assert_eq!(running_eta(x, 1.0), libm_eta(x, 1.0), "eta({})", x);
            prop_assume!(speed > 0.0);
            prop_assert_eq!(
                running_eta(x, speed),
                libm_eta(x, speed),
                "eta({} / {})",
                x,
                speed
            );
        }
    }

    #[test]
    fn a_run_too_wide_for_the_class_memo_asks_the_thread_table() {
        // Eight processors over idle, kernel, ISR and one task profile
        // need 4^8 codes, past the memo's cap: every lookup goes to the
        // thread's operating-point table instead.
        let n = 8;
        let config = cfg(40);
        let policy_n = policy(n);
        let table = policy_n.table();
        assert_eq!(
            table.periodic()[0].profile(),
            table.aperiodic()[0].profile()
        );
        let task_rate = ContentionModel::new().rate_for_profile(table.periodic()[0].profile());
        let memo = ClassMemo::new(n, [config.kernel_bus_rate, config.isr_bus_rate, task_rate]);
        assert_eq!(memo.radix(), 4);
        assert!(!memo.fits());
        let (outcome, rec) = run_prototype_probed(
            policy(n),
            &[(TICK * 5, 0)],
            config,
            &CompiledFaults::none(),
            mpdp_obs::EventRecorder::new(n),
        )
        .unwrap();
        assert_eq!(outcome.trace.deadline_misses(), 0);
        assert_eq!(outcome.trace.completions_of(TaskId::new(0)).count(), 4);
        assert_eq!(outcome.trace.completions_of(TaskId::new(2)).count(), 1);
        rec.ledger()
            .check_conservation(outcome.end)
            .expect("every processor's cycles add up to the horizon");
    }

    #[test]
    fn periodic_jobs_complete_and_meet_deadlines() {
        let outcome = run_prototype(policy(2), &[], cfg(40)).unwrap();
        let t0 = outcome.trace.completions_of(TaskId::new(0)).count();
        let t1 = outcome.trace.completions_of(TaskId::new(1)).count();
        assert_eq!(t0, 4, "period 10 ticks over 40 ticks");
        assert_eq!(t1, 2);
        assert_eq!(outcome.trace.deadline_misses(), 0);
    }

    #[test]
    fn overheads_make_prototype_slower_than_ideal() {
        let outcome = run_prototype(policy(1), &[], cfg(10)).unwrap();
        let t0 = outcome
            .trace
            .completions_of(TaskId::new(0))
            .next()
            .expect("completed");
        // Ideal finish would be ≈ 30_000 cycles (plus scheduling); the
        // prototype must be later but in the same ballpark.
        assert!(t0.finish > Cycles::new(30_000), "finish {}", t0.finish);
        assert!(
            t0.finish < Cycles::new(120_000),
            "overheads exploded: {}",
            t0.finish
        );
    }

    #[test]
    fn aperiodic_served_via_interrupt_path() {
        let arrivals = vec![(TICK * 5, 0usize)];
        let outcome = run_prototype(policy(2), &arrivals, cfg(40)).unwrap();
        let ap = outcome
            .trace
            .completions_of(TaskId::new(2))
            .next()
            .expect("aperiodic completed");
        assert!(ap.release >= TICK * 5);
        assert!(ap.response >= Cycles::new(50_000), "at least its exec time");
        assert!(
            ap.response < TICK * 4,
            "mostly-idle system must serve it promptly, got {}",
            ap.response
        );
        assert!(outcome.intc.acknowledged > 0);
        assert_eq!(outcome.trace.deadline_misses(), 0);
    }

    #[test]
    fn kernel_activity_is_accounted() {
        let outcome = run_prototype(policy(2), &[(TICK * 3, 0)], cfg(30)).unwrap();
        assert!(outcome.kernel.sched_passes >= 30, "one pass per tick");
        assert!(outcome.kernel.context_switches > 0);
        assert_eq!(outcome.kernel.aperiodic_releases, 1);
    }

    #[test]
    fn more_processors_do_not_lose_work() {
        for n in [1usize, 2, 3, 4] {
            let outcome = run_prototype(policy(n), &[], cfg(40)).unwrap();
            assert_eq!(
                outcome.trace.deadline_misses(),
                0,
                "misses on {n} processors"
            );
            assert_eq!(outcome.trace.completions_of(TaskId::new(0)).count(), 4);
        }
    }

    #[test]
    fn spans_recorded_when_probed() {
        let (_, rec) = run_prototype_probed(
            policy(1),
            &[],
            cfg(10),
            &CompiledFaults::none(),
            mpdp_obs::EventRecorder::new(1),
        )
        .unwrap();
        for kind in [SpanKind::Task, SpanKind::Sched, SpanKind::Switch] {
            assert!(
                rec.spans().iter().any(|s| s.kind == kind),
                "missing {kind:?} spans"
            );
        }
        // Spans never overlap per processor.
        for w in rec.spans().windows(2) {
            assert!(w[0].end <= w[1].start, "{:?} overlaps {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn saturated_aperiodic_stream_preserves_periodic_deadlines() {
        // Promotions (quantized) must protect periodic tasks even under a
        // dense aperiodic load.
        let arrivals: Vec<(Cycles, usize)> = (0..40)
            .map(|i| (Cycles::new(60_000 * i + 10), 0usize))
            .collect();
        let outcome = run_prototype(policy(2), &arrivals, cfg(60)).unwrap();
        assert_eq!(outcome.trace.deadline_misses(), 0);
        assert!(outcome.trace.completions_of(TaskId::new(2)).count() > 10);
    }
}
