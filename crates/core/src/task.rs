//! Task model: periodic (hard) and aperiodic (soft) task specifications and
//! the validated [`TaskTable`] both simulators execute.
//!
//! A *task* is a static specification; one activation of a task at runtime is
//! a *job* (see [`crate::policy`]). Periodic tasks carry a dual priority and a
//! design-time processor assignment (used only after promotion — before
//! promotion they may run anywhere, per the MPDP hybrid scheme). Every task
//! also carries a [`MemoryProfile`] describing how it stresses the memory
//! hierarchy, and a stack size that determines its context-switch cost on the
//! prototype.
//!
//! # Examples
//!
//! ```
//! use mpdp_core::task::{PeriodicTask, TaskTable};
//! use mpdp_core::time::Cycles;
//! use mpdp_core::ids::{ProcId, TaskId};
//! use mpdp_core::priority::Priority;
//!
//! let task = PeriodicTask::new(TaskId::new(0), "sensor_diag", Cycles::from_millis(5), Cycles::from_millis(50))
//!     .with_priorities(Priority::new(1), Priority::new(4))
//!     .with_processor(ProcId::new(0));
//! assert_eq!(task.deadline(), Cycles::from_millis(50)); // implicit deadline = period
//! ```

use std::fmt;

use crate::error::TaskSetError;
use crate::ids::{ProcId, TaskId};
use crate::priority::{DualPriority, Priority};
use crate::time::Cycles;

/// How a task exercises the memory hierarchy, per cycle of useful compute.
///
/// This is the behaviourally sufficient statistic the prototype simulator
/// needs to turn "C cycles of work" into bus transactions: instruction
/// fetches that miss the I-cache and data accesses that target the shared DDR
/// go over the OPB bus (12-cycle service); everything else is satisfied
/// locally in 1 cycle (BRAM / cache hit), exactly the latencies the paper
/// reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryProfile {
    /// Instruction fetches per compute cycle (≈1.0 for the single-issue
    /// MicroBlaze).
    pub ifetch_per_cycle: f64,
    /// Fraction of instruction fetches served by the instruction cache.
    pub icache_hit_rate: f64,
    /// Data accesses per compute cycle.
    pub data_access_per_cycle: f64,
    /// Fraction of data accesses that go to shared DDR memory (the rest hit
    /// the processor-local BRAM).
    pub shared_data_fraction: f64,
}

impl MemoryProfile {
    /// A compute-bound profile: high cache hit rate, mostly local data.
    ///
    /// Typical of `basicmath`/`bitcount`-style kernels with small working
    /// sets that fit the local BRAM.
    pub const fn compute_bound() -> Self {
        MemoryProfile {
            ifetch_per_cycle: 1.0,
            icache_hit_rate: 0.99,
            data_access_per_cycle: 0.20,
            shared_data_fraction: 0.02,
        }
    }

    /// A memory-bound profile: larger working set, significant shared-memory
    /// traffic. Typical of `susan` processing an image resident in DDR.
    pub const fn memory_bound() -> Self {
        MemoryProfile {
            ifetch_per_cycle: 1.0,
            icache_hit_rate: 0.97,
            data_access_per_cycle: 0.30,
            shared_data_fraction: 0.20,
        }
    }

    /// A balanced default between [`MemoryProfile::compute_bound`] and
    /// [`MemoryProfile::memory_bound`]: a working set that mostly fits the
    /// local BRAM but spills some shared-data traffic.
    pub const fn balanced() -> Self {
        MemoryProfile {
            ifetch_per_cycle: 1.0,
            icache_hit_rate: 0.98,
            data_access_per_cycle: 0.25,
            shared_data_fraction: 0.04,
        }
    }

    /// Validates that all rates are finite, non-negative, and that the two
    /// fractions lie in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Never panics; returns `false` for invalid profiles.
    pub fn is_valid(&self) -> bool {
        let rates_ok = self.ifetch_per_cycle.is_finite()
            && self.ifetch_per_cycle >= 0.0
            && self.data_access_per_cycle.is_finite()
            && self.data_access_per_cycle >= 0.0;
        let fracs_ok = (0.0..=1.0).contains(&self.icache_hit_rate)
            && (0.0..=1.0).contains(&self.shared_data_fraction);
        rates_ok && fracs_ok
    }

    /// Expected *bus transactions per compute cycle* this profile generates:
    /// I-cache misses plus shared-memory data accesses.
    pub fn bus_accesses_per_cycle(&self) -> f64 {
        self.ifetch_per_cycle * (1.0 - self.icache_hit_rate)
            + self.data_access_per_cycle * self.shared_data_fraction
    }
}

impl Default for MemoryProfile {
    fn default() -> Self {
        MemoryProfile::balanced()
    }
}

/// Default task stack size in 32-bit words (4 KiB), moved through the bus on
/// every context switch together with the register file.
pub const DEFAULT_STACK_WORDS: u32 = 1024;

/// A hard periodic task specification.
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodicTask {
    id: TaskId,
    name: String,
    wcet: Cycles,
    period: Cycles,
    deadline: Cycles,
    offset: Cycles,
    priorities: DualPriority,
    processor: ProcId,
    profile: MemoryProfile,
    stack_words: u32,
}

impl PeriodicTask {
    /// Creates a periodic task with an implicit deadline (`D = T`), zero
    /// offset, default priorities `(0, 0)`, processor `P0`, a balanced memory
    /// profile, and the default stack size. Use the `with_*` methods to
    /// refine it.
    pub fn new(id: TaskId, name: impl Into<String>, wcet: Cycles, period: Cycles) -> Self {
        PeriodicTask {
            id,
            name: name.into(),
            wcet,
            period,
            deadline: period,
            offset: Cycles::ZERO,
            priorities: DualPriority::new(Priority::new(0), Priority::new(0)),
            processor: ProcId::new(0),
            profile: MemoryProfile::default(),
            stack_words: DEFAULT_STACK_WORDS,
        }
    }

    /// Sets a constrained deadline (`D ≤ T` is enforced at table validation).
    pub fn with_deadline(mut self, deadline: Cycles) -> Self {
        self.deadline = deadline;
        self
    }

    /// Sets the release offset of the first job.
    pub fn with_offset(mut self, offset: Cycles) -> Self {
        self.offset = offset;
        self
    }

    /// Sets the lower-band and upper-band priority levels.
    pub fn with_priorities(mut self, low: Priority, high: Priority) -> Self {
        self.priorities = DualPriority::new(low, high);
        self
    }

    /// Sets the design-time processor this task runs on *after* promotion.
    pub fn with_processor(mut self, processor: ProcId) -> Self {
        self.processor = processor;
        self
    }

    /// Sets the memory profile.
    pub fn with_profile(mut self, profile: MemoryProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Sets the stack size in 32-bit words.
    pub fn with_stack_words(mut self, words: u32) -> Self {
        self.stack_words = words;
        self
    }

    /// Task id.
    pub fn id(&self) -> TaskId {
        self.id
    }
    /// Human-readable name (benchmark + dataset in the MiBench set).
    pub fn name(&self) -> &str {
        &self.name
    }
    /// Worst-case execution time `C`.
    pub fn wcet(&self) -> Cycles {
        self.wcet
    }
    /// Period `T`.
    pub fn period(&self) -> Cycles {
        self.period
    }
    /// Relative deadline `D`.
    pub fn deadline(&self) -> Cycles {
        self.deadline
    }
    /// First-release offset.
    pub fn offset(&self) -> Cycles {
        self.offset
    }
    /// The dual (low-band, high-band) priorities.
    pub fn priorities(&self) -> DualPriority {
        self.priorities
    }
    /// Design-time processor assignment (binding after promotion).
    pub fn processor(&self) -> ProcId {
        self.processor
    }
    /// Memory behaviour.
    pub fn profile(&self) -> &MemoryProfile {
        &self.profile
    }
    /// Stack size in words.
    pub fn stack_words(&self) -> u32 {
        self.stack_words
    }

    /// Utilization `C / T` of this task.
    pub fn utilization(&self) -> f64 {
        self.wcet.as_u64() as f64 / self.period.as_u64() as f64
    }
}

impl fmt::Display for PeriodicTask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} \"{}\" C={} T={} D={} prio=({},{}) on {}",
            self.id,
            self.name,
            self.wcet,
            self.period,
            self.deadline,
            self.priorities.low,
            self.priorities.high,
            self.processor
        )
    }
}

/// A soft aperiodic task specification, released by an external interrupt.
#[derive(Debug, Clone, PartialEq)]
pub struct AperiodicTask {
    id: TaskId,
    name: String,
    exec: Cycles,
    profile: MemoryProfile,
    stack_words: u32,
}

impl AperiodicTask {
    /// Creates an aperiodic task with the given execution demand and a
    /// balanced memory profile.
    pub fn new(id: TaskId, name: impl Into<String>, exec: Cycles) -> Self {
        AperiodicTask {
            id,
            name: name.into(),
            exec,
            profile: MemoryProfile::default(),
            stack_words: DEFAULT_STACK_WORDS,
        }
    }

    /// Sets the memory profile.
    pub fn with_profile(mut self, profile: MemoryProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Sets the stack size in 32-bit words.
    pub fn with_stack_words(mut self, words: u32) -> Self {
        self.stack_words = words;
        self
    }

    /// Task id.
    pub fn id(&self) -> TaskId {
        self.id
    }
    /// Human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }
    /// Execution demand per activation.
    pub fn exec(&self) -> Cycles {
        self.exec
    }
    /// Memory behaviour.
    pub fn profile(&self) -> &MemoryProfile {
        &self.profile
    }
    /// Stack size in words.
    pub fn stack_words(&self) -> u32 {
        self.stack_words
    }
}

impl fmt::Display for AperiodicTask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} \"{}\" C={}", self.id, self.name, self.exec)
    }
}

/// A validated set of tasks plus the per-task promotion offsets, ready to be
/// executed by either simulator. Produced by the offline analysis tool
/// (`mpdp-analysis`), which mirrors the paper's "in-house tool that produces
/// the task tables with processor assignments and all the required
/// information for both our target architecture and the simulator".
///
/// Promotion offsets are *relative to release*: a job released at `r` is
/// promoted at `r + promotion[i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskTable {
    periodic: Vec<PeriodicTask>,
    aperiodic: Vec<AperiodicTask>,
    promotions: Vec<Cycles>,
    n_procs: usize,
}

impl TaskTable {
    /// Builds and validates a task table.
    ///
    /// `promotions[i]` is the promotion offset of `periodic[i]`.
    ///
    /// # Errors
    ///
    /// Returns a [`TaskSetError`] if any task has a zero WCET or period, a
    /// deadline of zero or beyond its period, a WCET beyond its deadline, a
    /// duplicate id, an out-of-range processor, or if two tasks on the same
    /// processor share a high-band priority level.
    ///
    /// # Panics
    ///
    /// Panics if `promotions.len() != periodic.len()`.
    pub fn new(
        periodic: Vec<PeriodicTask>,
        aperiodic: Vec<AperiodicTask>,
        promotions: Vec<Cycles>,
        n_procs: usize,
    ) -> Result<Self, TaskSetError> {
        assert_eq!(
            promotions.len(),
            periodic.len(),
            "one promotion offset per periodic task"
        );
        let mut seen = std::collections::HashSet::new();
        for t in &periodic {
            if t.wcet.is_zero() {
                return Err(TaskSetError::ZeroWcet(t.id));
            }
            if t.period.is_zero() {
                return Err(TaskSetError::ZeroPeriod(t.id));
            }
            if t.deadline.is_zero() || t.deadline > t.period {
                return Err(TaskSetError::InvalidDeadline(t.id));
            }
            if t.wcet > t.deadline {
                return Err(TaskSetError::WcetExceedsDeadline(t.id));
            }
            if t.processor.index() >= n_procs {
                return Err(TaskSetError::UnknownProcessor(t.id, t.processor));
            }
            if !seen.insert(t.id) {
                return Err(TaskSetError::DuplicateTaskId(t.id));
            }
        }
        for t in &aperiodic {
            if t.exec.is_zero() {
                return Err(TaskSetError::ZeroWcet(t.id));
            }
            if !seen.insert(t.id) {
                return Err(TaskSetError::DuplicateTaskId(t.id));
            }
        }
        // Upper-band order must be unambiguous per processor.
        for p in 0..n_procs {
            let mut by_high: Vec<&PeriodicTask> = periodic
                .iter()
                .filter(|t| t.processor.index() == p)
                .collect();
            by_high.sort_by_key(|t| t.priorities.high);
            for w in by_high.windows(2) {
                if w[0].priorities.high == w[1].priorities.high {
                    return Err(TaskSetError::DuplicateHighPriority(
                        ProcId::new(p as u32),
                        w[0].id,
                        w[1].id,
                    ));
                }
            }
        }
        Ok(TaskTable {
            periodic,
            aperiodic,
            promotions,
            n_procs,
        })
    }

    /// The periodic tasks, in table order.
    pub fn periodic(&self) -> &[PeriodicTask] {
        &self.periodic
    }

    /// The aperiodic tasks, in table order.
    pub fn aperiodic(&self) -> &[AperiodicTask] {
        &self.aperiodic
    }

    /// Promotion offset (relative to release) of the `i`-th periodic task.
    pub fn promotion(&self, i: usize) -> Cycles {
        self.promotions[i]
    }

    /// All promotion offsets, parallel to [`TaskTable::periodic`].
    pub fn promotions(&self) -> &[Cycles] {
        &self.promotions
    }

    /// Number of processors in the platform this table targets.
    pub fn n_procs(&self) -> usize {
        self.n_procs
    }

    /// Total periodic utilization `Σ C_i/T_i` (NOT divided by the processor
    /// count; divide by [`TaskTable::n_procs`] for the system utilization the
    /// paper quotes).
    pub fn total_utilization(&self) -> f64 {
        self.periodic.iter().map(PeriodicTask::utilization).sum()
    }

    /// System utilization: total utilization divided by processor count.
    pub fn system_utilization(&self) -> f64 {
        self.total_utilization() / self.n_procs as f64
    }

    /// Re-homes periodic task `i` to `proc` — the degraded-mode failover
    /// path after a processor fail-stop. Deliberately skips the full
    /// [`TaskTable::new`] revalidation: the caller (the online re-admission
    /// in [`crate::policy`]) re-runs the response-time analysis itself and
    /// owns the guarantee bookkeeping for the degraded table.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `proc` is outside the platform.
    pub fn set_processor(&mut self, i: usize, proc: ProcId) {
        assert!(
            proc.index() < self.n_procs,
            "cannot re-home task to unknown processor {proc}"
        );
        self.periodic[i] = self.periodic[i].clone().with_processor(proc);
    }

    /// Overwrites the promotion offset of periodic task `i` (online
    /// re-analysis after failover).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set_promotion(&mut self, i: usize, promotion: Cycles) {
        self.promotions[i] = promotion;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(id: u32, c: u64, period: u64) -> PeriodicTask {
        PeriodicTask::new(
            TaskId::new(id),
            format!("t{id}"),
            Cycles::new(c),
            Cycles::new(period),
        )
        .with_priorities(Priority::new(id), Priority::new(id))
    }

    #[test]
    fn builder_defaults() {
        let task = t(0, 10, 100);
        assert_eq!(task.deadline(), task.period());
        assert_eq!(task.offset(), Cycles::ZERO);
        assert_eq!(task.processor(), ProcId::new(0));
        assert_eq!(task.stack_words(), DEFAULT_STACK_WORDS);
        assert!((task.utilization() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn table_accepts_valid_set() {
        let table = TaskTable::new(
            vec![t(0, 10, 100), t(1, 20, 200)],
            vec![AperiodicTask::new(TaskId::new(2), "ap", Cycles::new(50))],
            vec![Cycles::new(90), Cycles::new(150)],
            1,
        )
        .expect("valid");
        assert_eq!(table.periodic().len(), 2);
        assert_eq!(table.aperiodic().len(), 1);
        assert_eq!(table.promotion(1), Cycles::new(150));
        assert!((table.total_utilization() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn table_rejects_zero_wcet() {
        let err = TaskTable::new(vec![t(0, 0, 100)], vec![], vec![Cycles::ZERO], 1).unwrap_err();
        assert_eq!(err, TaskSetError::ZeroWcet(TaskId::new(0)));
    }

    #[test]
    fn table_rejects_deadline_beyond_period() {
        let bad = t(0, 10, 100).with_deadline(Cycles::new(200));
        let err = TaskTable::new(vec![bad], vec![], vec![Cycles::ZERO], 1).unwrap_err();
        assert_eq!(err, TaskSetError::InvalidDeadline(TaskId::new(0)));
    }

    #[test]
    fn table_rejects_wcet_beyond_deadline() {
        let bad = t(0, 90, 100).with_deadline(Cycles::new(50));
        let err = TaskTable::new(vec![bad], vec![], vec![Cycles::ZERO], 1).unwrap_err();
        assert_eq!(err, TaskSetError::WcetExceedsDeadline(TaskId::new(0)));
    }

    #[test]
    fn table_rejects_duplicate_ids_across_classes() {
        let err = TaskTable::new(
            vec![t(0, 10, 100)],
            vec![AperiodicTask::new(TaskId::new(0), "ap", Cycles::new(5))],
            vec![Cycles::ZERO],
            1,
        )
        .unwrap_err();
        assert_eq!(err, TaskSetError::DuplicateTaskId(TaskId::new(0)));
    }

    #[test]
    fn table_rejects_unknown_processor() {
        let bad = t(0, 10, 100).with_processor(ProcId::new(3));
        let err = TaskTable::new(vec![bad], vec![], vec![Cycles::ZERO], 2).unwrap_err();
        assert_eq!(
            err,
            TaskSetError::UnknownProcessor(TaskId::new(0), ProcId::new(3))
        );
    }

    #[test]
    fn table_rejects_duplicate_high_priority_same_proc() {
        let a = t(0, 10, 100).with_priorities(Priority::new(0), Priority::new(5));
        let b = t(1, 10, 100).with_priorities(Priority::new(1), Priority::new(5));
        let err =
            TaskTable::new(vec![a, b], vec![], vec![Cycles::ZERO, Cycles::ZERO], 1).unwrap_err();
        assert!(matches!(err, TaskSetError::DuplicateHighPriority(..)));
    }

    #[test]
    fn duplicate_high_priority_ok_on_different_procs() {
        let a = t(0, 10, 100).with_priorities(Priority::new(0), Priority::new(5));
        let b = t(1, 10, 100)
            .with_priorities(Priority::new(1), Priority::new(5))
            .with_processor(ProcId::new(1));
        assert!(TaskTable::new(vec![a, b], vec![], vec![Cycles::ZERO, Cycles::ZERO], 2).is_ok());
    }

    #[test]
    fn memory_profile_validation_and_bus_rate() {
        assert!(MemoryProfile::compute_bound().is_valid());
        assert!(MemoryProfile::memory_bound().is_valid());
        let bad = MemoryProfile {
            icache_hit_rate: 1.5,
            ..MemoryProfile::balanced()
        };
        assert!(!bad.is_valid());
        let p = MemoryProfile {
            ifetch_per_cycle: 1.0,
            icache_hit_rate: 0.9,
            data_access_per_cycle: 0.2,
            shared_data_fraction: 0.5,
        };
        assert!((p.bus_accesses_per_cycle() - (0.1 + 0.1)).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        let s = format!("{}", t(3, 10, 100));
        assert!(s.contains("T3"));
        assert!(s.contains("P0"));
        let ap = AperiodicTask::new(TaskId::new(9), "susan", Cycles::from_secs(5));
        assert!(format!("{ap}").contains("susan"));
    }
}
