//! Seeded scheduler bugs — the mutation catalog the verification layers
//! are measured against.
//!
//! A runtime monitor that has never caught a bug proves nothing; each
//! [`Mutation`] is a deliberate, realistic scheduler defect, and the
//! campaign driver (`exp_mutation_campaign`) measures which detection
//! layer — the bounded exhaustive explorer, the invariant monitor on
//! sampled runs, or the differential test-suite checks — kills it.
//!
//! Mutations are injected at four sites:
//!
//! * [`MutationSite::Table`] — the analyzed [`TaskTable`] is rewritten
//!   before the run ([`Mutation::seed_table`]);
//! * [`MutationSite::Policy`] — the scheduler's decisions are perturbed by
//!   wrapping it in a [`MutantPolicy`];
//! * [`MutationSite::Kernel`] — the microkernel ISR path drops work
//!   (`mpdp-kernel`'s `mutation` feature);
//! * [`MutationSite::Sim`] — the prototype event loop mis-accounts work
//!   (`mpdp-sim`'s `mutation` feature).
//!
//! Every seeding API is fallible: a mutation that touched nothing
//! ([`MutationError::Vacuous`]) must fail loudly, otherwise a test that
//! "catches" it passes vacuously — the exact bug the original
//! count-returning `promotion_off_by_one` invited.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use mpdp_core::ids::{JobId, ProcId};
use mpdp_core::policy::{DegradationPolicy, FailoverReport, Job, JobClass, MpdpPolicy, Scheduler};
use mpdp_core::task::TaskTable;
use mpdp_core::time::Cycles;

/// Where in the stack a mutation is injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MutationSite {
    /// Rewrites the analyzed task table before the run.
    Table,
    /// Perturbs the scheduling policy's decisions ([`MutantPolicy`] or a
    /// policy builder flag).
    Policy,
    /// Microkernel ISR path (`mpdp-kernel`, `mutation` feature).
    Kernel,
    /// Prototype event loop (`mpdp-sim`, `mutation` feature).
    Sim,
}

impl MutationSite {
    /// Stable kebab-case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            MutationSite::Table => "table",
            MutationSite::Policy => "policy",
            MutationSite::Kernel => "kernel",
            MutationSite::Sim => "sim",
        }
    }
}

impl fmt::Display for MutationSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One deliberate scheduler bug from the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mutation {
    /// Every promotion offset one cycle early (the classic D−ttr
    /// off-by-one; promotions fire a cycle before the analyzed instant).
    PromotionEarly,
    /// Every promotion offset one cycle late — the symmetric off-by-one,
    /// eroding exactly the protection window the analysis proved.
    PromotionLate,
    /// Band-order inversion: an unpromoted (low-band) periodic job is
    /// scheduled while a ready aperiodic (middle-band) job waits.
    BandOrderInversion,
    /// FIFO violation in the aperiodic band: the youngest ready aperiodic
    /// job is served before the oldest.
    FifoViolation,
    /// A periodic job that last ran on a foreign processor is silently
    /// demoted instead of promoted — the promotion is lost on migration.
    LostPromotionOnMigration,
    /// The policy reports an inert degradation configuration to the
    /// simulator, so execution-budget enforcement is silently skipped.
    BudgetEnforcementSkip,
    /// `fail_processor` re-homes the dead processor's tasks but skips the
    /// online re-admission analysis, leaving stale promotion offsets and
    /// guarantees in the table (armed via
    /// `MpdpPolicy::with_stale_failover`, `mutation` feature).
    StaleTableAfterFailover,
    /// The kernel ISR path drops every Nth aperiodic release (arrival
    /// acknowledged, job never enqueued).
    IsrReleaseDrop,
    /// The prototype reports per-step floored progress deltas and skips
    /// the completion flush, so integer work accounting drifts from the
    /// job's true demand.
    WorkAccountingTruncation,
}

impl Mutation {
    /// The full catalog, in export order.
    pub const CATALOG: [Mutation; 9] = [
        Mutation::PromotionEarly,
        Mutation::PromotionLate,
        Mutation::BandOrderInversion,
        Mutation::FifoViolation,
        Mutation::LostPromotionOnMigration,
        Mutation::BudgetEnforcementSkip,
        Mutation::StaleTableAfterFailover,
        Mutation::IsrReleaseDrop,
        Mutation::WorkAccountingTruncation,
    ];

    /// Every mutation in the catalog.
    pub fn catalog() -> &'static [Mutation] {
        &Self::CATALOG
    }

    /// Stable kebab-case name used in exports and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            Mutation::PromotionEarly => "promotion-early",
            Mutation::PromotionLate => "promotion-late",
            Mutation::BandOrderInversion => "band-order-inversion",
            Mutation::FifoViolation => "fifo-violation",
            Mutation::LostPromotionOnMigration => "lost-promotion-on-migration",
            Mutation::BudgetEnforcementSkip => "budget-enforcement-skip",
            Mutation::StaleTableAfterFailover => "stale-table-after-failover",
            Mutation::IsrReleaseDrop => "isr-release-drop",
            Mutation::WorkAccountingTruncation => "work-accounting-truncation",
        }
    }

    /// One-line description for reports.
    pub fn description(self) -> &'static str {
        match self {
            Mutation::PromotionEarly => "promotion offsets shifted one cycle early",
            Mutation::PromotionLate => "promotion offsets shifted one cycle late",
            Mutation::BandOrderInversion => {
                "unpromoted periodic scheduled over a waiting aperiodic"
            }
            Mutation::FifoViolation => "youngest aperiodic served before the oldest",
            Mutation::LostPromotionOnMigration => {
                "promotion dropped for jobs that migrated off their design processor"
            }
            Mutation::BudgetEnforcementSkip => {
                "degradation policy reported inert; budget enforcement disabled"
            }
            Mutation::StaleTableAfterFailover => {
                "fail_processor skips online re-admission; stale promotions and guarantees"
            }
            Mutation::IsrReleaseDrop => "ISR acknowledges but drops every Nth aperiodic release",
            Mutation::WorkAccountingTruncation => {
                "per-step floored progress deltas, no completion flush"
            }
        }
    }

    /// Which layer of the stack the mutation is injected at.
    pub fn site(self) -> MutationSite {
        match self {
            Mutation::PromotionEarly | Mutation::PromotionLate => MutationSite::Table,
            Mutation::BandOrderInversion
            | Mutation::FifoViolation
            | Mutation::LostPromotionOnMigration
            | Mutation::BudgetEnforcementSkip
            | Mutation::StaleTableAfterFailover => MutationSite::Policy,
            Mutation::IsrReleaseDrop => MutationSite::Kernel,
            Mutation::WorkAccountingTruncation => MutationSite::Sim,
        }
    }

    /// Whether [`MutantPolicy::new`] can arm this mutation (the stale-table
    /// bug is a policy-site mutation but lives inside `fail_processor`
    /// itself, behind `mpdp-core`'s `mutation` feature).
    pub fn wrappable(self) -> bool {
        matches!(
            self,
            Mutation::BandOrderInversion
                | Mutation::FifoViolation
                | Mutation::LostPromotionOnMigration
                | Mutation::BudgetEnforcementSkip
        )
    }

    /// Parses a kebab-case [`Mutation::name`] back into the mutation.
    pub fn from_name(name: &str) -> Option<Mutation> {
        Self::CATALOG.iter().copied().find(|m| m.name() == name)
    }

    /// Seeds a [`MutationSite::Table`] mutation into `table`, returning how
    /// many promotion offsets moved.
    ///
    /// # Errors
    ///
    /// [`MutationError::Vacuous`] if no offset changed (the table has no
    /// room for the shift — asserting on the count is what keeps the smoke
    /// tests non-vacuous); [`MutationError::WrongSite`] if the mutation is
    /// not injected at the table.
    pub fn seed_table(self, table: &mut TaskTable) -> Result<usize, MutationError> {
        let mutated = match self {
            Mutation::PromotionEarly => shift_promotions(table, Shift::Earlier),
            Mutation::PromotionLate => shift_promotions(table, Shift::Later),
            other => return Err(MutationError::WrongSite(other)),
        };
        if mutated == 0 {
            return Err(MutationError::Vacuous(self));
        }
        Ok(mutated)
    }
}

impl fmt::Display for Mutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a mutation could not be seeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationError {
    /// The mutation was applied but changed nothing — a run against it
    /// would pass vacuously.
    Vacuous(Mutation),
    /// The mutation is not injected at the site this API serves.
    WrongSite(Mutation),
}

impl fmt::Display for MutationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MutationError::Vacuous(m) => {
                write!(f, "mutation `{m}` changed nothing (vacuous seed)")
            }
            MutationError::WrongSite(m) => {
                write!(f, "mutation `{m}` is injected at the {} site", m.site())
            }
        }
    }
}

impl std::error::Error for MutationError {}

#[derive(Clone, Copy)]
enum Shift {
    Earlier,
    Later,
}

/// Shifts every shiftable promotion offset by one cycle. `Earlier` skips
/// zero offsets (already immediate); `Later` skips offsets at or past the
/// deadline (a never-promote baseline stays a baseline). Returns how many
/// offsets moved.
fn shift_promotions(table: &mut TaskTable, dir: Shift) -> usize {
    let mut mutated = 0;
    for i in 0..table.periodic().len() {
        let offset = table.promotion(i);
        let deadline = table.periodic()[i].deadline();
        match dir {
            Shift::Earlier => {
                if !offset.is_zero() {
                    table.set_promotion(i, offset - Cycles::new(1));
                    mutated += 1;
                }
            }
            Shift::Later => {
                if offset < deadline {
                    table.set_promotion(i, offset + Cycles::new(1));
                    mutated += 1;
                }
            }
        }
    }
    mutated
}

/// Seeds the classic promotion off-by-one (every offset one cycle early).
///
/// Run the mutated table under an event-driven theoretical config — the
/// tick-driven stacks quantize promotion stamps to the scheduling pass,
/// which would mask a one-cycle skew.
///
/// # Errors
///
/// [`MutationError::Vacuous`] when no offset could move — callers must
/// propagate or assert, never ignore, or the smoke test passes vacuously.
pub fn promotion_off_by_one(table: &mut TaskTable) -> Result<usize, MutationError> {
    Mutation::PromotionEarly.seed_table(table)
}

/// Shared handle counting how often a [`MutantPolicy`]'s seeded bug
/// actually fired — zero activations means the scenario never exercised
/// the mutant and any "kill" verdict would be meaningless.
pub type ActivationCounter = Rc<Cell<u64>>;

/// Shared per-job ledger of `on_progress` deltas (job index → cycles
/// reported), used to detect work-accounting mutations.
pub type ProgressLedger = Rc<RefCell<BTreeMap<usize, u64>>>;

/// An [`MpdpPolicy`] wrapper that injects [`MutationSite::Policy`] bugs
/// while recording every `on_progress` delta.
///
/// All scheduling decisions are forwarded to the inner policy and then
/// perturbed according to the armed [`Mutation`]; an unarmed wrapper
/// ([`MutantPolicy::observer`]) is decision-transparent and only keeps the
/// progress ledger. The [`ActivationCounter`] survives the policy being
/// moved into a simulator, so a campaign can verify the bug actually fired.
pub struct MutantPolicy {
    inner: MpdpPolicy,
    mutation: Option<Mutation>,
    activations: ActivationCounter,
    progress: ProgressLedger,
}

impl MutantPolicy {
    /// Arms `mutation` over `inner`.
    ///
    /// # Panics
    ///
    /// Panics if the mutation is not [`Mutation::wrappable`] — arming e.g.
    /// a table mutation here would silently do nothing, the vacuity this
    /// module exists to prevent.
    pub fn new(inner: MpdpPolicy, mutation: Mutation) -> Self {
        assert!(
            mutation.wrappable(),
            "`{mutation}` is injected at the {} site, not via MutantPolicy",
            mutation.site()
        );
        MutantPolicy {
            inner,
            mutation: Some(mutation),
            activations: Rc::new(Cell::new(0)),
            progress: Rc::new(RefCell::new(BTreeMap::new())),
        }
    }

    /// A decision-transparent wrapper that only records the progress
    /// ledger (used to detect sim-site work-accounting mutations).
    pub fn observer(inner: MpdpPolicy) -> Self {
        MutantPolicy {
            inner,
            mutation: None,
            activations: Rc::new(Cell::new(0)),
            progress: Rc::new(RefCell::new(BTreeMap::new())),
        }
    }

    /// Handle to the activation counter (clone before moving the policy
    /// into a simulator).
    pub fn activation_counter(&self) -> ActivationCounter {
        Rc::clone(&self.activations)
    }

    /// Handle to the per-job `on_progress` ledger.
    pub fn progress_ledger(&self) -> ProgressLedger {
        Rc::clone(&self.progress)
    }

    fn tick_activation(&self) {
        self.activations.set(self.activations.get() + 1);
    }

    fn is_aperiodic(&self, id: JobId) -> bool {
        matches!(self.inner.job(id).class, JobClass::Aperiodic { .. })
    }

    /// The design-time processor of a periodic job.
    fn design_proc(&self, job: &Job) -> Option<ProcId> {
        match job.class {
            JobClass::Periodic { task_index } => {
                Some(self.inner.table().periodic()[task_index].processor())
            }
            JobClass::Aperiodic { .. } => None,
        }
    }

    /// A live, unpromoted, non-running periodic job absent from `taken` —
    /// the band-inversion mutant's preferred filler.
    fn unpromoted_periodic(&self, taken: &[Option<JobId>]) -> Option<JobId> {
        self.inner.live_jobs().find(|&u| {
            let job = self.inner.job(u);
            job.is_periodic()
                && !job.promoted
                && !self.inner.is_running(u)
                && !taken.contains(&Some(u))
        })
    }

    /// The youngest live, non-running aperiodic job absent from `taken`
    /// (job ids are release-ordered, so max id = youngest).
    fn youngest_aperiodic(&self, taken: &[Option<JobId>]) -> Option<JobId> {
        self.inner
            .live_jobs()
            .filter(|&y| {
                self.is_aperiodic(y) && !self.inner.is_running(y) && !taken.contains(&Some(y))
            })
            .max()
    }

    /// Applies the armed mutation to a desired assignment.
    fn mutate_assignment(&self, desired: &mut [Option<JobId>]) {
        match self.mutation {
            Some(Mutation::BandOrderInversion) => {
                // Displace one assigned aperiodic job with an unpromoted
                // periodic one: low band over middle band.
                let Some(p) = desired
                    .iter()
                    .position(|s| s.is_some_and(|j| self.is_aperiodic(j)))
                else {
                    return;
                };
                if let Some(u) = self.unpromoted_periodic(desired) {
                    desired[p] = Some(u);
                    self.tick_activation();
                }
            }
            Some(Mutation::FifoViolation) => {
                // Replace an assigned aperiodic with the youngest waiting
                // one — last in, first out.
                for p in 0..desired.len() {
                    let Some(a) = desired[p].filter(|&j| self.is_aperiodic(j)) else {
                        continue;
                    };
                    if let Some(y) = self.youngest_aperiodic(desired) {
                        if y > a {
                            desired[p] = Some(y);
                            self.tick_activation();
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

impl Scheduler for MutantPolicy {
    fn table(&self) -> &TaskTable {
        self.inner.table()
    }
    fn n_procs(&self) -> usize {
        self.inner.n_procs()
    }
    fn job(&self, id: JobId) -> &Job {
        self.inner.job(id)
    }
    fn release_due_into(&mut self, now: Cycles, out: &mut Vec<JobId>) {
        self.inner.release_due_into(now, out)
    }
    fn release_aperiodic(&mut self, task_index: usize, now: Cycles) -> JobId {
        self.inner.release_aperiodic(task_index, now)
    }
    fn promote_due_into(&mut self, now: Cycles, out: &mut Vec<JobId>) {
        self.inner.promote_due_into(now, out);
        if self.mutation == Some(Mutation::LostPromotionOnMigration) {
            // Jobs that last ran away from their design processor lose the
            // promotion: demoted back to the bottom of the low band, and
            // the caller never sees (or stamps) a promotion event.
            out.retain(|&id| {
                let job = self.inner.job(id);
                let migrated = match (job.last_proc, self.design_proc(job)) {
                    (Some(last), Some(design)) => last != design,
                    _ => false,
                };
                if migrated {
                    self.tick_activation();
                    self.inner.demote_job(id);
                }
                !migrated
            });
        }
    }
    fn next_promotion_time(&self) -> Option<Cycles> {
        self.inner.next_promotion_time()
    }
    fn next_release_time(&self) -> Option<Cycles> {
        self.inner.next_release_time()
    }
    fn set_running(&mut self, proc: ProcId, job: Option<JobId>) {
        self.inner.set_running(proc, job)
    }
    fn running(&self) -> &[Option<JobId>] {
        self.inner.running()
    }
    fn complete(&mut self, id: JobId, now: Cycles) -> Job {
        self.inner.complete(id, now)
    }
    fn assign_into(&self, desired: &mut Vec<Option<JobId>>) {
        self.inner.assign_into(desired);
        self.mutate_assignment(desired);
    }
    fn pick_for_idle(&self, proc: ProcId) -> Option<JobId> {
        let pick = self.inner.pick_for_idle(proc)?;
        match self.mutation {
            Some(Mutation::BandOrderInversion) if self.is_aperiodic(pick) => {
                match self.unpromoted_periodic(self.inner.running()) {
                    Some(u) => {
                        self.tick_activation();
                        Some(u)
                    }
                    None => Some(pick),
                }
            }
            Some(Mutation::FifoViolation) if self.is_aperiodic(pick) => {
                match self.youngest_aperiodic(self.inner.running()) {
                    Some(y) if y > pick => {
                        self.tick_activation();
                        Some(y)
                    }
                    _ => Some(pick),
                }
            }
            _ => Some(pick),
        }
    }
    fn on_progress(&mut self, job: JobId, amount: Cycles, now: Cycles) {
        *self.progress.borrow_mut().entry(job.index()).or_insert(0) += amount.as_u64();
        self.inner.on_progress(job, amount, now);
    }
    fn next_internal_event(&self) -> Option<Cycles> {
        self.inner.next_internal_event()
    }
    fn degradation(&self) -> DegradationPolicy {
        if self.mutation == Some(Mutation::BudgetEnforcementSkip) {
            // Lie to the simulator: "nothing to enforce". The snapshot the
            // event loop takes at construction disables budget tracking.
            self.tick_activation();
            return DegradationPolicy::default();
        }
        self.inner.degradation()
    }
    fn is_alive(&self, proc: ProcId) -> bool {
        self.inner.is_alive(proc)
    }
    fn try_release_aperiodic(&mut self, task_index: usize, now: Cycles) -> Option<JobId> {
        self.inner.try_release_aperiodic(task_index, now)
    }
    fn detect_missed(&mut self, now: Cycles) -> Vec<JobId> {
        self.inner.detect_missed(now)
    }
    fn kill_job(&mut self, id: JobId, now: Cycles) -> Job {
        self.inner.kill_job(id, now)
    }
    fn demote_job(&mut self, id: JobId) {
        self.inner.demote_job(id)
    }
    fn fail_processor(&mut self, proc: ProcId, now: Cycles) -> FailoverReport {
        self.inner.fail_processor(proc, now)
    }
    fn guaranteed_tasks(&self) -> (usize, usize) {
        self.inner.guaranteed_tasks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdp_core::ids::TaskId;
    use mpdp_core::priority::Priority;
    use mpdp_core::rta::build_task_table;
    use mpdp_core::task::{AperiodicTask, PeriodicTask};

    fn table() -> TaskTable {
        let t0 = PeriodicTask::new(TaskId::new(0), "t0", Cycles::new(300), Cycles::new(10_000))
            .with_priorities(Priority::new(1), Priority::new(4));
        let t1 = PeriodicTask::new(TaskId::new(1), "t1", Cycles::new(400), Cycles::new(4_000))
            .with_priorities(Priority::new(0), Priority::new(3));
        let ap = AperiodicTask::new(TaskId::new(7), "ap", Cycles::new(500));
        build_task_table(vec![t0, t1], vec![ap], 1).expect("schedulable")
    }

    #[test]
    fn off_by_one_shifts_every_nonzero_offset() {
        let pristine = table();
        let mut mutated = pristine.clone();
        assert_eq!(promotion_off_by_one(&mut mutated), Ok(2));
        for i in 0..2 {
            assert_eq!(
                mutated.promotion(i) + Cycles::new(1),
                pristine.promotion(i),
                "task {i} promotes exactly one cycle early"
            );
        }
    }

    #[test]
    fn vacuous_seeds_are_rejected() {
        // Zero all offsets: `Earlier` has nowhere to go.
        let mut zeroed = table();
        for i in 0..zeroed.periodic().len() {
            zeroed.set_promotion(i, Cycles::ZERO);
        }
        assert_eq!(
            promotion_off_by_one(&mut zeroed),
            Err(MutationError::Vacuous(Mutation::PromotionEarly))
        );
        // Saturate all offsets at the deadline: `Later` has nowhere to go.
        let mut saturated = table();
        for i in 0..saturated.periodic().len() {
            let d = saturated.periodic()[i].deadline();
            saturated.set_promotion(i, d);
        }
        assert_eq!(
            Mutation::PromotionLate.seed_table(&mut saturated),
            Err(MutationError::Vacuous(Mutation::PromotionLate))
        );
    }

    #[test]
    fn late_shift_moves_offsets_later() {
        let pristine = table();
        let mut mutated = pristine.clone();
        let n = Mutation::PromotionLate.seed_table(&mut mutated).unwrap();
        assert_eq!(n, 2);
        for i in 0..2 {
            assert_eq!(mutated.promotion(i), pristine.promotion(i) + Cycles::new(1));
        }
    }

    #[test]
    fn non_table_mutations_cannot_seed_a_table() {
        let mut t = table();
        assert_eq!(
            Mutation::FifoViolation.seed_table(&mut t),
            Err(MutationError::WrongSite(Mutation::FifoViolation))
        );
    }

    #[test]
    fn catalog_names_round_trip_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for &m in Mutation::catalog() {
            assert!(seen.insert(m.name()), "duplicate name {}", m.name());
            assert_eq!(Mutation::from_name(m.name()), Some(m));
            assert!(!m.description().is_empty());
        }
        assert!(Mutation::catalog().len() >= 8, "catalog holds >= 8 bugs");
        assert_eq!(Mutation::from_name("no-such-mutant"), None);
    }

    #[test]
    fn budget_skip_mutant_reports_inert_degradation() {
        use mpdp_core::policy::OverrunAction;
        let armed = MpdpPolicy::new(table())
            .with_degradation(DegradationPolicy::default().with_overrun(OverrunAction::Kill));
        let mutant = MutantPolicy::new(armed, Mutation::BudgetEnforcementSkip);
        let counter = mutant.activation_counter();
        assert!(mutant.degradation().overrun.is_none(), "enforcement hidden");
        assert!(counter.get() > 0, "the lie counts as an activation");
    }

    #[test]
    fn observer_wrapper_is_decision_transparent() {
        let mut plain = MpdpPolicy::new(table());
        let mut wrapped = MutantPolicy::observer(MpdpPolicy::new(table()));
        let mut released = vec![];
        wrapped.release_due_into(Cycles::ZERO, &mut released);
        assert_eq!(plain.release_due(Cycles::ZERO), released);
        let mut desired = vec![];
        wrapped.assign_into(&mut desired);
        assert_eq!(plain.assign(), desired);
        assert_eq!(
            plain.pick_for_idle(ProcId::new(0)),
            wrapped.pick_for_idle(ProcId::new(0))
        );
        assert_eq!(wrapped.activation_counter().get(), 0);
    }
}
