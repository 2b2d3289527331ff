//! Static partitioning of periodic tasks onto processors.
//!
//! MPDP is hybrid local/global: before promotion a periodic job may run
//! anywhere, but *after* promotion it runs on its design-time processor, so
//! the upper-band guarantee is a per-processor fixed-priority problem.
//! "Initially, periodic tasks are statically distributed among the
//! processors. The uniprocessor formula is used to compute worst case
//! response times of periodic tasks on a single processor" (paper §4.1).
//!
//! Three bin-packing heuristics are provided, all *decreasing* (tasks
//! considered in order of falling utilization) with exact response-time
//! admission: a task is placed on a processor only if the whole group —
//! existing tasks plus the candidate — passes the RTA there.
//!
//! One packing kernel, `Packer`, runs every placement: [`partition`],
//! and through it the offline tool, as well as the sensitivity search,
//! which re-packs the same set at many load factors. It works on compact
//! rows `(C, T, D, upper-band priority, id, C/T)` instead of tasks, keeps
//! each processor's utilization as a running sum, and reuses its scratch,
//! so a packing allocates nothing once the scratch has grown. A trial
//! placement re-runs the [busy-period recurrence](rta::busy_period) only
//! for the candidate and the group members of strictly *lower* upper-band
//! priority: a member at a higher or equal priority never counts the
//! candidate as interference, and every current member already passed,
//! so checking the rest is exactly the whole-group verdict.
//!
//! # Examples
//!
//! ```
//! use mpdp_analysis::partition::{partition, PartitionHeuristic};
//! use mpdp_workload::automotive_task_set;
//! use mpdp_core::time::DEFAULT_TICK;
//!
//! # fn main() -> Result<(), mpdp_core::TaskSetError> {
//! let set = automotive_task_set(0.5, 2, DEFAULT_TICK);
//! let assigned = partition(set.periodic, 2, PartitionHeuristic::WorstFitDecreasing)?;
//! assert!(assigned.iter().any(|t| t.processor().index() == 0));
//! assert!(assigned.iter().any(|t| t.processor().index() == 1));
//! # Ok(())
//! # }
//! ```

use mpdp_core::error::TaskSetError;
use mpdp_core::ids::{ProcId, TaskId};
use mpdp_core::priority::Priority;
use mpdp_core::rta;
use mpdp_core::task::PeriodicTask;
use mpdp_core::time::Cycles;

/// Which bin-packing heuristic orders the candidate processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionHeuristic {
    /// First processor (by index) that admits the task.
    FirstFitDecreasing,
    /// Admitting processor with the *highest* remaining utilization
    /// (tightest fit).
    BestFitDecreasing,
    /// Admitting processor with the *lowest* current utilization — spreads
    /// load, which is what a reactive system wants (more slack everywhere
    /// for aperiodic work). This is the default.
    #[default]
    WorstFitDecreasing,
}

/// Assigns every task a processor using `heuristic`, with RTA admission.
///
/// Tasks keep their ids, parameters, and priorities; only the processor
/// assignment is (re)written. Returns the tasks in their input order.
///
/// # Errors
///
/// [`TaskSetError::PartitioningFailed`] naming the first task no processor
/// could admit.
///
/// # Panics
///
/// Panics if `n_procs` is zero.
pub fn partition(
    tasks: Vec<PeriodicTask>,
    n_procs: usize,
    heuristic: PartitionHeuristic,
) -> Result<Vec<PeriodicTask>, TaskSetError> {
    let rows: Vec<Row> = tasks.iter().map(Row::of).collect();
    let mut packer = Packer::default();
    let assignment = packer
        .pack(&rows, n_procs, heuristic)
        .map_err(TaskSetError::PartitioningFailed)?;
    Ok(tasks
        .into_iter()
        .zip(assignment)
        .map(|(t, &proc)| t.with_processor(proc))
        .collect())
}

/// A periodic task as the packing kernel sees it: `C`, `T` and `D`, the
/// upper-band priority that decides interference, the id a failure
/// names, and the utilization `C / T`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Row {
    wcet: Cycles,
    period: Cycles,
    deadline: Cycles,
    high: Priority,
    id: TaskId,
    pub(crate) utilization: f64,
}

impl Row {
    /// The row of `task`.
    pub(crate) fn of(task: &PeriodicTask) -> Row {
        Row {
            wcet: task.wcet(),
            period: task.period(),
            deadline: task.deadline(),
            high: task.priorities().high,
            id: task.id(),
            utilization: task.utilization(),
        }
    }

    /// This row with its load scaled by `factor`: the period and deadline
    /// are divided by it and the WCET is untouched. Both are floored at
    /// the WCET, which caps the utilization at 1, and the deadline stays
    /// within the period.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub(crate) fn scaled(self, factor: f64) -> Row {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be positive"
        );
        let divide = |c: Cycles| Cycles::new(((c.as_u64() as f64 / factor).round() as u64).max(1));
        let period = divide(self.period).max(self.wcet);
        let deadline = divide(self.deadline).max(self.wcet).min(period);
        Row {
            period,
            deadline,
            utilization: self.wcet.as_u64() as f64 / period.as_u64() as f64,
            ..self
        }
    }
}

/// The bin-packing kernel and its reusable scratch. One `Packer` serves
/// any number of [`Packer::pack`] calls and stops allocating once its
/// buffers have grown to the largest set it packed.
#[derive(Debug, Default)]
pub(crate) struct Packer {
    /// Row indices in packing order: falling utilization, then id.
    order: Vec<usize>,
    /// Each processor's rows, in placement order.
    groups: Vec<Vec<Row>>,
    /// Each processor's utilization, summed in placement order.
    loads: Vec<f64>,
    /// Processor indices in the order the heuristic tries them.
    candidates: Vec<usize>,
    /// Each row's processor.
    assignment: Vec<ProcId>,
}

impl Packer {
    /// Places every row on one of `n_procs` processors with `heuristic`
    /// and exact RTA admission, and returns each row's processor in row
    /// order.
    ///
    /// # Errors
    ///
    /// The id of the first row, in packing order, that no processor
    /// admits.
    ///
    /// # Panics
    ///
    /// Panics if `n_procs` is zero.
    pub(crate) fn pack(
        &mut self,
        rows: &[Row],
        n_procs: usize,
        heuristic: PartitionHeuristic,
    ) -> Result<&[ProcId], TaskId> {
        assert!(n_procs > 0, "at least one processor");
        // The index is the last key, so this unstable sort orders exactly
        // as a stable sort on utilization and id would.
        self.order.clear();
        self.order.extend(0..rows.len());
        self.order.sort_unstable_by(|&a, &b| {
            rows[b]
                .utilization
                .partial_cmp(&rows[a].utilization)
                .expect("utilizations are finite")
                .then(rows[a].id.cmp(&rows[b].id))
                .then(a.cmp(&b))
        });
        self.groups.truncate(n_procs);
        self.groups.iter_mut().for_each(Vec::clear);
        self.groups.resize_with(n_procs, Vec::new);
        self.loads.clear();
        self.loads.resize(n_procs, 0.0);
        self.assignment.clear();
        self.assignment.resize(rows.len(), ProcId::new(0));

        for &i in &self.order {
            let row = rows[i];
            // Candidates by the heuristic's load key, ties by index.
            let loads = &self.loads;
            let key = |p: usize| match heuristic {
                PartitionHeuristic::FirstFitDecreasing => 0.0,
                PartitionHeuristic::BestFitDecreasing => -loads[p],
                PartitionHeuristic::WorstFitDecreasing => loads[p],
            };
            self.candidates.clear();
            self.candidates.extend(0..n_procs);
            self.candidates.sort_unstable_by(|&a, &b| {
                key(a).partial_cmp(&key(b)).expect("finite").then(a.cmp(&b))
            });
            let p = self
                .candidates
                .iter()
                .copied()
                .find(|&p| admits(&self.groups[p], row))
                .ok_or(row.id)?;
            self.groups[p].push(row);
            self.loads[p] += row.utilization;
            self.assignment[i] = ProcId::new(p as u32);
        }
        Ok(&self.assignment)
    }
}

/// Whether `group`, which passes the RTA, still passes with `candidate`
/// added. Only the candidate and the members it interferes with — those
/// of strictly lower upper-band priority — can change their verdict.
fn admits(group: &[Row], candidate: Row) -> bool {
    let meets_deadline = |task: Row, extra: Option<&Row>| {
        let interference = group
            .iter()
            .filter(move |r| r.high > task.high)
            .chain(extra)
            .map(|r| (r.wcet, r.period));
        rta::busy_period(task.wcet, task.deadline, interference).is_some()
    };
    meets_deadline(candidate, None)
        && group
            .iter()
            .filter(|m| m.high < candidate.high)
            .all(|&m| meets_deadline(m, Some(&candidate)))
}

/// Per-processor utilization of an assigned task set.
pub fn per_proc_utilization(tasks: &[PeriodicTask], n_procs: usize) -> Vec<f64> {
    let mut out = vec![0.0; n_procs];
    for t in tasks {
        out[t.processor().index()] += t.utilization();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdp_core::ids::TaskId;
    use mpdp_core::priority::Priority;
    use mpdp_core::time::Cycles;

    fn t(id: u32, c: u64, period: u64) -> PeriodicTask {
        PeriodicTask::new(
            TaskId::new(id),
            format!("t{id}"),
            Cycles::new(c),
            Cycles::new(period),
        )
        .with_priorities(Priority::new(100 - id), Priority::new(100 - id))
    }

    #[test]
    fn worst_fit_spreads_load() {
        // Four half-utilization tasks on two processors: two per processor.
        let tasks = vec![t(0, 50, 100), t(1, 50, 100), t(2, 40, 100), t(3, 40, 100)];
        let assigned = partition(tasks, 2, PartitionHeuristic::WorstFitDecreasing).unwrap();
        let utils = per_proc_utilization(&assigned, 2);
        assert!((utils[0] - 0.9).abs() < 1e-9);
        assert!((utils[1] - 0.9).abs() < 1e-9);
    }

    #[test]
    fn first_fit_packs_onto_low_indices() {
        let tasks = vec![t(0, 10, 100), t(1, 10, 100), t(2, 10, 100)];
        let assigned = partition(tasks, 3, PartitionHeuristic::FirstFitDecreasing).unwrap();
        assert!(assigned.iter().all(|t| t.processor() == ProcId::new(0)));
    }

    #[test]
    fn best_fit_prefers_tightest_admitting_processor() {
        // Seed: one big task; best-fit then squeezes the next task beside it
        // while worst-fit would go to the empty processor.
        let tasks = vec![t(0, 60, 100), t(1, 10, 100)];
        let bf = partition(tasks.clone(), 2, PartitionHeuristic::BestFitDecreasing).unwrap();
        assert_eq!(bf[0].processor(), bf[1].processor());
        let wf = partition(tasks, 2, PartitionHeuristic::WorstFitDecreasing).unwrap();
        assert_ne!(wf[0].processor(), wf[1].processor());
    }

    #[test]
    fn admission_is_exact_not_utilization_based() {
        // Two tasks each 60% utilization cannot share one processor even
        // though first-fit by utilization < 1.2 might try; RTA rejects.
        let tasks = vec![t(0, 60, 100), t(1, 60, 100)];
        let assigned = partition(tasks, 2, PartitionHeuristic::FirstFitDecreasing).unwrap();
        assert_ne!(assigned[0].processor(), assigned[1].processor());
    }

    #[test]
    fn failure_reported_when_overloaded() {
        let tasks = vec![t(0, 80, 100), t(1, 80, 100), t(2, 80, 100)];
        let err = partition(tasks, 2, PartitionHeuristic::WorstFitDecreasing).unwrap_err();
        assert!(matches!(err, TaskSetError::PartitioningFailed(_)));
    }

    #[test]
    fn scaling_multiplies_utilization() {
        let row = Row::of(&t(0, 10, 100));
        let scaled = row.scaled(2.0);
        assert_eq!(scaled.period, Cycles::new(50));
        assert!((scaled.utilization - 0.2).abs() < 1e-12);
        // WCET floor: scaling cannot push utilization past 1.
        let maxed = row.scaled(100.0);
        assert_eq!(maxed.period, Cycles::new(10));
    }

    #[test]
    fn preserves_input_order_and_ids() {
        let tasks = vec![t(3, 10, 100), t(1, 20, 100), t(2, 30, 100)];
        let assigned = partition(tasks, 2, PartitionHeuristic::WorstFitDecreasing).unwrap();
        let ids: Vec<u32> = assigned.iter().map(|t| t.id().as_u32()).collect();
        assert_eq!(ids, vec![3, 1, 2]);
    }
}
