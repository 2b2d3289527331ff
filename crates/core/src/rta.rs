//! Offline response-time analysis and promotion-time computation.
//!
//! MPDP obtains its a-priori guarantees for periodic tasks from fixed-priority
//! response-time analysis (Audsley et al.) applied *per processor* at the
//! upper-band priorities. For each task `i` the worst-case length of a
//! priority-level busy period is the least fixed point of
//!
//! ```text
//! W_i^{m+1} = C_i + Σ_{j ∈ hp(i)} ⌈W_i^m / T_j⌉ · C_j
//! ```
//!
//! where `hp(i)` is the set of tasks assigned to the same processor with a
//! higher upper-band priority. Iteration starts at `W_i^0 = C_i` and stops at
//! a fixed point, or declares the task unschedulable as soon as `W_i > D_i`.
//! The promotion time is then `U_i = D_i − W_i`: in the worst case a job that
//! has made no progress at its lower-band priority still meets its deadline
//! because from `U_i` onwards only upper-band interference can delay it.
//!
//! # Examples
//!
//! ```
//! use mpdp_core::rta::analyze;
//! use mpdp_core::task::PeriodicTask;
//! use mpdp_core::time::Cycles;
//! use mpdp_core::ids::TaskId;
//! use mpdp_core::priority::Priority;
//!
//! # fn main() -> Result<(), mpdp_core::error::TaskSetError> {
//! let hi = PeriodicTask::new(TaskId::new(0), "hi", Cycles::new(10), Cycles::new(50))
//!     .with_priorities(Priority::new(1), Priority::new(1));
//! let lo = PeriodicTask::new(TaskId::new(1), "lo", Cycles::new(20), Cycles::new(100))
//!     .with_priorities(Priority::new(0), Priority::new(0));
//! let results = analyze(&[hi, lo], 1)?;
//! assert_eq!(results[0].response.as_u64(), 10);      // no interference
//! assert_eq!(results[1].response.as_u64(), 30);      // 20 + ⌈30/50⌉·10
//! assert_eq!(results[1].promotion.as_u64(), 70);     // D − W = 100 − 30
//! # Ok(())
//! # }
//! ```

use crate::error::TaskSetError;
use crate::ids::TaskId;
use crate::task::{PeriodicTask, TaskTable};
use crate::time::Cycles;

/// Per-task output of the analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtaResult {
    /// The analyzed task.
    pub task: TaskId,
    /// Worst-case response time `W_i` at the upper-band priority.
    pub response: Cycles,
    /// Promotion offset `U_i = D_i − W_i`, relative to release.
    pub promotion: Cycles,
}

/// The busy-period recurrence itself: the least fixed point of
/// `W = C + Σ ⌈W / T_j⌉ · C_j` over the `(C_j, T_j)` pairs `interference`
/// yields, iterated from `W = C`, or `None` as soon as `W` exceeds
/// `deadline`.
///
/// [`analyze`], the partitioner's trial placements and the policy's
/// failover re-admission all compute responses with this function; they
/// differ only in which tasks they count as interference.
/// `interference` is cloned once per iteration, so pass a cheap iterator
/// (a filtered slice walk) rather than a collected list.
///
/// # Panics
///
/// Panics if an interfering period is zero.
pub fn busy_period<I>(wcet: Cycles, deadline: Cycles, interference: I) -> Option<Cycles>
where
    I: Iterator<Item = (Cycles, Cycles)> + Clone,
{
    let mut w = wcet;
    loop {
        if w > deadline {
            return None;
        }
        let next = interference.clone().fold(wcet, |next, (c, t)| {
            next.saturating_add(c.saturating_mul(w.div_ceil(t)))
        });
        if next == w {
            return Some(w);
        }
        w = next;
    }
}

/// Computes the least fixed point of the busy-period recurrence for the task
/// at `index` within `tasks`, all of which must be assigned to the same
/// processor.
///
/// # Errors
///
/// [`TaskSetError::Unschedulable`] if the response exceeds the deadline.
///
/// # Panics
///
/// Panics if `index` is out of bounds.
pub fn worst_case_response(tasks: &[&PeriodicTask], index: usize) -> Result<Cycles, TaskSetError> {
    let task = tasks[index];
    let high = task.priorities().high;
    let hp = tasks
        .iter()
        .filter(move |t| t.priorities().high > high)
        .map(|t| (t.wcet(), t.period()));
    busy_period(task.wcet(), task.deadline(), hp).ok_or(TaskSetError::Unschedulable(task.id()))
}

/// Runs the analysis for every periodic task in `tasks` on an `n_procs`
/// platform, grouping tasks by their assigned processor.
///
/// Returns one [`RtaResult`] per input task, in input order.
///
/// # Errors
///
/// [`TaskSetError::Unschedulable`] naming the first task whose worst-case
/// response exceeds its deadline, or [`TaskSetError::UnknownProcessor`] if an
/// assignment is out of range.
pub fn analyze(tasks: &[PeriodicTask], n_procs: usize) -> Result<Vec<RtaResult>, TaskSetError> {
    for t in tasks {
        if t.processor().index() >= n_procs {
            return Err(TaskSetError::UnknownProcessor(t.id(), t.processor()));
        }
    }
    let mut results = Vec::with_capacity(tasks.len());
    for task in tasks {
        let (proc, high) = (task.processor(), task.priorities().high);
        let hp = tasks
            .iter()
            .filter(move |t| t.processor() == proc && t.priorities().high > high)
            .map(|t| (t.wcet(), t.period()));
        let response = busy_period(task.wcet(), task.deadline(), hp)
            .ok_or(TaskSetError::Unschedulable(task.id()))?;
        results.push(RtaResult {
            task: task.id(),
            response,
            promotion: task.deadline() - response,
        });
    }
    Ok(results)
}

/// Convenience: analyzes `tasks` and, on success, assembles a validated
/// [`TaskTable`] carrying the computed promotion offsets.
///
/// This is the core of the paper's "in-house tool that takes in input worst
/// case execution times, period and deadlines of the tasks and produces the
/// task tables with processor assignments and all the required information
/// for both our target architecture and the simulator".
///
/// # Errors
///
/// Propagates analysis failures ([`TaskSetError::Unschedulable`]) and table
/// validation failures (see [`TaskTable::new`]).
pub fn build_task_table(
    periodic: Vec<PeriodicTask>,
    aperiodic: Vec<crate::task::AperiodicTask>,
    n_procs: usize,
) -> Result<TaskTable, TaskSetError> {
    let results = analyze(&periodic, n_procs)?;
    let promotions = results.iter().map(|r| r.promotion).collect();
    TaskTable::new(periodic, aperiodic, promotions, n_procs)
}

/// A quick sufficient check: the Liu & Layland rate-monotonic bound
/// `Σ C/T ≤ n(2^{1/n} − 1)` for the tasks assigned to one processor.
///
/// Exact schedulability is decided by [`analyze`]; this bound is exposed for
/// the partitioning heuristics that want a cheap admission filter.
pub fn liu_layland_bound(n_tasks: usize) -> f64 {
    if n_tasks == 0 {
        return 1.0;
    }
    let n = n_tasks as f64;
    n * (2f64.powf(1.0 / n) - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ProcId;
    use crate::priority::Priority;
    use crate::task::AperiodicTask;

    fn t(id: u32, c: u64, period: u64, high: u32) -> PeriodicTask {
        PeriodicTask::new(
            TaskId::new(id),
            format!("t{id}"),
            Cycles::new(c),
            Cycles::new(period),
        )
        .with_priorities(Priority::new(0), Priority::new(high))
    }

    #[test]
    fn highest_priority_task_has_response_equal_wcet() {
        let tasks = vec![t(0, 7, 100, 9), t(1, 20, 200, 1)];
        let r = analyze(&tasks, 1).unwrap();
        assert_eq!(r[0].response, Cycles::new(7));
        assert_eq!(r[0].promotion, Cycles::new(93));
    }

    #[test]
    fn classic_three_task_example() {
        // Audsley-style example: C=(3,3,5), T=D=(7,12,20).
        let tasks = vec![t(0, 3, 7, 3), t(1, 3, 12, 2), t(2, 5, 20, 1)];
        let r = analyze(&tasks, 1).unwrap();
        assert_eq!(r[0].response, Cycles::new(3));
        // W1 = 3 + ⌈W/7⌉·3 → 6
        assert_eq!(r[1].response, Cycles::new(6));
        // W2 = 5 + ⌈W/7⌉·3 + ⌈W/12⌉·3 → 5+3+3=11 → 5+6+3=14 → 5+6+6=17 → 5+9+6=20 → fixed
        assert_eq!(r[2].response, Cycles::new(20));
        assert_eq!(r[2].promotion, Cycles::ZERO); // D == W: promoted at release
    }

    #[test]
    fn unschedulable_detected() {
        let tasks = vec![t(0, 60, 100, 2), t(1, 50, 100, 1)];
        let err = analyze(&tasks, 1).unwrap_err();
        assert_eq!(err, TaskSetError::Unschedulable(TaskId::new(1)));
    }

    #[test]
    fn tasks_on_different_processors_do_not_interfere() {
        let a = t(0, 60, 100, 2);
        let b = t(1, 60, 100, 1).with_processor(ProcId::new(1));
        let r = analyze(&[a, b], 2).unwrap();
        assert_eq!(r[0].response, Cycles::new(60));
        assert_eq!(r[1].response, Cycles::new(60));
    }

    #[test]
    fn unknown_processor_rejected() {
        let a = t(0, 10, 100, 1).with_processor(ProcId::new(5));
        assert!(matches!(
            analyze(&[a], 2),
            Err(TaskSetError::UnknownProcessor(..))
        ));
    }

    #[test]
    fn monotonicity_adding_hp_load_never_decreases_response() {
        let base = vec![t(0, 10, 100, 5), t(1, 30, 300, 1)];
        let r0 = analyze(&base, 1).unwrap()[1].response;
        let mut more = base.clone();
        more.push(t(2, 5, 50, 3));
        let r1 = analyze(&more, 1).unwrap()[1].response;
        assert!(r1 >= r0);
    }

    #[test]
    fn build_task_table_propagates_promotions() {
        let tasks = vec![t(0, 3, 7, 3), t(1, 3, 12, 2), t(2, 5, 20, 1)];
        let ap = vec![AperiodicTask::new(TaskId::new(9), "ap", Cycles::new(4))];
        let table = build_task_table(tasks, ap, 1).unwrap();
        assert_eq!(table.promotion(0), Cycles::new(4)); // 7-3
        assert_eq!(table.promotion(1), Cycles::new(6)); // 12-6
        assert_eq!(table.promotion(2), Cycles::ZERO); // 20-20
    }

    #[test]
    fn liu_layland_values() {
        assert!((liu_layland_bound(1) - 1.0).abs() < 1e-12);
        assert!((liu_layland_bound(2) - 0.8284).abs() < 1e-3);
        assert!(liu_layland_bound(100) > 0.69 && liu_layland_bound(100) < 0.70);
    }

    #[test]
    fn deadline_constrained_response() {
        // Constrained deadline shorter than period: D=50 < T=100.
        let a = t(0, 10, 40, 2);
        let b = PeriodicTask::new(TaskId::new(1), "b", Cycles::new(25), Cycles::new(100))
            .with_deadline(Cycles::new(50))
            .with_priorities(Priority::new(0), Priority::new(1));
        let r = analyze(&[a, b], 1).unwrap();
        // W = 25 + ⌈W/40⌉·10 → 35 → 35 (⌈35/40⌉=1) fixed point.
        assert_eq!(r[1].response, Cycles::new(35));
        assert_eq!(r[1].promotion, Cycles::new(15));
    }
}
