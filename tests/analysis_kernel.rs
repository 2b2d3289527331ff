//! The packing kernel against the clone-and-reanalyse analysis it replaced.
//!
//! `partition`, `is_schedulable_at` and `breakdown_utilization` pack
//! compact rows and re-check only the tasks a placement can hurt. The
//! reference below is the straightforward formulation: clone the group,
//! append the candidate, and re-run the response-time recurrence on every
//! member; scale a set by rebuilding every task; bisect until the bracket
//! is within tolerance. Assignments, error ids, verdicts and breakdown bits
//! must all agree, on the Figure 4 sets and on random sets with tied
//! upper-band priorities and constrained deadlines.

use proptest::prelude::*;

use mpdp::analysis::{breakdown_utilization, is_schedulable_at, partition, PartitionHeuristic};
use mpdp::core::error::TaskSetError;
use mpdp::core::ids::{ProcId, TaskId};
use mpdp::core::priority::Priority;
use mpdp::core::rta;
use mpdp::core::task::PeriodicTask;
use mpdp::core::time::{Cycles, DEFAULT_TICK};
use mpdp::workload::automotive_task_set;
use mpdp::workload::taskgen::{random_task_set, TaskGenConfig};

const HEURISTICS: [PartitionHeuristic; 3] = [
    PartitionHeuristic::FirstFitDecreasing,
    PartitionHeuristic::BestFitDecreasing,
    PartitionHeuristic::WorstFitDecreasing,
];
const TOLERANCES: [f64; 3] = [0.01, 0.02, 0.05];

/// Reference worst-case response of `tasks[index]` among one processor's
/// tasks: collect the higher-priority set, iterate to the fixed point.
fn reference_response(tasks: &[&PeriodicTask], index: usize) -> Option<Cycles> {
    let task = tasks[index];
    let hp: Vec<&PeriodicTask> = tasks
        .iter()
        .filter(|t| t.priorities().high > task.priorities().high)
        .copied()
        .collect();
    let mut w = task.wcet();
    loop {
        if w > task.deadline() {
            return None;
        }
        let mut next = task.wcet();
        for j in &hp {
            next = next.saturating_add(j.wcet().saturating_mul(w.div_ceil(j.period())));
        }
        if next == w {
            return Some(w);
        }
        w = next;
    }
}

/// Reference analysis of an assigned set: every task's response within its
/// processor group, or the first task that misses.
fn reference_analyze(tasks: &[PeriodicTask]) -> Result<Vec<Cycles>, TaskId> {
    tasks
        .iter()
        .map(|task| {
            let group: Vec<&PeriodicTask> = tasks
                .iter()
                .filter(|t| t.processor() == task.processor())
                .collect();
            let local = group
                .iter()
                .position(|t| std::ptr::eq(*t, task))
                .expect("a task is in its own group");
            reference_response(&group, local).ok_or(task.id())
        })
        .collect()
}

fn load(group: &[PeriodicTask]) -> f64 {
    group.iter().map(PeriodicTask::utilization).sum()
}

/// Reference partitioner: every trial clones the group and re-analyses it.
fn reference_partition(
    tasks: Vec<PeriodicTask>,
    n_procs: usize,
    heuristic: PartitionHeuristic,
) -> Result<Vec<PeriodicTask>, TaskSetError> {
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_by(|&a, &b| {
        tasks[b]
            .utilization()
            .partial_cmp(&tasks[a].utilization())
            .expect("finite")
            .then(tasks[a].id().cmp(&tasks[b].id()))
    });
    let mut groups: Vec<Vec<PeriodicTask>> = vec![Vec::new(); n_procs];
    let mut assignment: Vec<Option<ProcId>> = vec![None; tasks.len()];
    for &i in &order {
        let task = &tasks[i];
        let mut candidates: Vec<usize> = (0..n_procs).collect();
        match heuristic {
            PartitionHeuristic::FirstFitDecreasing => {}
            PartitionHeuristic::BestFitDecreasing => candidates.sort_by(|&a, &b| {
                load(&groups[b])
                    .partial_cmp(&load(&groups[a]))
                    .expect("finite")
                    .then(a.cmp(&b))
            }),
            PartitionHeuristic::WorstFitDecreasing => candidates.sort_by(|&a, &b| {
                load(&groups[a])
                    .partial_cmp(&load(&groups[b]))
                    .expect("finite")
                    .then(a.cmp(&b))
            }),
        }
        let placed = candidates.into_iter().find(|&p| {
            let mut trial = groups[p].clone();
            trial.push(task.clone().with_processor(ProcId::new(p as u32)));
            reference_analyze(&trial).is_ok()
        });
        let Some(p) = placed else {
            return Err(TaskSetError::PartitioningFailed(task.id()));
        };
        let proc = ProcId::new(p as u32);
        groups[p].push(task.clone().with_processor(proc));
        assignment[i] = Some(proc);
    }
    Ok(tasks
        .into_iter()
        .zip(assignment)
        .map(|(t, proc)| t.with_processor(proc.expect("placed")))
        .collect())
}

/// Reference load scaling: rebuild every task with divided periods.
fn reference_scale(tasks: &[PeriodicTask], factor: f64) -> Vec<PeriodicTask> {
    tasks
        .iter()
        .map(|t| {
            let period = Cycles::new(((t.period().as_u64() as f64 / factor).round() as u64).max(1))
                .max(t.wcet());
            let deadline =
                Cycles::new(((t.deadline().as_u64() as f64 / factor).round() as u64).max(1))
                    .max(t.wcet())
                    .min(period);
            PeriodicTask::new(t.id(), t.name(), t.wcet(), period)
                .with_deadline(deadline)
                .with_priorities(t.priorities().low, t.priorities().high)
                .with_processor(t.processor())
        })
        .collect()
}

fn reference_schedulable_at(
    tasks: &[PeriodicTask],
    n_procs: usize,
    factor: f64,
    heuristic: PartitionHeuristic,
) -> bool {
    match reference_partition(reference_scale(tasks, factor), n_procs, heuristic) {
        Ok(assigned) => reference_analyze(&assigned).is_ok(),
        Err(_) => false,
    }
}

/// Reference breakdown search: exponential probe, then bisection while the
/// bracket is wider than `tolerance`.
fn reference_breakdown(
    tasks: &[PeriodicTask],
    n_procs: usize,
    heuristic: PartitionHeuristic,
    tolerance: f64,
) -> Result<f64, TaskSetError> {
    if !reference_schedulable_at(tasks, n_procs, 1.0, heuristic) {
        return Err(TaskSetError::Unschedulable(tasks[0].id()));
    }
    let util_at = |factor: f64| {
        reference_scale(tasks, factor)
            .iter()
            .map(PeriodicTask::utilization)
            .sum::<f64>()
            / n_procs as f64
    };
    let (mut lo, mut hi) = (1.0f64, 2.0f64);
    let mut guard = 0;
    while reference_schedulable_at(tasks, n_procs, hi, heuristic) {
        lo = hi;
        hi *= 2.0;
        guard += 1;
        if guard > 16 {
            return Ok(util_at(lo));
        }
    }
    while hi - lo > tolerance {
        let mid = (lo + hi) / 2.0;
        if reference_schedulable_at(tasks, n_procs, mid, heuristic) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(util_at(lo))
}

fn processors(
    assigned: Result<Vec<PeriodicTask>, TaskSetError>,
) -> Result<Vec<ProcId>, TaskSetError> {
    assigned.map(|tasks| tasks.iter().map(PeriodicTask::processor).collect())
}

/// Checks partition, the analysis of its result, and the breakdown search
/// on one set; returns a description of the first disagreement.
fn check_set(
    tasks: &[PeriodicTask],
    n_procs: usize,
    heuristic: PartitionHeuristic,
) -> Result<(), String> {
    let kernel = partition(tasks.to_vec(), n_procs, heuristic);
    if let Ok(assigned) = &kernel {
        let responses = rta::analyze(assigned, n_procs)
            .map(|r| r.iter().map(|r| r.response).collect())
            .map_err(|_| TaskId::new(u32::MAX));
        if responses != reference_analyze(assigned) {
            return Err(format!(
                "{heuristic:?}: analyze disagrees on the packed set"
            ));
        }
    }
    let want = processors(reference_partition(tasks.to_vec(), n_procs, heuristic));
    if processors(kernel.clone()) != want {
        return Err(format!(
            "{heuristic:?}: partition {:?} != {want:?}",
            processors(kernel)
        ));
    }
    for tolerance in TOLERANCES {
        let got = breakdown_utilization(tasks, n_procs, heuristic, tolerance).map(f64::to_bits);
        let want = reference_breakdown(tasks, n_procs, heuristic, tolerance).map(f64::to_bits);
        if got != want {
            return Err(format!(
                "{heuristic:?} tolerance {tolerance}: breakdown {got:?} != {want:?}"
            ));
        }
    }
    Ok(())
}

/// The Figure 4 sets, procs 1–4 × utilization 0.4/0.5/0.6, at load factors
/// 0.50–1.60 in steps of 0.01.
fn figure4_agrees(heuristic: PartitionHeuristic) {
    for n_procs in 1..=4 {
        for util in [0.4, 0.5, 0.6] {
            let set = automotive_task_set(util, n_procs, DEFAULT_TICK).periodic;
            check_set(&set, n_procs, heuristic)
                .unwrap_or_else(|e| panic!("{util} on {n_procs}P: {e}"));
            for step in 50..=160 {
                let factor = f64::from(step) / 100.0;
                assert_eq!(
                    is_schedulable_at(&set, n_procs, factor, heuristic),
                    reference_schedulable_at(&set, n_procs, factor, heuristic),
                    "{heuristic:?}: {util} on {n_procs}P at factor {factor}"
                );
            }
        }
    }
}

#[test]
fn figure4_first_fit_matches_the_reference() {
    figure4_agrees(PartitionHeuristic::FirstFitDecreasing);
}

#[test]
fn figure4_best_fit_matches_the_reference() {
    figure4_agrees(PartitionHeuristic::BestFitDecreasing);
}

#[test]
fn figure4_worst_fit_matches_the_reference() {
    figure4_agrees(PartitionHeuristic::WorstFitDecreasing);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random sets: halving the rate-monotonic levels ties pairs of
    /// upper-band priorities, deadlines are 40–100% of the period, every
    /// odd task copies its predecessor's `C`, `T` and `D` (a utilization
    /// tie the id must break), and ids fall in input order.
    #[test]
    fn random_sets_match_the_reference(
        seed in 0u64..1_000_000,
        n_tasks in 2usize..=12,
        n_procs in 1usize..=6,
        load in 0.3f64..0.95,
        factor in 0.5f64..1.6,
    ) {
        let config = TaskGenConfig::new(n_tasks, load * n_procs as f64)
            .with_seed(seed)
            .with_deadline_fraction(0.4, 1.0);
        let generated = random_task_set(&config);
        let tasks: Vec<PeriodicTask> = generated
            .iter()
            .enumerate()
            .rev()
            .map(|(k, t)| {
                let shape = &generated[k - k % 2];
                let tied = Priority::new(t.priorities().high.level() / 2);
                PeriodicTask::new(t.id(), t.name(), shape.wcet(), shape.period())
                    .with_deadline(shape.deadline())
                    .with_priorities(tied, tied)
            })
            .collect();
        for heuristic in HEURISTICS {
            if let Err(e) = check_set(&tasks, n_procs, heuristic) {
                return Err(TestCaseError::fail(e));
            }
            prop_assert_eq!(
                is_schedulable_at(&tasks, n_procs, factor, heuristic),
                reference_schedulable_at(&tasks, n_procs, factor, heuristic)
            );
        }
    }
}
