//! Property tests for the MPDP policy state machine: structural invariants
//! hold under arbitrary interleavings of releases, promotions, assignment,
//! and completions, and the allocation-free primitives agree with
//! reference implementations — a copy of the `Vec`-building assignment
//! algorithm they replaced, and brute-force scans over every job ever
//! released.

use std::collections::BTreeSet;

use proptest::prelude::*;

use mpdp_core::ids::{JobId, ProcId, TaskId};
use mpdp_core::policy::MpdpPolicy;
use mpdp_core::priority::Priority;
use mpdp_core::rta::build_task_table;
use mpdp_core::task::{AperiodicTask, PeriodicTask};
use mpdp_core::time::Cycles;

#[derive(Debug, Clone)]
enum Op {
    Advance(u64),
    Aperiodic,
    Assign,
    CompleteOldest,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (1u64..5000).prop_map(Op::Advance),
            Just(Op::Aperiodic),
            Just(Op::Assign),
            Just(Op::CompleteOldest),
        ],
        1..80,
    )
}

fn build_policy(n_procs: usize, n_tasks: usize) -> MpdpPolicy {
    let tasks: Vec<PeriodicTask> = (0..n_tasks)
        .map(|i| {
            let c = 100 * (i as u64 + 1);
            let period = c * 20;
            PeriodicTask::new(
                TaskId::new(i as u32),
                format!("t{i}"),
                Cycles::new(c),
                Cycles::new(period),
            )
            .with_priorities(
                Priority::new((n_tasks - i) as u32),
                Priority::new((n_tasks - i) as u32),
            )
            .with_processor(ProcId::new((i % n_procs) as u32))
        })
        .collect();
    let aperiodic = vec![AperiodicTask::new(
        TaskId::new(n_tasks as u32),
        "ap",
        Cycles::new(500),
    )];
    build_task_table(tasks, aperiodic, n_procs)
        .map(MpdpPolicy::new)
        .expect("low-utilization set is schedulable")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// After any operation sequence: every live job is in exactly one
    /// queue, no job runs on two processors, the assignment is feasible
    /// (each desired job live, no duplicates), and promoted jobs are only
    /// ever assigned to their design-time processor.
    #[test]
    fn invariants_under_random_interleavings(
        n_procs in 1usize..=4,
        ops in arb_ops(),
    ) {
        let mut policy = build_policy(n_procs, 5);
        let mut now = Cycles::ZERO;
        for op in ops {
            match op {
                Op::Advance(dt) => {
                    now += Cycles::new(dt);
                    policy.release_due(now);
                    policy.promote_due(now);
                }
                Op::Aperiodic => {
                    policy.release_aperiodic(0, now);
                }
                Op::Assign => {
                    let desired = policy.assign();
                    // No duplicates.
                    let mut seen = std::collections::HashSet::new();
                    for d in desired.iter().flatten() {
                        prop_assert!(seen.insert(*d), "job assigned to two processors");
                    }
                    // Promoted jobs only on their own processor.
                    for (p, d) in desired.iter().enumerate() {
                        if let Some(job) = d {
                            let j = policy.job(*job);
                            if j.promoted {
                                if let mpdp_core::policy::JobClass::Periodic { task_index } = j.class {
                                    prop_assert_eq!(
                                        policy.table().periodic()[task_index].processor().index(),
                                        p,
                                        "promoted job on foreign processor"
                                    );
                                }
                            }
                        }
                    }
                    // Apply it (two-phase to permit swaps).
                    for p in 0..policy.n_procs() {
                        policy.set_running(ProcId::new(p as u32), None);
                    }
                    for (p, d) in desired.iter().enumerate() {
                        policy.set_running(ProcId::new(p as u32), *d);
                    }
                }
                Op::CompleteOldest => {
                    let running: Vec<_> = policy.running().iter().flatten().copied().collect();
                    if let Some(&job) = running.first() {
                        policy.complete(job, now);
                    }
                }
            }
            policy.check_invariants();
        }
    }

    /// `pick_for_idle` never returns a job that is already running, and
    /// respects the band order (upper > middle > lower).
    #[test]
    fn pick_for_idle_is_safe(
        n_procs in 1usize..=3,
        n_aperiodic in 0usize..3,
        advance in 0u64..100_000,
    ) {
        let mut policy = build_policy(n_procs, 4);
        let now = Cycles::new(advance);
        policy.release_due(now);
        policy.promote_due(now);
        for _ in 0..n_aperiodic {
            policy.release_aperiodic(0, now);
        }
        // Occupy processor 0 with the global best choice.
        let desired = policy.assign();
        if let Some(j) = desired[0] {
            policy.set_running(ProcId::new(0), Some(j));
        }
        for p in 1..n_procs {
            if let Some(pick) = policy.pick_for_idle(ProcId::new(p as u32)) {
                prop_assert!(!policy.is_running(pick), "picked a running job");
                let j = policy.job(pick);
                // If an un-promoted periodic was picked, no promoted job for
                // this processor may be waiting.
                if j.is_periodic() && !j.promoted {
                    for other in policy.live_jobs() {
                        let o = policy.job(other);
                        if o.promoted && !policy.is_running(other) {
                            if let mpdp_core::policy::JobClass::Periodic { task_index } = o.class {
                                prop_assert_ne!(
                                    policy.table().periodic()[task_index].processor().index(),
                                    p,
                                    "skipped a waiting promoted job"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The assignment algorithm as it stood before it filled caller-owned
/// buffers: it collected the selected global jobs, the jobs the affinity
/// pass could not place, and the free slots into temporaries. Kept as the
/// reference `assign_into` must reproduce slot for slot.
fn reference_assign(policy: &MpdpPolicy) -> Vec<Option<JobId>> {
    let alive = |p: usize| policy.is_alive(ProcId::new(p as u32));
    let mut desired: Vec<Option<JobId>> = (0..policy.n_procs())
        .map(|p| {
            if alive(p) {
                policy.local_queue(ProcId::new(p as u32)).peek()
            } else {
                None
            }
        })
        .collect();
    let n_free = desired
        .iter()
        .enumerate()
        .filter(|&(p, d)| d.is_none() && alive(p))
        .count();
    let globals: Vec<JobId> = policy
        .aperiodic_queue()
        .iter()
        .chain(policy.periodic_queue().iter())
        .take(n_free)
        .collect();
    let mut deferred = Vec::new();
    for id in globals {
        match policy.job(id).last_proc {
            Some(p) if desired[p.index()].is_none() && alive(p.index()) => {
                desired[p.index()] = Some(id)
            }
            _ => deferred.push(id),
        }
    }
    let mut free = desired
        .iter()
        .enumerate()
        .filter(|&(p, d)| d.is_none() && alive(p))
        .map(|(p, _)| p)
        .collect::<Vec<_>>()
        .into_iter();
    for id in deferred {
        let p = free.next().expect("one free slot per selected global job");
        desired[p] = Some(id);
    }
    desired
}

/// One step of the differential drive. Indices pick among the candidates
/// that exist at that moment, modulo their count.
#[derive(Debug, Clone)]
enum Step {
    /// Advance time, then release due periodic jobs.
    Advance(u64),
    /// Promote due jobs (checked against a brute-force scan).
    Promote,
    /// Release an aperiodic job.
    Aperiodic,
    /// Run a live, not-running job on a live processor: builds up
    /// `last_proc` affinity, including several jobs sharing one processor.
    Run { job: usize, proc: usize },
    /// Idle a processor, leaving its job queued with affinity to it.
    Idle(usize),
    /// Complete a live job.
    Complete(usize),
    /// Kill a live job.
    Kill(usize),
    /// Demote a live job.
    Demote(usize),
    /// Fail-stop a processor.
    Fail(usize),
    /// Scan for deadline misses.
    DetectMissed,
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    // Repeated arms weight the draw towards releases and runs, which build
    // the queue states (and affinity collisions) the other steps probe.
    let advance = || (1u64..5000).prop_map(Step::Advance);
    let run = || (any::<usize>(), any::<usize>()).prop_map(|(job, proc)| Step::Run { job, proc });
    prop::collection::vec(
        prop_oneof![
            advance(),
            advance(),
            Just(Step::Promote),
            Just(Step::Aperiodic),
            run(),
            run(),
            any::<usize>().prop_map(Step::Idle),
            any::<usize>().prop_map(Step::Complete),
            any::<usize>().prop_map(Step::Kill),
            any::<usize>().prop_map(Step::Demote),
            any::<usize>().prop_map(Step::Fail),
            Just(Step::DetectMissed),
        ],
        1..120,
    )
}

/// The brute-force side of the comparison: every job id ever released and
/// every id retired since, so liveness and the scans can be recomputed
/// without the policy's live index.
#[derive(Default)]
struct Ledger {
    released: Vec<JobId>,
    retired: BTreeSet<JobId>,
    reported_missed: BTreeSet<JobId>,
}

impl Ledger {
    fn live(&self) -> Vec<JobId> {
        self.released
            .iter()
            .copied()
            .filter(|id| !self.retired.contains(id))
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Under random releases, completions, kills, demotions, promotions,
    /// affinity-building runs and fail-stops: `assign_into` equals the
    /// reference algorithm (also into a dirty reused buffer), and
    /// `live_jobs`, `next_promotion_time`, `promote_due_into` and
    /// `detect_missed` equal brute-force scans over all released jobs.
    #[test]
    fn primitives_match_references(
        n_procs in 1usize..=4,
        steps in arb_steps(),
    ) {
        let mut policy = build_policy(n_procs, 5);
        let mut ledger = Ledger::default();
        let mut now = Cycles::ZERO;
        let mut reused = vec![Some(JobId::new(u32::MAX)); 7];
        let mut out = vec![JobId::new(u32::MAX)];
        for step in steps {
            let live = ledger.live();
            let pick = |i: usize| (!live.is_empty()).then(|| live[i % live.len()]);
            match step {
                Step::Advance(dt) => {
                    now += Cycles::new(dt);
                    policy.release_due_into(now, &mut out);
                    ledger.released.extend_from_slice(&out);
                }
                Step::Promote => {
                    let expected: Vec<JobId> = live
                        .iter()
                        .copied()
                        .filter(|&id| {
                            let job = policy.job(id);
                            !job.promoted && job.promotion_at.is_some_and(|p| p <= now)
                        })
                        .collect();
                    policy.promote_due_into(now, &mut out);
                    prop_assert_eq!(&out, &expected, "promote_due vs brute-force scan");
                    for id in &out {
                        prop_assert!(policy.job(*id).promoted);
                    }
                }
                Step::Aperiodic => {
                    ledger.released.push(policy.release_aperiodic(0, now));
                }
                Step::Run { job, proc } => {
                    let p = ProcId::new((proc % n_procs) as u32);
                    let idle: Vec<JobId> =
                        live.iter().copied().filter(|&j| !policy.is_running(j)).collect();
                    if policy.is_alive(p) && !idle.is_empty() {
                        policy.set_running(p, Some(idle[job % idle.len()]));
                    }
                }
                Step::Idle(proc) => policy.set_running(ProcId::new((proc % n_procs) as u32), None),
                Step::Complete(i) => {
                    if let Some(id) = pick(i) {
                        policy.complete(id, now);
                        ledger.retired.insert(id);
                    }
                }
                Step::Kill(i) => {
                    if let Some(id) = pick(i) {
                        policy.kill_job(id, now);
                        ledger.retired.insert(id);
                    }
                }
                Step::Demote(i) => {
                    if let Some(id) = pick(i) {
                        policy.demote_job(id);
                    }
                }
                Step::Fail(proc) => {
                    let report = policy.fail_processor(ProcId::new((proc % n_procs) as u32), now);
                    ledger.retired.extend(report.lost);
                }
                Step::DetectMissed => {
                    let expected: Vec<JobId> = live
                        .iter()
                        .copied()
                        .filter(|&id| {
                            policy.job(id).absolute_deadline.is_some_and(|d| d < now)
                                && !ledger.reported_missed.contains(&id)
                        })
                        .collect();
                    let missed = policy.detect_missed(now);
                    prop_assert_eq!(&missed, &expected, "detect_missed vs brute-force scan");
                    ledger.reported_missed.extend(missed);
                }
            }
            policy.check_invariants();
            let live = ledger.live();
            prop_assert_eq!(policy.live_jobs().collect::<Vec<_>>(), live.clone());
            let next_promotion = live.iter().filter_map(|&id| policy.job(id).promotion_at).min();
            prop_assert_eq!(policy.next_promotion_time(), next_promotion);
            let expected = reference_assign(&policy);
            prop_assert_eq!(policy.assign(), expected.clone(), "assign vs reference");
            policy.assign_into(&mut reused);
            prop_assert_eq!(&reused, &expected, "assign_into a reused buffer");
        }
    }
}
