//! Integration tests of the prototype stack's platform behaviours: interrupt
//! routing under pressure, scheduler-lock serialization, statistics, and
//! trace export.

use mpdp::analysis::tool::{prepare, ToolOptions};
use mpdp::core::policy::MpdpPolicy;
use mpdp::core::time::{Cycles, DEFAULT_TICK};
use mpdp::obs::{chrome_trace_json, Bucket, EventRecorder, SpanKind};
use mpdp::sim::export::completions_csv;
use mpdp::sim::prototype::{
    run_prototype, run_prototype_probed, PrototypeConfig, PrototypeOutcome, PrototypeSim,
};
use mpdp::sim::stats::{miss_ratio, response_stats};
use mpdp::workload::automotive_task_set;
use mpdp_faults::CompiledFaults;

fn table(n_procs: usize, utilization: f64) -> mpdp::core::task::TaskTable {
    let set = automotive_task_set(utilization, n_procs, DEFAULT_TICK);
    prepare(
        set.periodic,
        set.aperiodic,
        n_procs,
        ToolOptions::new()
            .with_quantization(DEFAULT_TICK)
            .with_wcet_margin(1.15),
    )
    .expect("schedulable")
}

/// A fault-free prototype run over `table` under a recorder.
fn probed(
    table: mpdp::core::task::TaskTable,
    arrivals: &[(Cycles, usize)],
    horizon: Cycles,
) -> (PrototypeOutcome, EventRecorder) {
    let n_procs = table.n_procs();
    run_prototype_probed(
        MpdpPolicy::new(table),
        arrivals,
        PrototypeConfig::new(horizon),
        &CompiledFaults::none(),
        EventRecorder::new(n_procs),
    )
    .unwrap()
}

#[test]
fn scheduler_lock_contention_appears_on_multiprocessors() {
    // Frequent aperiodic arrivals make release-ISRs overlap timer passes.
    let arrivals: Vec<(Cycles, usize)> = (0..20)
        .map(|i| (Cycles::from_millis(300 * i + 7), 0usize))
        .collect();
    let outcome = run_prototype(
        MpdpPolicy::new(table(3, 0.5)),
        &arrivals,
        PrototypeConfig::new(Cycles::from_secs(8)),
    )
    .unwrap();
    assert!(
        outcome.lock_contentions > 0,
        "overlapping ISRs must contend for the scheduler lock"
    );
    assert!(outcome.lock_wait_cycles > Cycles::ZERO);
    assert_eq!(outcome.trace.deadline_misses(), 0);
}

#[test]
fn intc_timeout_rotation_fires_when_ack_latency_exceeds_deadline() {
    let mut config = PrototypeConfig::new(Cycles::from_secs(2));
    // Pathological interrupt interface: the controller gives up before any
    // processor can acknowledge. The rotation path fires continuously and —
    // as on the real device — the system starves: nothing is ever served.
    // (A designer must size the timeout above the worst acknowledge
    // latency; the default configuration has three orders of magnitude of
    // headroom.)
    config.ack_latency = Cycles::new(5_000);
    config.intc_ack_timeout = Cycles::new(2_000);
    let outcome = PrototypeSim::new(MpdpPolicy::new(table(2, 0.4)), config)
        .run(&[])
        .unwrap();
    assert!(
        outcome.intc.timeouts > 0,
        "timeouts must fire: {:?}",
        outcome.intc
    );
    assert_eq!(outcome.intc.acknowledged, 0, "starved by design");
    assert!(outcome.trace.completions.is_empty());

    // With the timeout safely above the latency, the same platform serves
    // everything and never times out.
    let mut sane = PrototypeConfig::new(Cycles::from_secs(2));
    sane.ack_latency = Cycles::new(5_000);
    sane.intc_ack_timeout = Cycles::new(50_000);
    let outcome = PrototypeSim::new(MpdpPolicy::new(table(2, 0.4)), sane)
        .run(&[])
        .unwrap();
    assert_eq!(outcome.intc.timeouts, 0);
    assert!(outcome.intc.acknowledged > 0);
    assert!(!outcome.trace.completions.is_empty());
    assert_eq!(outcome.trace.deadline_misses(), 0);
}

#[test]
fn statistics_describe_a_real_run() {
    let arrivals = vec![(Cycles::from_secs(1), 0usize)];
    let horizon = Cycles::from_secs(10);
    let (outcome, rec) = probed(table(2, 0.5), &arrivals, horizon);
    let susan = mpdp::core::ids::TaskId::new(18);
    let stats = response_stats(&outcome.trace, susan).expect("susan completed");
    assert_eq!(stats.count, 1);
    assert!(stats.min_s <= stats.mean_s && stats.mean_s <= stats.max_s);
    assert!(stats.mean_s > 5.438, "at least the execution time");

    assert_eq!(miss_ratio(&outcome.trace), 0.0);

    // How each processor spent the window, from the cycle ledger: task
    // time retires work or stalls on the bus, overhead is kernel bursts,
    // lock waits and context moves.
    let ledger = rec.ledger();
    ledger
        .check_conservation(horizon)
        .expect("the ledger partitions the window");
    let task = |p| ledger.get(p, Bucket::TaskWork) + ledger.get(p, Bucket::BusStall);
    let total_task: u64 = (0..2).map(task).sum();
    // Two processors at ~50% periodic load plus susan: plenty of task time.
    assert!(
        total_task > horizon.as_u64() / 2,
        "task time {total_task} too small"
    );
    for p in 0..2 {
        let overhead: u64 = [
            Bucket::Sched,
            Bucket::Isr,
            Bucket::Contention,
            Bucket::Switch,
        ]
        .into_iter()
        .map(|b| ledger.get(p, b))
        .sum();
        assert!(
            (overhead as f64) < 0.05 * horizon.as_u64() as f64,
            "overhead too high on processor {p}: {overhead} cycles"
        );
    }
    // All three activity kinds appear in a real run.
    for kinds in [
        &[SpanKind::Task][..],
        &[SpanKind::Sched, SpanKind::Isr],
        &[SpanKind::Switch],
    ] {
        assert!(
            rec.spans().iter().any(|s| kinds.contains(&s.kind)),
            "missing {kinds:?} spans"
        );
    }
}

#[test]
fn csv_export_round_trips_counts() {
    let arrivals = vec![(Cycles::from_secs(1), 0usize)];
    let (outcome, rec) = probed(table(2, 0.4), &arrivals, Cycles::from_secs(8));
    let completions = completions_csv(&outcome.trace);
    assert_eq!(
        completions.trim_end().lines().count(),
        outcome.trace.completions.len() + 1,
        "one CSV row per completion plus header"
    );
    assert!(completions.contains("aperiodic"));
    assert!(completions.contains("periodic"));
    // Processor activity exports as the recorder's spans: one complete
    // event per span.
    let trace = chrome_trace_json(&rec, "prototype");
    assert_eq!(trace.matches("\"ph\":\"X\"").count(), rec.spans().len());
    assert!(trace.contains("ctx-switch"));
}

#[test]
fn pinned_interrupts_still_schedule_correctly() {
    // The stock-controller emulation must remain functionally correct —
    // only performance differs.
    let arrivals = vec![(Cycles::from_secs(1), 0usize)];
    let outcome = run_prototype(
        MpdpPolicy::new(table(3, 0.5)),
        &arrivals,
        PrototypeConfig::new(Cycles::from_secs(10))
            .with_pinned_interrupts(mpdp::core::ids::ProcId::new(0)),
    )
    .unwrap();
    assert_eq!(outcome.trace.deadline_misses(), 0);
    assert_eq!(
        outcome
            .trace
            .completions_of(mpdp::core::ids::TaskId::new(18))
            .count(),
        1
    );
}
