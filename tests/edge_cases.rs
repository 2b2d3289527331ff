//! Degenerate-configuration robustness: the stacks must behave sensibly at
//! the edges of the configuration space (no tasks, no aperiodics, one
//! processor, many processors with few tasks), and reject what they cannot
//! run with a typed error instead of hanging or panicking.

use std::sync::mpsc;
use std::time::Duration;

use mpdp::core::error::TaskSetError;
use mpdp::core::ids::TaskId;
use mpdp::core::policy::MpdpPolicy;
use mpdp::core::priority::Priority;
use mpdp::core::rta::build_task_table;
use mpdp::core::task::{AperiodicTask, MemoryProfile, PeriodicTask};
use mpdp::core::time::{hyperperiod, Cycles, DEFAULT_TICK};
use mpdp::sim::prototype::{run_prototype, PrototypeConfig};
use mpdp::sim::theoretical::{run_theoretical, TheoreticalConfig};

fn one_periodic() -> Vec<PeriodicTask> {
    vec![
        PeriodicTask::new(TaskId::new(0), "only", DEFAULT_TICK / 2, DEFAULT_TICK * 5)
            .with_priorities(Priority::new(1), Priority::new(1)),
    ]
}

#[test]
fn aperiodic_only_system_serves_on_demand() {
    // No periodic tasks at all: the system idles until triggered.
    let table = build_task_table(
        vec![],
        vec![AperiodicTask::new(TaskId::new(0), "ap", DEFAULT_TICK)],
        2,
    )
    .expect("valid");
    let arrivals = vec![(DEFAULT_TICK * 3, 0usize), (DEFAULT_TICK * 7, 0usize)];
    for response in [
        {
            let out = run_theoretical(
                MpdpPolicy::new(table.clone()),
                &arrivals,
                TheoreticalConfig::new(DEFAULT_TICK * 20),
            )
            .unwrap();
            out.trace.mean_response(TaskId::new(0))
        },
        {
            let out = run_prototype(
                MpdpPolicy::new(table.clone()),
                &arrivals,
                PrototypeConfig::new(DEFAULT_TICK * 20),
            )
            .unwrap();
            out.trace.mean_response(TaskId::new(0))
        },
    ] {
        let response = response.expect("both activations served");
        // On an idle system the response is barely above the execution time.
        assert!(response >= DEFAULT_TICK);
        assert!(response < DEFAULT_TICK * 2, "response {response}");
    }
}

#[test]
fn periodic_only_system_runs_forever_without_arrivals() {
    let table = build_task_table(one_periodic(), vec![], 1).expect("valid");
    let out = run_prototype(
        MpdpPolicy::new(table),
        &[],
        PrototypeConfig::new(DEFAULT_TICK * 50),
    )
    .unwrap();
    assert_eq!(out.trace.completions.len(), 10, "period 5 ticks over 50");
    assert_eq!(out.trace.deadline_misses(), 0);
}

#[test]
fn empty_system_idles_cleanly() {
    let table = build_task_table(vec![], vec![], 3).expect("valid");
    let out = run_prototype(
        MpdpPolicy::new(table.clone()),
        &[],
        PrototypeConfig::new(DEFAULT_TICK * 10),
    )
    .unwrap();
    assert!(out.trace.completions.is_empty());
    // Ticks still fire and are all handled.
    assert!(out.kernel.sched_passes >= 10);
    let theo = run_theoretical(
        MpdpPolicy::new(table),
        &[],
        TheoreticalConfig::new(DEFAULT_TICK * 10),
    )
    .unwrap();
    assert!(theo.trace.completions.is_empty());
}

#[test]
fn more_processors_than_tasks_is_fine() {
    let table = build_task_table(one_periodic(), vec![], 4).expect("valid");
    let out = run_prototype(
        MpdpPolicy::new(table),
        &[],
        PrototypeConfig::new(DEFAULT_TICK * 25),
    )
    .unwrap();
    assert_eq!(out.trace.completions.len(), 5);
    assert_eq!(out.trace.deadline_misses(), 0);
}

#[test]
fn hyperperiod_covers_the_automotive_set() {
    let set = mpdp::workload::automotive_task_set(0.5, 2, DEFAULT_TICK);
    let hp = hyperperiod(set.periodic.iter().map(|t| t.period()));
    assert!(!hp.is_zero());
    // Tick-multiple periods → tick-multiple hyperperiod.
    assert_eq!(hp.as_u64() % DEFAULT_TICK.as_u64(), 0);
    for t in &set.periodic {
        assert_eq!(hp.as_u64() % t.period().as_u64(), 0);
    }
}

#[test]
fn back_to_back_arrivals_all_serialize() {
    // Ten triggers in the same tick: the peripheral/driver serializes them,
    // all ten eventually complete, in order.
    let table = build_task_table(
        one_periodic(),
        vec![AperiodicTask::new(
            TaskId::new(9),
            "burst",
            DEFAULT_TICK / 4,
        )],
        2,
    )
    .expect("valid");
    let arrivals: Vec<(Cycles, usize)> = (0..10)
        .map(|i| (DEFAULT_TICK * 2 + Cycles::new(i), 0usize))
        .collect();
    let out = run_prototype(
        MpdpPolicy::new(table),
        &arrivals,
        PrototypeConfig::new(DEFAULT_TICK * 40),
    )
    .unwrap();
    let completions: Vec<_> = out.trace.completions_of(TaskId::new(9)).collect();
    assert_eq!(completions.len(), 10);
    for w in completions.windows(2) {
        assert!(w[0].finish <= w[1].finish, "FIFO service order");
        assert!(w[0].release <= w[1].release);
    }
    assert_eq!(out.trace.deadline_misses(), 0);
}

#[test]
fn a_zero_tick_is_a_typed_error_on_both_stacks() {
    let table = build_task_table(one_periodic(), vec![], 1).expect("valid");
    // A zero tick used to pin the theoretical loop at t = 0 forever: run
    // it on its own thread so a regression fails here instead of hanging
    // the suite.
    let (tx, rx) = mpsc::channel();
    let theoretical_table = table.clone();
    std::thread::spawn(move || {
        let out = run_theoretical(
            MpdpPolicy::new(theoretical_table),
            &[],
            TheoreticalConfig::new(DEFAULT_TICK * 10).with_tick(Cycles::ZERO),
        );
        let _ = tx.send(out.err());
    });
    let theoretical = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the theoretical stack returns on a zero tick");
    assert_eq!(theoretical, Some(TaskSetError::InvalidParameter("tick")));
    let prototype = run_prototype(
        MpdpPolicy::new(table),
        &[],
        PrototypeConfig::new(DEFAULT_TICK * 10).with_tick(Cycles::ZERO),
    );
    assert_eq!(
        prototype.err(),
        Some(TaskSetError::InvalidParameter("tick"))
    );
}

#[test]
fn an_invalid_memory_profile_is_a_typed_error() {
    let nan_hit_rate = MemoryProfile {
        icache_hit_rate: f64::NAN,
        ..MemoryProfile::default()
    };
    let fraction_above_one = MemoryProfile {
        icache_hit_rate: 1.5,
        ..MemoryProfile::default()
    };
    let negative_rate = MemoryProfile {
        data_access_per_cycle: -0.1,
        ..MemoryProfile::default()
    };
    let aperiodic = || AperiodicTask::new(TaskId::new(1), "ap", DEFAULT_TICK);
    for bad in [nan_hit_rate, fraction_above_one, negative_rate] {
        assert!(!bad.is_valid(), "{bad:?}");
        let periodic = one_periodic()
            .into_iter()
            .map(|t| t.with_profile(bad))
            .collect();
        for table in [
            build_task_table(periodic, vec![aperiodic()], 2).expect("valid"),
            build_task_table(one_periodic(), vec![aperiodic().with_profile(bad)], 2)
                .expect("valid"),
        ] {
            let out = run_prototype(
                MpdpPolicy::new(table),
                &[(DEFAULT_TICK * 2, 0)],
                PrototypeConfig::new(DEFAULT_TICK * 10),
            );
            assert_eq!(
                out.err(),
                Some(TaskSetError::InvalidParameter("memory profile")),
                "{bad:?}"
            );
        }
    }
}
