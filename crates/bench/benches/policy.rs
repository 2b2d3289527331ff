//! Criterion bench: the MPDP scheduling-cycle primitives — the operations
//! the paper's microkernel runs on every tick (release, promote, assign,
//! diff), in the buffer-filling forms the simulators call. Their cost is
//! what the kernel cost model charges as `sched_base`/`sched_per_task`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use mpdp_analysis::tool::{prepare, ToolOptions};
use mpdp_core::policy::{MpdpPolicy, Scheduler};
use mpdp_core::time::{Cycles, DEFAULT_TICK};
use mpdp_workload::automotive_task_set;

fn prepared_policy(n_procs: usize) -> MpdpPolicy {
    let set = automotive_task_set(0.5, n_procs, DEFAULT_TICK);
    let table = prepare(
        set.periodic,
        set.aperiodic,
        n_procs,
        ToolOptions::new().with_quantization(DEFAULT_TICK),
    )
    .expect("schedulable");
    MpdpPolicy::new(table)
}

fn bench_scheduling_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("policy");
    for n_procs in [2usize, 4] {
        group.bench_function(BenchmarkId::new("full_cycle", n_procs), |b| {
            b.iter_batched(
                || {
                    let mut p = prepared_policy(n_procs);
                    p.release_due(Cycles::ZERO);
                    p
                },
                |mut p| {
                    let (mut promoted, mut desired, mut actions) = (vec![], vec![], vec![]);
                    p.promote_due_into(black_box(DEFAULT_TICK * 10), &mut promoted);
                    p.assign_into(&mut desired);
                    p.diff_into(&desired, &mut actions);
                    black_box(actions);
                },
                criterion::BatchSize::SmallInput,
            );
        });
        group.bench_function(BenchmarkId::new("assign_only", n_procs), |b| {
            let mut p = prepared_policy(n_procs);
            p.release_due(Cycles::ZERO);
            p.release_aperiodic(0, Cycles::ZERO);
            let mut desired = vec![];
            b.iter(|| {
                p.assign_into(&mut desired);
                black_box(&desired);
            });
        });
    }
    group.finish();
}

fn bench_release_park_cycle(c: &mut Criterion) {
    c.bench_function("policy/release_complete_repark", |b| {
        b.iter_batched(
            || prepared_policy(2),
            |mut p| {
                let jobs = p.release_due(Cycles::ZERO);
                for (i, job) in jobs.iter().enumerate().take(2) {
                    p.set_running(mpdp_core::ids::ProcId::new(i as u32), Some(*job));
                    p.complete(*job, Cycles::new(1000));
                }
            },
            criterion::BatchSize::SmallInput,
        );
    });
}

criterion_group!(benches, bench_scheduling_cycle, bench_release_park_cycle);
criterion_main!(benches);
