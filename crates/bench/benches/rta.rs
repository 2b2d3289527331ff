//! Criterion bench: the response-time recurrence, the offline tool, and
//! the sensitivity queries the admission daemon answers online.
//!
//! The paper runs the analysis offline on a host, but its cost still matters
//! for design-space exploration (re-analysing every candidate partition).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use mpdp_analysis::tool::{prepare, ToolOptions};
use mpdp_analysis::{breakdown_utilization, is_schedulable_at, PartitionHeuristic};
use mpdp_core::rta::analyze;
use mpdp_core::time::DEFAULT_TICK;
use mpdp_workload::automotive_task_set;
use mpdp_workload::taskgen::{random_task_set, TaskGenConfig};

fn bench_rta(c: &mut Criterion) {
    let mut group = c.benchmark_group("rta");
    for n_tasks in [4usize, 16, 64] {
        let tasks = random_task_set(&TaskGenConfig::new(n_tasks, 0.7).with_seed(7));
        group.bench_with_input(BenchmarkId::new("analyze", n_tasks), &tasks, |b, tasks| {
            b.iter(|| analyze(black_box(tasks), 1).expect("schedulable"));
        });
    }
    group.finish();
}

fn bench_offline_tool(c: &mut Criterion) {
    let mut group = c.benchmark_group("offline_tool");
    for n_procs in [2usize, 4] {
        let set = automotive_task_set(0.5, n_procs, DEFAULT_TICK);
        group.bench_with_input(
            BenchmarkId::new("prepare_automotive", n_procs),
            &set,
            |b, set| {
                b.iter(|| {
                    prepare(
                        black_box(set.periodic.clone()),
                        set.aperiodic.clone(),
                        n_procs,
                        ToolOptions::new().with_quantization(DEFAULT_TICK),
                    )
                    .expect("schedulable")
                });
            },
        );
    }
    group.finish();
}

fn bench_sensitivity(c: &mut Criterion) {
    let mut group = c.benchmark_group("sensitivity");
    let heuristic = PartitionHeuristic::WorstFitDecreasing;
    for (util, n_procs) in [(0.4, 2usize), (0.5, 3), (0.6, 4)] {
        let set = automotive_task_set(util, n_procs, DEFAULT_TICK).periodic;
        let label = format!("{n_procs}P");
        group.bench_with_input(
            BenchmarkId::new("is_schedulable_at_1.2", &label),
            &set,
            |b, set| {
                b.iter(|| is_schedulable_at(black_box(set), n_procs, 1.2, heuristic));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("breakdown_utilization_0.01", &label),
            &set,
            |b, set| {
                b.iter(|| {
                    breakdown_utilization(black_box(set), n_procs, heuristic, 0.01)
                        .expect("schedulable at its own load")
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_rta, bench_offline_tool, bench_sensitivity);
criterion_main!(benches);
