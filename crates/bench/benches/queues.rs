//! Criterion bench: the four MPDP queue kinds under realistic sizes (the
//! paper's system has 19 tasks; we also stress far beyond that).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use mpdp_core::ids::JobId;
use mpdp_core::priority::Priority;
use mpdp_core::queue::{AperiodicReadyQueue, PriorityQueue, WaitingPeriodicQueue};
use mpdp_core::time::Cycles;

fn bench_priority_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("priority_queue");
    for n in [19usize, 128] {
        group.bench_function(BenchmarkId::new("push_pop_all", n), |b| {
            b.iter(|| {
                let mut q = PriorityQueue::new();
                for i in 0..n {
                    q.push(JobId::new(i as u32), Priority::new((i * 7 % 13) as u32));
                }
                while let Some(j) = q.pop() {
                    black_box(j);
                }
            });
        });
        group.bench_function(BenchmarkId::new("peek", n), |b| {
            let mut q = PriorityQueue::new();
            for i in 0..n {
                q.push(JobId::new(i as u32), Priority::new((i * 7 % 13) as u32));
            }
            b.iter(|| black_box(q.peek()));
        });
    }
    group.finish();
}

fn bench_waiting_queue(c: &mut Criterion) {
    c.bench_function("waiting_queue/park_release_19", |b| {
        b.iter(|| {
            let mut q = WaitingPeriodicQueue::new();
            for i in 0..19usize {
                q.push(i, Cycles::new((i as u64 * 37) % 100));
            }
            black_box(q.pop_due(Cycles::new(50)).sum::<usize>());
            black_box(q.pop_due(Cycles::new(100)).sum::<usize>());
        });
    });
}

fn bench_aperiodic_queue(c: &mut Criterion) {
    c.bench_function("aperiodic_queue/fifo_64", |b| {
        b.iter(|| {
            let mut q = AperiodicReadyQueue::new();
            for i in 0..64u32 {
                q.push(JobId::new(i));
            }
            while let Some(j) = q.pop() {
                black_box(j);
            }
        });
    });
}

criterion_group!(
    benches,
    bench_priority_queue,
    bench_waiting_queue,
    bench_aperiodic_queue
);
criterion_main!(benches);
