//! Summary statistics over simulation traces: response-time distributions,
//! deadline-miss ratios, and survivability counters — the numbers a
//! systems paper's evaluation section is made of. How each processor spent
//! its cycles is the probe's cycle ledger (`mpdp_obs::CycleLedger`).

use mpdp_core::ids::TaskId;
use mpdp_core::time::Cycles;

use crate::trace::{CompletionRecord, Trace};

/// Distribution summary of a set of response times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponseStats {
    /// Number of completions.
    pub count: usize,
    /// Minimum response (seconds).
    pub min_s: f64,
    /// Mean response (seconds).
    pub mean_s: f64,
    /// Median (50th percentile) response (seconds).
    pub p50_s: f64,
    /// 95th percentile response (seconds).
    pub p95_s: f64,
    /// 99th percentile response (seconds). Nearest-rank over the sorted
    /// samples (`round((count − 1) × q)`), so with fewer than ~100 samples
    /// it degenerates toward `max_s` — by design for tail-latency reporting.
    pub p99_s: f64,
    /// 99.9th percentile response (seconds); same nearest-rank rule.
    pub p999_s: f64,
    /// Maximum response (seconds).
    pub max_s: f64,
}

/// Mergeable response-time accumulator.
///
/// Samples are kept as raw [`Cycles`] and only sorted/converted at
/// [`finalize`](Self::finalize), so accumulation is **exact** and
/// **order-independent**: merging per-cell accumulators from a parallel
/// sweep yields bit-identical statistics to a sequential pass over the
/// concatenated completions, regardless of merge order. (Summing seconds as
/// they arrive would not — f64 addition is not associative.)
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResponseAccumulator {
    /// Raw response samples, in cycles, in arrival order.
    responses: Vec<u64>,
    /// Hard-deadline completions observed.
    hard: usize,
    /// Hard-deadline completions that missed.
    missed: usize,
}

impl ResponseAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one response sample with no deadline bookkeeping.
    pub fn observe(&mut self, response: Cycles) {
        self.responses.push(response.as_u64());
    }

    /// Records one completion, including hard-deadline bookkeeping.
    pub fn observe_completion(&mut self, c: &CompletionRecord) {
        self.responses.push(c.response.as_u64());
        if c.deadline.is_some() {
            self.hard += 1;
            if !c.met {
                self.missed += 1;
            }
        }
    }

    /// Records every completion of `task` in `trace`.
    pub fn observe_task(&mut self, trace: &Trace, task: TaskId) {
        for c in trace.completions_of(task) {
            self.observe_completion(c);
        }
    }

    /// Absorbs another accumulator.
    pub fn merge(&mut self, other: &Self) {
        self.responses.extend_from_slice(&other.responses);
        self.hard += other.hard;
        self.missed += other.missed;
    }

    /// Reassembles an accumulator from its serialized parts: the raw
    /// samples (cycles, in observation order), the hard-deadline completion
    /// count, and the miss count. Inverse of
    /// [`samples`](Self::samples)/[`hard_count`](Self::hard_count)/
    /// [`misses`](Self::misses) — a checkpoint journal round-trips through
    /// these and must reproduce the accumulator bit for bit.
    pub fn from_parts(responses: Vec<u64>, hard: usize, missed: usize) -> Self {
        ResponseAccumulator {
            responses,
            hard,
            missed,
        }
    }

    /// The raw response samples in observation order, in cycles.
    pub fn samples(&self) -> &[u64] {
        &self.responses
    }

    /// Hard-deadline completions observed (the miss ratio's denominator).
    pub fn hard_count(&self) -> usize {
        self.hard
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.responses.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.responses.is_empty()
    }

    /// Hard-deadline completions that missed, out of those observed.
    pub fn misses(&self) -> usize {
        self.missed
    }

    /// Hard-deadline miss ratio over the observed completions.
    pub fn miss_ratio(&self) -> f64 {
        if self.hard == 0 {
            0.0
        } else {
            self.missed as f64 / self.hard as f64
        }
    }

    /// Evaluates the response distribution at each quantile in `qs` (each in
    /// `[0, 1]`), in seconds; `None` when empty. Uses the same nearest-rank
    /// rule as [`finalize`](Self::finalize), sorting once.
    pub fn percentiles(&self, qs: &[f64]) -> Option<Vec<f64>> {
        if self.responses.is_empty() {
            return None;
        }
        let mut sorted = self.responses.clone();
        sorted.sort_unstable();
        let count = sorted.len();
        Some(
            qs.iter()
                .map(|q| {
                    let idx = ((count as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
                    Cycles::new(sorted[idx]).as_secs_f64()
                })
                .collect(),
        )
    }

    /// Sorts the samples and computes the distribution summary, `None` when
    /// empty. The mean is accumulated in integer cycles (u128) and divided
    /// once, so it too is independent of sample order.
    pub fn finalize(&self) -> Option<ResponseStats> {
        if self.responses.is_empty() {
            return None;
        }
        let mut sorted = self.responses.clone();
        sorted.sort_unstable();
        let count = sorted.len();
        let sum: u128 = sorted.iter().map(|&r| u128::from(r)).sum();
        let mean_s = (sum as f64 / count as f64) / mpdp_core::time::CLOCK_HZ as f64;
        let pct = |q: f64| -> f64 {
            let idx = ((count as f64 - 1.0) * q).round() as usize;
            Cycles::new(sorted[idx]).as_secs_f64()
        };
        Some(ResponseStats {
            count,
            min_s: Cycles::new(sorted[0]).as_secs_f64(),
            mean_s,
            p50_s: pct(0.50),
            p95_s: pct(0.95),
            p99_s: pct(0.99),
            p999_s: pct(0.999),
            max_s: Cycles::new(sorted[count - 1]).as_secs_f64(),
        })
    }
}

/// Survivability counters collected by a simulator run under fault
/// injection and graceful degradation. All-zero (the `Default`) for a
/// fault-free run with inert degradation — the simulators skip the
/// bookkeeping entirely in that case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SurvivalStats {
    /// Deadline misses detected by the policy's tick-time scan (each live
    /// job reported at most once).
    pub miss_events: u64,
    /// Instant of the first detected deadline miss.
    pub first_miss: Option<Cycles>,
    /// Execution-budget overruns detected (whatever the configured action).
    pub overruns: u64,
    /// Overrunning jobs aborted (`OverrunAction::Kill`), plus jobs lost
    /// mid-execution to a processor fail-stop.
    pub kills: u64,
    /// Overrunning jobs demoted to the background band
    /// (`OverrunAction::Demote`).
    pub demotions: u64,
    /// Aperiodic arrivals shed by the overload limit.
    pub shed: u64,
    /// Timer interrupts lost at the controller (prototype stack only).
    pub lost_irqs: u64,
    /// Spurious timer interrupts injected (prototype stack only).
    pub spurious_irqs: u64,
    /// The processor that fail-stopped, if any.
    pub failed_proc: Option<u32>,
    /// Instant the fail-stop was applied.
    pub fail_at: Option<Cycles>,
    /// Instant the first post-failure scheduling pass completed — the
    /// recovery latency is `recovery_at − fail_at`.
    pub recovery_at: Option<Cycles>,
    /// Periodic tasks still guaranteed by the online re-admission analysis
    /// after the failure (equals `total_tasks` when nothing failed).
    pub guaranteed_tasks: u64,
    /// Total periodic tasks in the table.
    pub total_tasks: u64,
}

impl SurvivalStats {
    /// Recovery latency (`recovery_at − fail_at`), when a failure happened
    /// and a scheduling pass completed afterwards.
    pub fn recovery_latency(&self) -> Option<Cycles> {
        match (self.fail_at, self.recovery_at) {
            (Some(f), Some(r)) => Some(r.saturating_sub(f)),
            _ => None,
        }
    }

    /// Fraction of periodic tasks still guaranteed (1.0 when the run never
    /// lost a processor or has no periodic tasks).
    pub fn guaranteed_fraction(&self) -> f64 {
        if self.total_tasks == 0 {
            1.0
        } else {
            self.guaranteed_tasks as f64 / self.total_tasks as f64
        }
    }

    /// Merges counters from another run (aggregation across sweep cells):
    /// sums the counts, keeps the earliest first-miss/fail/recovery
    /// instants, and the minimum guaranteed fraction's numerator/denominator
    /// pair.
    pub fn merge(&mut self, other: &Self) {
        self.miss_events += other.miss_events;
        self.overruns += other.overruns;
        self.kills += other.kills;
        self.demotions += other.demotions;
        self.shed += other.shed;
        self.lost_irqs += other.lost_irqs;
        self.spurious_irqs += other.spurious_irqs;
        self.first_miss = min_opt(self.first_miss, other.first_miss);
        self.fail_at = min_opt(self.fail_at, other.fail_at);
        self.recovery_at = min_opt(self.recovery_at, other.recovery_at);
        if self.failed_proc.is_none() {
            self.failed_proc = other.failed_proc;
        }
        if other.total_tasks > 0
            && (self.total_tasks == 0 || other.guaranteed_fraction() < self.guaranteed_fraction())
        {
            self.guaranteed_tasks = other.guaranteed_tasks;
            self.total_tasks = other.total_tasks;
        }
    }
}

fn min_opt(a: Option<Cycles>, b: Option<Cycles>) -> Option<Cycles> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// Computes the response distribution of one task's completions, `None` if
/// it never completed.
pub fn response_stats(trace: &Trace, task: TaskId) -> Option<ResponseStats> {
    let mut acc = ResponseAccumulator::new();
    acc.observe_task(trace, task);
    acc.finalize()
}

/// Hard-deadline miss ratio over all periodic completions.
pub fn miss_ratio(trace: &Trace) -> f64 {
    let hard: Vec<_> = trace
        .completions
        .iter()
        .filter(|c| c.deadline.is_some())
        .collect();
    if hard.is_empty() {
        0.0
    } else {
        hard.iter().filter(|c| !c.met).count() as f64 / hard.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdp_core::ids::JobId;
    use mpdp_core::policy::{Job, JobClass};

    fn push_completion(
        trace: &mut Trace,
        id: u32,
        release: u64,
        finish: u64,
        deadline: Option<u64>,
    ) {
        trace.record_completion(
            &Job {
                id: JobId::new(id),
                class: JobClass::Periodic { task_index: 0 },
                release: Cycles::new(release),
                absolute_deadline: deadline.map(Cycles::new),
                promotion_at: None,
                promoted: false,
                last_proc: None,
            },
            TaskId::new(1),
            Cycles::new(finish),
        );
    }

    #[test]
    fn response_distribution_quantiles() {
        let mut trace = Trace::new();
        for (i, resp) in [100u64, 200, 300, 400, 1000].iter().enumerate() {
            push_completion(&mut trace, i as u32, 0, *resp, None);
        }
        let stats = response_stats(&trace, TaskId::new(1)).expect("completions");
        assert_eq!(stats.count, 5);
        assert!((stats.min_s - 100.0 / 5e7).abs() < 1e-12);
        assert!((stats.max_s - 1000.0 / 5e7).abs() < 1e-12);
        assert!((stats.p50_s - 300.0 / 5e7).abs() < 1e-12);
        assert!((stats.mean_s - 400.0 / 5e7).abs() < 1e-12);
        // Nearest-rank on 5 samples: p99 and p99.9 land on the maximum.
        assert!((stats.p99_s - 1000.0 / 5e7).abs() < 1e-12);
        assert!((stats.p999_s - 1000.0 / 5e7).abs() < 1e-12);
        assert!(response_stats(&trace, TaskId::new(9)).is_none());
    }

    #[test]
    fn tail_percentiles_use_nearest_rank() {
        let mut acc = ResponseAccumulator::new();
        for i in 1..=1000u64 {
            acc.observe(Cycles::new(i));
        }
        let stats = acc.finalize().expect("samples");
        // Nearest rank: round(999 × 0.99) = 989 → the 990-cycle sample;
        // round(999 × 0.999) = 998 → the 999-cycle sample.
        assert!((stats.p99_s - 990.0 / 5e7).abs() < 1e-12);
        assert!((stats.p999_s - 999.0 / 5e7).abs() < 1e-12);
        assert!((stats.max_s - 1000.0 / 5e7).abs() < 1e-12);
    }

    #[test]
    fn accumulator_matches_direct_stats_and_merges() {
        let mut trace = Trace::new();
        for (i, resp) in [100u64, 200, 300, 400, 1000].iter().enumerate() {
            push_completion(&mut trace, i as u32, 0, *resp, None);
        }
        let direct = response_stats(&trace, TaskId::new(1)).expect("completions");

        // Split the same samples across two accumulators and merge.
        let mut left = ResponseAccumulator::new();
        let mut right = ResponseAccumulator::new();
        for (i, c) in trace.completions.iter().enumerate() {
            if i % 2 == 0 {
                left.observe_completion(c);
            } else {
                right.observe_completion(c);
            }
        }
        left.merge(&right);
        assert_eq!(left.len(), 5);
        assert_eq!(left.finalize().expect("samples"), direct);
        assert!(ResponseAccumulator::new().finalize().is_none());
        assert!(ResponseAccumulator::new().is_empty());
    }

    #[test]
    fn accumulator_miss_bookkeeping() {
        let mut trace = Trace::new();
        push_completion(&mut trace, 0, 0, 50, Some(100)); // met
        push_completion(&mut trace, 1, 0, 150, Some(100)); // missed
        push_completion(&mut trace, 2, 0, 9999, None); // soft
        let mut acc = ResponseAccumulator::new();
        for c in &trace.completions {
            acc.observe_completion(c);
        }
        assert_eq!(acc.len(), 3);
        assert_eq!(acc.misses(), 1);
        assert!((acc.miss_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(ResponseAccumulator::new().miss_ratio(), 0.0);
    }

    #[test]
    fn miss_ratio_counts_only_hard_jobs() {
        let mut trace = Trace::new();
        push_completion(&mut trace, 0, 0, 50, Some(100)); // met
        push_completion(&mut trace, 1, 0, 150, Some(100)); // missed
        push_completion(&mut trace, 2, 0, 9999, None); // soft: ignored
        assert!((miss_ratio(&trace) - 0.5).abs() < 1e-12);
        assert_eq!(miss_ratio(&Trace::new()), 0.0);
    }
}
