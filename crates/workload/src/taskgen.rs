//! Random task-set generation for property tests and ablation sweeps.
//!
//! [`uunifast`] is the standard unbiased utilization generator (Bini &
//! Buttazzo); [`random_task_set`] turns utilizations into full
//! [`PeriodicTask`] specifications with tick-multiple periods and
//! rate-monotonic dual priorities; [`poisson_arrivals`] produces aperiodic
//! arrival streams.
//!
//! All generation is seeded and reproducible.
//!
//! # Examples
//!
//! ```
//! use mpdp_workload::taskgen::{random_task_set, TaskGenConfig};
//!
//! let tasks = random_task_set(&TaskGenConfig::new(8, 0.6).with_seed(42));
//! assert_eq!(tasks.len(), 8);
//! let u: f64 = tasks.iter().map(|t| t.utilization()).sum();
//! assert!((u - 0.6).abs() < 0.1);
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mpdp_core::ids::TaskId;
use mpdp_core::priority::Priority;
use mpdp_core::task::{MemoryProfile, PeriodicTask};
use mpdp_core::time::{Cycles, DEFAULT_TICK};

/// Draws `n` utilizations summing to `total` with the UUniFast algorithm.
///
/// # Panics
///
/// Panics if `n` is zero or `total` is not positive and finite.
pub fn uunifast(rng: &mut impl Rng, n: usize, total: f64) -> Vec<f64> {
    assert!(n > 0, "need at least one task");
    assert!(total.is_finite() && total > 0.0, "total must be positive");
    let mut out = Vec::with_capacity(n);
    let mut sum = total;
    for i in 1..n {
        let next = sum * rng.gen::<f64>().powf(1.0 / (n - i) as f64);
        out.push(sum - next);
        sum = next;
    }
    out.push(sum);
    out
}

/// Configuration for [`random_task_set`].
#[derive(Debug, Clone)]
pub struct TaskGenConfig {
    /// Number of periodic tasks.
    pub n_tasks: usize,
    /// Total utilization `Σ C/T` of the set.
    pub total_utilization: f64,
    /// Period range as a number of scheduler ticks `[min, max]`, sampled
    /// log-uniformly.
    pub period_ticks: (u64, u64),
    /// Scheduler tick (periods are tick multiples).
    pub tick: Cycles,
    /// RNG seed.
    pub seed: u64,
    /// First task id to assign.
    pub first_id: u32,
    /// Constrained-deadline range: each task's deadline is a uniform
    /// fraction of its period drawn from this range (`None` = implicit
    /// deadlines, `D = T`). Deadlines are floored at the WCET.
    pub deadline_fraction: Option<(f64, f64)>,
}

impl TaskGenConfig {
    /// Configuration with the default tick, period range 2–100 ticks, and
    /// seed 0.
    pub fn new(n_tasks: usize, total_utilization: f64) -> Self {
        TaskGenConfig {
            n_tasks,
            total_utilization,
            period_ticks: (2, 100),
            tick: DEFAULT_TICK,
            seed: 0,
            first_id: 0,
            deadline_fraction: None,
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the period range in ticks.
    pub fn with_period_ticks(mut self, min: u64, max: u64) -> Self {
        self.period_ticks = (min, max);
        self
    }

    /// Sets the scheduler tick.
    pub fn with_tick(mut self, tick: Cycles) -> Self {
        self.tick = tick;
        self
    }

    /// Enables constrained deadlines drawn uniformly from
    /// `[lo, hi] × period`. Kept for
    /// `tests/analysis_kernel.rs::random_sets_match_the_reference`, which
    /// needs constrained-deadline sets.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < lo ≤ hi ≤ 1`.
    pub fn with_deadline_fraction(mut self, lo: f64, hi: f64) -> Self {
        assert!(
            0.0 < lo && lo <= hi && hi <= 1.0,
            "deadline fractions must satisfy 0 < lo <= hi <= 1"
        );
        self.deadline_fraction = Some((lo, hi));
        self
    }
}

/// Generates a random periodic task set (processor assignments left at the
/// default — run the partitioner next).
///
/// Each task's utilization comes from [`uunifast`], its period is a
/// log-uniform number of ticks, and `C = u·T` (clamped to at least 1000
/// cycles so WCETs stay physical). Priorities are rate monotonic with
/// globally unique levels. Memory profiles rotate through the three presets.
///
/// Per-task utilizations above 1 (possible under UUniFast when the total
/// exceeds 1) are clamped to a full processor (`C = T`).
///
/// # Panics
///
/// Panics on a zero task count, a non-positive utilization, or an invalid
/// period range.
pub fn random_task_set(config: &TaskGenConfig) -> Vec<PeriodicTask> {
    let (min_t, max_t) = config.period_ticks;
    assert!(min_t >= 1 && max_t >= min_t, "invalid period range");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let utils = uunifast(&mut rng, config.n_tasks, config.total_utilization);
    let profiles = [
        MemoryProfile::compute_bound(),
        MemoryProfile::balanced(),
        MemoryProfile::memory_bound(),
    ];
    let mut tasks: Vec<PeriodicTask> = utils
        .iter()
        .enumerate()
        .map(|(i, &u)| {
            let u = u.min(1.0);
            let log_min = (min_t as f64).ln();
            let log_max = (max_t as f64).ln();
            let ticks = (log_min + rng.gen::<f64>() * (log_max - log_min))
                .exp()
                .round() as u64;
            let period = config.tick * ticks.clamp(min_t, max_t);
            let wcet = Cycles::new(((period.as_u64() as f64 * u) as u64).max(1000));
            let wcet = wcet.min(period);
            let deadline = match config.deadline_fraction {
                Some((lo, hi)) => {
                    let frac = lo + rng.gen::<f64>() * (hi - lo);
                    Cycles::new((period.as_u64() as f64 * frac).round() as u64)
                        .max(wcet)
                        .min(period)
                }
                None => period,
            };
            PeriodicTask::new(
                TaskId::new(config.first_id + i as u32),
                format!("rand{}", config.first_id + i as u32),
                wcet,
                period,
            )
            .with_deadline(deadline)
            .with_profile(profiles[i % profiles.len()])
        })
        .collect();
    // Rate-monotonic unique priorities.
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_by_key(|&i| (tasks[i].period(), tasks[i].id()));
    let n = tasks.len() as u32;
    for (rank, &i) in order.iter().enumerate() {
        let level = Priority::new(n - rank as u32);
        tasks[i] = tasks[i].clone().with_priorities(level, level);
    }
    tasks
}

/// Generates Poisson arrival instants with mean inter-arrival `mean_gap`
/// over `[0, horizon)`.
///
/// # Panics
///
/// Panics if `mean_gap` is zero.
pub fn poisson_arrivals(rng: &mut impl Rng, mean_gap: Cycles, horizon: Cycles) -> Vec<Cycles> {
    assert!(!mean_gap.is_zero(), "mean gap must be non-zero");
    let mut out = Vec::new();
    let mut t = 0.0f64;
    let mean = mean_gap.as_u64() as f64;
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -mean * u.ln();
        if t >= horizon.as_u64() as f64 {
            return out;
        }
        out.push(Cycles::new(t as u64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uunifast_sums_to_total() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [1usize, 2, 5, 20] {
            let u = uunifast(&mut rng, n, 0.8);
            assert_eq!(u.len(), n);
            let sum: f64 = u.iter().sum();
            assert!((sum - 0.8).abs() < 1e-9, "n={n} sum={sum}");
            assert!(u.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn uunifast_is_seed_deterministic() {
        let a = uunifast(&mut StdRng::seed_from_u64(1), 5, 0.5);
        let b = uunifast(&mut StdRng::seed_from_u64(1), 5, 0.5);
        assert_eq!(a, b);
    }

    #[test]
    fn random_sets_respect_constraints() {
        for seed in 0..20 {
            let cfg = TaskGenConfig::new(10, 0.7).with_seed(seed);
            let tasks = random_task_set(&cfg);
            for t in &tasks {
                assert!(t.wcet() <= t.period());
                assert!(t.wcet().as_u64() >= 1000);
                assert_eq!(t.period().as_u64() % cfg.tick.as_u64(), 0);
            }
            let total: f64 = tasks.iter().map(|t| t.utilization()).sum();
            // Clamping can shift utilization slightly.
            assert!((total - 0.7).abs() < 0.15, "seed {seed}: {total}");
        }
    }

    #[test]
    fn random_set_priorities_unique_and_rm() {
        let tasks = random_task_set(&TaskGenConfig::new(12, 0.5).with_seed(3));
        let mut levels: Vec<u32> = tasks.iter().map(|t| t.priorities().high.level()).collect();
        levels.sort_unstable();
        levels.dedup();
        assert_eq!(levels.len(), 12);
        for a in &tasks {
            for b in &tasks {
                if a.period() < b.period() {
                    assert!(a.priorities().high > b.priorities().high);
                }
            }
        }
    }

    #[test]
    fn constrained_deadlines_are_in_range() {
        let cfg = TaskGenConfig::new(20, 0.4)
            .with_seed(11)
            .with_deadline_fraction(0.5, 0.9);
        let tasks = random_task_set(&cfg);
        let mut strictly_constrained = 0;
        for t in &tasks {
            assert!(t.deadline() >= t.wcet());
            assert!(t.deadline() <= t.period());
            let frac = t.deadline().as_u64() as f64 / t.period().as_u64() as f64;
            assert!(frac >= 0.49, "{frac}");
            if t.deadline() < t.period() {
                strictly_constrained += 1;
            }
        }
        assert!(
            strictly_constrained > 10,
            "most deadlines should be constrained"
        );
    }

    #[test]
    fn poisson_arrivals_in_range_and_ordered() {
        let mut rng = StdRng::seed_from_u64(5);
        let arr = poisson_arrivals(&mut rng, Cycles::new(1000), Cycles::new(100_000));
        assert!(!arr.is_empty());
        assert!(arr.windows(2).all(|w| w[0] <= w[1]));
        assert!(arr.iter().all(|&t| t < Cycles::new(100_000)));
        // Mean gap roughly right (loose bound).
        let mean = arr.last().unwrap().as_u64() as f64 / arr.len() as f64;
        assert!(mean > 500.0 && mean < 2000.0, "mean gap {mean}");
    }
}
