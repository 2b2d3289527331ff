//! Cycle-accurate micro-simulation of execution windows.
//!
//! The prototype simulator advances work fluidly using the analytic
//! contention model; this module is the ground truth it is validated
//! against: N processors executing work cycle by cycle, with every bus
//! transaction individually arbitrated on the modeled OPB and (optionally)
//! every instruction fetch going through a real direct-mapped cache.
//!
//! It is exact and therefore slow — suitable for windows of 10⁵–10⁷ cycles,
//! not the 10⁹-cycle Figure 4 runs. Use it to answer questions like "what
//! speed does a task with this profile *really* sustain next to these
//! co-runners?" and to calibrate [`mpdp_core::task::MemoryProfile`] hit
//! rates from code footprints.
//!
//! # Examples
//!
//! ```
//! use mpdp_sim::micro::{run_micro, AccessModel, MicroConfig, MicroTask};
//! use mpdp_core::task::MemoryProfile;
//!
//! // Alone, any task sustains full speed (its WCET already budgets the
//! // uncontended memory service)…
//! let lone = run_micro(
//!     &[MicroTask::new(MemoryProfile::memory_bound(), 50_000)],
//!     &MicroConfig::new(200_000),
//! );
//! assert!(lone.speed(0) > 0.999);
//!
//! // …but three memory-bound tasks queue behind each other on the bus.
//! let crowd = vec![MicroTask::new(MemoryProfile::memory_bound(), 50_000); 3];
//! let result = run_micro(&crowd, &MicroConfig::new(400_000));
//! assert!(result.speed(0) < 0.99);
//! assert!(result.bus.total_wait > 0);
//! ```

use mpdp_core::ids::ProcId;
use mpdp_core::task::MemoryProfile;
use mpdp_hw::bus::{Arbiter, ArbitrationPolicy, BusStats, DDR_SERVICE_CYCLES};
use mpdp_hw::cache::{CacheStats, DirectMappedCache};
use mpdp_hw::contention::ContentionModel;

/// How a micro-task generates its bus accesses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessModel {
    /// Deterministic accumulator at the profile's per-work-cycle bus rate
    /// (the same abstraction the fluid model uses — for apples-to-apples
    /// validation).
    RateBased,
    /// Instruction fetches walk a looped code footprint of this many words
    /// through a real direct-mapped cache; misses become bus transactions.
    /// Data accesses stay rate-based.
    CacheDriven {
        /// Loop body size in words.
        code_footprint_words: u64,
    },
}

/// One task pinned to one processor for the window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicroTask {
    /// Memory behaviour.
    pub profile: MemoryProfile,
    /// Work cycles to retire (the window ends early for this processor when
    /// done).
    pub work: u64,
    /// Access generation mode.
    pub access_model: AccessModel,
}

impl MicroTask {
    /// A rate-based task.
    pub fn new(profile: MemoryProfile, work: u64) -> Self {
        MicroTask {
            profile,
            work,
            access_model: AccessModel::RateBased,
        }
    }

    /// A cache-driven task with the given code footprint. Kept for
    /// `cache_driven_fetches_follow_footprint`.
    pub fn with_code_footprint(mut self, words: u64) -> Self {
        self.access_model = AccessModel::CacheDriven {
            code_footprint_words: words,
        };
        self
    }
}

/// Micro-simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicroConfig {
    /// Maximum cycles to simulate.
    pub horizon: u64,
    /// Bus arbitration policy.
    pub arbitration: ArbitrationPolicy,
    /// I-cache geometry for cache-driven tasks: (lines, words per line).
    pub cache_geometry: (usize, usize),
}

impl MicroConfig {
    /// Round-robin arbitration, 64×8 caches.
    pub fn new(horizon: u64) -> Self {
        MicroConfig {
            horizon,
            arbitration: ArbitrationPolicy::RoundRobin,
            cache_geometry: (64, 8),
        }
    }

    /// Sets the arbitration policy. Kept for
    /// `fixed_priority_favours_low_index_masters`.
    pub fn with_arbitration(mut self, policy: ArbitrationPolicy) -> Self {
        self.arbitration = policy;
        self
    }
}

/// Outcome of a micro-simulation window.
#[derive(Debug, Clone)]
pub struct MicroResult {
    /// Cycles simulated.
    pub cycles: u64,
    /// Work retired per processor.
    pub work_done: Vec<u64>,
    /// Completion cycle per processor, if its task finished in the window.
    pub finish: Vec<Option<u64>>,
    /// Bus statistics.
    pub bus: BusStats,
    /// Cache statistics per processor (all-hits for rate-based tasks).
    pub caches: Vec<CacheStats>,
}

impl MicroResult {
    /// Sustained speed (work per cycle) of processor `p` while it was
    /// active.
    pub fn speed(&self, p: usize) -> f64 {
        let active = self.finish[p].unwrap_or(self.cycles);
        if active == 0 {
            0.0
        } else {
            self.work_done[p] as f64 / active as f64
        }
    }
}

/// Runs the window. Task `i` runs on processor `i`.
///
/// Conventions: for [`AccessModel::RateBased`] tasks, `work` is a WCET-style
/// budget that already contains the uncontended 12-cycle service of each
/// access, so service counts as retired work and only arbitration queueing
/// is lost time (matching the fluid model). For
/// [`AccessModel::CacheDriven`] tasks, `work` counts *instructions*, so
/// every miss's service and wait are lost time — the mode measures CPI.
///
/// # Panics
///
/// Panics if `tasks` is empty.
pub fn run_micro(tasks: &[MicroTask], config: &MicroConfig) -> MicroResult {
    assert!(!tasks.is_empty(), "need at least one task");
    let n = tasks.len();
    let model = ContentionModel::new();
    let mut bus = Arbiter::new(n, config.arbitration);
    let mut caches: Vec<DirectMappedCache> = (0..n)
        .map(|_| DirectMappedCache::new(config.cache_geometry.0, config.cache_geometry.1))
        .collect();
    let mut work_done = vec![0u64; n];
    let mut finish: Vec<Option<u64>> = vec![None; n];
    let mut stalled = vec![false; n];
    let mut unstall_next = vec![false; n];
    let mut credit = vec![0f64; n];
    let mut fetch_pc = vec![0u64; n];
    let rates: Vec<f64> = tasks
        .iter()
        .map(|t| model.rate_for_profile(&t.profile))
        .collect();

    let mut cycle = 0u64;
    while cycle < config.horizon {
        for p in 0..n {
            if unstall_next[p] {
                unstall_next[p] = false;
                stalled[p] = false;
            }
        }
        // Serve the bus first: a request issued in cycle c receives its
        // first service cycle in c+1; the master resumes the cycle after
        // the final service beat, so an uncontended access stalls it for
        // exactly the 12 service cycles.
        if let Some(c) = bus.step() {
            let p = c.master.index();
            unstall_next[p] = true;
            // Rate-based tasks follow the WCET convention (uncontended
            // service is budgeted inside the work, so it counts as retired
            // work); cache-driven tasks count *instructions*, so a miss's
            // service is pure lost time.
            if matches!(tasks[p].access_model, AccessModel::RateBased) {
                work_done[p] += u64::from(DDR_SERVICE_CYCLES);
                if finish[p].is_none() && work_done[p] >= tasks[p].work {
                    finish[p] = Some(cycle);
                }
            }
        }
        let mut anyone_active = false;
        for p in 0..n {
            if finish[p].is_some() || stalled[p] {
                anyone_active |= stalled[p];
                continue;
            }
            anyone_active = true;
            work_done[p] += 1;
            if work_done[p] >= tasks[p].work {
                finish[p] = Some(cycle + 1);
                continue;
            }
            match tasks[p].access_model {
                AccessModel::RateBased => {
                    credit[p] += rates[p];
                    if credit[p] >= 1.0 {
                        credit[p] -= 1.0;
                        bus.push_request(ProcId::new(p as u32), DDR_SERVICE_CYCLES, p as u64);
                        stalled[p] = true;
                    }
                }
                AccessModel::CacheDriven {
                    code_footprint_words,
                } => {
                    // One instruction fetch per work cycle through the real
                    // cache; a miss is a bus transaction.
                    let addr = fetch_pc[p] % code_footprint_words;
                    fetch_pc[p] += 1;
                    if !caches[p].access(addr) {
                        bus.push_request(ProcId::new(p as u32), DDR_SERVICE_CYCLES, p as u64);
                        stalled[p] = true;
                        continue;
                    }
                    // Data accesses remain rate-based (shared fraction only).
                    let data_rate = tasks[p].profile.data_access_per_cycle
                        * tasks[p].profile.shared_data_fraction;
                    credit[p] += data_rate;
                    if credit[p] >= 1.0 {
                        credit[p] -= 1.0;
                        bus.push_request(ProcId::new(p as u32), DDR_SERVICE_CYCLES, p as u64);
                        stalled[p] = true;
                    }
                }
            }
        }
        cycle += 1;
        if !anyone_active && !bus.is_busy() {
            break;
        }
    }

    MicroResult {
        cycles: cycle,
        work_done,
        finish,
        bus: bus.stats(),
        caches: caches.iter().map(|c| c.stats()).collect(),
    }
}

/// Calibrates the instruction-cache hit rate a code footprint of
/// `footprint_words` achieves on the given geometry — the bridge from real
/// code size to the [`MemoryProfile::icache_hit_rate`] field. Kept for
/// `footprint_calibration_is_monotone`.
pub fn hit_rate_of_footprint(footprint_words: u64, geometry: (usize, usize)) -> f64 {
    let mut cache = DirectMappedCache::new(geometry.0, geometry.1);
    cache.hit_rate_of_trace((0..footprint_words).cycle().take(200_000))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lone_rate_based_task_runs_at_full_speed() {
        let tasks = vec![MicroTask::new(MemoryProfile::compute_bound(), 20_000)];
        let result = run_micro(&tasks, &MicroConfig::new(100_000));
        assert!(result.finish[0].is_some());
        // Single master: no queueing, so speed ≈ 1.
        assert!(result.speed(0) > 0.99, "speed {}", result.speed(0));
    }

    #[test]
    fn contention_slows_everyone_measurably() {
        let alone = run_micro(
            &[MicroTask::new(MemoryProfile::memory_bound(), 30_000)],
            &MicroConfig::new(200_000),
        );
        let crowd: Vec<MicroTask> = (0..4)
            .map(|_| MicroTask::new(MemoryProfile::memory_bound(), 30_000))
            .collect();
        let together = run_micro(&crowd, &MicroConfig::new(200_000));
        assert!(together.speed(0) < alone.speed(0));
        assert!(together.bus.total_wait > 0);
    }

    #[test]
    fn fluid_model_matches_micro_sim_at_light_load() {
        // The validation DESIGN.md promises, as a public-API test.
        let profiles = [MemoryProfile::compute_bound(), MemoryProfile::balanced()];
        let tasks: Vec<MicroTask> = profiles
            .iter()
            .map(|&p| MicroTask::new(p, 100_000))
            .collect();
        let micro = run_micro(&tasks, &MicroConfig::new(400_000));
        let fluid = ContentionModel::new().speeds_for_profiles(&[&profiles[0], &profiles[1]]);
        for (p, &f) in fluid.iter().enumerate() {
            let m = micro.speed(p);
            assert!(
                (m - f).abs() < 0.15,
                "proc {p}: micro {m:.3} vs fluid {f:.3}"
            );
        }
    }

    #[test]
    fn cache_driven_fetches_follow_footprint() {
        // A loop fitting the cache: near-perfect hit rate, near-full speed.
        let small = MicroTask::new(MemoryProfile::compute_bound(), 50_000).with_code_footprint(256);
        let r1 = run_micro(&[small], &MicroConfig::new(200_000));
        assert!(
            r1.caches[0].hit_rate() > 0.99,
            "{}",
            r1.caches[0].hit_rate()
        );
        // A loop 4x the cache: every line is evicted between passes, so the
        // hit rate collapses to the within-line spatial locality floor of
        // 7/8 (one compulsory miss per 8-word line).
        let big =
            MicroTask::new(MemoryProfile::compute_bound(), 50_000).with_code_footprint(4 * 64 * 8);
        let r2 = run_micro(&[big], &MicroConfig::new(2_000_000));
        assert!(
            (r2.caches[0].hit_rate() - 0.875).abs() < 0.01,
            "{}",
            r2.caches[0].hit_rate()
        );
        assert!(r2.speed(0) < r1.speed(0));
    }

    #[test]
    fn footprint_calibration_is_monotone() {
        let geometry = (64, 8);
        let fits = hit_rate_of_footprint(256, geometry);
        let spills = hit_rate_of_footprint(700, geometry);
        let thrashes = hit_rate_of_footprint(2048, geometry);
        assert!(fits > 0.99);
        assert!(fits >= spills && spills >= thrashes);
    }

    #[test]
    fn horizon_bounds_the_window() {
        let tasks = vec![MicroTask::new(MemoryProfile::balanced(), u64::MAX)];
        let result = run_micro(&tasks, &MicroConfig::new(10_000));
        assert_eq!(result.cycles, 10_000);
        assert!(result.finish[0].is_none());
        assert!(result.work_done[0] > 0);
    }

    #[test]
    fn fixed_priority_favours_low_index_masters() {
        let crowd: Vec<MicroTask> = (0..3)
            .map(|_| MicroTask::new(MemoryProfile::memory_bound(), 40_000))
            .collect();
        let result = run_micro(
            &crowd,
            &MicroConfig::new(500_000).with_arbitration(ArbitrationPolicy::FixedPriority),
        );
        // Master 0 always wins arbitration: at least as fast as master 2.
        assert!(result.speed(0) >= result.speed(2));
    }
}
