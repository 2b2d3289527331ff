//! Scalable analytic model of OPB bus contention.
//!
//! The paper's experiments span hundreds of millions of cycles; simulating
//! every transaction through [`crate::bus::Arbiter`] would be exact but far
//! too slow at that scale. This module computes, for a *set of concurrently
//! running tasks*, the steady-state execution speed of each processor — work
//! retired per wall-clock cycle — under the shared bus. The prototype
//! simulator advances in piecewise-constant-rate segments using these speeds,
//! recomputing them whenever the set of running tasks changes.
//!
//! ## Model
//!
//! Task `i` issues `a_i` bus transactions per cycle of useful work
//! ([`MemoryProfile::bus_accesses_per_cycle`]), each with deterministic
//! service `S` (12 cycles for DDR). A task's WCET already budgets the
//! *uncontended* `S` per access (that is how WCETs are measured on the real
//! board); contention adds only the queueing delay `W`. With `x_i` the
//! speed of processor `i` (work cycles per wall cycle):
//!
//! ```text
//! ρ  = Σ_j x_j · a_j · S              (bus utilization)
//! W  = ρ · S / (2 · (1 − ρ))          (M/D/1 queueing delay)
//! x_i = 1 / (1 + a_i · W)             (stall per work cycle)
//! ```
//!
//! solved by damped fixed-point iteration. The system self-limits: as offered
//! load approaches capacity, `W` grows, speeds shrink, and `ρ` stays below 1
//! — the saturation behaviour a real bus exhibits. The model is validated
//! against the cycle-accurate arbiter in this crate's tests.

use crate::bus::DDR_SERVICE_CYCLES;
use mpdp_core::task::MemoryProfile;
use mpdp_core::time::Cycles;

/// Maximum fixed-point iterations; deep saturation converges slowly under
/// damping, and beyond this point the capacity normalization dominates the
/// answer anyway.
const MAX_ITERS: usize = 2_000;
/// Convergence threshold on the per-processor speed estimates.
const EPSILON: f64 = 1e-9;
/// Damping factor for the fixed-point update (guards oscillation near
/// saturation).
const DAMPING: f64 = 0.5;

/// Analytic bus-contention model for one shared bus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentionModel {
    /// Service cycles per transaction (default: [`DDR_SERVICE_CYCLES`]).
    service: f64,
}

impl ContentionModel {
    /// Model with the platform's DDR service time.
    pub fn new() -> Self {
        ContentionModel {
            service: f64::from(DDR_SERVICE_CYCLES),
        }
    }

    /// Model with a custom per-transaction service time (cycles).
    ///
    /// # Panics
    ///
    /// Panics if `service` is not finite and positive.
    pub fn with_service(service: f64) -> Self {
        assert!(
            service.is_finite() && service > 0.0,
            "service time must be positive, got {service}"
        );
        ContentionModel { service }
    }

    /// Per-transaction service time in cycles.
    pub fn service(&self) -> f64 {
        self.service
    }

    /// Computes the execution speed (work per wall cycle, in `(0, 1]`) of
    /// each processor given the bus-access rate `a_i` of the task it runs.
    ///
    /// Each processor's transactions queue only behind *other* masters'
    /// traffic (a lone master issues one transaction at a time and never
    /// waits), so processor `i` sees the delay `W(ρ_{−i})` where `ρ_{−i}`
    /// excludes its own bus occupancy. After the fixed point converges, the
    /// speeds are capacity-normalized so the implied bus utilization never
    /// exceeds 1 — the approximation can otherwise overshoot capacity by a
    /// few percent under heavy symmetric load.
    ///
    /// An empty slice returns an empty vector; a rate of `0.0` yields speed
    /// `1.0` (a task that never touches the bus is never stalled).
    ///
    /// # Panics
    ///
    /// Panics if any rate is negative or not finite.
    pub fn speeds(&self, access_rates: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.speeds_into(access_rates, &mut out);
        out
    }

    /// [`ContentionModel::speeds`] writing into a caller-owned buffer, so a
    /// hot loop recomputing speeds on every scheduling event does not
    /// allocate. `out` is cleared and refilled; the arithmetic sequence is
    /// identical to [`ContentionModel::speeds`] (same fixed point, same
    /// rounding), so results are bit-equal. The solve itself allocates
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if any rate is negative or not finite.
    pub fn speeds_into(&self, access_rates: &[f64], out: &mut Vec<f64>) {
        for &a in access_rates {
            assert!(
                a.is_finite() && a >= 0.0,
                "access rate must be non-negative, got {a}"
            );
        }
        out.clear();
        if access_rates.is_empty() {
            return;
        }
        let s = self.service;
        let n = access_rates.len();
        let x = out;
        x.resize(n, 1.0f64);
        for _ in 0..MAX_ITERS {
            // Processor `i`'s own contribution `x[i]·a_i·S` is recomputed
            // where it is needed: `x[i]` only changes after that use.
            let contrib = |x: &[f64], i: usize| x[i] * access_rates[i] * s;
            let rho_total: f64 = (0..n).map(|i| contrib(x, i)).sum();
            let mut max_delta = 0.0f64;
            for i in 0..n {
                let rho_others = (rho_total - contrib(x, i)).clamp(0.0, 0.999_999);
                let w = self.wait_time(rho_others);
                let target = 1.0 / (1.0 + access_rates[i] * w);
                let damped = x[i] + DAMPING * (target - x[i]);
                max_delta = max_delta.max((damped - x[i]).abs());
                x[i] = damped;
            }
            if max_delta < EPSILON {
                break;
            }
        }
        // Capacity normalization: the bus cannot serve more than one
        // service-cycle per cycle.
        let rho_total: f64 = x.iter().zip(access_rates).map(|(&xi, &a)| xi * a * s).sum();
        if rho_total > 1.0 {
            for xi in x.iter_mut() {
                *xi /= rho_total;
            }
        }
    }

    /// M/D/1 mean queueing delay at utilization `rho`.
    ///
    /// `rho` is clamped at 0.98: each processor has at most one outstanding
    /// transaction (the MicroBlaze stalls on a miss), so the system is
    /// closed and waits stay bounded even past nominal capacity — the open
    /// formula's blow-up near 1 is unphysical here. Deeper saturation is
    /// handled by the capacity normalization in [`ContentionModel::speeds`].
    fn wait_time(&self, rho: f64) -> f64 {
        let rho = rho.clamp(0.0, 0.98);
        rho * self.service / (2.0 * (1.0 - rho))
    }

    /// Converts a [`MemoryProfile`]'s *per-instruction* bus-access rate into
    /// the *per-WCET-cycle* rate this model consumes.
    ///
    /// A profile counts accesses per committed instruction (≈ one base
    /// cycle). A task's WCET, however, already contains the uncontended
    /// service time of each access, so per WCET cycle the access rate is
    /// diluted: `a = r / (1 + r·(S − 1))`. This also guarantees `a·S < 1.1`
    /// for any `r`, keeping inputs physical.
    pub fn rate_for_profile(&self, profile: &MemoryProfile) -> f64 {
        let r = profile.bus_accesses_per_cycle();
        r / (1.0 + r * (self.service - 1.0))
    }

    /// Convenience: speeds for a set of running [`MemoryProfile`]s, using
    /// [`ContentionModel::rate_for_profile`] for each.
    pub fn speeds_for_profiles(&self, profiles: &[&MemoryProfile]) -> Vec<f64> {
        let rates: Vec<f64> = profiles.iter().map(|p| self.rate_for_profile(p)).collect();
        self.speeds(&rates)
    }

    /// The mean per-transaction queueing delay (cycles) at the operating
    /// point the given rates settle into — used to price one-off bus bursts
    /// (context switches, ISR register traffic) under current load. The
    /// operating point is solved into the caller-owned `speeds` buffer, so
    /// a hot loop allocates nothing.
    pub fn queueing_delay(&self, access_rates: &[f64], speeds: &mut Vec<f64>) -> f64 {
        self.speeds_into(access_rates, speeds);
        let rho: f64 = access_rates
            .iter()
            .zip(speeds.iter())
            .map(|(&a, &x)| a * x * self.service)
            .sum();
        self.wait_time(rho)
    }

    /// The contention *excess* of a priced kernel burst: how many of its
    /// `priced` wall cycles exceed the uncontended cost of `cpu` execution
    /// cycles plus `bus_words` transactions at the deterministic service
    /// time. Zero when the bus was quiet. The observability layer uses this
    /// to emit bus-stall burst events and attribute them without re-running
    /// the queueing model.
    pub fn burst_excess(&self, priced: Cycles, cpu: u32, bus_words: u32) -> Cycles {
        let base = f64::from(cpu) + f64::from(bus_words) * self.service;
        Cycles::new((priced.as_u64() as f64 - base).max(0.0).round() as u64)
    }

    /// The steady-state bus utilization implied by the returned speeds.
    pub fn utilization(&self, access_rates: &[f64]) -> f64 {
        let speeds = self.speeds(access_rates);
        access_rates
            .iter()
            .zip(&speeds)
            .map(|(&a, &x)| a * x * self.service)
            .sum()
    }
}

impl Default for ContentionModel {
    fn default() -> Self {
        ContentionModel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{Arbiter, ArbitrationPolicy};
    use mpdp_core::ids::ProcId;

    #[test]
    fn lone_processor_runs_at_full_speed() {
        let m = ContentionModel::new();
        let speeds = m.speeds(&[0.05]);
        assert_eq!(speeds.len(), 1);
        assert!((speeds[0] - 1.0).abs() < 0.02, "speed {}", speeds[0]);
    }

    #[test]
    fn zero_rate_never_stalls() {
        let m = ContentionModel::new();
        let speeds = m.speeds(&[0.0, 0.05, 0.05]);
        assert!((speeds[0] - 1.0).abs() < 1e-9);
        assert!(speeds[1] < 1.0);
        assert!(speeds[2] < 1.0);
    }

    #[test]
    fn more_processors_mean_more_stall() {
        let m = ContentionModel::new();
        let s2 = m.speeds(&[0.03; 2])[0];
        let s3 = m.speeds(&[0.03; 3])[0];
        let s4 = m.speeds(&[0.03; 4])[0];
        assert!(s2 > s3 && s3 > s4, "{s2} {s3} {s4}");
    }

    #[test]
    fn saturation_keeps_utilization_below_one() {
        let m = ContentionModel::new();
        // Offered load 8 × 0.05 × 12 = 4.8 ≫ 1: must saturate, not blow up.
        let rates = [0.05; 8];
        let u = m.utilization(&rates);
        assert!(u <= 1.0 + 1e-6, "utilization {u}");
        let speeds = m.speeds(&rates);
        // Symmetric inputs → symmetric speeds summing to ≈ bus capacity.
        let per: f64 = speeds[0];
        assert!(speeds.iter().all(|&x| (x - per).abs() < 1e-9));
        assert!(per < 0.5);
    }

    #[test]
    fn heavier_competitor_slows_you_more() {
        let m = ContentionModel::new();
        let vs_light = m.speeds(&[0.02, 0.01])[0];
        let vs_heavy = m.speeds(&[0.02, 0.06])[0];
        assert!(vs_light > vs_heavy, "{vs_light} vs {vs_heavy}");
    }

    #[test]
    fn profile_rate_conversion_is_physical() {
        let m = ContentionModel::new();
        for profile in [
            MemoryProfile::compute_bound(),
            MemoryProfile::balanced(),
            MemoryProfile::memory_bound(),
        ] {
            let a = m.rate_for_profile(&profile);
            assert!(a * m.service() < 1.1, "occupancy {}", a * m.service());
            assert!(a <= profile.bus_accesses_per_cycle());
        }
    }

    /// Drive the cycle-accurate arbiter with processors that issue a
    /// deterministic transaction stream and compare measured speed with the
    /// analytic prediction.
    fn measured_speeds(rates: &[f64], cycles: u64) -> Vec<f64> {
        let n = rates.len();
        let mut bus = Arbiter::new(n, ArbitrationPolicy::RoundRobin);
        // Per-processor state: work done, credit toward next access, stalled?
        let mut work = vec![0u64; n];
        let mut credit = vec![0f64; n];
        let mut stalled = vec![false; n];
        for _ in 0..cycles {
            for p in 0..n {
                if stalled[p] {
                    continue;
                }
                work[p] += 1;
                credit[p] += rates[p];
                if credit[p] >= 1.0 {
                    credit[p] -= 1.0;
                    // The uncontended service is already budgeted inside the
                    // task's work, so the processor only blocks for the
                    // *queueing* part. We model that by stalling the
                    // processor for the transaction's wait time: issue now,
                    // resume when granted (service overlaps with budgeted
                    // work).
                    bus.push_request(ProcId::new(p as u32), 12, p as u64);
                    stalled[p] = true;
                }
            }
            if let Some(c) = bus.step() {
                stalled[c.master.index()] = false;
                // The service time was budgeted inside the task's WCET, so it
                // counts as retired work; only the queueing wait is lost.
                work[c.master.index()] += 12;
            }
        }
        work.iter().map(|&w| w as f64 / cycles as f64).collect()
    }

    #[test]
    fn analytic_model_tracks_arbiter_qualitatively() {
        // Exact agreement is not expected (deterministic arrivals vs M/D/1),
        // but ordering and rough magnitude must match.
        let rates = [0.02, 0.02, 0.02];
        let analytic = ContentionModel::new().speeds(&rates);
        let measured = measured_speeds(&rates, 200_000);
        for (a, m) in analytic.iter().zip(&measured) {
            assert!(
                (a - m).abs() < 0.25,
                "analytic {a} vs measured {m} diverge too far"
            );
        }
    }

    #[test]
    fn burst_excess_is_the_queueing_part() {
        let m = ContentionModel::with_service(12.0);
        // Uncontended burst: 100 cpu + 10 words × 12 = 220 cycles.
        assert_eq!(m.burst_excess(Cycles::new(220), 100, 10), Cycles::ZERO);
        // 80 cycles of queueing on top.
        assert_eq!(m.burst_excess(Cycles::new(300), 100, 10), Cycles::new(80));
        // Never negative, even if pricing rounded below base.
        assert_eq!(m.burst_excess(Cycles::new(219), 100, 10), Cycles::ZERO);
    }

    #[test]
    fn speeds_monotone_in_service_time() {
        let fast = ContentionModel::with_service(4.0).speeds(&[0.05; 3]);
        let slow = ContentionModel::with_service(24.0).speeds(&[0.05; 3]);
        assert!(fast[0] > slow[0]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rate_rejected() {
        ContentionModel::new().speeds(&[-0.1]);
    }

    #[test]
    fn empty_input() {
        assert!(ContentionModel::new().speeds(&[]).is_empty());
    }
}
