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
//!
//! ## Operating-point table
//!
//! A simulator re-solves the model on every scheduling event, but the rate
//! vectors it asks about come from a tiny alphabet (idle, kernel burst, ISR
//! burst, one rate per task memory profile) and recur across runs, so
//! [`ContentionModel::cached_speeds_into`] and
//! [`ContentionModel::cached_queueing_delay`] answer from a bounded table
//! per thread: one damped solve per distinct vector, and a hit is
//! bit-equal to a solve because the solve is a pure function of its key.

use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

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
/// Operating points a thread's table holds before it starts over. A
/// 1,125-cell Figure 4 sweep visits under 900 distinct rate vectors, so
/// the cap only bounds memory under inputs that keep producing new ones.
const TABLE_CAP: usize = 4_096;
/// Service cycles per transaction: the platform's DDR.
const SERVICE: f64 = DDR_SERVICE_CYCLES as f64;

thread_local! {
    /// This thread's solved operating points.
    static OPERATING_POINTS: RefCell<RateMemo> = const { RefCell::new(RateMemo::new()) };
}

/// Analytic bus-contention model for one shared bus, whose transactions
/// take [`DDR_SERVICE_CYCLES`] each.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentionModel;

impl ContentionModel {
    /// Model with the platform's DDR service time.
    pub fn new() -> Self {
        ContentionModel
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
        let s = SERVICE;
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
                let w = Self::wait_time(rho_others);
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
    fn wait_time(rho: f64) -> f64 {
        let rho = rho.clamp(0.0, 0.98);
        rho * SERVICE / (2.0 * (1.0 - rho))
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
        r / (1.0 + r * (SERVICE - 1.0))
    }

    /// Convenience: speeds for a set of running [`MemoryProfile`]s, using
    /// [`ContentionModel::rate_for_profile`] for each. Kept for
    /// `micro::tests::fluid_model_matches_micro_sim_at_light_load`.
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
            .map(|(&a, &x)| a * x * SERVICE)
            .sum();
        Self::wait_time(rho)
    }

    /// [`ContentionModel::speeds_into`] answered from the calling thread's
    /// operating-point table: bit-equal to a solve, which runs only the
    /// first time this thread meets the vector (or after the table
    /// filled up and started over).
    ///
    /// # Panics
    ///
    /// Panics if any rate is negative or not finite.
    pub fn cached_speeds_into(&self, access_rates: &[f64], out: &mut Vec<f64>) {
        self.operating_point(access_rates, |speeds, _| {
            out.clear();
            out.extend_from_slice(speeds);
        });
    }

    /// [`ContentionModel::queueing_delay`] answered from the same
    /// per-thread table as [`ContentionModel::cached_speeds_into`].
    ///
    /// # Panics
    ///
    /// Panics if any rate is negative or not finite.
    pub fn cached_queueing_delay(&self, access_rates: &[f64]) -> f64 {
        self.operating_point(access_rates, |_, delay| delay)
    }

    /// Hands `read` the speeds and queueing delay of `access_rates` from
    /// this thread's table, solving and inserting them on a miss. The
    /// table is borrowed for this one lookup or solve-and-insert; the
    /// solve itself never reaches the table.
    fn operating_point<R>(&self, access_rates: &[f64], read: impl FnOnce(&[f64], f64) -> R) -> R {
        OPERATING_POINTS.with_borrow_mut(|memo| {
            if let Some((speeds, delay)) = memo.get(access_rates) {
                return read(speeds, delay);
            }
            let mut speeds = std::mem::take(&mut memo.scratch);
            let delay = self.queueing_delay(access_rates, &mut speeds);
            #[cfg(test)]
            {
                memo.solves += 1;
            }
            memo.insert(access_rates, &speeds, delay);
            let out = read(&speeds, delay);
            memo.scratch = speeds;
            out
        })
    }

    /// The contention *excess* of a priced kernel burst: how many of its
    /// `priced` wall cycles exceed the uncontended cost of `cpu` execution
    /// cycles plus `bus_words` transactions at the deterministic service
    /// time. Zero when the bus was quiet. The observability layer uses this
    /// to emit bus-stall burst events and attribute them without re-running
    /// the queueing model.
    pub fn burst_excess(&self, priced: Cycles, cpu: u32, bus_words: u32) -> Cycles {
        let base = f64::from(cpu) + f64::from(bus_words) * SERVICE;
        Cycles::new((priced.as_u64() as f64 - base).max(0.0).round() as u64)
    }

    /// The steady-state bus utilization implied by the returned speeds.
    pub fn utilization(&self, access_rates: &[f64]) -> f64 {
        let speeds = self.speeds(access_rates);
        access_rates
            .iter()
            .zip(&speeds)
            .map(|(&a, &x)| a * x * SERVICE)
            .sum()
    }
}

impl Default for ContentionModel {
    fn default() -> Self {
        ContentionModel::new()
    }
}

/// The bits a rate contributes to a memo key, with -0.0 canonicalized to
/// +0.0 (`r + 0.0` — IEEE 754 addition returns +0.0 for -0.0 + 0.0). The
/// fixed point and the queueing delay are pure functions of the rate
/// *values*, and -0.0 and +0.0 compare equal, so the two encodings must
/// share one entry; keying on raw `to_bits` split them into duplicates.
fn rate_key(rate: f64) -> u64 {
    (rate + 0.0).to_bits()
}

/// Word-wise multiply-rotate hasher for the operating-point table. Its
/// keys are rate vectors a simulator computes itself, never outside
/// input, so SipHash's resistance to crafted collisions buys nothing
/// there, while its cost is paid on most event-loop iterations (the rate
/// vector changes on most of them).
#[derive(Debug, Clone, Copy, Default)]
struct RateKeyHasher(u64);

impl Hasher for RateKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The 64-bit fingerprint [`RateMemo`] indexes an operating point by: the
/// vector's width, then every rate's [`rate_key`]. The width comes first
/// because the hasher starts at zero and a zero word leaves it there, so
/// without it `[0.0, a]` would share the fingerprint of `[a]`.
fn fingerprint(rates: &[f64]) -> u64 {
    let mut hasher = RateKeyHasher::default();
    hasher.write_u64(rates.len() as u64);
    for &rate in rates {
        hasher.write_u64(rate_key(rate));
    }
    hasher.finish()
}

/// Where one memoized operating point lives in a [`RateMemo`].
#[derive(Debug, Clone, Copy)]
struct Point {
    /// Start of its rate keys in `RateMemo::rates` and of its speeds in
    /// `RateMemo::speeds`.
    at: usize,
    /// Number of processors.
    width: usize,
    /// Mean queueing delay at this operating point.
    delay: f64,
}

/// Memo of solved operating points, keyed by rate vector. Rate keys and
/// speeds sit back to back in two flat arrays, found
/// through a map from each key's 64-bit fingerprint, so a new entry costs
/// only amortized growth, never an allocation of its own. Should two
/// distinct keys share a fingerprint, the later one is simply never
/// memoized: the value is a pure function of the key, so solving it again
/// is bit-equal to a hit. At [`TABLE_CAP`] entries the memo starts over,
/// keeping its buffers.
#[derive(Debug)]
struct RateMemo {
    index: HashMap<u64, usize, BuildHasherDefault<RateKeyHasher>>,
    points: Vec<Point>,
    rates: Vec<u64>,
    speeds: Vec<f64>,
    /// Buffer a miss solves into.
    scratch: Vec<f64>,
    /// Damped solves run through this memo.
    #[cfg(test)]
    solves: u64,
}

impl RateMemo {
    const fn new() -> Self {
        RateMemo {
            index: HashMap::with_hasher(BuildHasherDefault::new()),
            points: Vec::new(),
            rates: Vec::new(),
            speeds: Vec::new(),
            scratch: Vec::new(),
            #[cfg(test)]
            solves: 0,
        }
    }

    /// The speeds and queueing delay memoized for `rates`.
    fn get(&self, rates: &[f64]) -> Option<(&[f64], f64)> {
        let &entry = self.index.get(&fingerprint(rates))?;
        let point = self.points[entry];
        if point.width != rates.len() {
            return None;
        }
        let span = point.at..point.at + point.width;
        let same = self.rates[span.clone()]
            .iter()
            .zip(rates)
            .all(|(&key, &rate)| key == rate_key(rate));
        same.then(|| (&self.speeds[span], point.delay))
    }

    /// Memoizes an operating point unless its fingerprint is taken.
    fn insert(&mut self, rates: &[f64], speeds: &[f64], delay: f64) {
        if self.points.len() == TABLE_CAP {
            self.index.clear();
            self.points.clear();
            self.rates.clear();
            self.speeds.clear();
        }
        let entry = self.points.len();
        if let Entry::Vacant(slot) = self.index.entry(fingerprint(rates)) {
            slot.insert(entry);
            self.points.push(Point {
                at: self.speeds.len(),
                width: rates.len(),
                delay,
            });
            self.rates.extend(rates.iter().map(|&rate| rate_key(rate)));
            self.speeds.extend_from_slice(speeds);
        }
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
            assert!(a * SERVICE < 1.1, "occupancy {}", a * SERVICE);
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
        let m = ContentionModel::new();
        // Uncontended burst: 100 cpu + 10 words × 12 = 220 cycles.
        assert_eq!(m.burst_excess(Cycles::new(220), 100, 10), Cycles::ZERO);
        // 80 cycles of queueing on top.
        assert_eq!(m.burst_excess(Cycles::new(300), 100, 10), Cycles::new(80));
        // Never negative, even if pricing rounded below base.
        assert_eq!(m.burst_excess(Cycles::new(219), 100, 10), Cycles::ZERO);
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

    /// Runs `f` on a new thread, so it starts with an empty table.
    fn on_fresh_thread(f: impl FnOnce() + Send) {
        std::thread::scope(|s| {
            s.spawn(f);
        });
    }

    /// Damped solves this thread's table has run.
    fn solves() -> u64 {
        OPERATING_POINTS.with_borrow(|memo| memo.solves)
    }

    /// Asserts the cached answers for `rates` are bit-equal to a solve.
    fn assert_bit_equal(model: &ContentionModel, rates: &[f64]) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut cached = Vec::new();
        model.cached_speeds_into(rates, &mut cached);
        assert_eq!(
            bits(&cached),
            bits(&model.speeds(rates)),
            "speeds of {rates:?}"
        );
        let delay = model.queueing_delay(rates, &mut Vec::new());
        assert_eq!(
            model.cached_queueing_delay(rates).to_bits(),
            delay.to_bits(),
            "queueing delay of {rates:?}"
        );
    }

    #[test]
    fn a_repeated_vector_is_solved_once() {
        on_fresh_thread(|| {
            let m = ContentionModel::new();
            let rates = [0.02, 0.0, 0.05];
            assert_bit_equal(&m, &rates);
            assert_eq!(solves(), 1, "speeds and delay share one solve");
            for _ in 0..10 {
                assert_bit_equal(&m, &rates);
            }
            assert_eq!(solves(), 1, "every repeat is a hit");
            assert_bit_equal(&m, &[0.02, 0.0]);
            assert_eq!(solves(), 2, "a shorter vector is a new key");
        });
    }

    #[test]
    fn negative_zero_rates_share_an_entry() {
        // An idle processor contributes rate 0.0, and sign propagation in
        // float arithmetic can legally hand the same processor -0.0. The
        // two compare equal and solve to identical speeds and delays, so
        // they must map to one entry.
        assert_ne!(
            (-0.0f64).to_bits(),
            0.0f64.to_bits(),
            "raw bit patterns differ — the canonicalization is load-bearing"
        );
        on_fresh_thread(|| {
            let m = ContentionModel::new();
            assert_bit_equal(&m, &[0.4, 0.0]);
            assert_bit_equal(&m, &[0.4, -0.0]);
            assert_eq!(solves(), 1, "one entry serves both");
        });
    }

    #[test]
    fn a_zero_rate_prefix_never_aliases_a_shorter_vector() {
        // An idle processor contributes a leading 0.0, and one thread's
        // table serves cells of every width: [0, a] must not take the
        // entry of [a], or it is solved again at every lookup.
        on_fresh_thread(|| {
            let m = ContentionModel::new();
            for _ in 0..3 {
                assert_bit_equal(&m, &[0.05]);
                assert_bit_equal(&m, &[0.0, 0.05]);
                assert_bit_equal(&m, &[0.0, 0.0, 0.05]);
            }
            assert_eq!(solves(), 3, "one solve per width");
        });
    }

    #[test]
    fn clearing_at_the_cap_keeps_every_answer_bit_equal() {
        on_fresh_thread(|| {
            let m = ContentionModel::new();
            let vector = |i: usize| [0.01 + i as f64 * 1e-6, 0.03, 0.0];
            let past_cap = TABLE_CAP + 100;
            for i in 0..past_cap {
                assert_bit_equal(&m, &vector(i));
            }
            assert_eq!(solves(), past_cap as u64);
            let held = OPERATING_POINTS
                .with_borrow(|memo| (memo.index.len(), memo.points.len(), memo.speeds.len()));
            assert_eq!(held, (100, 100, 300), "the table started over at the cap");
            // The first vectors went with the clear: they are solved again,
            // to the same bits; the latest ones are still hits.
            assert_bit_equal(&m, &vector(0));
            assert_eq!(solves(), past_cap as u64 + 1);
            assert_bit_equal(&m, &vector(past_cap - 1));
            assert_eq!(solves(), past_cap as u64 + 1);
        });
    }
}
