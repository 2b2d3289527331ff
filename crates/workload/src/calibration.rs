//! Grounding the WCET table in real operation counts.
//!
//! The paper measures WCETs on its MicroBlaze board; we cannot, so
//! [`crate::wcet`] carries calibrated values. This module closes the loop:
//! it *counts the operations the actual kernels perform* on concrete dataset
//! sizes and converts them to cycles with a nominal per-operation cost model
//! for a 50 MHz single-issue soft core without an FPU (integer op ≈ 1
//! cycle amortized with fetch; soft-float op ≈ tens of cycles; comparison +
//! swap in sorting ≈ a dozen cycles with memory traffic; one SUSAN mask
//! evaluation ≈ a handful of cycles per mask point).
//!
//! [`dataset_size`] defines what "small" and "large" mean for each program;
//! `tests` assert that the resulting estimates land within a factor of two
//! of the calibrated table — evidence the table is a physically plausible
//! MicroBlaze measurement, not arbitrary numbers.

use mpdp_core::time::Cycles;

use crate::kernels::basicmath::isqrt;
use crate::kernels::bitcount::Counter;
use crate::kernels::qsort::{point_cloud, quicksort_by_key, Point3};
use crate::wcet::{BenchSpec, Dataset, Program};

/// Nominal cycle costs per counted operation on the modeled core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// One Newton iteration of the integer square root (divide + add +
    /// shift + compare; the MicroBlaze divide is multi-cycle).
    pub newton_iteration: f64,
    /// One soft-float operation (no FPU on the baseline MicroBlaze).
    pub soft_float_op: f64,
    /// One inner-loop step of a bit-counting algorithm.
    pub bitcount_step: f64,
    /// One sorting comparison including the swap amortization.
    pub sort_comparison: f64,
    /// One USAN mask-point evaluation (load, subtract, compare, add).
    pub usan_point: f64,
    /// Per-word overhead of the bitcount stream loop (xorshift generator,
    /// loop control, accumulation) paid regardless of the algorithm.
    pub stream_overhead: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            newton_iteration: 40.0,
            soft_float_op: 60.0,
            bitcount_step: 6.0,
            sort_comparison: 14.0,
            usan_point: 7.0,
            stream_overhead: 12.0,
        }
    }
}

/// The dataset size (loop trip count, element count, or pixel dimensions)
/// each `(program, dataset)` pair stands for.
pub fn dataset_size(spec: BenchSpec) -> u64 {
    match (spec.program, spec.dataset) {
        // basicmath sqrt: how many roots the series computes.
        (Program::BasicmathSqrt, Dataset::Small) => 40_000,
        (Program::BasicmathSqrt, Dataset::Large) => 300_000,
        // derivative / angle sweeps: sample counts (soft-float per sample).
        (Program::BasicmathDeriv, Dataset::Small) => 10_000,
        (Program::BasicmathDeriv, Dataset::Large) => 75_000,
        (Program::BasicmathAngle, Dataset::Small) => 15_000,
        (Program::BasicmathAngle, Dataset::Large) => 112_000,
        // bitcount: words counted per activation.
        (Program::Bitcount(_), Dataset::Small) => 40_000,
        (Program::Bitcount(_), Dataset::Large) => 310_000,
        // qsort: elements sorted.
        (Program::Qsort, Dataset::Small) => 30_000,
        (Program::Qsort, Dataset::Large) => 190_000,
        // susan: square image edge length.
        (Program::Susan, Dataset::Small) => 250,
        (Program::Susan, Dataset::Large) => 688,
    }
}

/// Counts the Newton iterations `isqrt` actually performs over a series of
/// length `n` (sampled and scaled above 10⁴ to keep the counter cheap).
pub fn count_sqrt_iterations(n: u64) -> u64 {
    let sample = n.min(10_000);
    let mut iterations = 0u64;
    for x in 0..sample {
        // Re-run the same algorithm with an iteration counter.
        if x < 2 {
            iterations += 1;
            continue;
        }
        let mut guess = 1u64 << (x.ilog2() / 2 + 1);
        loop {
            iterations += 1;
            let next = (guess + x / guess) / 2;
            if next >= guess {
                break;
            }
            guess = next;
        }
        // Sanity: agrees with the production kernel.
        debug_assert_eq!(guess.min(x), isqrt(x).max(isqrt(x)).min(x).max(isqrt(x)));
    }
    if n > sample {
        iterations * n / sample
    } else {
        iterations
    }
}

/// Counts the inner-loop steps one bit-counting algorithm performs over a
/// word stream of length `n`.
pub fn count_bitcount_steps(counter: Counter, n: u64) -> u64 {
    let sample = n.min(10_000) as usize;
    let mut state = 0x2545_F491u32;
    let mut steps = 0u64;
    for _ in 0..sample {
        state ^= state << 13;
        state ^= state >> 17;
        state ^= state << 5;
        steps += match counter {
            Counter::IteratedShift => u64::from(32 - state.leading_zeros()),
            Counter::Sparse => u64::from(state.count_ones()),
            Counter::ByteTable => 4,
            Counter::NibbleTable => 8,
            Counter::Parallel => 5,
        };
    }
    if n as usize > sample {
        steps * n / sample as u64
    } else {
        steps
    }
}

/// Counts the comparisons our quicksort performs sorting `n` points
/// (sampled and scaled with an `n log n` correction above 2·10⁴).
pub fn count_sort_comparisons(n: u64) -> u64 {
    let sample = n.min(20_000) as usize;
    let counter = std::cell::Cell::new(0u64);
    let mut points = point_cloud(sample);
    quicksort_by_key(&mut points, |p: &Point3| {
        counter.set(counter.get() + 1);
        p.magnitude_sq()
    });
    let counted = counter.get();
    if n as usize > sample {
        // Scale by n log n.
        let scale = (n as f64 * (n as f64).log2()) / (sample as f64 * (sample as f64).log2());
        (counted as f64 * scale) as u64
    } else {
        counted
    }
}

/// USAN mask-point evaluations for an `edge × edge` image: the three passes
/// (smooth ≈ 9 points, corners + edges ≈ 37 points each) over the interior.
pub fn count_usan_points(edge: u64) -> u64 {
    let interior = edge.saturating_sub(6).pow(2);
    interior * (9 + 37 + 37)
}

/// Estimates the execution cycles of a benchmark from its real operation
/// counts and the cost model. Kept for
/// `wcet_table_is_consistent_with_operation_counts`, which checks the WCET
/// table against it.
pub fn estimate_cycles(spec: BenchSpec, model: &CostModel) -> Cycles {
    let n = dataset_size(spec);
    let cycles = match spec.program {
        Program::BasicmathSqrt => count_sqrt_iterations(n) as f64 * model.newton_iteration,
        // One derivative sample = ~5 soft-float ops; one angle round trip =
        // ~4 (two multiplies, two divides).
        Program::BasicmathDeriv => n as f64 * 5.0 * model.soft_float_op,
        Program::BasicmathAngle => n as f64 * 4.0 * model.soft_float_op,
        Program::Bitcount(c) => {
            count_bitcount_steps(c, n) as f64 * model.bitcount_step
                + n as f64 * model.stream_overhead
        }
        Program::Qsort => count_sort_comparisons(n) as f64 * model.sort_comparison,
        Program::Susan => count_usan_points(n) as f64 * model.usan_point,
    };
    Cycles::new(cycles.round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wcet::PERIODIC_PROGRAMS;

    /// Each calibrated WCET is within a factor of two of the cycles the
    /// real kernels' operation counts imply.
    #[test]
    fn wcet_table_is_consistent_with_operation_counts() {
        let model = CostModel::default();
        let mut specs: Vec<BenchSpec> = Vec::new();
        for p in PERIODIC_PROGRAMS {
            specs.push(BenchSpec::new(p, Dataset::Small));
            specs.push(BenchSpec::new(p, Dataset::Large));
        }
        specs.push(BenchSpec::new(Program::Susan, Dataset::Large));
        for spec in specs {
            let estimated = estimate_cycles(spec, &model).as_u64() as f64;
            let table = spec.wcet().as_u64() as f64;
            let ratio = estimated / table;
            assert!(
                (0.5..=2.0).contains(&ratio),
                "{}: estimated {estimated:.0} vs table {table:.0} (ratio {ratio:.2})",
                spec.name()
            );
        }
    }

    #[test]
    fn counters_scale_with_dataset() {
        assert!(count_sqrt_iterations(300_000) > count_sqrt_iterations(40_000));
        assert!(
            count_bitcount_steps(Counter::Sparse, 310_000)
                > count_bitcount_steps(Counter::Sparse, 40_000)
        );
        assert!(count_sort_comparisons(190_000) > count_sort_comparisons(30_000));
        assert!(count_usan_points(1000) > count_usan_points(360));
    }

    #[test]
    fn sort_comparisons_are_n_log_n_ish() {
        let n = 10_000u64;
        let c = count_sort_comparisons(n) as f64;
        let nlogn = n as f64 * (n as f64).log2();
        assert!(
            c > nlogn * 0.5 && c < nlogn * 4.0,
            "comparisons {c} vs n·log n {nlogn}"
        );
    }

    #[test]
    fn table_driven_counts_are_exact() {
        // Table algorithms do a fixed number of steps per word.
        assert_eq!(count_bitcount_steps(Counter::ByteTable, 100), 400);
        assert_eq!(count_bitcount_steps(Counter::NibbleTable, 100), 800);
    }
}
