//! Canonical input fingerprints: spec identity for journals, per-cell
//! digests for the content-addressed cell cache.
//!
//! Both fingerprints walk the spec field by field and fold the *values*
//! into an FNV-1a digest — never a `Debug` rendering, whose bytes shift
//! with cosmetic formatting and which prints `-0.0` and `0.0`
//! differently even though every consumer of a rate treats them as the
//! same number. Floats are canonicalized (`v + 0.0`) before hashing so
//! the two zeros collapse to one key.
//!
//! The two fingerprints answer different questions:
//!
//! - [`spec_fingerprint`] — *is this journal from exactly this sweep?*
//!   It covers every field of the [`SweepSpec`], including cosmetic ones
//!   like knob labels (labels appear in export bytes, and a journal must
//!   reproduce a byte-identical report).
//! - [`cell_fingerprint`] — *would this cell compute the same result?*
//!   It covers only the inputs that reach the cell's simulation: the
//!   workload and arrival generators, the cell's own knob **minus its
//!   label** (pure presentation, reattached from the live spec on a
//!   cache hit), the grid coordinates, and the cell's RNG stream id
//!   (which already folds in `master_seed`, the cell index, and the seed
//!   coordinate — everything the fault compiler and arrival sampler
//!   draw from). Editing one grid-axis value therefore invalidates only
//!   the cells that read that value; renaming a knob invalidates none.

use mpdp_core::hash::{fnv1a_extend, FNV1A_OFFSET};
use mpdp_core::policy::{DegradationPolicy, OverrunAction};
use mpdp_core::time::Cycles;
use mpdp_faults::FaultPlan;

use crate::spec::{ArrivalSpec, CellSpec, Knobs, SweepSpec, WorkloadSpec};

/// Version tag of the cell-execution semantics. Folded into every cache
/// segment header, so a change to what a cell *computes* (simulator
/// behaviour, accumulator contents, record layout) orphans old cache
/// entries instead of replaying stale results. Bump it whenever cell
/// outputs can change for unchanged inputs.
pub const ENGINE_VERSION: &str = "mpdp-cell-engine/1";

/// The canonical bit pattern of a float key: `-0.0` and `+0.0` compare
/// equal everywhere downstream, so they must hash equal here too.
pub(crate) fn canonical_bits(v: f64) -> u64 {
    (v + 0.0).to_bits()
}

/// An incremental FNV-1a digest over a framed byte stream. Variable-size
/// fields are length-prefixed and enum variants tagged, so two different
/// field sequences cannot collide by concatenation.
pub(crate) struct Digest(u64);

impl Digest {
    pub(crate) fn new() -> Self {
        Digest(FNV1A_OFFSET)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.0 = fnv1a_extend(self.0, bytes);
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(canonical_bits(v));
    }

    pub(crate) fn cycles(&mut self, c: Cycles) {
        self.u64(c.as_u64());
    }

    pub(crate) fn tag(&mut self, t: u8) {
        self.bytes(&[t]);
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes(s.as_bytes());
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

fn hash_workload(d: &mut Digest, workload: &WorkloadSpec) {
    match workload {
        WorkloadSpec::Automotive => d.tag(0),
        WorkloadSpec::Random {
            tasks,
            aperiodic_exec,
        } => {
            d.tag(1);
            d.usize(*tasks);
            d.cycles(*aperiodic_exec);
        }
    }
}

fn hash_arrivals(d: &mut Digest, arrivals: &ArrivalSpec) {
    match arrivals {
        ArrivalSpec::Bursts { activations, gap } => {
            d.tag(0);
            d.usize(*activations);
            d.cycles(*gap);
        }
        ArrivalSpec::Poisson { mean_gap, window } => {
            d.tag(1);
            d.cycles(*mean_gap);
            d.cycles(*window);
        }
        ArrivalSpec::Explicit { arrivals, horizon } => {
            d.tag(2);
            d.usize(arrivals.len());
            for (at, task) in arrivals {
                d.cycles(*at);
                d.usize(*task);
            }
            d.cycles(*horizon);
        }
    }
}

fn hash_faults(d: &mut Digest, plan: &FaultPlan) {
    match &plan.wcet {
        None => d.tag(0),
        Some(w) => {
            d.tag(1);
            d.f64(w.probability);
            d.f64(w.factor);
            d.f64(w.tail_probability);
            d.f64(w.tail_factor);
        }
    }
    d.usize(plan.bursts.len());
    for b in &plan.bursts {
        d.cycles(b.at);
        d.usize(b.arrivals);
        d.cycles(b.gap);
        d.usize(b.task);
    }
    match &plan.fail_stop {
        None => d.tag(0),
        Some(f) => {
            d.tag(1);
            d.usize(f.proc);
            d.cycles(f.at);
        }
    }
    match &plan.interrupts {
        None => d.tag(0),
        Some(i) => {
            d.tag(1);
            d.f64(i.lost_probability);
            d.usize(i.spurious.len());
            for &at in &i.spurious {
                d.cycles(at);
            }
        }
    }
    d.usize(plan.bus_spikes.len());
    for s in &plan.bus_spikes {
        d.cycles(s.at);
        d.cycles(s.duration);
        d.f64(s.factor);
    }
}

fn hash_degradation(d: &mut Digest, policy: &DegradationPolicy) {
    match &policy.overrun {
        None => d.tag(0),
        Some(OverrunAction::RunToCompletion) => d.tag(1),
        Some(OverrunAction::Kill) => d.tag(2),
        Some(OverrunAction::Demote) => d.tag(3),
    }
    d.f64(policy.budget_margin);
    match policy.shed_limit {
        None => d.tag(0),
        Some(limit) => {
            d.tag(1);
            d.usize(limit);
        }
    }
}

/// Every knob field that reaches the simulation — the label is pure
/// presentation and is deliberately excluded.
fn hash_knob_semantics(d: &mut Digest, knob: &Knobs) {
    d.cycles(knob.tick);
    d.f64(knob.theoretical_overhead);
    d.f64(knob.wcet_margin);
    d.f64(knob.context_scale);
    d.str(knob.policy.name());
    hash_faults(d, &knob.faults);
    hash_degradation(d, &knob.degradation);
}

/// The identity fingerprint binding a journal to one spec: a canonical
/// field-by-field digest of the **whole** [`SweepSpec`], labels included.
/// Two specs that would produce byte-identical reports from identical
/// journals — and only those — share a fingerprint; in particular the
/// float canonicalization makes a `-0.0` grid literal fingerprint-equal
/// to `0.0`, where the old `Debug`-form hash split them.
pub fn spec_fingerprint(spec: &SweepSpec) -> u64 {
    let mut d = Digest::new();
    d.str("mpdp-spec/1");
    d.usize(spec.utilizations.len());
    for &u in &spec.utilizations {
        d.f64(u);
    }
    d.usize(spec.proc_counts.len());
    for &p in &spec.proc_counts {
        d.usize(p);
    }
    d.usize(spec.seeds.len());
    for &s in &spec.seeds {
        d.u64(s);
    }
    d.usize(spec.knobs.len());
    for knob in &spec.knobs {
        d.str(&knob.label);
        hash_knob_semantics(&mut d, knob);
    }
    hash_workload(&mut d, &spec.workload);
    hash_arrivals(&mut d, &spec.arrivals);
    d.u64(spec.master_seed);
    d.finish()
}

/// The content digest of one cell's inputs — the cache key. Hashes only
/// what determines the cell's outcome: workload and arrival generators,
/// the cell's knob semantics (label excluded), the grid coordinates, and
/// the cell's RNG stream id. NOT the whole spec: appending seeds,
/// reordering equal-value axis literals, or renaming a knob leaves
/// untouched cells' digests — and therefore their cache entries — valid.
pub fn cell_fingerprint(spec: &SweepSpec, cell: &CellSpec) -> u64 {
    let mut d = Digest::new();
    d.str("mpdp-cell/1");
    hash_workload(&mut d, &spec.workload);
    hash_arrivals(&mut d, &spec.arrivals);
    hash_knob_semantics(&mut d, &spec.knobs[cell.knob_index]);
    d.usize(cell.n_procs);
    d.f64(cell.utilization);
    // The stream id folds in master_seed, the cell index, and the seed
    // coordinate — everything the arrival sampler, workload generator,
    // and fault compiler draw randomness from.
    d.u64(spec.cell_stream(cell));
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Knobs;

    fn base() -> SweepSpec {
        SweepSpec::figure4().with_seed_count(2)
    }

    fn cell_digests(spec: &SweepSpec) -> Vec<u64> {
        spec.cells()
            .iter()
            .map(|c| cell_fingerprint(spec, c))
            .collect()
    }

    #[test]
    fn negative_zero_hashes_like_positive_zero() {
        let mut plus = base();
        plus.knobs[0].theoretical_overhead = 0.0;
        let mut minus = base();
        minus.knobs[0].theoretical_overhead = -0.0;
        assert_eq!(spec_fingerprint(&plus), spec_fingerprint(&minus));
        assert_eq!(cell_digests(&plus), cell_digests(&minus));
    }

    #[test]
    fn reordering_equal_value_axis_literals_keeps_cell_fingerprints() {
        // Two axis vectors holding the same values at the same positions —
        // one built from literals "reordered" at the source level (0.5
        // written as 2.0/4.0) — must agree cell for cell.
        let mut a = base();
        a.utilizations = vec![0.4, 0.5];
        let mut b = base();
        b.utilizations = vec![0.4, 2.0 / 4.0];
        assert_eq!(cell_digests(&a), cell_digests(&b));
        assert_eq!(spec_fingerprint(&a), spec_fingerprint(&b));
    }

    #[test]
    fn knob_label_renames_do_not_touch_cell_fingerprints() {
        let a = base();
        let mut b = base();
        b.knobs[0].label = "renamed".to_string();
        // Cell digests survive the rename; the spec identity does not
        // (labels are export bytes).
        assert_eq!(cell_digests(&a), cell_digests(&b));
        assert_ne!(spec_fingerprint(&a), spec_fingerprint(&b));
    }

    #[test]
    fn editing_one_seed_value_invalidates_only_that_seeds_cells() {
        let a = base();
        let mut b = base();
        let edited = *b.seeds.last().expect("has seeds");
        *b.seeds.last_mut().expect("has seeds") = edited + 1000;
        let da = cell_digests(&a);
        let db = cell_digests(&b);
        let changed: Vec<usize> = (0..da.len()).filter(|&i| da[i] != db[i]).collect();
        let expected: Vec<usize> = a
            .cells()
            .iter()
            .filter(|c| c.seed == edited)
            .map(|c| c.index)
            .collect();
        assert_eq!(changed, expected, "only the edited seed's cells change");
        assert!(!changed.is_empty());
    }

    #[test]
    fn semantic_knob_edits_change_every_cell_of_that_knob() {
        let a = base();
        let mut b = base();
        b.knobs[0].wcet_margin = 1.3;
        let da = cell_digests(&a);
        let db = cell_digests(&b);
        assert!((0..da.len()).all(|i| da[i] != db[i]));
        assert_ne!(spec_fingerprint(&a), spec_fingerprint(&b));
    }

    #[test]
    fn cell_digests_are_distinct_within_a_grid() {
        let spec = SweepSpec::figure4().with_seed_count(4);
        let mut digests = cell_digests(&spec);
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), spec.cell_count(), "digest collision");
    }

    #[test]
    fn duplicate_knob_contents_under_different_labels_share_cell_digests() {
        // Same semantics, different label → the cache can serve both from
        // one entry family (per-cell streams still differ by index).
        let mut spec = base();
        spec.knobs = vec![Knobs::named("a"), Knobs::named("b")];
        let cells = spec.cells();
        let half = cells.len() / 2;
        for i in 0..half {
            // Cells i and i+half differ only in knob label and index; the
            // index feeds the stream, so digests differ — but the knob
            // contribution itself is label-free, which the rename test
            // already pins. Here we only sanity-check enumeration shape.
            assert_eq!(cells[i].n_procs, cells[i + half].n_procs);
        }
    }
}
