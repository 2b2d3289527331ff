//! The observability layer's cross-cutting contracts, enforced at the
//! workspace level:
//!
//! 1. **Non-perturbation** — threading an `EventRecorder` through a cell
//!    must not change a single statistic, so probed results slot into a
//!    report whose exports are byte-identical to the unprobed sweep's.
//! 2. **Deterministic traces** — the Perfetto export of a traced cell is
//!    byte-stable across worker counts and pinned by a golden snapshot.
//! 3. **Cycle conservation** — under random task sets *and* fault plans,
//!    every ledger exactly partitions `horizon × n_procs` cycles.
//! 4. **One record, two views** — a recorder's spans (what the Gantt chart
//!    and the Chrome trace draw) and its ledger (what the gap attribution
//!    sums) account for the same cycles on every processor.

use proptest::prelude::*;

use mpdp::core::policy::{DegradationPolicy, OverrunAction};
use mpdp::core::time::Cycles;
use mpdp::obs::{chrome_trace_json_multi, parse_json, Bucket, EventRecorder, SpanKind};
use mpdp::sweep::{
    cells_csv, report_json, run_cell_probed, run_sweep, ArrivalSpec, Knobs, SweepReport, SweepSpec,
    WorkloadSpec,
};
use mpdp_bench::{fault_matrix_spec, fig4_seeded_spec, ExperimentConfig};
use mpdp_faults::{FailStop, FaultPlan, WcetOverrun};

/// A small automotive grid: 2 cells, one aperiodic activation each.
fn small_spec() -> SweepSpec {
    SweepSpec {
        utilizations: vec![0.4, 0.6],
        proc_counts: vec![2],
        seeds: vec![0],
        knobs: vec![Knobs::default()],
        workload: WorkloadSpec::Automotive,
        arrivals: ArrivalSpec::Bursts {
            activations: 1,
            gap: Cycles::from_secs(8),
        },
        master_seed: 0x0B5,
    }
}

/// Observation must never perturb the simulation: re-running every cell
/// probed yields `CellResult`s equal to the unprobed sweep's, and a report
/// assembled from the probed results exports byte-identical CSV and JSON.
/// Both ledgers of every cell conserve cycles along the way.
#[test]
fn probed_cells_match_unprobed_sweep_and_exports() {
    let spec = small_spec();
    let report = run_sweep(&spec, 2).unwrap();
    let mut probed_cells = Vec::new();
    for (cell, unprobed) in spec.cells().iter().zip(&report.cells) {
        let (result, obs) = run_cell_probed(&spec, cell).unwrap();
        assert_eq!(&result, unprobed, "probing perturbed cell {}", cell.index);
        obs.theoretical
            .ledger()
            .check_conservation(obs.horizon)
            .expect("theoretical ledger partitions the timeline");
        obs.real
            .ledger()
            .check_conservation(obs.horizon)
            .expect("prototype ledger partitions the timeline");
        probed_cells.push(result);
    }
    let rebuilt = SweepReport {
        cells: probed_cells,
        faulted: report.faulted,
        workers: report.workers,
        wall: report.wall,
        profiles: Vec::new(),
    };
    assert_eq!(cells_csv(&report), cells_csv(&rebuilt));
    assert_eq!(report_json(&report), report_json(&rebuilt));
}

/// The traced-cell observation obeys the sweep's determinism contract: the
/// Chrome trace-event JSON of cell 0, probed after a sweep on 1 worker or
/// on 8, is byte-identical, well-formed JSON, and pinned by a golden
/// snapshot (bless intentional format changes with
/// `GOLDEN_UPDATE=1 cargo test -q perfetto`).
#[test]
fn perfetto_trace_is_byte_stable_across_worker_counts() {
    let spec = small_spec();
    let traced = |workers: usize| {
        run_sweep(&spec, workers).unwrap();
        let (_, obs) = run_cell_probed(&spec, &spec.cells()[0]).unwrap();
        chrome_trace_json_multi(&[(&obs.theoretical, "theoretical"), (&obs.real, "prototype")])
    };
    let doc = traced(1);
    assert_eq!(doc, traced(8), "trace drifted across worker counts");
    parse_json(&doc).expect("trace JSON is well-formed");

    let golden_path = format!(
        "{}/tests/golden/trace_cell0.json",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        std::fs::write(&golden_path, &doc).expect("update golden snapshot");
    }
    let golden = std::fs::read_to_string(&golden_path).expect("checked-in golden snapshot");
    assert_eq!(
        doc, golden,
        "Perfetto export drifted from tests/golden/trace_cell0.json \
         (bless intentional format changes with GOLDEN_UPDATE=1)"
    );
}

/// Per-processor span cycles of `rec`, as `[task, scheduler + ISR, switch]`.
fn span_cycles(rec: &EventRecorder) -> Vec<[u64; 3]> {
    let mut cycles = vec![[0u64; 3]; rec.n_procs()];
    for s in rec.spans() {
        let class = match s.kind {
            SpanKind::Task => 0,
            SpanKind::Sched | SpanKind::Isr => 1,
            SpanKind::Switch => 2,
        };
        cycles[s.proc as usize][class] += (s.end - s.start).as_u64();
    }
    cycles
}

/// The spans and the ledger of one recorder account for the same cycles,
/// on both stacks of every Figure 4 cell (two seeds) and every fault-matrix
/// cell: per processor, task spans equal `TaskWork + BusStall`, scheduler
/// and ISR spans equal `Sched + Isr + Contention`, and switch spans equal
/// `Switch`. The Gantt chart and the Chrome trace draw the spans; the gap
/// attribution sums the ledger; this keeps the two from drifting apart.
#[test]
fn spans_and_ledger_account_for_the_same_cycles() {
    let specs = [
        fig4_seeded_spec(&ExperimentConfig::new(), 2),
        fault_matrix_spec(vec![2, 3, 4], 2),
    ];
    let mut runs = 0;
    for spec in &specs {
        for cell in spec.cells() {
            let (_, obs) = run_cell_probed(spec, &cell).unwrap();
            for (rec, stack) in [(&obs.theoretical, "theoretical"), (&obs.real, "prototype")] {
                let ledger = rec.ledger();
                let sum = |p, buckets: &[Bucket]| buckets.iter().map(|&b| ledger.get(p, b)).sum();
                for (p, spans) in span_cycles(rec).iter().enumerate() {
                    let buckets = [
                        sum(p, &[Bucket::TaskWork, Bucket::BusStall]),
                        sum(p, &[Bucket::Sched, Bucket::Isr, Bucket::Contention]),
                        sum(p, &[Bucket::Switch]),
                    ];
                    assert_eq!(
                        spans, &buckets,
                        "{stack} processor {p} of cell {}: spans [task, sched+isr, switch] \
                         disagree with the ledger",
                        cell.index
                    );
                }
                runs += 1;
            }
        }
    }
    assert_eq!(
        runs, 144,
        "18 Figure 4 cells and 54 fault-matrix cells, two stacks each"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The conservation invariant under adversarial inputs: random UUniFast
    /// task sets, every processor count, and (half the time) a fault plan
    /// with WCET overruns, a mid-run fail-stop, and kill-on-overrun
    /// degradation. Whatever the cell does — miss deadlines, kill jobs,
    /// lose a processor — both stacks' ledgers must attribute every cycle
    /// of `horizon × n_procs` to exactly one bucket.
    #[test]
    fn ledger_partitions_timeline_under_random_sets_and_faults(
        seed in 0u64..1_000,
        n_procs in 1usize..=4,
        utilization in 0.30f64..0.70,
        faulted in any::<bool>(),
    ) {
        let mut knob = Knobs::named("prop");
        // Fail-stop needs a surviving processor to migrate onto.
        if faulted && n_procs > 1 {
            knob = knob
                .with_faults(
                    FaultPlan::default()
                        .with_wcet(WcetOverrun::new(0.2, 1.5))
                        .with_fail_stop(FailStop::new(0, Cycles::from_secs(1))),
                )
                .with_degradation(
                    DegradationPolicy::default()
                        .with_overrun(OverrunAction::Kill)
                        .with_budget_margin(1.1),
                );
        }
        let spec = SweepSpec {
            utilizations: vec![utilization],
            proc_counts: vec![n_procs],
            seeds: vec![seed],
            knobs: vec![knob],
            workload: WorkloadSpec::Random {
                tasks: 3,
                aperiodic_exec: Cycles::from_millis(30),
            },
            arrivals: ArrivalSpec::Explicit {
                arrivals: vec![
                    (Cycles::from_millis(150), 0),
                    (Cycles::from_millis(700), 0),
                ],
                horizon: Cycles::from_secs(2),
            },
            master_seed: seed ^ 0xC0DE,
        };
        let cells = spec.cells();
        let (result, obs) = run_cell_probed(&spec, &cells[0])
            .map_err(|e| TestCaseError::fail(format!("cell failed: {e}")))?;
        if !result.schedulable {
            // Unschedulable draws run no simulation; nothing to conserve.
            prop_assert_eq!(obs.horizon, Cycles::ZERO);
            return Ok(());
        }
        prop_assert!(obs.horizon > Cycles::ZERO);
        for (rec, stack) in [(&obs.theoretical, "theoretical"), (&obs.real, "real")] {
            if let Err(imbalance) = rec.ledger().check_conservation(obs.horizon) {
                return Err(TestCaseError::fail(format!(
                    "{stack} ledger leaked cycles ({imbalance}) at seed={seed} \
                     n_procs={n_procs} util={utilization:.3} faulted={faulted}"
                )));
            }
        }
    }
}
