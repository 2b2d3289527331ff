//! Locks down the Figure 3 sample schedule: the exact Gantt rows for
//! schedules A and B, drawn from the spans of a probed run, and every
//! behaviour the paper narrates about them.

use std::collections::BTreeMap;

use mpdp::core::ids::{ProcId, TaskId};
use mpdp::core::policy::MpdpPolicy;
use mpdp::core::priority::Priority;
use mpdp::core::rta::build_task_table;
use mpdp::core::task::{AperiodicTask, PeriodicTask, TaskTable};
use mpdp::core::time::Cycles;
use mpdp::obs::EventRecorder;
use mpdp::sim::gantt::render_gantt;
use mpdp::sim::theoretical::{run_theoretical_probed, SimOutcome, TheoreticalConfig};
use mpdp_faults::CompiledFaults;

const SLICE: Cycles = Cycles::new(100_000);

fn fig3_table() -> TaskTable {
    let p1 = PeriodicTask::new(TaskId::new(0), "P1", SLICE * 2, SLICE * 4)
        .with_priorities(Priority::new(1), Priority::new(4))
        .with_processor(ProcId::new(0));
    let p2 = PeriodicTask::new(TaskId::new(1), "P2", SLICE * 2, SLICE * 3)
        .with_priorities(Priority::new(0), Priority::new(3))
        .with_processor(ProcId::new(1));
    let p3 = PeriodicTask::new(TaskId::new(2), "P3", SLICE, SLICE * 6)
        .with_priorities(Priority::new(0), Priority::new(3))
        .with_processor(ProcId::new(0));
    let a1 = AperiodicTask::new(TaskId::new(3), "A1", SLICE * 2);
    let a2 = AperiodicTask::new(TaskId::new(4), "A2", SLICE);
    build_task_table(vec![p1, p2, p3], vec![a1, a2], 2).expect("schedulable")
}

fn labels() -> BTreeMap<TaskId, char> {
    BTreeMap::from([
        (TaskId::new(0), '1'),
        (TaskId::new(1), '2'),
        (TaskId::new(2), '3'),
        (TaskId::new(3), 'a'),
        (TaskId::new(4), 'b'),
    ])
}

/// Runs the figure's task set over six slices under a recorder.
fn run(table: TaskTable, arrivals: &[(Cycles, usize)]) -> (SimOutcome, EventRecorder) {
    let config = TheoreticalConfig::new(SLICE * 6)
        .with_tick(SLICE)
        .with_overhead(0.0);
    let recorder = EventRecorder::new(table.n_procs());
    run_theoretical_probed(
        MpdpPolicy::new(table),
        arrivals,
        config,
        &CompiledFaults::none(),
        recorder,
    )
    .unwrap()
}

#[test]
fn schedule_a_matches_expected_gantt() {
    let (outcome, rec) = run(fig3_table(), &[]);
    let text = render_gantt(&rec, SLICE * 6, SLICE, &labels());
    let rows: Vec<&str> = text.lines().collect();
    assert!(rows[1].ends_with("113211"), "MB0 row: {text}");
    assert!(rows[2].ends_with("22··2·"), "MB1 row: {text}");
    assert_eq!(outcome.trace.deadline_misses(), 0);
}

#[test]
fn schedule_b_matches_expected_gantt() {
    let arrivals = vec![(SLICE, 0usize), (SLICE * 2, 1usize)];
    let (outcome, rec) = run(fig3_table(), &arrivals);
    let text = render_gantt(&rec, SLICE * 6, SLICE, &labels());
    let rows: Vec<&str> = text.lines().collect();
    assert!(rows[1].ends_with("1a1311"), "MB0 row: {text}");
    assert!(rows[2].ends_with("22ab22"), "MB1 row: {text}");
    assert_eq!(outcome.trace.deadline_misses(), 0);
}

/// Golden snapshot of the full Figure 3 rendering — every byte of both
/// Gantt charts, not just the row suffixes the other tests check. Catches
/// accidental drift in `render_gantt` itself (headers, axis, padding,
/// separator glyphs). Bless an intentional change with
/// `GOLDEN_UPDATE=1 cargo test -q fig3_gantt`.
#[test]
fn fig3_gantt_matches_golden_snapshot() {
    let (_, a) = run(fig3_table(), &[]);
    let arrivals = vec![(SLICE, 0usize), (SLICE * 2, 1usize)];
    let (_, b) = run(fig3_table(), &arrivals);
    let rendered = format!(
        "== schedule A (no aperiodic arrivals) ==\n{}\n== schedule B (A1 at slice 1, A2 at slice 2) ==\n{}",
        render_gantt(&a, SLICE * 6, SLICE, &labels()),
        render_gantt(&b, SLICE * 6, SLICE, &labels()),
    );
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fig3_gantt.txt");
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        std::fs::write(golden_path, &rendered).expect("update golden snapshot");
    }
    let golden = std::fs::read_to_string(golden_path).expect("checked-in golden snapshot");
    assert_eq!(
        rendered, golden,
        "Figure 3 rendering drifted from tests/golden/fig3_gantt.txt; \
         if intentional, bless with GOLDEN_UPDATE=1"
    );
}

#[test]
fn narrative_a1_runs_immediately_then_yields_to_promoted_p1() {
    let arrivals = vec![(SLICE, 0usize), (SLICE * 2, 1usize)];
    let (outcome, rec) = run(fig3_table(), &arrivals);
    // "Part of task A1 is executed as soon as it arrives": an A1 span
    // starts at slice 1.
    let a1_spans: Vec<_> = rec.spans().iter().filter(|s| s.task == Some(3)).collect();
    assert_eq!(a1_spans.first().map(|s| s.start), Some(SLICE));
    // "at timeslice 2, P1 gets promoted ... A1 is interrupted": the first A1
    // span ends at slice 2 and P1 runs on MB0 from slice 2.
    assert_eq!(a1_spans[0].end, SLICE * 2);
    assert!(rec
        .spans()
        .iter()
        .any(|s| s.task == Some(0) && s.proc == 0 && s.start == SLICE * 2));
    // A1 resumes (on the other processor) and completes before A2 starts.
    assert!(a1_spans.len() >= 2, "A1 must resume after preemption");
    let a2_first = rec
        .spans()
        .iter()
        .find(|s| s.task == Some(4))
        .expect("A2 runs");
    let a1_done = outcome
        .trace
        .completions_of(TaskId::new(3))
        .next()
        .expect("A1 completes");
    assert!(
        a2_first.start >= a1_done.finish,
        "A2 must wait for A1 (FIFO)"
    );
}

#[test]
fn narrative_p2_is_promoted_to_meet_its_deadline() {
    // "to guarantee completion before timeslice 3, task P2 has been
    // promoted": its promotion offset is one slice after release.
    let table = fig3_table();
    assert_eq!(table.promotion(1), SLICE);
    let (outcome, _) = run(table, &[]);
    let p2 = outcome
        .trace
        .completions_of(TaskId::new(1))
        .next()
        .expect("P2 completes");
    assert!(p2.finish <= SLICE * 3, "P2 must finish before timeslice 3");
}
