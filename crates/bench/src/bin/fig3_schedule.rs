//! Regenerates **Figure 3** — "A sample schedule with three periodic and two
//! aperiodic tasks on a dual MicroBlaze architecture. The status of the
//! queues without and with aperiodic workload is shown respectively in A
//! and B."
//!
//! The task set is constructed so that every behaviour the paper narrates is
//! visible:
//!
//! * schedule A has an idle slot that schedule B fills with aperiodic work;
//! * P2 is promoted to its upper-band priority to guarantee completion
//!   before its deadline;
//! * A1 executes *as soon as it arrives* (timeslice 1) because P1 holds only
//!   a lower-band priority then;
//! * at timeslice 2, P1's promotion interrupts A1, which later resumes on
//!   the other processor;
//! * A2 arrives during timeslice 2, queues FIFO behind A1, and runs only
//!   after the promoted periodic tasks and the remainder of A1.
//!
//! Run with `cargo run -p mpdp-bench --bin fig3_schedule --
//! [--trace-out t.json]`. Each schedule runs once under an
//! `EventRecorder`; its spans draw the Gantt chart, and `--trace-out`
//! writes the same recorders as a Chrome trace-event JSON (open in
//! <https://ui.perfetto.dev>), so stdout is the same with or without it.

use std::collections::BTreeMap;

use mpdp_bench::cli::{check_known_flags, flag_value, write_json_output};
use mpdp_core::ids::{ProcId, TaskId};
use mpdp_core::policy::MpdpPolicy;
use mpdp_core::priority::Priority;
use mpdp_core::rta::{analyze, build_task_table};
use mpdp_core::task::{AperiodicTask, PeriodicTask, TaskTable};
use mpdp_core::time::Cycles;
use mpdp_faults::CompiledFaults;
use mpdp_obs::{chrome_trace_json_multi, EventRecorder};
use mpdp_sim::gantt::render_gantt;
use mpdp_sim::theoretical::{run_theoretical_probed, SimOutcome, TheoreticalConfig};

/// One timeslice of the figure (arbitrary: the schedule is in slice units).
const SLICE: Cycles = Cycles::new(100_000);

fn task_table() -> TaskTable {
    // Periodic tasks: low-band priorities 0 and 1, upper-band 3 and 4, as in
    // the figure's table. Units: C and T in timeslices.
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
    build_task_table(vec![p1, p2, p3], vec![a1, a2], 2).expect("figure task set is schedulable")
}

/// Runs one schedule of the figure to `horizon` under a recorder.
fn run(
    table: &TaskTable,
    arrivals: &[(Cycles, usize)],
    horizon: Cycles,
) -> (SimOutcome, EventRecorder) {
    let config = TheoreticalConfig::new(horizon)
        .with_tick(SLICE)
        .with_overhead(0.0);
    run_theoretical_probed(
        MpdpPolicy::new(table.clone()),
        arrivals,
        config,
        &CompiledFaults::none(),
        EventRecorder::new(table.n_procs()),
    )
    .unwrap()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    check_known_flags(&args, &["--trace-out"], &["--trace-out"]);
    let trace_out = flag_value(&args, "--trace-out");
    let table = task_table();

    println!("== Figure 3 task table ==");
    println!(
        "{:<4} {:>3} {:>3} {:>3} {:>8} {:>9} {:>10}",
        "task", "C", "T", "D", "low-prio", "high-prio", "promotion"
    );
    let rta = analyze(table.periodic(), 2).expect("schedulable");
    for (t, r) in table.periodic().iter().zip(&rta) {
        println!(
            "{:<4} {:>3} {:>3} {:>3} {:>8} {:>9} {:>10}",
            t.name(),
            t.wcet().as_u64() / SLICE.as_u64(),
            t.period().as_u64() / SLICE.as_u64(),
            t.deadline().as_u64() / SLICE.as_u64(),
            t.priorities().low.level(),
            t.priorities().high.level(),
            r.promotion.as_u64() / SLICE.as_u64(),
        );
    }
    for a in table.aperiodic() {
        println!(
            "{:<4} {:>3}   -   -        2 (middle band, FIFO)",
            a.name(),
            a.exec().as_u64() / SLICE.as_u64()
        );
    }
    println!();

    let labels = BTreeMap::from([
        (TaskId::new(0), '1'),
        (TaskId::new(1), '2'),
        (TaskId::new(2), '3'),
        (TaskId::new(3), 'a'),
        (TaskId::new(4), 'b'),
    ]);
    let horizon = SLICE * 6;

    // Schedule A: no aperiodic arrivals.
    let (a, rec_a) = run(&table, &[], horizon);
    println!("== Schedule A (periodic only; note the idle slots '·') ==");
    print!("{}", render_gantt(&rec_a, horizon, SLICE, &labels));
    println!();

    // Schedule B: A1 arrives at the start of timeslice 1, A2 at timeslice 2.
    let (b, rec_b) = run(&table, &[(SLICE, 0), (SLICE * 2, 1)], horizon);
    println!("== Schedule B (A1 arrives at slice 1, A2 at slice 2) ==");
    print!("{}", render_gantt(&rec_b, horizon, SLICE, &labels));
    println!();

    println!("narrative checks:");
    let a1_done = b
        .trace
        .completions_of(TaskId::new(3))
        .next()
        .expect("A1 completes");
    let a2_done = b
        .trace
        .completions_of(TaskId::new(4))
        .next()
        .expect("A2 completes");
    println!(
        "  A1: released slice {}, finished slice {} (interrupted by P1's promotion, resumed)",
        a1_done.release.as_u64() / SLICE.as_u64(),
        a1_done.finish.as_u64() / SLICE.as_u64()
    );
    println!(
        "  A2: released slice {}, finished slice {} (FIFO after A1)",
        a2_done.release.as_u64() / SLICE.as_u64(),
        a2_done.finish.as_u64() / SLICE.as_u64()
    );
    assert!(a2_done.finish >= a1_done.finish, "A2 must not overtake A1");
    println!(
        "  deadline misses: A={} B={}",
        a.trace.deadline_misses(),
        b.trace.deadline_misses()
    );

    if let Some(path) = trace_out {
        let doc = chrome_trace_json_multi(&[(&rec_a, "schedule-A"), (&rec_b, "schedule-B")]);
        write_json_output(&path, "trace JSON", &doc);
        eprintln!("open {path} in https://ui.perfetto.dev");
    }
}
