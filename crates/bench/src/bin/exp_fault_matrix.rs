//! The fault matrix: graceful degradation under injected faults, swept
//! over fault intensity × processor count × scheduling policy.
//!
//! Each intensity level layers more of the fault model onto the paper's
//! automotive workload: WCET overruns (with a heavy tail at the top
//! level), an aperiodic overload burst, lost/spurious timer interrupts, a
//! transient bus-latency spike, and — at the highest level — a processor
//! fail-stop with online re-admission of the dead core's partition. The
//! three policies are the paper's MPDP dual-priority scheduler and the two
//! §5 baselines (background service, aperiodic-first). The grid itself
//! lives in `mpdp_bench::fault_matrix_spec` so tests and the audit binary
//! sweep the exact same cells.
//!
//! The whole grid runs through the `mpdp-sweep` engine, so `--workers N`
//! parallelizes it without changing a single output byte. `--resume
//! journal.mpdpj` gives the sweep an fsynced checkpoint journal —
//! re-running after an interruption picks up where it stopped and still
//! exports identical bytes. `--monitor` replays every cell through the
//! runtime invariant monitors afterwards and exits non-zero if any MPDP
//! invariant was violated.
//!
//! Run with `cargo run --release -p mpdp-bench --bin exp_fault_matrix --
//! [--workers N] [--seeds K] [--csv out.csv] [--json out.json] [--quick]
//! [--resume journal.mpdpj] [--monitor]`. `--max-cells N` (only with
//! `--resume`) stops the executor after N fresh cells — a deterministic
//! stand-in for a mid-sweep crash, used by the CI resume smoke.

use mpdp_bench::cli::{
    check_known_flags, flag_value, has_flag, parse_flag, runtime_error, workers_flag, write_output,
};
use mpdp_bench::{audit_sweep, fault_matrix_spec, INTENSITIES};
use mpdp_sweep::{cells_csv, execute, group_summaries, report_json, SweepPlan};
use mpdp_telemetry::NullFleetObserver;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    check_known_flags(
        &args,
        &[
            "--csv",
            "--json",
            "--workers",
            "--seeds",
            "--quick",
            "--resume",
            "--monitor",
            "--max-cells",
        ],
        &[
            "--csv",
            "--json",
            "--workers",
            "--seeds",
            "--resume",
            "--max-cells",
        ],
    );
    let csv_path = flag_value(&args, "--csv");
    let json_path = flag_value(&args, "--json");
    let quick = has_flag(&args, "--quick");
    let monitor = has_flag(&args, "--monitor");
    let resume = flag_value(&args, "--resume");
    let max_cells: Option<usize> = parse_flag(&args, "--max-cells", "a cell count");
    if max_cells.is_some() && resume.is_none() {
        mpdp_bench::cli::usage_error(format_args!("--max-cells requires --resume <journal>"));
    }
    let workers = workers_flag(&args);
    let seeds: usize =
        parse_flag(&args, "--seeds", "a seed count").unwrap_or(if quick { 1 } else { 2 });

    let proc_counts = if quick { vec![2] } else { vec![2, 3, 4] };
    let spec = fault_matrix_spec(proc_counts, seeds);
    eprintln!(
        "fault matrix: {} intensities x 3 policies, {} cells over {workers} worker(s) ...",
        INTENSITIES.len(),
        spec.cell_count()
    );
    let plan = SweepPlan {
        journal: resume.as_ref().map(std::path::PathBuf::from),
        max_cells,
        ..SweepPlan::default()
    };
    let report = match execute(&spec, workers, &plan, &NullFleetObserver) {
        Ok(run) => {
            if let Some(journal) = resume.as_ref().filter(|_| run.resumed > 0) {
                eprintln!("resumed {} cell(s) from {journal}", run.resumed);
            }
            run.report
        }
        Err(e) => runtime_error(format_args!("sweep failed: {e}")),
    };
    eprintln!("swept {} cells in {:.2?}", report.cells.len(), report.wall);
    let groups = group_summaries(&report);

    println!("== fault matrix: survivability per (intensity/policy, processors) ==");
    println!(
        "{:<24} {:>5} {:>7} {:>9} {:>6} {:>6} {:>6} {:>9} {:>11}",
        "knob", "procs", "misses", "overruns", "kills", "shed", "lost", "recov_s", "guaranteed"
    );
    for g in &groups {
        let s = &g.survival;
        println!(
            "{:<24} {:>5} {:>7} {:>9} {:>6} {:>6} {:>6} {:>9} {:>10.0}%",
            g.knob_label,
            g.n_procs,
            s.miss_events,
            s.overruns,
            s.kills,
            s.shed,
            s.lost_irqs,
            s.recovery_latency()
                .map(|c| format!("{:.3}", c.as_secs_f64()))
                .unwrap_or_else(|| "-".into()),
            s.guaranteed_fraction() * 100.0
        );
    }

    // The headline claim: after a processor fail-stop, MPDP's offline
    // promotions leave a larger guaranteed-task fraction than serving
    // aperiodics at top priority, at every processor count.
    println!();
    println!("== guaranteed-task fraction after fail-stop (failover intensity) ==");
    let fraction = |policy: &str, m: usize| {
        groups
            .iter()
            .find(|g| g.knob_label == format!("failover/{policy}") && g.n_procs == m)
            .map(|g| g.survival.guaranteed_fraction())
    };
    for &m in spec.proc_counts.iter() {
        let mpdp = fraction("mpdp", m).unwrap_or(f64::NAN);
        let bg = fraction("background", m).unwrap_or(f64::NAN);
        let apf = fraction("aperiodic-first", m).unwrap_or(f64::NAN);
        println!(
            "{m}P  mpdp {:>5.1}%  background {:>5.1}%  aperiodic-first {:>5.1}%  {}",
            mpdp * 100.0,
            bg * 100.0,
            apf * 100.0,
            if mpdp > apf { "(mpdp ahead)" } else { "(!)" }
        );
    }

    if let Some(path) = csv_path {
        write_output(&path, &cells_csv(&report));
    }
    if let Some(path) = json_path {
        write_output(&path, &report_json(&report));
    }

    if monitor {
        eprintln!(
            "auditing {} cells against the invariant monitors ...",
            report.cells.len()
        );
        let audit = match audit_sweep(&spec) {
            Ok(audit) => audit,
            Err(e) => runtime_error(format_args!("audit failed: {e}")),
        };
        for line in audit.diagnostics() {
            eprintln!("{line}");
        }
        if !audit.is_clean() {
            runtime_error(format_args!(
                "monitor audit found {} invariant violation(s)",
                audit.violation_count()
            ));
        }
        eprintln!("monitor audit clean: {} cells", audit.audits.len());
    }
}
