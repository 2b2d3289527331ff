//! Decomposes the **theoretical-vs-prototype response gap** into cycle
//! buckets — the observability layer's headline experiment.
//!
//! The paper reports the prototype 7–27% slower than the theoretical
//! simulation and attributes the gap to "the presence of the operating
//! system and of the contentions" (§5) without measuring either part. This
//! experiment reruns the Figure 4 grid with a cycle ledger threaded through
//! both stacks, so every cycle of every processor is attributed to exactly
//! one bucket: task work, scheduler passes, context switches, ISRs,
//! bus/memory stalls, lock contention, or idle. The conservation invariant
//! (buckets sum to `horizon × n_procs`) is checked on **every** cell of
//! both stacks before anything is printed.
//!
//! Run with `cargo run --release -p mpdp-bench --bin exp_gap_attribution --
//! [--quick] [--trace-out t.json] [--ledger-csv l.csv] [--ledger-json
//! l.json]`. `--quick` runs the single 2P/40% cell with one activation
//! (CI smoke); the default runs the full 2–4P × 40/50/60% grid.

use mpdp_bench::cli::{check_known_flags, flag_value, has_flag, write_json_output, write_output};
use mpdp_bench::experiment::{fig4_spec, ExperimentConfig};
use mpdp_obs::{chrome_trace_json_multi, ledger_csv, ledger_json, Bucket, BUCKETS};
use mpdp_sweep::{run_cell_probed, CellObservation};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    check_known_flags(
        &args,
        &["--quick", "--trace-out", "--ledger-csv", "--ledger-json"],
        &["--trace-out", "--ledger-csv", "--ledger-json"],
    );
    let quick = has_flag(&args, "--quick");
    let trace_out = flag_value(&args, "--trace-out");
    let ledger_csv_path = flag_value(&args, "--ledger-csv");
    let ledger_json_path = flag_value(&args, "--ledger-json");

    let config = if quick {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::new()
    };
    let mut spec = fig4_spec(&config);
    if quick {
        spec.proc_counts = vec![2];
        spec.utilizations = vec![0.4];
    }
    let cells = spec.cells();
    eprintln!(
        "gap attribution: {} cell(s), both stacks probed, conservation checked per cell ...",
        cells.len()
    );

    println!("== Theoretical-vs-prototype gap, attributed by cycle bucket ==");
    println!("(bucket columns: % of all prototype cycles, horizon x n_procs)");
    println!(
        "{:<5} {:>5} {:>8} {:>8} {:>7} | {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
        "arch",
        "util",
        "theo_s",
        "real_s",
        "gap%",
        "work",
        "sched",
        "switch",
        "isr",
        "bus",
        "cont",
        "idle"
    );

    let mut grand = [0u64; Bucket::COUNT];
    let mut first_obs: Option<CellObservation> = None;
    for cell in &cells {
        let (result, obs) = run_cell_probed(&spec, cell).expect("fig4 cells are valid");
        obs.theoretical
            .ledger()
            .check_conservation(obs.horizon)
            .expect("theoretical ledger partitions the timeline");
        obs.real
            .ledger()
            .check_conservation(obs.horizon)
            .expect("prototype ledger partitions the timeline");

        let theo_s = result
            .theoretical
            .aperiodic
            .finalize()
            .expect("susan completes in the theoretical run")
            .mean_s;
        let real_s = result
            .real
            .aperiodic
            .finalize()
            .expect("susan completes on the prototype")
            .mean_s;
        let ledger = obs.real.ledger();
        let total = ledger.grand_total() as f64;
        print!(
            "{:<5} {:>4.0}% {:>8.3} {:>8.3} {:>6.1}% |",
            format!("{}P", cell.n_procs),
            cell.utilization * 100.0,
            theo_s,
            real_s,
            100.0 * (real_s / theo_s - 1.0),
        );
        for (i, &b) in BUCKETS.iter().enumerate() {
            let cycles = ledger.bucket_total(b);
            grand[i] += cycles;
            print!(" {:>5.2}%", 100.0 * cycles as f64 / total);
        }
        println!();
        if first_obs.is_none() {
            first_obs = Some(obs);
        }
    }

    let grand_total: u64 = grand.iter().sum();
    println!();
    println!("== aggregate prototype cycle attribution across the grid ==");
    for (i, &b) in BUCKETS.iter().enumerate() {
        println!(
            "{:<12} {:>16} cycles {:>7.3}%",
            b.name(),
            grand[i],
            100.0 * grand[i] as f64 / grand_total as f64
        );
    }
    let overhead: u64 = BUCKETS
        .iter()
        .enumerate()
        .filter(|(_, b)| b.is_overhead())
        .map(|(i, _)| grand[i])
        .sum();
    println!(
        "overhead (sched+switch+isr+bus+contention): {:.3}% of all cycles",
        100.0 * overhead as f64 / grand_total as f64
    );
    println!(
        "paper's narrative: the prototype's 7-27% response gap is what these\n\
         buckets cost the aperiodic task; the theoretical stack folds them\n\
         into a flat {:.0}% demand inflation.",
        config.theoretical_overhead * 100.0
    );

    let obs = first_obs.expect("grid has at least one cell");
    if let Some(path) = ledger_csv_path {
        write_output(&path, &ledger_csv(obs.real.ledger()));
    }
    if let Some(path) = ledger_json_path {
        write_json_output(&path, "ledger JSON", &ledger_json(obs.real.ledger()));
    }
    if let Some(path) = trace_out {
        let doc =
            chrome_trace_json_multi(&[(&obs.theoretical, "theoretical"), (&obs.real, "prototype")]);
        write_json_output(&path, "trace JSON", &doc);
        eprintln!("open {path} in https://ui.perfetto.dev");
    }
}
