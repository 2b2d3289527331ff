//! Regenerates **Figure 4** — "Response time in seconds of an aperiodic task
//! on our system with different periodic utilization and different number of
//! processors" — plus the §5 in-text slowdown matrix ("the real 2 processors
//! architecture is respectively 7%, 8% and 12% slower ... the prototype is
//! 15%, 22% and 27% slower ... 25% worse than the optimal response time").
//!
//! The grid runs through the `mpdp-sweep` engine, so `--workers N`
//! parallelizes it without changing a single output byte, and `--seeds K`
//! turns the figure into a K-seed Monte Carlo (randomized arrival phases)
//! with aggregate percentile curves.
//!
//! Run with `cargo run --release -p mpdp-bench --bin fig4_response_time --
//! [--workers N] [--seeds K] [--csv out.csv] [--json out.json]
//! [--profile] [--trace-out t.json] [--trace-cell I]
//! [--resume journal.mpdpj] [--monitor] [--telemetry-out m.json]
//! [--fleet-trace trace.json]`.
//!
//! `--profile` prints per-cell wall-time/throughput self-profiles to
//! stderr; `--trace-out` writes a Chrome trace-event JSON (open in
//! <https://ui.perfetto.dev>) of cell `--trace-cell` (default 0), captured
//! by a probed re-run so stdout stays byte-identical to an unprobed run.
//! `--resume` gives the sweep an fsynced checkpoint journal, so an
//! interrupted run resumes where it stopped with identical output bytes.
//! `--telemetry-out` writes the `mpdp-fleet-metrics/1` JSON snapshot of an
//! instrumented (`--shards` or `--resume`) run; `--fleet-trace` writes the
//! Perfetto fleet timeline of a `--shards` run. `--monitor` replays every
//! cell through the `mpdp-monitor` runtime invariant monitors and
//! differential oracle after the sweep: violations go to stderr and the
//! exit status turns non-zero, while stdout and every export stay
//! byte-identical.

use mpdp_bench::audit_sweep;
use mpdp_bench::cli::{
    check_known_flags, flag_value, has_flag, parse_flag, runtime_error, shard_worker, usage_error,
    workers_flag, write_json_output, write_metrics_json, write_output,
};
use mpdp_bench::experiment::{fig4_seeded_spec, ExperimentConfig};
use mpdp_obs::chrome_trace_json_multi;
use mpdp_shard::{fleet_snapshot, self_launcher, supervise, SuperviseConfig};
use mpdp_sweep::{
    cells_csv, execute, group_summaries, report_json, run_cell_probed, spec_fingerprint, SweepPlan,
};
use mpdp_telemetry::{fleet_trace_json, FleetRecorder, MetricsRegistry, TranscriptObserver};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == mpdp_shard::WORKER_FLAG) {
        // Hidden shard-worker mode: a `--shards` supervisor re-executed
        // this binary. Rebuild the spec from the same `--seeds` flag the
        // parent saw.
        let seeds: usize = parse_flag(&args, "--seeds", "a seed count").unwrap_or(1);
        shard_worker(&args, &fig4_seeded_spec(&ExperimentConfig::new(), seeds));
    }
    check_known_flags(
        &args,
        &[
            "--csv",
            "--json",
            "--workers",
            "--seeds",
            "--shards",
            "--shard-dir",
            "--profile",
            "--trace-out",
            "--trace-cell",
            "--resume",
            "--monitor",
            "--telemetry-out",
            "--fleet-trace",
        ],
        &[
            "--csv",
            "--json",
            "--workers",
            "--seeds",
            "--shards",
            "--shard-dir",
            "--trace-out",
            "--trace-cell",
            "--resume",
            "--telemetry-out",
            "--fleet-trace",
        ],
    );
    let csv_path = flag_value(&args, "--csv");
    let json_path = flag_value(&args, "--json");
    let workers = workers_flag(&args);
    let seeds: usize = parse_flag(&args, "--seeds", "a seed count").unwrap_or(1);
    let profile = has_flag(&args, "--profile");
    let trace_out = flag_value(&args, "--trace-out");
    let trace_cell: usize = parse_flag(&args, "--trace-cell", "a cell index").unwrap_or(0);
    let monitor = has_flag(&args, "--monitor");
    let resume = flag_value(&args, "--resume");
    let shards: Option<usize> = parse_flag(&args, "--shards", "a shard count");
    if shards.is_some() && resume.is_some() {
        usage_error("--shards and --resume are mutually exclusive (shards journal per worker)");
    }
    let telemetry_out = flag_value(&args, "--telemetry-out");
    let fleet_trace = flag_value(&args, "--fleet-trace");
    if fleet_trace.is_some() && shards.is_none() {
        usage_error("--fleet-trace needs the multi-process fleet: add --shards N");
    }
    if telemetry_out.is_some() && shards.is_none() && resume.is_none() {
        usage_error("--telemetry-out needs an instrumented run: add --shards N or --resume J");
    }

    let config = ExperimentConfig::new();
    // Monte Carlo mode (seeds > 1): per-seed arrival phases drawn from each
    // cell's RNG stream instead of the pinned classic schedule.
    let spec = fig4_seeded_spec(&config, seeds);
    eprintln!(
        "figure 4: mean response of susan-large (aperiodic), {} activations per cell, {} cells over {workers} worker(s) ...",
        config.activations,
        spec.cell_count()
    );
    let report = if let Some(n_shards) = shards {
        // Multi-process mode: supervise one worker process per shard; the
        // merged report's exports are byte-identical to the in-process run.
        let dir = flag_value(&args, "--shard-dir")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| {
                std::env::temp_dir()
                    .join(format!("mpdp-fig4-shards-{:016x}", spec_fingerprint(&spec)))
            });
        let mut passthrough = Vec::new();
        if seeds > 1 {
            passthrough.push("--seeds".to_string());
            passthrough.push(seeds.to_string());
        }
        let launch = match self_launcher(passthrough, 1, std::time::Duration::ZERO) {
            Ok(launch) => launch,
            Err(e) => runtime_error(format_args!("cannot resolve own executable: {e}")),
        };
        let cfg = SuperviseConfig::default()
            .with_shards(n_shards)
            .with_dir(dir);
        let transcript = TranscriptObserver::new(|line: &str| eprintln!("shard: {line}"));
        let registry = MetricsRegistry::new();
        let recorder = FleetRecorder::new();
        match supervise(&spec, &cfg, launch, &(&transcript, &registry, &recorder)) {
            Ok(sup) => {
                let launches: u32 = sup.shards.iter().map(|s| s.launches).sum();
                eprintln!(
                    "supervised {} worker process(es) across {launches} launch(es)",
                    sup.shards.len()
                );
                if let Some(path) = &telemetry_out {
                    write_metrics_json(path, &fleet_snapshot(&registry, &sup.shards));
                }
                if let Some(path) = &fleet_trace {
                    write_output(
                        path,
                        &fleet_trace_json(&recorder.events(), sup.shards.len()),
                    );
                    eprintln!("open {path} in https://ui.perfetto.dev");
                }
                sup.report
            }
            Err(e) => runtime_error(format_args!("sharded sweep failed: {e}")),
        }
    } else {
        let plan = SweepPlan {
            journal: resume.as_ref().map(std::path::PathBuf::from),
            ..SweepPlan::default()
        };
        let registry = MetricsRegistry::new();
        match execute(&spec, workers, &plan, &registry) {
            Ok(run) => {
                if let Some(journal) = resume.as_ref().filter(|_| run.resumed > 0) {
                    eprintln!("resumed {} cell(s) from {journal}", run.resumed);
                }
                if let Some(path) = &telemetry_out {
                    write_metrics_json(path, &registry.snapshot());
                }
                run.report
            }
            Err(e) => runtime_error(format_args!("sweep failed: {e}")),
        }
    };
    eprintln!("swept {} cells in {:.2?}", report.cells.len(), report.wall);
    if profile {
        // Self-profile to stderr only: wall-clock is non-deterministic, so
        // it must never reach stdout or the exports.
        for p in &report.profiles {
            eprintln!(
                "cell {:>3}: {:>10.2?} wall, {:>8.1} Mcyc/s, {:>5} completions",
                p.index,
                p.wall,
                p.throughput_mcps(),
                p.completions
            );
        }
    }
    let groups = group_summaries(&report);

    println!("== Figure 4: aperiodic response time (seconds) ==");
    println!(
        "{:<6} {:>10} {:>12} {:>8} {:>8}",
        "arch", "util", "series", "resp", "misses"
    );
    for g in &groups {
        let theo = g.theoretical.finalize().expect("susan completes");
        let real = g.real.finalize().expect("susan completes");
        println!(
            "{:<6} {:>9.0}% {:>12} {:>8.3} {:>8}",
            format!("{}P", g.n_procs),
            g.utilization * 100.0,
            "theoretical",
            theo.mean_s,
            "-"
        );
        println!(
            "{:<6} {:>9.0}% {:>12} {:>8.3} {:>8}",
            format!("{}P", g.n_procs),
            g.utilization * 100.0,
            "real",
            real.mean_s,
            g.periodic.misses()
        );
    }

    println!();
    println!("== §5 slowdown matrix: real vs theoretical (paper: 2P 7/8/12%, 3P 15/22/27%, 4P ≈25% @60%) ==");
    print!("{:<6}", "");
    for u in [40, 50, 60] {
        print!(" {u:>7}%");
    }
    println!();
    let group_at = |m: usize, u: f64| {
        groups
            .iter()
            .find(|g| g.n_procs == m && (g.utilization - u).abs() < 1e-9)
            .expect("sweep covers every cell")
    };
    for m in [2usize, 3, 4] {
        print!("{:<6}", format!("{m}P"));
        for u in [0.4, 0.5, 0.6] {
            print!(
                " {:>7.1}%",
                group_at(m, u)
                    .slowdown_pct()
                    .expect("both stacks completed")
            );
        }
        println!();
    }

    println!();
    println!("== bar series (for plotting; matches the paper's x-axis grouping) ==");
    for u in [0.4, 0.5, 0.6] {
        let mean = |m: usize, real: bool| {
            let g = group_at(m, u);
            let acc = if real { &g.real } else { &g.theoretical };
            format!("{:.3}", acc.finalize().expect("completions").mean_s)
        };
        let theo: Vec<String> = [2usize, 3, 4].iter().map(|&m| mean(m, false)).collect();
        let real: Vec<String> = [2usize, 3, 4].iter().map(|&m| mean(m, true)).collect();
        println!(
            "{:>2.0}%  2P/3P/4P theoretical: {}   real: {}",
            u * 100.0,
            theo.join(" "),
            real.join(" ")
        );
    }

    if seeds > 1 {
        println!();
        println!("== Monte Carlo percentile curve: real susan response (s), {seeds} seeds ==");
        println!(
            "{:<6} {:>6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "arch", "util", "p25", "p50", "p75", "p90", "p95", "p99"
        );
        for g in &groups {
            let curve = g
                .real
                .percentiles(&mpdp_sweep::report::CURVE_QS)
                .expect("samples");
            print!(
                "{:<6} {:>5.0}%",
                format!("{}P", g.n_procs),
                g.utilization * 100.0
            );
            for v in curve {
                print!(" {v:>9.3}");
            }
            println!();
        }
    }

    // Per-point misses sanity line, as in the paper ("no periodic deadline
    // is ever missed in the tested configurations").
    let total_misses: usize = report.cells.iter().map(|c| c.real.periodic.misses()).sum();
    println!();
    println!(
        "total periodic deadline misses across {} cells: {total_misses}",
        report.cells.len()
    );

    if let Some(path) = csv_path {
        write_output(&path, &cells_csv(&report));
    }
    if let Some(path) = json_path {
        write_output(&path, &report_json(&report));
    }
    if let Some(path) = trace_out {
        let cells = spec.cells();
        let Some(cell) = cells.get(trace_cell) else {
            runtime_error(format_args!(
                "--trace-cell {trace_cell} is outside the {}-cell grid",
                cells.len()
            ));
        };
        let (_, obs) = match run_cell_probed(&spec, cell) {
            Ok(traced) => traced,
            Err(e) => runtime_error(format_args!("traced cell failed: {e}")),
        };
        let doc =
            chrome_trace_json_multi(&[(&obs.theoretical, "theoretical"), (&obs.real, "prototype")]);
        write_json_output(&path, "trace JSON", &doc);
        eprintln!("open {path} in https://ui.perfetto.dev");
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
