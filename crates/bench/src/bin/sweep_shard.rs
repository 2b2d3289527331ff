//! Crash-tolerant multi-process sharded sweeps from the command line:
//! `supervise` a fleet of worker processes over a named sweep grid,
//! `merge` their journals byte-exactly, or (internally) run as one
//! `worker` of the fleet.
//!
//! Run with `cargo run --release -p mpdp-bench --bin sweep_shard --
//! supervise --spec fig4|bench104 [--seeds K] [--shards N] [--dir D]
//! [--retries R] [--stall-ms MS] [--throttle-ms MS] [--threads T]
//! [--chaos-kills K --chaos-seed S [--chaos-tear]] [--cache-dir D]
//! [--verify]
//! [--csv out.csv] [--json out.json] [--telemetry-out m.json]
//! [--telemetry-prom m.prom] [--telemetry-csv m.csv]
//! [--fleet-trace trace.json]`.
//!
//! The supervisor splits the grid into disjoint contiguous shards,
//! re-executes this binary once per shard with hidden worker flags (the
//! spec is rebuilt from `--spec`/`--seeds`, never serialized), watches
//! each shard journal's growth, SIGKILLs stalled workers, retries crashes
//! with deterministic capped exponential backoff, and merges the shard
//! journals into a report whose stdout/CSV/JSON bytes are identical to a
//! single-process `run_sweep` — which `--verify` checks on the spot.
//! `--chaos-kills` turns the run into its own adversary (seeded SIGKILLs
//! mid-run, `--chaos-tear` additionally truncates the first victim's
//! journal mid-record); the recovery transcript goes to stderr.
//!
//! Telemetry rides along for free: every supervise run also folds the
//! typed fleet event stream into a metrics snapshot (merged with the
//! per-worker `.metrics` sidecar files the workers persist next to their
//! journals), exportable as schema-validated JSON (`--telemetry-out`),
//! Prometheus text (`--telemetry-prom`), or flat CSV (`--telemetry-csv`).
//! `--fleet-trace` additionally records the full event stream and writes
//! a Chrome-trace fleet timeline (one track per shard, a span per launch
//! attempt, instants for kills/tears/stalls) loadable at
//! <https://ui.perfetto.dev>.
//!
//! `merge --spec S [--seeds K] (--dir D | --journal P ...)` recombines
//! existing shard journals without running anything, rejecting
//! wrong-spec, overlapping, duplicated, or incomplete inputs with a typed
//! diagnostic.

use std::path::PathBuf;
use std::time::Duration;

use mpdp_bench::cli::{
    check_known_flags, flag_value, has_flag, parse_flag, runtime_error, shard_worker, usage_error,
    write_metrics_json, write_output,
};
use mpdp_bench::experiment::{
    bench104_edited_spec, bench104_spec, fig4_seeded_spec, ExperimentConfig,
};
use mpdp_shard::{fleet_snapshot, self_launcher, supervise, ChaosPlan, SuperviseConfig};
use mpdp_sweep::{
    cells_csv, merge_journal_files, report_json, run_sweep, spec_fingerprint, summary_csv,
    SweepSpec,
};
use mpdp_telemetry::{
    fleet_trace_json, metrics_csv, prometheus_text, FleetRecorder, MetricsRegistry,
    TranscriptObserver,
};

/// Builds the named sweep grid. `--spec`/`--seeds` are the entire spec
/// surface, so supervisor, workers, and merge agree on the fingerprint by
/// construction.
fn spec_for(name: &str, seeds: usize) -> SweepSpec {
    match name {
        "fig4" => fig4_seeded_spec(&ExperimentConfig::new(), seeds),
        "bench104" => bench104_spec(),
        "bench104-edited" => bench104_edited_spec(),
        other => usage_error(format_args!(
            "unknown --spec `{other}` (known: fig4, bench104, bench104-edited)"
        )),
    }
}

fn spec_flags(args: &[String]) -> (String, usize) {
    let name = flag_value(args, "--spec").unwrap_or_else(|| "fig4".to_string());
    let seeds: usize = parse_flag(args, "--seeds", "a seed count").unwrap_or(1);
    (name, seeds)
}

/// Hidden worker mode: launched only by `supervise` via self re-exec.
/// Runs its assigned range, journals every cell, exits.
fn worker_main(args: &[String]) -> ! {
    let (name, seeds) = spec_flags(args);
    shard_worker(args, &spec_for(&name, seeds))
}

fn default_dir(spec: &SweepSpec) -> PathBuf {
    // Keyed on the full-spec fingerprint: journals from a different spec
    // can never collide with (and poison) this run's directory.
    std::env::temp_dir().join(format!("mpdp-sweep-shard-{:016x}", spec_fingerprint(spec)))
}

fn supervise_main(args: &[String]) -> ! {
    check_known_flags(
        &args[1..],
        &[
            "--spec",
            "--seeds",
            "--shards",
            "--dir",
            "--retries",
            "--stall-ms",
            "--throttle-ms",
            "--threads",
            "--chaos-kills",
            "--chaos-seed",
            "--chaos-tear",
            "--cache-dir",
            "--verify",
            "--csv",
            "--json",
            "--telemetry-out",
            "--telemetry-prom",
            "--telemetry-csv",
            "--fleet-trace",
        ],
        &[
            "--spec",
            "--seeds",
            "--shards",
            "--dir",
            "--retries",
            "--stall-ms",
            "--throttle-ms",
            "--threads",
            "--chaos-kills",
            "--chaos-seed",
            "--cache-dir",
            "--csv",
            "--json",
            "--telemetry-out",
            "--telemetry-prom",
            "--telemetry-csv",
            "--fleet-trace",
        ],
    );
    let (name, seeds) = spec_flags(args);
    let spec = spec_for(&name, seeds);
    let shards: usize = parse_flag(args, "--shards", "a shard count").unwrap_or(2);
    let dir = flag_value(args, "--dir")
        .map(PathBuf::from)
        .unwrap_or_else(|| default_dir(&spec));
    let retries: u32 = parse_flag(args, "--retries", "a retry count").unwrap_or(2);
    let throttle =
        Duration::from_millis(parse_flag(args, "--throttle-ms", "milliseconds").unwrap_or(0));
    let threads: usize = parse_flag(args, "--threads", "a thread count").unwrap_or(1);
    let mut cfg = SuperviseConfig::default()
        .with_shards(shards)
        .with_dir(dir.clone())
        .with_retries(retries);
    if let Some(ms) = parse_flag::<u64>(args, "--stall-ms", "milliseconds") {
        if ms == 0 {
            usage_error("--stall-ms must be positive (0 would kill every worker instantly)");
        }
        cfg = cfg.with_stall_timeout(Duration::from_millis(ms));
    }
    let chaos_kills: u32 = parse_flag(args, "--chaos-kills", "a kill count").unwrap_or(0);
    if chaos_kills > 0 {
        let seed: u64 = parse_flag(args, "--chaos-seed", "a seed").unwrap_or(0xC4A05);
        let mut chaos = ChaosPlan::new(chaos_kills, seed);
        if has_flag(args, "--chaos-tear") {
            chaos = chaos.with_tear();
        }
        cfg = cfg.with_chaos(chaos);
    } else if has_flag(args, "--chaos-seed") || has_flag(args, "--chaos-tear") {
        usage_error("--chaos-seed/--chaos-tear require --chaos-kills");
    }

    // The worker rebuilds the spec from these flags; everything else
    // (shards, chaos, outputs) is supervisor-side only.
    let mut passthrough = vec!["worker".to_string(), "--spec".to_string(), name.clone()];
    if seeds > 1 {
        passthrough.push("--seeds".to_string());
        passthrough.push(seeds.to_string());
    }
    // Workers share one cache directory, so a warm fleet answers already
    // computed cells without re-simulating them.
    if let Some(cache_dir) = flag_value(args, "--cache-dir") {
        passthrough.push("--cache-dir".to_string());
        passthrough.push(cache_dir);
    }
    let launch = match self_launcher(passthrough, threads, throttle) {
        Ok(launch) => launch,
        Err(e) => runtime_error(format_args!("cannot resolve own executable: {e}")),
    };

    eprintln!(
        "sweep_shard: supervising `{name}` ({} cells) over {shards} shard(s) in {} ...",
        spec.cell_count(),
        dir.display()
    );
    // The transcript observer reproduces the historical stderr lines
    // byte-for-byte; the registry and recorder ride the same event
    // stream, so the run pays for one emission however many sinks listen.
    let transcript = TranscriptObserver::new(|line: &str| eprintln!("  {line}"));
    let registry = MetricsRegistry::new();
    let recorder = FleetRecorder::new();
    let sup = match supervise(&spec, &cfg, launch, &(&transcript, &registry, &recorder)) {
        Ok(sup) => sup,
        Err(e) => runtime_error(format_args!("supervised run failed: {e}")),
    };

    // Fold in the cell-level counters each worker process persisted next
    // to its journal.
    let fleet = fleet_snapshot(&registry, &sup.shards);

    let launches: u32 = sup.shards.iter().map(|s| s.launches).sum();
    eprintln!(
        "supervised run complete: {} cells, {} shard(s), {launches} launch(es), \
         {} chaos kill(s), {} torn journal(s), {} relaunch(es), {} retry(ies), \
         {} stall kill(s)",
        sup.report.cells.len(),
        sup.shards.len(),
        sup.chaos_kills,
        sup.torn,
        fleet.relaunches,
        fleet.retries,
        fleet.stall_kills
    );

    if let Some(path) = flag_value(args, "--telemetry-out") {
        write_metrics_json(&path, &fleet);
    }
    if let Some(path) = flag_value(args, "--telemetry-prom") {
        write_output(&path, &prometheus_text(&fleet));
    }
    if let Some(path) = flag_value(args, "--telemetry-csv") {
        write_output(&path, &metrics_csv(&fleet));
    }
    if let Some(path) = flag_value(args, "--fleet-trace") {
        write_output(
            &path,
            &fleet_trace_json(&recorder.events(), sup.shards.len()),
        );
    }

    if has_flag(args, "--verify") {
        let golden = match run_sweep(&spec, 1) {
            Ok(report) => report,
            Err(e) => runtime_error(format_args!("verification run failed: {e}")),
        };
        if cells_csv(&golden) != cells_csv(&sup.report)
            || report_json(&golden) != report_json(&sup.report)
        {
            runtime_error(format_args!(
                "merged exports differ from the single-process run — determinism bug"
            ));
        }
        eprintln!("verify: merged exports byte-identical to a single-process run");
    }

    print!("{}", summary_csv(&sup.report));
    if let Some(path) = flag_value(args, "--csv") {
        write_output(&path, &cells_csv(&sup.report));
    }
    if let Some(path) = flag_value(args, "--json") {
        write_output(&path, &report_json(&sup.report));
    }
    std::process::exit(0);
}

fn merge_main(args: &[String]) -> ! {
    check_known_flags(
        &args[1..],
        &["--spec", "--seeds", "--dir", "--journal", "--csv", "--json"],
        &["--spec", "--seeds", "--dir", "--journal", "--csv", "--json"],
    );
    let (name, seeds) = spec_flags(args);
    let spec = spec_for(&name, seeds);
    let mut journals: Vec<PathBuf> = args
        .windows(2)
        .filter(|w| w[0] == "--journal")
        .map(|w| PathBuf::from(&w[1]))
        .collect();
    if let Some(dir) = flag_value(args, "--dir") {
        let entries = match std::fs::read_dir(&dir) {
            Ok(entries) => entries,
            Err(e) => runtime_error(format_args!("cannot read {dir}: {e}")),
        };
        let mut found: Vec<PathBuf> = entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| {
                p.extension().is_some_and(|x| x == "mpdpj")
                    && p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("shard-"))
            })
            .collect();
        found.sort();
        journals.extend(found);
    }
    if journals.is_empty() {
        usage_error("merge needs shard journals: --journal P ... and/or --dir D");
    }
    let report = match merge_journal_files(&spec, &journals) {
        Ok(report) => report,
        Err(e) => runtime_error(format_args!("merge rejected: {e}")),
    };
    eprintln!(
        "merged {} journal(s) into {} cells",
        journals.len(),
        report.cells.len()
    );
    print!("{}", summary_csv(&report));
    if let Some(path) = flag_value(args, "--csv") {
        write_output(&path, &cells_csv(&report));
    }
    if let Some(path) = flag_value(args, "--json") {
        write_output(&path, &report_json(&report));
    }
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("worker") => worker_main(&args),
        Some("supervise") => supervise_main(&args),
        Some("merge") => merge_main(&args),
        Some(other) => usage_error(format_args!(
            "unknown subcommand `{other}` (known: supervise, merge, worker)"
        )),
        None => usage_error("usage: sweep_shard <supervise|merge> [flags] (see --help in docs)"),
    }
}
