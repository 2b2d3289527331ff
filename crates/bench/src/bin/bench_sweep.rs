//! Perf trajectory for the sweep pipeline: times a single Figure-4 cell
//! and the 104-cell benchmark grid (1 and 8 workers), writes the repo's
//! `BENCH_sweep.json`, and optionally gates against a committed baseline.
//!
//! Run with `cargo run --release -p mpdp-bench --bin bench_sweep --
//! [--out BENCH_sweep.json] [--repeats N] [--quick] [--cache-dir D]
//! [--gate baseline.json] [--threshold PCT]`.
//!
//! Each measurement is the **minimum** wall-clock over `--repeats` runs
//! (minimum, not mean: noise on a shared machine only ever adds time, so
//! the minimum is the most reproducible estimator of the true cost).
//! `--gate` re-reads a previously written report and fails (exit 1) if any
//! benchmark regressed by more than `--threshold` percent (default 15),
//! which is what the CI perf smoke job runs against the committed baseline.

use std::time::Instant;

use mpdp_bench::cli::{
    check_known_flags, flag_value, has_flag, parse_flag, runtime_error, shard_worker, usage_error,
    write_json_output,
};
use mpdp_bench::experiment::{bench104_spec, fig4_spec, ExperimentConfig};
use mpdp_bench::load_baseline;
use mpdp_shard::{self_launcher, supervise, SuperviseConfig};
use mpdp_sweep::{
    cells_csv, execute, run_sweep, CellCache, SweepError, SweepPlan, SweepReport, SweepSpec,
};
use mpdp_telemetry::NullFleetObserver;

/// One measured benchmark point.
struct Bench {
    name: String,
    cells: usize,
    workers: usize,
    wall_ms: f64,
}

impl Bench {
    fn cells_per_s(&self) -> f64 {
        self.cells as f64 / (self.wall_ms / 1000.0)
    }
}

/// Minimum wall-clock over `repeats` full sweeps of `spec`.
fn time_sweep(spec: &SweepSpec, workers: usize, repeats: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let start = Instant::now();
        let report = match run_sweep(spec, workers) {
            Ok(report) => report,
            Err(e) => runtime_error(format_args!("sweep failed: {e}")),
        };
        let ms = start.elapsed().as_secs_f64() * 1000.0;
        assert_eq!(report.cells.len(), spec.cell_count());
        best = best.min(ms);
    }
    best
}

fn report_json(benches: &[Bench]) -> String {
    let mut out = String::from("{\n  \"schema\": \"mpdp-bench-sweep/1\",\n  \"benches\": [\n");
    for (i, b) in benches.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"cells\": {}, \"workers\": {}, \"wall_ms\": {:.3}, \"cells_per_s\": {:.1}}}{}\n",
            b.name,
            b.cells,
            b.workers,
            b.wall_ms,
            b.cells_per_s(),
            if i + 1 < benches.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// One single-worker sweep of `spec` answering cells from `cache`.
fn cached_sweep(spec: &SweepSpec, cache: &CellCache) -> Result<SweepReport, SweepError> {
    let plan = SweepPlan {
        cache: Some(cache),
        ..SweepPlan::default()
    };
    execute(spec, 1, &plan, &NullFleetObserver).map(|run| run.report)
}

/// Minimum wall-clock over `repeats` single-worker sweeps of `spec`
/// through a cell cache rooted at `dir`. Cold repeats start from an
/// emptied directory (every cell misses, is executed, and is appended);
/// warm repeats reopen a directory primed by one full run beforehand
/// (every cell hits). Opening the cache — segment load included — is
/// inside the timed region, because a real warm rerun pays it too.
fn time_cached(spec: &SweepSpec, dir: &std::path::Path, repeats: usize, warm: bool) -> f64 {
    if warm {
        let _ = std::fs::remove_dir_all(dir);
        let cache = match CellCache::open(dir) {
            Ok(cache) => cache,
            Err(e) => runtime_error(format_args!("cannot open cache dir: {e}")),
        };
        if let Err(e) = cached_sweep(spec, &cache) {
            runtime_error(format_args!("cache priming sweep failed: {e}"));
        }
    }
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        if !warm {
            let _ = std::fs::remove_dir_all(dir);
        }
        let start = Instant::now();
        let cache = match CellCache::open(dir) {
            Ok(cache) => cache,
            Err(e) => runtime_error(format_args!("cannot open cache dir: {e}")),
        };
        let report = match cached_sweep(spec, &cache) {
            Ok(report) => report,
            Err(e) => runtime_error(format_args!("cached sweep failed: {e}")),
        };
        let ms = start.elapsed().as_secs_f64() * 1000.0;
        assert_eq!(report.cells.len(), spec.cell_count());
        let stats = cache.stats();
        if warm {
            assert_eq!(stats.hits as usize, spec.cell_count(), "warm run must hit");
        } else {
            assert_eq!(
                stats.misses as usize,
                spec.cell_count(),
                "cold run must miss"
            );
        }
        best = best.min(ms);
    }
    let _ = std::fs::remove_dir_all(dir);
    best
}

/// Minimum wall-clock over `repeats` supervised multi-process sharded
/// sweeps of `spec`, each from a fresh journal directory (a reused
/// directory would resume instead of re-running and report a fantasy
/// time). Every repeat's merged CSV is checked byte-identical to the
/// in-process `golden_csv` — a sharded bench that returned different
/// bytes would be measuring a different computation.
fn time_sharded(spec: &SweepSpec, shards: usize, repeats: usize, golden_csv: &str) -> f64 {
    let dir = std::env::temp_dir().join(format!("mpdp-bench-shards-{}", std::process::id()));
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let _ = std::fs::remove_dir_all(&dir);
        let launch = match self_launcher(Vec::new(), 1, std::time::Duration::ZERO) {
            Ok(launch) => launch,
            Err(e) => runtime_error(format_args!("cannot resolve own executable: {e}")),
        };
        let cfg = SuperviseConfig::default()
            .with_shards(shards)
            .with_dir(dir.clone());
        let start = Instant::now();
        // The null observer (not a no-op transcript sink) is the honest
        // baseline: with `ENABLED = false` every clock read and line
        // allocation in the supervisor compiles out.
        let sup = match supervise(spec, &cfg, launch, &NullFleetObserver) {
            Ok(sup) => sup,
            Err(e) => runtime_error(format_args!("sharded sweep failed: {e}")),
        };
        let ms = start.elapsed().as_secs_f64() * 1000.0;
        if cells_csv(&sup.report) != golden_csv {
            runtime_error(format_args!(
                "sharded run produced different bytes than the in-process run"
            ));
        }
        best = best.min(ms);
    }
    let _ = std::fs::remove_dir_all(&dir);
    best
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == mpdp_shard::WORKER_FLAG) {
        // Hidden shard-worker mode for `--shards`: the 104-cell grid is
        // the only spec the sharded bench measures.
        shard_worker(&args, &bench104_spec());
    }
    check_known_flags(
        &args,
        &[
            "--out",
            "--repeats",
            "--quick",
            "--gate",
            "--threshold",
            "--shards",
            "--cache-dir",
        ],
        &[
            "--out",
            "--repeats",
            "--gate",
            "--threshold",
            "--shards",
            "--cache-dir",
        ],
    );
    let out_path = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_sweep.json".to_string());
    let quick = has_flag(&args, "--quick");
    let repeats: usize =
        parse_flag(&args, "--repeats", "a repeat count").unwrap_or(if quick { 1 } else { 3 });
    let gate = flag_value(&args, "--gate");
    let threshold: f64 = parse_flag(&args, "--threshold", "a percentage").unwrap_or(15.0);
    let shards: Option<usize> = parse_flag(&args, "--shards", "a shard count");
    if repeats == 0 {
        runtime_error("--repeats must be at least 1");
    }

    let single = {
        let mut spec = fig4_spec(&ExperimentConfig::new());
        spec.utilizations = vec![0.4];
        spec.proc_counts = vec![2];
        spec
    };
    let grid = bench104_spec();

    eprintln!(
        "bench_sweep: single cell + {}-cell grid, {repeats} repeat(s) ...",
        grid.cell_count()
    );
    let mut benches = vec![
        Bench {
            name: "fig4_single_cell".to_string(),
            cells: 1,
            workers: 1,
            // The single cell runs in ~1.5 ms, so its minimum is much
            // noisier than the grid's; 10× the repeats stabilize it for
            // well under one grid repeat of extra wall-clock.
            wall_ms: time_sweep(&single, 1, (repeats * 10).max(20)),
        },
        Bench {
            name: "grid104_workers1".to_string(),
            cells: grid.cell_count(),
            workers: 1,
            wall_ms: time_sweep(&grid, 1, repeats),
        },
        Bench {
            name: "grid104_workers8".to_string(),
            cells: grid.cell_count(),
            workers: 8,
            wall_ms: time_sweep(&grid, 8, repeats),
        },
    ];
    {
        // Cache points: cold quantifies the journaling overhead of filling
        // the cache, warm the speedup of answering every cell from it.
        let cache_dir = flag_value(&args, "--cache-dir")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| {
                std::env::temp_dir().join(format!("mpdp-bench-cache-{}", std::process::id()))
            });
        benches.push(Bench {
            name: "grid104_cache_cold".to_string(),
            cells: grid.cell_count(),
            workers: 1,
            wall_ms: time_cached(&grid, &cache_dir, repeats, false),
        });
        benches.push(Bench {
            name: "grid104_cache_warm".to_string(),
            cells: grid.cell_count(),
            workers: 1,
            // A warm pass finishes in ~1 ms, so like `fig4_single_cell`
            // its minimum needs 10× the repeats to stabilize — and warm
            // repeats are nearly free.
            wall_ms: time_cached(&grid, &cache_dir, (repeats * 10).max(20), true),
        });
    }
    if let Some(n_shards) = shards {
        // Multi-process point: the supervised fleet pays process spawn +
        // journal fsync per cell, so this quantifies the sharding overhead
        // against the in-process workers above.
        let golden = match run_sweep(&grid, 1) {
            Ok(report) => cells_csv(&report),
            Err(e) => runtime_error(format_args!("golden sweep failed: {e}")),
        };
        benches.push(Bench {
            name: format!("grid104_shards{n_shards}"),
            cells: grid.cell_count(),
            workers: n_shards,
            wall_ms: time_sharded(&grid, n_shards, repeats, &golden),
        });
    }
    for b in &benches {
        eprintln!(
            "  {:<20} {:>10.1} ms  ({:.1} cells/s, {} worker(s))",
            b.name,
            b.wall_ms,
            b.cells_per_s(),
            b.workers
        );
    }

    let doc = report_json(&benches);
    write_json_output(&out_path, "bench report JSON", &doc);

    if let Some(baseline_path) = gate {
        // A missing, truncated, or schema-drifted baseline is a typed
        // usage error (exit 2): the user named a file that is not a
        // usable baseline, which is different from a real regression
        // (exit 1).
        let baseline = match load_baseline(&baseline_path) {
            Ok(baseline) => baseline,
            Err(e) => usage_error(e),
        };
        let mut failed = false;
        for (name, base_ms) in &baseline {
            let Some(now) = benches.iter().find(|b| b.name == *name) else {
                eprintln!("gate: `{name}` missing from this run (renamed?)");
                failed = true;
                continue;
            };
            let delta_pct = 100.0 * (now.wall_ms / base_ms - 1.0);
            let verdict = if delta_pct > threshold { "FAIL" } else { "ok" };
            eprintln!(
                "gate: {name:<20} {base_ms:>9.1} ms -> {:>9.1} ms  ({delta_pct:>+6.1}%)  {verdict}",
                now.wall_ms
            );
            if delta_pct > threshold {
                failed = true;
            }
        }
        if failed {
            runtime_error(format_args!(
                "perf gate: regression beyond {threshold}% against {baseline_path}"
            ));
        }
        eprintln!("perf gate clean (threshold {threshold}%)");
    }
}
