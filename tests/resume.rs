//! Contract of the sweep executor's plan: whatever a `SweepPlan` asks for
//! — a checkpoint journal, a cell cache, a cell range, a `max_cells`
//! budget — and however cells fail and retry, the cells that come back
//! export **byte-identical** CSV and JSON to a plain `run_sweep(spec, 1)`,
//! at 1 and at 8 workers.
//!
//! The kill is driven through the plan (`max_cells` stops the executor
//! after N fresh cells, exactly as a SIGKILL between two fsynced appends
//! would), so the tests exercise the same recovery path a real crash
//! takes: reopen the journal, validate the spec fingerprint, replay intact
//! records, truncate any torn tail, run only what is missing.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

use mpdp::core::time::Cycles;
use mpdp::sweep::{
    cells_csv, execute, execute_with, report_json, run_sweep, summary_csv, ArrivalSpec, CellCache,
    CellOutcome, CellSpec, Journal, Knobs, SweepError, SweepPlan, SweepReport, SweepRun, SweepSpec,
    WorkloadSpec,
};
use mpdp_telemetry::{FleetEventKind, FleetRecorder, NullFleetObserver};

/// The ≥100-cell regression grid from the determinism suite: 2-processor
/// automotive cells, one aperiodic burst, two knob settings, 26 seeds —
/// 104 cells.
fn grid() -> SweepSpec {
    SweepSpec {
        utilizations: vec![0.4, 0.5],
        proc_counts: vec![2],
        seeds: (0..26).collect(),
        knobs: vec![
            Knobs::default(),
            Knobs::named("fast-tick").with_tick(Cycles::from_millis(50)),
        ],
        workload: WorkloadSpec::Automotive,
        arrivals: ArrivalSpec::Bursts {
            activations: 1,
            gap: Cycles::from_secs(8),
        },
        master_seed: 0xD1CE,
    }
}

/// The same grid cut to 4 seeds: 16 cells, enough to interrupt twice.
fn grid16() -> SweepSpec {
    let mut spec = grid();
    spec.seeds = (0..4).collect();
    spec
}

/// The three exports of a report.
fn exports(report: &SweepReport) -> [String; 3] {
    [cells_csv(report), summary_csv(report), report_json(report)]
}

/// The exports of `run_sweep(grid16(), 1)`, computed once per test binary.
fn golden16() -> &'static [String; 3] {
    static GOLDEN: OnceLock<[String; 3]> = OnceLock::new();
    GOLDEN.get_or_init(|| exports(&run_sweep(&grid16(), 1).expect("golden run")))
}

/// A fresh per-test scratch path (removed first; the caller removes it
/// again when done).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mpdp-resume-tests");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir_all(&path);
    path
}

/// A plan with a journal and an optional cell budget.
fn journaled(path: &std::path::Path, max_cells: Option<usize>) -> SweepPlan<'static> {
    SweepPlan {
        journal: Some(path.to_path_buf()),
        max_cells,
        ..SweepPlan::default()
    }
}

/// Runs a plan with no observer.
fn run(spec: &SweepSpec, workers: usize, plan: &SweepPlan<'_>) -> Result<SweepRun, SweepError> {
    execute(spec, workers, plan, &NullFleetObserver)
}

#[test]
fn killed_and_resumed_sweep_exports_identical_bytes() {
    let spec = grid();
    assert_eq!(spec.cell_count(), 104, "the regression grid is 104 cells");
    let golden = run_sweep(&spec, 4).expect("uninterrupted golden run");

    for workers in [1usize, 8] {
        let journal = scratch(&format!("kill-resume-{workers}.mpdpj"));

        // Phase 1: killed after 40 cells. The executor reports the
        // interruption as a typed error, not a partial success.
        let err = run(&spec, workers, &journaled(&journal, Some(40)))
            .expect_err("a capped run must report interruption");
        match err {
            SweepError::Interrupted { completed, total } => {
                assert_eq!(completed, 40, "exactly the capped cells ran");
                assert_eq!(total, 104);
            }
            other => panic!("expected Interrupted, got {other}"),
        }

        // Phase 2: killed again mid-way through the remainder.
        let err = run(&spec, workers, &journaled(&journal, Some(30)))
            .expect_err("still incomplete after the second kill");
        assert!(matches!(
            err,
            SweepError::Interrupted {
                completed: 70,
                total: 104
            }
        ));

        // Phase 3: resume to completion. Exactly 70 cells come from the
        // journal; the rest run fresh.
        let healed =
            run(&spec, workers, &journaled(&journal, None)).expect("resumed run completes");
        assert_eq!(healed.resumed, 70, "resumed cells come from the journal");
        assert_eq!(
            healed
                .outcomes
                .iter()
                .filter(|o| matches!(o, CellOutcome::Resumed))
                .count(),
            70
        );

        // The contract: byte-identical exports to the uninterrupted run.
        assert_eq!(healed.report.cells.len(), golden.cells.len());
        for (a, b) in golden.cells.iter().zip(&healed.report.cells) {
            assert_eq!(a, b, "cell {} diverged after resume", a.cell.index);
        }
        assert_eq!(exports(&golden), exports(&healed.report));

        let _ = std::fs::remove_file(&journal);
    }
}

#[test]
fn journal_survives_a_torn_tail_and_still_resumes_identically() {
    let spec = grid16();
    let journal = scratch("torn-tail.mpdpj");
    run(&spec, 2, &journaled(&journal, Some(9))).expect_err("interrupted");

    // Simulate a crash mid-append: chop bytes off the last record. The
    // reopened journal must truncate the torn record and keep the intact
    // prefix.
    let bytes = std::fs::read(&journal).expect("journal exists");
    std::fs::write(&journal, &bytes[..bytes.len() - 7]).expect("tear the tail");
    let reopened = Journal::open(&journal, &spec).expect("recovery tolerates the torn tail");
    assert_eq!(
        reopened.recovered().len(),
        8,
        "one record lost to the tear, the intact prefix survives"
    );
    drop(reopened);

    let healed = run(&spec, 2, &journaled(&journal, None)).expect("resume after tear");
    assert_eq!(healed.resumed, 8);
    assert_eq!(golden16(), &exports(&healed.report));

    let _ = std::fs::remove_file(&journal);
}

/// Profiles follow one rule on every path: an executed cell carries its
/// simulated horizon and completion count — the same figures `run_sweep`
/// reports for it — while a cell resumed from the journal simulated
/// nothing this run and carries zeros.
#[test]
fn journaled_runs_profile_executed_cells_like_run_sweep() {
    let spec = grid16();
    let plain = run_sweep(&spec, 1).expect("plain run");
    for workers in [1usize, 8] {
        let journal = scratch(&format!("profiles-{workers}.mpdpj"));
        run(&spec, workers, &journaled(&journal, Some(6))).expect_err("interrupted");
        let resumed = run(&spec, workers, &journaled(&journal, None)).expect("resumes");
        assert_eq!(golden16(), &exports(&resumed.report));
        for ((p, q), outcome) in plain
            .profiles
            .iter()
            .zip(&resumed.report.profiles)
            .zip(&resumed.outcomes)
        {
            assert_eq!(p.index, q.index);
            if *outcome == CellOutcome::Resumed {
                assert_eq!((q.sim_cycles, q.completions), (0, 0), "cell {}", q.index);
            } else {
                assert!(p.sim_cycles > 0 && p.completions > 0, "cell {}", p.index);
                assert_eq!(
                    (q.sim_cycles, q.completions),
                    (p.sim_cycles, p.completions),
                    "cell {}",
                    q.index
                );
            }
        }
        let _ = std::fs::remove_file(&journal);
    }
}

#[test]
fn cache_cold_then_warm_exports_identical_bytes() {
    let spec = grid16();
    for workers in [1usize, 8] {
        let dir = scratch(&format!("cache-{workers}"));
        let cache = CellCache::open(&dir).expect("cache opens");
        let plan = SweepPlan {
            cache: Some(&cache),
            ..SweepPlan::default()
        };

        let cold = run(&spec, workers, &plan).expect("cold run");
        assert_eq!(golden16(), &exports(&cold.report));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 16));

        let warm = run(&spec, workers, &plan).expect("warm run");
        assert_eq!(
            golden16(),
            &exports(&warm.report),
            "hits rebuild identical cells"
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (16, 16), "warm run is all hits");
        assert_eq!(warm.resumed, 0, "cache hits are not journal resumes");
        assert!(warm.outcomes.iter().all(|o| *o == CellOutcome::Ok));
        assert!(
            warm.report
                .profiles
                .iter()
                .all(|p| (p.sim_cycles, p.completions) == (0, 0)),
            "a hit simulates nothing"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn journal_and_cache_together_resume_identically() {
    let spec = grid16();
    for workers in [1usize, 8] {
        let dir = scratch(&format!("journal-cache-{workers}"));
        let journal = scratch(&format!("journal-cache-{workers}.mpdpj"));
        let fresh = scratch(&format!("journal-cache-fresh-{workers}.mpdpj"));
        let cache = CellCache::open(&dir).expect("cache opens");
        let plan = |path: &std::path::Path, max_cells| SweepPlan {
            journal: Some(path.to_path_buf()),
            cache: Some(&cache),
            max_cells,
            ..SweepPlan::default()
        };

        // Killed after 6 cells: each was executed, cached and journaled.
        run(&spec, workers, &plan(&journal, Some(6))).expect_err("interrupted");
        assert_eq!(cache.stats().misses, 6);

        // The resume takes those 6 from the journal without consulting
        // the cache, and executes (and caches) the other 10.
        let resumed = run(&spec, workers, &plan(&journal, None)).expect("resumes");
        assert_eq!(resumed.resumed, 6);
        assert_eq!(golden16(), &exports(&resumed.report));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 16));

        // A fresh journal over the warm cache: every cell is a hit, and
        // every hit is journaled exactly like an execution.
        let warm = run(&spec, workers, &plan(&fresh, None)).expect("warm run");
        assert_eq!(warm.resumed, 0);
        assert_eq!(golden16(), &exports(&warm.report));
        assert_eq!(cache.stats().hits, 16);
        let reopened = Journal::open(&fresh, &spec).expect("reopens");
        assert_eq!(reopened.recovered().len(), 16);

        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&fresh);
    }
}

#[test]
fn a_cell_that_panics_once_is_retried_with_identical_exports() {
    let spec = grid16();
    for workers in [1usize, 8] {
        // Cell 5 panics on its first attempt only.
        let tries = AtomicU32::new(0);
        let inject = |cell: &CellSpec| {
            if cell.index == 5 && tries.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("injected test panic");
            }
        };
        let healed = execute_with(
            &spec,
            workers,
            &SweepPlan::default(),
            &NullFleetObserver,
            inject,
        )
        .expect("heals");
        assert_eq!(golden16(), &exports(&healed.report));
        assert_eq!(healed.outcomes[5], CellOutcome::Retried { attempts: 1 });
        for (i, outcome) in healed.outcomes.iter().enumerate() {
            if i != 5 {
                assert_eq!(*outcome, CellOutcome::Ok, "cell {i}");
            }
        }
    }
}

#[test]
fn a_cell_that_always_panics_reports_the_lowest_such_cell() {
    let spec = grid16();
    for workers in [1usize, 8] {
        let err = execute_with(
            &spec,
            workers,
            &SweepPlan::default(),
            &NullFleetObserver,
            |cell: &CellSpec| {
                if cell.index == 3 || cell.index == 11 {
                    panic!("always broken");
                }
            },
        )
        .expect_err("must fail");
        assert_eq!(
            err,
            SweepError::CellPanicked {
                cell: 3,
                message: "always broken".to_string(),
            },
            "workers={workers}"
        );
    }
}

#[test]
fn a_range_runs_one_shard_and_reports_progress() {
    let spec = grid16();
    let golden = run_sweep(&spec, 1).expect("golden run");
    for workers in [1usize, 8] {
        let journal = scratch(&format!("range-{workers}.mpdpj"));
        let plan = SweepPlan {
            range: Some(4..9),
            journal: Some(journal.clone()),
            ..SweepPlan::default()
        };
        let recorder = FleetRecorder::new();
        let shard = execute(&spec, workers, &plan, &recorder).expect("shard completes");
        assert_eq!(shard.report.cells, golden.cells[4..9]);
        let mut progressed: Vec<usize> = recorder
            .into_events()
            .into_iter()
            .filter_map(|e| match e.kind {
                FleetEventKind::CellDone { cell, .. } => Some(cell),
                _ => None,
            })
            .collect();
        progressed.sort_unstable();
        assert_eq!(progressed, (4..9).collect::<Vec<_>>(), "one beat per cell");

        // Re-running the same shard resumes everything from its journal.
        let rerun = run(&spec, workers, &plan).expect("resumes");
        assert_eq!(rerun.resumed, 5);
        assert_eq!(rerun.report.cells, golden.cells[4..9]);
        let _ = std::fs::remove_file(&journal);
    }
}

#[test]
fn an_out_of_grid_range_is_a_typed_error() {
    let spec = grid16();
    for workers in [1usize, 8] {
        for (start, end) in [(10, 17), (5, 3)] {
            let plan = SweepPlan {
                range: Some(start..end),
                ..SweepPlan::default()
            };
            assert_eq!(
                run(&spec, workers, &plan).expect_err("range does not fit"),
                SweepError::ShardRange {
                    start,
                    end,
                    total: 16
                }
            );
        }
    }
}
