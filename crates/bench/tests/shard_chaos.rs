//! End-to-end chaos gate for the supervised multi-process sharded sweep
//! (the PR-acceptance criterion): with at least two workers SIGKILLed at
//! seeded mid-run points and one shard journal additionally truncated
//! mid-record, the `sweep_shard supervise` fleet must still complete via
//! retries and journal recovery, and its merged CSV and JSON must be
//! byte-identical to a single-process `run_sweep` of the same spec — at
//! 1, 2, and 8 shards.
//!
//! The workers are real OS processes (the binary re-executes itself), the
//! kills are real `SIGKILL`s delivered by the supervisor's chaos plan at
//! journal-progress thresholds, and `--throttle-ms` paces the workers so
//! every scheduled kill provably lands mid-run.

use std::path::PathBuf;
use std::process::Command;

use mpdp_bench::experiment::bench104_spec;
use mpdp_sweep::{cells_csv, report_json, run_sweep};

struct ChaosRun {
    transcript: String,
    csv: String,
    json: String,
}

/// Runs `sweep_shard supervise` over the 104-cell grid with the chaos
/// plan armed, asserting the run succeeds, and returns its transcript and
/// merged exports.
fn chaos_run(shards: usize, kills: u32, seed: u64) -> ChaosRun {
    let dir =
        std::env::temp_dir().join(format!("mpdp-chaos-test-{}-s{shards}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let csv_path: PathBuf = dir.join("merged.csv");
    let json_path: PathBuf = dir.join("merged.json");

    let output = Command::new(env!("CARGO_BIN_EXE_sweep_shard"))
        .args([
            "supervise",
            "--spec",
            "bench104",
            "--shards",
            &shards.to_string(),
            "--chaos-kills",
            &kills.to_string(),
            "--chaos-seed",
            &seed.to_string(),
            "--chaos-tear",
            "--throttle-ms",
            "10",
            "--retries",
            "4",
        ])
        .arg("--dir")
        .arg(&dir)
        .arg("--csv")
        .arg(&csv_path)
        .arg("--json")
        .arg(&json_path)
        .output()
        .expect("spawn sweep_shard");

    let transcript = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(
        output.status.success(),
        "chaos run at {shards} shard(s) failed (exit {:?}):\n{transcript}",
        output.status.code()
    );
    let csv = std::fs::read_to_string(&csv_path).expect("merged CSV written");
    let json = std::fs::read_to_string(&json_path).expect("merged JSON written");
    let _ = std::fs::remove_dir_all(&dir);
    ChaosRun {
        transcript,
        csv,
        json,
    }
}

/// The committed golden (`tests/golden/bench104_cells.csv`) that the CI
/// chaos smoke compares merged bytes against is exactly the
/// single-process export of the 104-cell grid. Bless an intentional
/// format change with `GOLDEN_UPDATE=1 cargo test -q -p mpdp-bench`.
#[test]
fn committed_golden_matches_the_single_process_run() {
    let report = run_sweep(&bench104_spec(), 1).expect("single-process run");
    let rendered = cells_csv(&report);
    let golden_path = format!(
        "{}/../../tests/golden/bench104_cells.csv",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        std::fs::write(&golden_path, &rendered).expect("update golden snapshot");
    }
    let golden = std::fs::read_to_string(&golden_path).expect("checked-in golden snapshot");
    assert_eq!(
        rendered, golden,
        "bench104 cells CSV drifted from tests/golden/bench104_cells.csv \
         (bless intentional changes with GOLDEN_UPDATE=1)"
    );
}

/// A stall interval shorter than the per-cell work (25 ms against 10 ms
/// throttle plus real sweep work) makes spurious stall kills likely, and
/// every stall kill burns retry budget — so with a generous
/// `--retries` the fleet must still converge to the byte-identical
/// single-process output, however many times workers get killed and
/// relaunched along the way.
#[test]
fn a_tiny_stall_interval_still_converges_byte_identically() {
    let golden = run_sweep(&bench104_spec(), 1).expect("single-process golden run");
    let dir = std::env::temp_dir().join(format!("mpdp-stall-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let csv_path: PathBuf = dir.join("merged.csv");
    let json_path: PathBuf = dir.join("merged.json");

    let output = Command::new(env!("CARGO_BIN_EXE_sweep_shard"))
        .args([
            "supervise",
            "--spec",
            "bench104",
            "--shards",
            "2",
            "--throttle-ms",
            "10",
            "--stall-ms",
            "25",
            "--retries",
            "10",
        ])
        .arg("--dir")
        .arg(&dir)
        .arg("--csv")
        .arg(&csv_path)
        .arg("--json")
        .arg(&json_path)
        .output()
        .expect("spawn sweep_shard");
    let transcript = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(
        output.status.success(),
        "tiny-stall run failed (exit {:?}):\n{transcript}",
        output.status.code()
    );

    let csv = std::fs::read_to_string(&csv_path).expect("merged CSV written");
    let json = std::fs::read_to_string(&json_path).expect("merged JSON written");
    assert_eq!(csv, cells_csv(&golden), "tiny-stall CSV diverged");
    assert_eq!(json, report_json(&golden), "tiny-stall JSON diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The supervise flags are validated before any worker is spawned: a zero
/// stall interval and the removed second spellings of `--retries` and
/// `--stall-ms` are usage errors (exit 2).
#[test]
fn supervise_flag_misuse_is_a_usage_error() {
    let cases: &[(&[&str], &str)] = &[
        (
            &["supervise", "--spec", "bench104", "--stall-ms", "0"],
            "--stall-ms must be positive",
        ),
        (
            &["supervise", "--spec", "bench104", "--max-retries", "4"],
            "unknown flag `--max-retries`",
        ),
        (
            &[
                "supervise",
                "--spec",
                "bench104",
                "--stall-timeout-ms",
                "30",
            ],
            "unknown flag `--stall-timeout-ms`",
        ),
    ];
    for (args, needle) in cases {
        let output = Command::new(env!("CARGO_BIN_EXE_sweep_shard"))
            .args(*args)
            .output()
            .expect("spawn sweep_shard");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(2),
            "{args:?} should be a usage error:\n{stderr}"
        );
        assert!(
            stderr.contains(needle),
            "{args:?} diagnostic should mention `{needle}`:\n{stderr}"
        );
    }
}

#[test]
fn chaos_kills_and_a_torn_journal_still_merge_byte_identically() {
    let golden = run_sweep(&bench104_spec(), 1).expect("single-process golden run");
    let golden_csv = cells_csv(&golden);
    let golden_json = report_json(&golden);

    for shards in [1usize, 2, 8] {
        let run = chaos_run(shards, 3, 7);

        let kills = run.transcript.matches("chaos SIGKILL").count();
        assert!(
            kills >= 2,
            "expected at least 2 chaos SIGKILLs at {shards} shard(s), saw {kills}:\n{}",
            run.transcript
        );
        assert!(
            run.transcript.contains("journal torn mid-record"),
            "expected a mid-record journal tear at {shards} shard(s):\n{}",
            run.transcript
        );
        assert!(
            run.transcript.contains("relaunching to resume"),
            "expected chaos victims to be relaunched at {shards} shard(s):\n{}",
            run.transcript
        );

        assert_eq!(
            run.csv, golden_csv,
            "merged CSV diverged from the single-process run at {shards} shard(s)"
        );
        assert_eq!(
            run.json, golden_json,
            "merged JSON diverged from the single-process run at {shards} shard(s)"
        );
    }
}
