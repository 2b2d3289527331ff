//! End-to-end gate for the fleet telemetry layer: instrumenting a
//! supervised chaos run must not change a single output byte, the
//! recorded event stream must replay into the live transcript exactly,
//! and the metrics snapshot must agree with the supervisor's own
//! bookkeeping (`ShardReport`) counter for counter.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Mutex;

use mpdp_bench::experiment::bench104_spec;
use mpdp_shard::{supervise, ChaosPlan, ShardOutcome, SuperviseConfig, SupervisedSweep};
use mpdp_sweep::{cells_csv, report_json, run_cell, run_sweep, Journal, SweepSpec};
use mpdp_telemetry::{fleet_trace_json, FleetRecorder, MetricsRegistry, TranscriptObserver};

struct BinaryRun {
    transcript: String,
    csv: String,
    json: String,
    telemetry_json: Option<String>,
    trace_json: Option<String>,
}

/// Runs `sweep_shard supervise` over the 104-cell grid with chaos armed
/// (`tear` adds the mid-record journal truncation on top of the
/// SIGKILLs), optionally with every telemetry export enabled.
fn binary_chaos_run(shards: usize, telemetry: bool, tear: bool, tag: &str) -> BinaryRun {
    let dir = std::env::temp_dir().join(format!(
        "mpdp-fleet-tel-{}-s{shards}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let csv_path: PathBuf = dir.join("merged.csv");
    let json_path: PathBuf = dir.join("merged.json");
    let tel_path: PathBuf = dir.join("metrics.json");
    let trace_path: PathBuf = dir.join("trace.json");

    let mut cmd = Command::new(env!("CARGO_BIN_EXE_sweep_shard"));
    cmd.args([
        "supervise",
        "--spec",
        "bench104",
        "--shards",
        &shards.to_string(),
        "--chaos-kills",
        "3",
        "--chaos-seed",
        "7",
        "--throttle-ms",
        "10",
        "--retries",
        "4",
    ]);
    if tear {
        cmd.arg("--chaos-tear");
    }
    cmd.arg("--dir")
        .arg(&dir)
        .arg("--csv")
        .arg(&csv_path)
        .arg("--json")
        .arg(&json_path);
    if telemetry {
        cmd.arg("--telemetry-out")
            .arg(&tel_path)
            .arg("--fleet-trace")
            .arg(&trace_path);
    }
    let output = cmd.output().expect("spawn sweep_shard");
    let transcript = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(
        output.status.success(),
        "chaos run at {shards} shard(s) (telemetry={telemetry}) failed:\n{transcript}"
    );
    let run = BinaryRun {
        transcript,
        csv: std::fs::read_to_string(&csv_path).expect("merged CSV written"),
        json: std::fs::read_to_string(&json_path).expect("merged JSON written"),
        telemetry_json: telemetry
            .then(|| std::fs::read_to_string(&tel_path).expect("telemetry JSON written")),
        trace_json: telemetry
            .then(|| std::fs::read_to_string(&trace_path).expect("fleet trace written")),
    };
    let _ = std::fs::remove_dir_all(&dir);
    run
}

/// First `"name": value` occurrence in the metrics JSON — the counters
/// object precedes the shards array, so this reads the fleet total.
fn json_counter(json: &str, name: &str) -> u64 {
    let needle = format!("\"{name}\": ");
    let at = json
        .find(&needle)
        .unwrap_or_else(|| panic!("counter {name:?} missing from telemetry JSON:\n{json}"));
    json[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("counter {name:?} is not a number"))
}

/// `N` from a `"{N} <unit>" fragment of the summary line.
fn summary_count(transcript: &str, unit: &str) -> u64 {
    let summary = transcript
        .lines()
        .find(|l| l.starts_with("supervised run complete:"))
        .expect("summary line present");
    let at = summary
        .find(unit)
        .unwrap_or_else(|| panic!("summary line lacks {unit:?}: {summary}"));
    summary[..at]
        .rsplit(|c: char| !c.is_ascii_digit())
        .find(|s| !s.is_empty())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no count before {unit:?} in: {summary}"))
}

#[test]
fn telemetry_exports_ride_along_without_changing_a_byte() {
    let golden = run_sweep(&bench104_spec(), 1).expect("single-process golden run");
    let golden_csv = cells_csv(&golden);
    let golden_json = report_json(&golden);

    for shards in [1usize, 8] {
        let plain = binary_chaos_run(shards, false, true, "off");
        let instrumented = binary_chaos_run(shards, true, true, "on");

        // Instrumented or not, the merged exports are the single-process
        // bytes.
        for run in [&plain, &instrumented] {
            assert_eq!(
                run.csv, golden_csv,
                "merged CSV drifted at {shards} shard(s)"
            );
            assert_eq!(
                run.json, golden_json,
                "merged JSON drifted at {shards} shard(s)"
            );
        }
        // The chaos recovery story still plays out (and is still told) with
        // the observers attached.
        for run in [&plain, &instrumented] {
            assert!(
                run.transcript.matches("chaos SIGKILL").count() >= 2,
                "expected ≥2 chaos SIGKILLs at {shards} shard(s):\n{}",
                run.transcript
            );
            assert!(run.transcript.contains("journal torn mid-record"));
            assert!(run.transcript.contains("relaunching to resume"));
        }

        // The metrics snapshot agrees with the supervisor's own summary —
        // the same numbers, observed through a completely separate path
        // (typed events + worker sidecar files vs `ShardReport`s).
        let tel = instrumented
            .telemetry_json
            .as_deref()
            .expect("telemetry JSON");
        mpdp_telemetry::validate_metrics_json(tel).expect("telemetry JSON validates");
        for (counter, unit) in [
            ("launches", " launch(es)"),
            ("chaos_kills", " chaos kill(s)"),
            ("torn_journals", " torn journal(s)"),
            ("relaunches", " relaunch(es)"),
            ("retries", " retry(ies)"),
            ("stall_kills", " stall kill(s)"),
        ] {
            assert_eq!(
                json_counter(tel, counter),
                summary_count(&instrumented.transcript, unit),
                "{counter} disagrees between telemetry JSON and the supervisor summary"
            );
        }
        assert_eq!(json_counter(tel, "merged_cells"), 104);
        assert_eq!(json_counter(tel, "shards_done"), shards as u64);
        // Worker sidecars made it into the fleet snapshot. The sidecar is
        // advisory: a SIGKILL can land between a
        // cell's fsynced journal append and its sidecar rewrite, losing
        // at most that one in-flight sample per kill — so coverage is
        // exact up to the delivered kills.
        let executed = json_counter(tel, "cells_executed");
        let resumed = json_counter(tel, "cells_resumed");
        let kills = json_counter(tel, "chaos_kills");
        assert!(
            executed + resumed >= 104 - kills,
            "worker sidecar coverage too low: {executed} executed + {resumed} resumed \
             with {kills} kill(s)"
        );
        assert!(
            executed > 0,
            "no cell wall-latency samples reached the fleet snapshot"
        );

        // The fleet timeline is well-formed JSON with the chaos story on it.
        let trace = instrumented.trace_json.as_deref().expect("fleet trace");
        mpdp_obs::parse_json(trace).expect("fleet trace is well-formed JSON");
        assert!(
            trace.contains("\"chaos-kill\""),
            "trace lacks chaos-kill instants"
        );
        assert!(
            trace.contains("\"journal-tear\""),
            "trace lacks the tear instant"
        );
        assert!(
            trace.contains("\"launch 2\""),
            "trace lacks a relaunch span"
        );
        assert!(
            trace.contains("\"supervisor\""),
            "trace lacks the supervisor track"
        );
    }
}

#[test]
fn kill_only_chaos_counts_every_executed_cell_exactly_once() {
    // Regression gate for the `CellDone` loss window: a SIGKILL between a
    // cell's fsynced journal append and the sidecar rewrite used to leave
    // the persisted snapshot behind the journal, so a resumed shard
    // undercounted `cells_executed`. The worker now floors its preloaded
    // counters with the journal's recovered-record count at relaunch,
    // which makes the fleet total *exact* under kill-only chaos: every
    // reachable kill point either precedes the journal append (the cell
    // re-executes and is counted by the relaunch) or follows it (the
    // floor accounts it). Only `--chaos-tear` breaks exactness — a torn
    // record legitimately re-executes, pushing the count above 104 —
    // which is why this run arms kills without tears.
    let run = binary_chaos_run(8, true, false, "kill-only");
    assert!(
        run.transcript.matches("chaos SIGKILL").count() >= 2,
        "expected ≥2 chaos SIGKILLs:\n{}",
        run.transcript
    );
    assert!(
        !run.transcript.contains("journal torn"),
        "kill-only run must not tear journals"
    );
    let tel = run.telemetry_json.as_deref().expect("telemetry JSON");
    assert_eq!(
        json_counter(tel, "cells_executed"),
        104,
        "kill-only chaos must count each cell's execution exactly once:\n{tel}"
    );
    assert_eq!(json_counter(tel, "merged_cells"), 104);
}

/// A 9-cell grid (3 procs × 3 utilizations × 1 seed × 1 knob).
fn small_spec() -> SweepSpec {
    let mut spec = SweepSpec::figure4();
    spec.seeds = vec![0];
    spec
}

/// Completes `range`'s cells into the journal in-process, then spawns
/// `script` as the "worker" the supervisor watches — the stand-in that
/// makes chaos deterministic without real re-execution.
fn fill_journal(spec: &SweepSpec, range: std::ops::Range<usize>, journal: &Path) {
    let cells = spec.cells();
    let j = Journal::open(journal, spec).expect("journal opens");
    let done = j.recovered().clone();
    for index in range {
        if done.contains_key(&index) {
            continue;
        }
        let result = run_cell(spec, &cells[index]).expect("cell runs");
        j.append(spec.cell_stream(&cells[index]), &result)
            .expect("appends");
    }
}

fn chaos_supervise(
    spec: &SweepSpec,
    dir: PathBuf,
    transcript: &Mutex<Vec<String>>,
    registry: &MetricsRegistry,
    recorder: &FleetRecorder,
) -> SupervisedSweep {
    let cfg = SuperviseConfig::default()
        .with_dir(dir)
        .with_shards(2)
        .with_chaos(ChaosPlan::new(2, 0xFEED).with_tear());
    let live = TranscriptObserver::new(|line: &str| {
        transcript
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(line.to_string());
    });
    supervise(
        spec,
        &cfg,
        |plan, attempt, journal| {
            fill_journal(spec, plan.range(), journal);
            // The first launch (attempt 0) idles so the chaos SIGKILL
            // provably lands; relaunches exit immediately over the
            // (re-filled) journal.
            if attempt == 0 {
                Command::new("sh").arg("-c").arg("sleep 30").spawn()
            } else {
                Command::new("sh").arg("-c").arg("true").spawn()
            }
        },
        &(&live, registry, recorder),
    )
    .expect("supervised chaos run completes")
}

#[test]
fn recorded_events_replay_into_the_live_transcript_and_match_the_reports() {
    let spec = small_spec();
    let dir = std::env::temp_dir().join(format!("mpdp-fleet-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let transcript = Mutex::new(Vec::new());
    let registry = MetricsRegistry::new();
    let recorder = FleetRecorder::new();
    let sup = chaos_supervise(&spec, dir.clone(), &transcript, &registry, &recorder);
    let _ = std::fs::remove_dir_all(&dir);

    // The run really exercised chaos, and still merged byte-identically.
    assert!(sup.chaos_kills >= 1, "chaos plan delivered no kills");
    assert!(sup
        .shards
        .iter()
        .all(|s| s.outcome == ShardOutcome::Completed));
    let golden = run_sweep(&spec, 1).expect("golden run");
    assert_eq!(cells_csv(&sup.report), cells_csv(&golden));

    // Replaying the recorded stream through the pure renderer reproduces
    // the live transcript byte for byte — the adapter and the recorder
    // saw the same events, in the same order.
    let live = transcript.into_inner().unwrap_or_else(|p| p.into_inner());
    let replayed: Vec<String> = recorder
        .events()
        .iter()
        .filter_map(TranscriptObserver::<fn(&str)>::render)
        .collect();
    assert_eq!(replayed, live);

    // The snapshot's supervision counters equal the `ShardReport`s',
    // exactly.
    let snap = registry.snapshot();
    assert_eq!(
        snap.launches,
        sup.shards
            .iter()
            .map(|s| u64::from(s.launches))
            .sum::<u64>()
    );
    assert_eq!(snap.chaos_kills, u64::from(sup.chaos_kills));
    assert_eq!(snap.torn_journals, u64::from(sup.torn));
    assert_eq!(
        snap.retries,
        sup.shards
            .iter()
            .map(|s| s.failures.len() as u64)
            .sum::<u64>()
    );
    assert_eq!(snap.shards_done, sup.shards.len() as u64);
    assert_eq!(snap.merges, 1);
    assert_eq!(snap.merged_cells, sup.report.cells.len() as u64);
    for report in &sup.shards {
        let stats = snap
            .shards
            .iter()
            .find(|s| s.shard == report.plan.index)
            .expect("per-shard stats present");
        assert_eq!(stats.launches, u64::from(report.launches));
        assert_eq!(stats.chaos_kills, u64::from(report.chaos_kills));
        assert!(stats.done);
    }

    // And the same recorded stream renders a loadable fleet timeline.
    let trace = fleet_trace_json(&recorder.events(), sup.shards.len());
    mpdp_obs::parse_json(&trace).expect("fleet trace is well-formed JSON");
    assert!(trace.contains("\"chaos-kill\""));
}
