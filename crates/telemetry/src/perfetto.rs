//! The fleet timeline: a recorded event stream rendered as Chrome Trace
//! Event Format JSON, loadable at <https://ui.perfetto.dev> — a chaos
//! recovery as a picture instead of a transcript.
//!
//! Track layout (all under pid 0, "mpdp fleet"):
//!
//! - one thread track per shard (`shard N`), carrying an `"X"` span per
//!   worker launch attempt (`launch N`, from [`ShardLaunched`] to the
//!   event that ended the attempt), `"i"` instants for chaos kills,
//!   journal tears, and stall kills, and a `"C"` counter series of the
//!   shard journal's record count from `Heartbeat` events;
//! - one `supervisor` track (tid = shard count) carrying the merge span
//!   and run-level instants (cell events of in-process healing runs).
//!
//! Timestamps are microseconds since the run started, straight from
//! [`FleetEvent::at`] — wall clock, unlike `obs::chrome`'s simulated
//! cycles. Records are written by `obs::chrome`'s [`TraceWriter`], the
//! workspace's one trace writer.
//!
//! [`ShardLaunched`]: FleetEventKind::ShardLaunched

use mpdp_obs::{escape_json as escape, TraceWriter};

use crate::event::{FleetEvent, FleetEventKind};

fn us(at: std::time::Duration) -> f64 {
    at.as_secs_f64() * 1_000_000.0
}

/// An open launch-attempt span on one shard track.
struct OpenLaunch {
    start: f64,
    launch: u32,
}

/// Closes a launch-attempt span (if one is open) at `end`.
fn close_launch(w: &mut TraceWriter, tid: usize, launch: Option<OpenLaunch>, end: f64) {
    if let Some(launch) = launch {
        let name = format!("launch {}", launch.launch);
        w.span(
            (0, tid),
            launch.start,
            (end - launch.start).max(0.0),
            &name,
            "launch",
        );
    }
}

/// Renders a recorded fleet event stream as a complete Chrome trace JSON
/// document. `shards` sizes the track layout (the supervisor track sits
/// at tid = `shards`); events for shard indices at or beyond `shards`
/// are clamped onto the supervisor track rather than dropped.
pub fn fleet_trace_json(events: &[FleetEvent], shards: usize) -> String {
    let mut w = TraceWriter::default();
    w.process_name(0, "mpdp fleet");
    for shard in 0..shards {
        w.thread_name(0, shard, &format!("shard {shard}"));
    }
    w.thread_name(0, shards, "supervisor");

    let supervisor_tid = shards;
    let mut open: Vec<Option<OpenLaunch>> = (0..shards).map(|_| None).collect();
    let mut merge_start: Option<f64> = None;
    let mut last_ts = 0.0f64;

    for event in events {
        let at = us(event.at);
        last_ts = last_ts.max(at);
        let slot = event.shard.filter(|s| *s < shards);
        let tid = slot.unwrap_or(supervisor_tid);
        // A new launch, a reaped or retried worker, a dead shard and a
        // finished shard all end the shard's open launch span. (A spawn
        // that failed before producing a process never opened one.)
        if let Some(s) = slot {
            if matches!(
                event.kind,
                FleetEventKind::ShardLaunched { .. }
                    | FleetEventKind::ChaosReaped
                    | FleetEventKind::Retry { .. }
                    | FleetEventKind::RetriesExhausted { .. }
                    | FleetEventKind::ShardDone { .. }
            ) {
                close_launch(&mut w, tid, open[s].take(), at);
            }
        }
        let (name, args): (String, String) = match &event.kind {
            FleetEventKind::ShardLaunched { pid, launch, .. } => {
                if let Some(s) = slot {
                    open[s] = Some(OpenLaunch {
                        start: at,
                        launch: *launch,
                    });
                }
                (
                    "launched".into(),
                    format!("\"pid\":{pid},\"launch\":{launch}"),
                )
            }
            FleetEventKind::Heartbeat { journaled } => {
                let name = format!("journaled shard {}", event.shard.unwrap_or(0));
                w.counter((0, tid), at, &name, &format!("\"cells\":{journaled}"));
                continue;
            }
            FleetEventKind::Stalled { timeout } => (
                "stall".into(),
                format!("\"timeout_ms\":{}", timeout.as_millis()),
            ),
            FleetEventKind::ChaosKill {
                journaled,
                threshold,
            } => (
                "chaos-kill".into(),
                format!("\"journaled\":{journaled},\"threshold\":{threshold}"),
            ),
            FleetEventKind::ChaosSkipped { remaining } => {
                ("chaos-skipped".into(), format!("\"remaining\":{remaining}"))
            }
            FleetEventKind::JournalTear => ("journal-tear".into(), String::new()),
            FleetEventKind::ChaosReaped => continue,
            FleetEventKind::Retry { failure, backoff } => (
                "retry".into(),
                format!(
                    "\"failure\":\"{}\",\"backoff_ms\":{}",
                    escape(&failure.to_string()),
                    backoff.as_millis()
                ),
            ),
            FleetEventKind::RetriesExhausted { failure, launches } => (
                "dead".into(),
                format!(
                    "\"failure\":\"{}\",\"launches\":{launches}",
                    escape(&failure.to_string())
                ),
            ),
            FleetEventKind::Resumed { cells } => ("resumed".into(), format!("\"cells\":{cells}")),
            FleetEventKind::ShardDone { cells, launches } => (
                "done".into(),
                format!("\"cells\":{cells},\"launches\":{launches}"),
            ),
            FleetEventKind::MergeStarted { .. } => {
                merge_start = Some(at);
                continue;
            }
            FleetEventKind::MergeDone {
                journals,
                cells,
                chaos_kills,
                torn,
            } => {
                let start = merge_start.take().unwrap_or(at);
                w.span(
                    (0, supervisor_tid),
                    start,
                    (at - start).max(0.0),
                    "merge",
                    "merge",
                );
                let args = format!(
                    "\"journals\":{journals},\"cells\":{cells},\
                     \"chaos_kills\":{chaos_kills},\"torn\":{torn}"
                );
                w.instant((0, supervisor_tid), "t", at, "merged", "fleet", &args);
                continue;
            }
            FleetEventKind::CellDone {
                cell,
                wall,
                attempts,
            } => (
                format!("cell {cell}"),
                format!("\"wall_us\":{},\"attempts\":{attempts}", wall.as_micros()),
            ),
            FleetEventKind::CellRetried { cell, backoff } => (
                format!("cell {cell} retry"),
                format!("\"backoff_ms\":{}", backoff.as_millis()),
            ),
            FleetEventKind::CellResumed { cell } => (format!("cell {cell} resumed"), String::new()),
            FleetEventKind::CacheReport {
                hits,
                misses,
                evictions,
                bytes,
            } => (
                "cache report".into(),
                format!(
                    "\"hits\":{hits},\"misses\":{misses},\
                     \"evictions\":{evictions},\"bytes\":{bytes}"
                ),
            ),
        };
        w.instant((0, tid), "t", at, &name, "fleet", &args);
    }

    // A run that ended mid-flight (killed supervisor, recorded stream cut
    // short) may leave launch spans open; close them at the last
    // timestamp so the trace still loads.
    for (shard, launch) in open.into_iter().enumerate() {
        close_launch(&mut w, shard, launch, last_ts);
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FailureKind;
    use mpdp_obs::parse_json;
    use std::time::Duration;

    fn ev(ms: u64, shard: Option<usize>, kind: FleetEventKind) -> FleetEvent {
        FleetEvent {
            at: Duration::from_millis(ms),
            shard,
            kind,
        }
    }

    fn chaos_stream() -> Vec<FleetEvent> {
        vec![
            ev(
                0,
                Some(0),
                FleetEventKind::ShardLaunched {
                    pid: 100,
                    launch: 1,
                    cells_start: 0,
                    cells_end: 5,
                },
            ),
            ev(1, Some(0), FleetEventKind::Heartbeat { journaled: 2 }),
            ev(
                2,
                Some(0),
                FleetEventKind::ChaosKill {
                    journaled: 2,
                    threshold: 2,
                },
            ),
            ev(3, Some(0), FleetEventKind::JournalTear),
            ev(3, Some(0), FleetEventKind::ChaosReaped),
            ev(
                5,
                Some(0),
                FleetEventKind::ShardLaunched {
                    pid: 101,
                    launch: 2,
                    cells_start: 0,
                    cells_end: 5,
                },
            ),
            ev(5, Some(0), FleetEventKind::Resumed { cells: 1 }),
            ev(
                9,
                Some(0),
                FleetEventKind::ShardDone {
                    cells: 5,
                    launches: 2,
                },
            ),
            ev(9, None, FleetEventKind::MergeStarted { journals: 1 }),
            ev(
                10,
                None,
                FleetEventKind::MergeDone {
                    journals: 1,
                    cells: 5,
                    chaos_kills: 1,
                    torn: 1,
                },
            ),
        ]
    }

    #[test]
    fn trace_is_valid_json_with_fleet_track_layout() {
        let json = fleet_trace_json(&chaos_stream(), 1);
        parse_json(&json).expect("trace parses");
        assert!(json.contains("\"name\":\"mpdp fleet\""));
        assert!(json.contains("\"name\":\"shard 0\""));
        assert!(json.contains("\"name\":\"supervisor\""));
        assert!(json.contains("\"name\":\"launch 1\""));
        assert!(json.contains("\"name\":\"launch 2\""));
        assert!(json.contains("\"name\":\"chaos-kill\""));
        assert!(json.contains("\"name\":\"journal-tear\""));
        assert!(json.contains("\"name\":\"merge\""));
        assert!(json.contains("\"ph\":\"C\""), "heartbeat counter series");
    }

    #[test]
    fn retry_closes_the_launch_span_and_marks_the_failure() {
        let events = vec![
            ev(
                0,
                Some(0),
                FleetEventKind::ShardLaunched {
                    pid: 7,
                    launch: 1,
                    cells_start: 0,
                    cells_end: 3,
                },
            ),
            ev(
                4,
                Some(0),
                FleetEventKind::Retry {
                    failure: FailureKind::Crashed { signal: Some(9) },
                    backoff: Duration::from_millis(50),
                },
            ),
        ];
        let json = fleet_trace_json(&events, 1);
        parse_json(&json).expect("trace parses");
        assert!(json.contains("\"name\":\"retry\""));
        assert!(json.contains("worker killed by signal 9"));
        assert!(json.contains("\"dur\":4000.000"), "span closed at 4 ms");
    }

    #[test]
    fn truncated_stream_still_loads() {
        let events = vec![ev(
            0,
            Some(0),
            FleetEventKind::ShardLaunched {
                pid: 7,
                launch: 1,
                cells_start: 0,
                cells_end: 3,
            },
        )];
        let json = fleet_trace_json(&events, 1);
        parse_json(&json).expect("trace parses");
        assert!(json.contains("\"name\":\"launch 1\""), "open span closed");
    }

    #[test]
    fn export_is_deterministic() {
        let events = chaos_stream();
        assert_eq!(fleet_trace_json(&events, 1), fleet_trace_json(&events, 1));
    }
}
