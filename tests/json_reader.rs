//! Property tests for the workspace's one JSON reader and the writers
//! whose output it reads back.
//!
//! 1. `parse_json`, `parse_request` and `validate_metrics_json` never
//!    panic: arbitrary bytes and single-byte edits of real documents (a
//!    Chrome trace, a fleet trace, a metrics export, both committed
//!    baselines, request lines) come back as a value or a typed error, and
//!    the two structural readers reject whatever the grammar rejects.
//! 2. `escape_json` then `parse_json` returns any string unchanged.
//! 3. Every document the writers emit parses.

use std::time::Duration;

use mpdp::core::time::Cycles;
use mpdp::obs::{
    chrome_trace_json_multi, escape_json, parse_json, EventKind, EventRecorder, Json, Probe, Span,
    SpanKind,
};
use mpdp_mpdpd::protocol::{error_response, parse_request, ErrorKind};
use mpdp_telemetry::{
    fleet_trace_json, metrics_json, validate_metrics_json, FailureKind, FleetEvent, FleetEventKind,
    FleetSnapshot,
};
use proptest::prelude::*;

/// Strings biased toward the characters escaping has to get right:
/// control characters, quotes and backslashes, and non-ASCII up to the
/// supplementary planes.
fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop_oneof![
            0u32..0x20,
            0x20u32..0x80,
            0x80u32..0x800,
            0x800u32..0x11_0000
        ],
        0..24,
    )
    .prop_map(|codes| codes.into_iter().filter_map(char::from_u32).collect())
}

fn recorder(spans: &[(u32, u8, u64, u64)], system_events: u64) -> EventRecorder {
    let mut rec = EventRecorder::new(2);
    for &(proc, code, start, len) in spans {
        let kind = [
            SpanKind::Task,
            SpanKind::Sched,
            SpanKind::Isr,
            SpanKind::Switch,
        ][usize::from(code % 4)];
        rec.span(Span {
            proc,
            kind,
            job: Some(start as u32 % 7),
            task: (kind == SpanKind::Task).then_some(len as u32 % 5),
            start: Cycles::new(start),
            end: Cycles::new(start + len),
        });
        rec.event(
            Cycles::new(start),
            (len % 3 != 0).then_some(proc),
            EventKind::JobRelease {
                job: proc,
                task: code.into(),
                aperiodic: len % 2 == 0,
            },
        );
    }
    for at in 0..system_events {
        rec.event(Cycles::new(at * 50), None, EventKind::Recovery);
    }
    rec
}

fn fleet_event(code: u8, shard: usize, at_ms: u64, n: u32, detail: &str) -> FleetEvent {
    let failure = match n % 3 {
        0 => FailureKind::Spawn {
            detail: detail.to_string(),
        },
        1 => FailureKind::Crashed { signal: Some(9) },
        _ => FailureKind::Stalled { journaled: 3 },
    };
    let count = n as usize % 100;
    let ms = Duration::from_millis(u64::from(n % 1000));
    let kind = match code % 18 {
        0 => FleetEventKind::ShardLaunched {
            pid: n,
            launch: n % 4,
            cells_start: 0,
            cells_end: count,
        },
        1 => FleetEventKind::Heartbeat { journaled: count },
        2 => FleetEventKind::Stalled { timeout: ms },
        3 => FleetEventKind::ChaosKill {
            journaled: count,
            threshold: 2,
        },
        4 => FleetEventKind::ChaosSkipped { remaining: count },
        5 => FleetEventKind::JournalTear,
        6 => FleetEventKind::ChaosReaped,
        7 => FleetEventKind::Retry {
            failure,
            backoff: ms,
        },
        8 => FleetEventKind::RetriesExhausted {
            failure,
            launches: n % 5,
        },
        9 => FleetEventKind::Resumed { cells: count },
        10 => FleetEventKind::ShardDone {
            cells: count,
            launches: n % 5,
        },
        11 => FleetEventKind::MergeStarted { journals: count },
        12 => FleetEventKind::MergeDone {
            journals: 2,
            cells: count,
            chaos_kills: n % 3,
            torn: n % 2,
        },
        13 => FleetEventKind::CellDone {
            cell: count,
            wall: ms,
            attempts: n % 3,
        },
        14 => FleetEventKind::CellRetried {
            cell: count,
            backoff: ms,
        },
        15 => FleetEventKind::CellResumed { cell: count },
        16 => FleetEventKind::CacheReport {
            hits: u64::from(n),
            misses: 1,
            evictions: 0,
            bytes: 4096,
        },
        _ => FleetEventKind::Heartbeat { journaled: 0 },
    };
    FleetEvent {
        at: Duration::from_millis(at_ms),
        shard: (shard < 3).then_some(shard),
        kind,
    }
}

fn chaos_stream() -> Vec<FleetEvent> {
    (0..18u8)
        .map(|code| {
            fleet_event(
                code,
                usize::from(code % 2),
                u64::from(code),
                7,
                "spawn \"x\"",
            )
        })
        .collect()
}

fn snapshot(events: &[FleetEvent]) -> FleetSnapshot {
    let mut snap = FleetSnapshot::default();
    for event in events {
        snap.apply(event);
    }
    snap
}

/// Real documents of every kind the workspace reads or writes.
fn corpus() -> Vec<String> {
    let rec = recorder(&[(0, 0, 100, 500), (1, 1, 0, 50), (1, 0, 600, 40)], 2);
    let events = chaos_stream();
    vec![
        chrome_trace_json_multi(&[(&rec, "prototype"), (&EventRecorder::new(1), "theoretical")]),
        fleet_trace_json(&events, 2),
        metrics_json(&snapshot(&events)),
        include_str!("../BENCH_sweep.json").to_string(),
        include_str!("../BENCH_serve.json").to_string(),
        r#"{"op":"open","id":1,"session":"s-1","util":0.45,"procs":4,"deadline_ms":250}"#.into(),
        r#"{"op":"admit","id":2,"session":"s-1","task":100,"exec_us":200,"window_us":100000}"#
            .into(),
        r#"{"op":"query","id":3,"session":"s-1","kind":"headroom","tolerance":0.01}"#.into(),
        r#"{"op":"close","id":4,"session":"s-1"}"#.into(),
    ]
}

/// The three readers on one input: none may panic, and the structural
/// readers must reject whatever the grammar rejects.
fn read_everything(input: &str) -> Result<(), TestCaseError> {
    let grammar = parse_json(input);
    let request = parse_request(input);
    let metrics = validate_metrics_json(input);
    if let Err(e) = grammar {
        prop_assert!(
            e.offset <= input.len(),
            "offset {} past the input",
            e.offset
        );
        prop_assert_eq!(
            request.map(|_| ()).map_err(|e| e.1),
            Err(ErrorKind::BadRequest)
        );
        prop_assert!(metrics.is_err());
    }
    Ok(())
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic_a_reader(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        read_everything(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn single_byte_edits_of_real_documents_never_panic_a_reader(
        doc in 0usize..9,
        op in 0u8..3,
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let mut bytes = corpus().swap_remove(doc).into_bytes();
        let at = at % bytes.len();
        match op {
            0 => bytes[at] ^= byte | 1,
            1 => bytes.insert(at, byte),
            _ => {
                bytes.remove(at);
            }
        }
        read_everything(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn escape_then_parse_is_the_identity(s in text()) {
        let quoted = format!("\"{}\"", escape_json(&s));
        prop_assert_eq!(parse_json(&quoted), Ok(Json::Str(s)));
    }

    #[test]
    fn every_document_the_writers_emit_parses(
        spans in prop::collection::vec((0u32..2, any::<u8>(), 0u64..100_000, 0u64..5_000), 0..12),
        stream in prop::collection::vec((any::<u8>(), 0usize..4, 0u64..60_000, any::<u32>()), 0..24),
        shards in 0usize..4,
        label in text(),
    ) {
        let rec = recorder(&spans, spans.len() as u64 % 3);
        let trace = parse_json(&chrome_trace_json_multi(&[(&rec, &label)]));
        let records = trace.as_ref().ok().and_then(|t| t.get("traceEvents")?.as_array());
        prop_assert!(records.is_some(), "chrome trace: {:?}", trace);
        let process = records.and_then(|r| r[0].get("args")?.get("name")?.as_str());
        prop_assert_eq!(process, Some(label.as_str()));

        let events: Vec<FleetEvent> = stream
            .iter()
            .map(|&(code, shard, at, n)| fleet_event(code, shard, at, n, &label))
            .collect();
        let fleet = fleet_trace_json(&events, shards);
        prop_assert!(parse_json(&fleet).is_ok(), "fleet trace: {}", fleet);
        let metrics = metrics_json(&snapshot(&events));
        prop_assert_eq!(validate_metrics_json(&metrics), Ok(()));

        let reply = parse_json(&error_response(7, ErrorKind::BadRequest, &label));
        let detail = reply.as_ref().ok().and_then(|r| r.get("detail")?.as_str());
        prop_assert_eq!(detail, Some(label.as_str()));
    }
}
