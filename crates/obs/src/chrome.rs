//! Chrome trace-event JSON export, loadable in Perfetto or `chrome://tracing`.
//!
//! [`TraceWriter`] is the workspace's one writer of the [Trace Event
//! Format]'s JSON-object flavour: `"M"` metadata records naming processes
//! and threads, `"X"` complete events for spans, `"i"` instant events and
//! `"C"` counter samples. It takes microsecond timestamps and formats them
//! with fixed precision, so its output is byte-deterministic. Two
//! exporters render through it: [`chrome_trace_json`] here, whose
//! timestamps are microseconds of simulated platform time (`cycles / 50`
//! at the paper's 50 MHz clock), and `mpdp-telemetry`'s fleet timeline,
//! whose timestamps are wall clock.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! # Quick start
//!
//! Write the string returned by [`chrome_trace_json`] to a `.json` file and
//! drag it into <https://ui.perfetto.dev> (or open `chrome://tracing` and
//! click Load). Each processor appears as a timeline row; task slices carry
//! the task/job id and scheduler events show up as instant markers.

use std::fmt::Write as _;

use mpdp_core::time::CLOCK_HZ;

use crate::event::EventKind;
use crate::json::escape_json as escape;
use crate::recorder::{EventRecorder, Span, SpanKind};

/// Microseconds of platform time per cycle, as an exact ratio at 50 MHz.
const US_PER_CYCLE: f64 = 1_000_000.0 / CLOCK_HZ as f64;

/// Everything before a trace's first record.
const HEADER: &str = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";

/// A Chrome trace-event JSON document under construction: one record per
/// line inside `{"displayTimeUnit":"ms","traceEvents":[...]}`. Timestamps
/// and durations are microseconds, printed `{:.3}`; names are escaped. A
/// `track` is a `(pid, tid)` pair.
#[derive(Debug, Default)]
pub struct TraceWriter {
    out: String,
}

impl TraceWriter {
    /// Opens the document on the first record, separates later ones.
    fn sep(&mut self) {
        if self.out.is_empty() {
            self.out.push_str(HEADER);
        } else {
            self.out.push(',');
        }
        self.out.push('\n');
    }

    /// Names process `pid`.
    pub fn process_name(&mut self, pid: usize, name: &str) {
        self.metadata((pid, 0), "process_name", name);
    }

    /// Names thread `tid` of process `pid`.
    pub fn thread_name(&mut self, pid: usize, tid: usize, name: &str) {
        self.metadata((pid, tid), "thread_name", name);
    }

    fn metadata(&mut self, (pid, tid): (usize, usize), kind: &str, name: &str) {
        self.sep();
        let _ = write!(
            self.out,
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{kind}\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(name)
        );
    }

    /// A complete (`"X"`) span of `dur` µs starting at `ts` µs.
    pub fn span(&mut self, (pid, tid): (usize, usize), ts: f64, dur: f64, name: &str, cat: &str) {
        self.sep();
        let _ = write!(
            self.out,
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts:.3},\"dur\":{dur:.3},\
             \"name\":\"{}\",\"cat\":\"{cat}\"}}",
            escape(name)
        );
    }

    /// An instant (`"i"`) marker at `ts` µs. `scope` is `"t"` (thread) or
    /// `"p"` (process); `args` is the already-encoded `"key":value` list
    /// of its `args` object, possibly empty.
    pub fn instant(
        &mut self,
        (pid, tid): (usize, usize),
        scope: &str,
        ts: f64,
        name: &str,
        cat: &str,
        args: &str,
    ) {
        self.sep();
        let _ = write!(
            self.out,
            "{{\"ph\":\"i\",\"s\":\"{scope}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts:.3},\
             \"name\":\"{}\",\"cat\":\"{cat}\",\"args\":{{{args}}}}}",
            escape(name)
        );
    }

    /// A counter (`"C"`) sample at `ts` µs; `args` holds the series values
    /// as an encoded `"key":value` list.
    pub fn counter(&mut self, (pid, tid): (usize, usize), ts: f64, name: &str, args: &str) {
        self.sep();
        let _ = write!(
            self.out,
            "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts:.3},\
             \"name\":\"{}\",\"args\":{{{args}}}}}",
            escape(name)
        );
    }

    /// Closes the document and returns it.
    pub fn finish(mut self) -> String {
        if self.out.is_empty() {
            self.out.push_str(HEADER);
        }
        self.out.push_str("]}");
        self.out
    }
}

/// Renders one recorder as a complete Chrome trace JSON document.
///
/// `label` names the process track (e.g. `"prototype"`).
pub fn chrome_trace_json(rec: &EventRecorder, label: &str) -> String {
    chrome_trace_json_multi(&[(rec, label)])
}

/// Renders several recorders into one trace, each as its own process track
/// (pid 0, 1, ...) — e.g. the theoretical and prototype stacks of the same
/// cell side by side.
pub fn chrome_trace_json_multi(tracks: &[(&EventRecorder, &str)]) -> String {
    let mut w = TraceWriter::default();
    for (pid, (rec, label)) in tracks.iter().enumerate() {
        w.process_name(pid, label);
        for proc in 0..rec.n_procs() {
            w.thread_name(pid, proc, &format!("CPU {proc}"));
        }
        for span in rec.spans() {
            write_span(&mut w, pid, span);
        }
        for event in rec.events() {
            let ts = event.at.as_u64() as f64 * US_PER_CYCLE;
            // "s":"t" scopes the marker to its thread; system-wide events
            // (no processor) render process-scoped on tid 0 instead.
            let (tid, scope) = match event.proc {
                Some(p) => (p as usize, "t"),
                None => (0, "p"),
            };
            let args = event_args(&event.kind);
            w.instant((pid, tid), scope, ts, event.kind.name(), "sched", &args);
        }
    }
    w.finish()
}

fn write_span(w: &mut TraceWriter, pid: usize, span: &Span) {
    let ts = span.start.as_u64() as f64 * US_PER_CYCLE;
    let dur = span.end.saturating_sub(span.start).as_u64() as f64 * US_PER_CYCLE;
    let (name, cat) = match (span.kind, span.task, span.job) {
        (SpanKind::Task, Some(t), Some(j)) => (format!("T{t} (J{j})"), "task"),
        (SpanKind::Task, _, Some(j)) => (format!("J{j}"), "task"),
        (SpanKind::Task, _, None) => ("task".to_string(), "task"),
        (kind, _, _) => (kind.name().to_string(), "kernel"),
    };
    w.span((pid, span.proc as usize), ts, dur, &name, cat);
}

/// Structured `args` payload for an instant event (already JSON-encoded
/// key/value pairs, without the surrounding braces).
fn event_args(kind: &EventKind) -> String {
    match *kind {
        EventKind::JobRelease {
            job,
            task,
            aperiodic,
        } => {
            format!("\"job\":{job},\"task\":{task},\"aperiodic\":{aperiodic}")
        }
        EventKind::Promotion { job, task } => format!("\"job\":{job},\"task\":{task}"),
        EventKind::Preemption { job } => format!("\"job\":{job}"),
        EventKind::Migration { job, from, to } => {
            format!("\"job\":{job},\"from\":{from},\"to\":{to}")
        }
        EventKind::IpiSend { to } => format!("\"to\":{to}"),
        EventKind::IpiDeliver | EventKind::IsrExit | EventKind::Recovery => String::new(),
        EventKind::IsrEnter { irq } => format!("\"irq\":\"{}\"", irq.name()),
        EventKind::LockContention { wait } => format!("\"wait_cycles\":{}", wait.as_u64()),
        EventKind::BusStall { excess } => format!("\"excess_cycles\":{}", excess.as_u64()),
        EventKind::FailStop { proc } => format!("\"proc\":{proc}"),
        EventKind::JobComplete { job, task, met } => {
            format!("\"job\":{job},\"task\":{task},\"met\":{met}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;
    use crate::Probe;
    use mpdp_core::time::Cycles;

    fn sample() -> EventRecorder {
        let mut r = EventRecorder::new(2);
        r.span(Span {
            proc: 0,
            kind: SpanKind::Task,
            job: Some(4),
            task: Some(2),
            start: Cycles::new(100),
            end: Cycles::new(600),
        });
        r.span(Span {
            proc: 1,
            kind: SpanKind::Sched,
            job: None,
            task: None,
            start: Cycles::new(0),
            end: Cycles::new(50),
        });
        r.event(
            Cycles::new(100),
            Some(0),
            EventKind::JobRelease {
                job: 4,
                task: 2,
                aperiodic: true,
            },
        );
        r.event(Cycles::new(200), None, EventKind::Recovery);
        r.event(
            Cycles::new(300),
            Some(1),
            EventKind::LockContention {
                wait: Cycles::new(40),
            },
        );
        r
    }

    #[test]
    fn emits_valid_json_with_expected_records() {
        let rec = sample();
        let json = chrome_trace_json(&rec, "prototype");
        parse_json(&json).expect("exporter must emit well-formed JSON");
        assert!(json.contains("\"displayTimeUnit\":\"ms\""));
        assert!(json.contains("\"name\":\"prototype\""));
        assert!(json.contains("\"name\":\"CPU 1\""));
        assert!(json.contains("\"name\":\"T2 (J4)\""));
        assert!(json.contains("\"name\":\"sched-pass\""));
        assert!(json.contains("\"name\":\"aperiodic-release\""));
        assert!(json.contains("\"wait_cycles\":40"));
        // 100 cycles at 50 MHz = 2 µs.
        assert!(json.contains("\"ts\":2.000"));
        // 500-cycle span = 10 µs.
        assert!(json.contains("\"dur\":10.000"));
        // System-wide event is process-scoped.
        assert!(json.contains("\"s\":\"p\""));
    }

    #[test]
    fn multi_track_assigns_distinct_pids() {
        let a = sample();
        let b = EventRecorder::new(1);
        let json = chrome_trace_json_multi(&[(&a, "theoretical"), (&b, "prototype")]);
        parse_json(&json).unwrap();
        assert!(json.contains("\"pid\":0"));
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("\"name\":\"theoretical\""));
    }

    #[test]
    fn escape_covers_specials() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny"), "x\\ny");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn export_is_deterministic() {
        let a = chrome_trace_json(&sample(), "x");
        let b = chrome_trace_json(&sample(), "x");
        assert_eq!(a, b);
    }
}
