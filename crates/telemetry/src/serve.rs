//! Service-side telemetry for the `mpdpd` admission daemon: typed
//! request-lifecycle events folded into a mergeable snapshot, the
//! service-level counterpart of the fleet's
//! [`MetricsRegistry`](crate::MetricsRegistry).
//!
//! The daemon hands one [`ServeEvent`] per request outcome to
//! [`ServeMetrics::event`]; [`ServeMetrics`] is a mutex around a
//! [`ServeSnapshot`] of monotone counters and per-endpoint latency
//! [`Histogram`]s whose merge is exact. [`serve_prometheus_text`]
//! renders the snapshot in Prometheus text exposition format (counters as
//! `mpdp_serve_*_total`, histograms with cumulative `_bucket{le=...}`
//! series), so a scrape of a drained daemon and the sum of per-run
//! snapshots agree without approximation.

use std::fmt;
use std::sync::Mutex;
use std::time::Duration;

use crate::export::prometheus_histogram;
use crate::metrics::Histogram;

/// The daemon's request vocabulary. `Open`, `Admit`, and `Close` mutate a
/// session and ride the *guaranteed* band; the read-only rest are
/// *best-effort* and are shed first under overload — the service-level
/// mirror of MPDP's dual-priority split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeEndpoint {
    /// Create (or reopen) a session at a workload coordinate.
    Open,
    /// Admit one aperiodic task into a session.
    Admit,
    /// Read-only schedulability/sensitivity query against a session.
    Query,
    /// Tear a session down.
    Close,
    /// Liveness probe.
    Ping,
    /// Counter snapshot.
    Stats,
}

impl ServeEndpoint {
    /// Every endpoint, in canonical export order.
    pub const ALL: [ServeEndpoint; 6] = [
        ServeEndpoint::Open,
        ServeEndpoint::Admit,
        ServeEndpoint::Query,
        ServeEndpoint::Close,
        ServeEndpoint::Ping,
        ServeEndpoint::Stats,
    ];

    /// The wire/export name.
    pub fn name(self) -> &'static str {
        match self {
            ServeEndpoint::Open => "open",
            ServeEndpoint::Admit => "admit",
            ServeEndpoint::Query => "query",
            ServeEndpoint::Close => "close",
            ServeEndpoint::Ping => "ping",
            ServeEndpoint::Stats => "stats",
        }
    }

    /// Whether requests to this endpoint mutate session state and
    /// therefore ride the guaranteed band.
    pub fn guaranteed(self) -> bool {
        matches!(
            self,
            ServeEndpoint::Open | ServeEndpoint::Admit | ServeEndpoint::Close
        )
    }

    fn index(self) -> usize {
        match self {
            ServeEndpoint::Open => 0,
            ServeEndpoint::Admit => 1,
            ServeEndpoint::Query => 2,
            ServeEndpoint::Close => 3,
            ServeEndpoint::Ping => 4,
            ServeEndpoint::Stats => 5,
        }
    }
}

impl fmt::Display for ServeEndpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One request-lifecycle event in the daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeEvent {
    /// A request was accepted into the bounded queue; `depth` is the
    /// queue depth *after* the enqueue (the high-water mark counter).
    Enqueued {
        /// Queue depth after this enqueue.
        depth: usize,
    },
    /// A request was answered; `wall` spans enqueue to response write.
    Completed {
        /// Which endpoint answered.
        endpoint: ServeEndpoint,
        /// Enqueue-to-response latency.
        wall: Duration,
    },
    /// A request missed its deadline in the queue and was answered with
    /// the typed `Timeout` error instead of being executed.
    TimedOut {
        /// Which endpoint timed out.
        endpoint: ServeEndpoint,
    },
    /// A best-effort request was shed (answered `Overloaded`) to keep
    /// room for guaranteed work.
    ShedBestEffort,
    /// A guaranteed request was rejected with `Overloaded` because the
    /// queue was full of guaranteed work — pure backpressure, never
    /// silent loss.
    RejectedGuaranteed,
    /// A line that did not parse into a request.
    BadRequest,
    /// One session-mutating record was written to the session journal.
    JournalAppend,
    /// One session was rebuilt from the journal at startup.
    SessionRebuilt,
    /// The daemon drained: stopped accepting, answered the in-flight
    /// requests, flushed, and exited cleanly.
    Drained {
        /// Requests answered between the drain signal and exit.
        answered: usize,
    },
}

/// One coherent view of every daemon counter and per-endpoint histogram.
/// [`merge`](ServeSnapshot::merge) adds field-wise (peak depth takes the
/// max), so per-run snapshots fold together exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeSnapshot {
    /// Requests accepted into the queue.
    pub enqueued: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests answered with the typed `Timeout` error.
    pub timeouts: u64,
    /// Best-effort requests shed under overload.
    pub shed_best_effort: u64,
    /// Guaranteed requests rejected by backpressure.
    pub rejected_guaranteed: u64,
    /// Lines that did not parse.
    pub bad_requests: u64,
    /// Session-journal records written.
    pub journal_appends: u64,
    /// Fsyncs the session journal issued. One fsync covers every record
    /// written before it began, so `journal_appends / journal_syncs` is
    /// the mean group-commit batch. No event feeds it: the daemon copies
    /// the journal's own count into each snapshot it exports.
    pub journal_syncs: u64,
    /// Sessions rebuilt from the journal at startup.
    pub sessions_rebuilt: u64,
    /// Graceful drains completed.
    pub drains: u64,
    /// Requests answered during drains.
    pub drained_answered: u64,
    /// High-water mark of the bounded request queue.
    pub queue_depth_peak: u64,
    /// Enqueue-to-response latency per endpoint, indexed like
    /// [`ServeEndpoint::ALL`].
    pub latency_us: [Histogram; 6],
}

/// A named scalar-counter accessor on a serve snapshot — the single
/// canonical order every exporter shares.
type ServeCounter = (&'static str, fn(&ServeSnapshot) -> u64);

const SERVE_COUNTERS: &[ServeCounter] = &[
    ("enqueued", |s| s.enqueued),
    ("completed", |s| s.completed),
    ("timeouts", |s| s.timeouts),
    ("shed_best_effort", |s| s.shed_best_effort),
    ("rejected_guaranteed", |s| s.rejected_guaranteed),
    ("bad_requests", |s| s.bad_requests),
    ("journal_appends", |s| s.journal_appends),
    ("journal_syncs", |s| s.journal_syncs),
    ("sessions_rebuilt", |s| s.sessions_rebuilt),
    ("drains", |s| s.drains),
    ("drained_answered", |s| s.drained_answered),
    ("queue_depth_peak", |s| s.queue_depth_peak),
];

impl ServeSnapshot {
    /// Every scalar counter as `(name, value)`, in canonical order.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        SERVE_COUNTERS
            .iter()
            .map(|(name, get)| (*name, get(self)))
            .collect()
    }

    /// The latency histogram for one endpoint.
    pub fn latency(&self, endpoint: ServeEndpoint) -> &Histogram {
        &self.latency_us[endpoint.index()]
    }

    /// Folds one event into the snapshot — the single place event
    /// semantics turn into counters.
    pub fn apply(&mut self, event: &ServeEvent) {
        match event {
            ServeEvent::Enqueued { depth } => {
                self.enqueued += 1;
                self.queue_depth_peak = self.queue_depth_peak.max(*depth as u64);
            }
            ServeEvent::Completed { endpoint, wall } => {
                self.completed += 1;
                self.latency_us[endpoint.index()].record(*wall);
            }
            ServeEvent::TimedOut { .. } => self.timeouts += 1,
            ServeEvent::ShedBestEffort => self.shed_best_effort += 1,
            ServeEvent::RejectedGuaranteed => self.rejected_guaranteed += 1,
            ServeEvent::BadRequest => self.bad_requests += 1,
            ServeEvent::JournalAppend => self.journal_appends += 1,
            ServeEvent::SessionRebuilt => self.sessions_rebuilt += 1,
            ServeEvent::Drained { answered } => {
                self.drains += 1;
                self.drained_answered += *answered as u64;
            }
        }
    }

    /// Folds `other` in, field-wise: counters add, histograms merge
    /// exactly, the queue peak takes the max. Order-independent.
    pub fn merge(&mut self, other: &ServeSnapshot) {
        self.enqueued += other.enqueued;
        self.completed += other.completed;
        self.timeouts += other.timeouts;
        self.shed_best_effort += other.shed_best_effort;
        self.rejected_guaranteed += other.rejected_guaranteed;
        self.bad_requests += other.bad_requests;
        self.journal_appends += other.journal_appends;
        self.journal_syncs += other.journal_syncs;
        self.sessions_rebuilt += other.sessions_rebuilt;
        self.drains += other.drains;
        self.drained_answered += other.drained_answered;
        self.queue_depth_peak = self.queue_depth_peak.max(other.queue_depth_peak);
        for (mine, theirs) in self.latency_us.iter_mut().zip(&other.latency_us) {
            mine.merge(theirs);
        }
    }
}

/// The thread-safe event-to-counters sink: a mutex around a
/// [`ServeSnapshot`].
#[derive(Debug, Default)]
pub struct ServeMetrics {
    inner: Mutex<ServeSnapshot>,
}

impl ServeMetrics {
    /// An empty registry.
    pub fn new() -> Self {
        ServeMetrics::default()
    }

    /// The current counters, cloned coherently.
    pub fn snapshot(&self) -> ServeSnapshot {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// Folds one event into the counters. Takes `&self`: the daemon's
    /// worker threads share one registry.
    pub fn event(&self, event: &ServeEvent) {
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .apply(event);
    }
}

/// Renders a serve snapshot in Prometheus text exposition format:
/// `mpdp_serve_<name>_total` counters, one
/// `mpdp_serve_latency_microseconds` histogram family labelled by
/// endpoint with cumulative `_bucket{le="..."}` series plus `_sum` and
/// `_count`. Empty endpoints are omitted to keep scrapes small.
pub fn serve_prometheus_text(snapshot: &ServeSnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (name, value) in snapshot.counters() {
        let _ = writeln!(out, "# TYPE mpdp_serve_{name}_total counter");
        let _ = writeln!(out, "mpdp_serve_{name}_total {value}");
    }
    let _ = writeln!(out, "# TYPE mpdp_serve_latency_microseconds histogram");
    for endpoint in ServeEndpoint::ALL {
        let hist = snapshot.latency(endpoint);
        if hist.count() == 0 {
            continue;
        }
        prometheus_histogram(
            &mut out,
            "mpdp_serve_latency_microseconds",
            &format!("endpoint=\"{endpoint}\""),
            hist,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_split_into_the_two_bands() {
        let guaranteed: Vec<_> = ServeEndpoint::ALL
            .iter()
            .filter(|e| e.guaranteed())
            .map(|e| e.name())
            .collect();
        assert_eq!(guaranteed, ["open", "admit", "close"]);
    }

    #[test]
    fn apply_books_the_request_lifecycle() {
        let metrics = ServeMetrics::new();
        metrics.event(&ServeEvent::Enqueued { depth: 3 });
        metrics.event(&ServeEvent::Enqueued { depth: 7 });
        metrics.event(&ServeEvent::Completed {
            endpoint: ServeEndpoint::Open,
            wall: Duration::from_micros(800),
        });
        metrics.event(&ServeEvent::TimedOut {
            endpoint: ServeEndpoint::Query,
        });
        metrics.event(&ServeEvent::ShedBestEffort);
        metrics.event(&ServeEvent::RejectedGuaranteed);
        metrics.event(&ServeEvent::Drained { answered: 4 });
        let s = metrics.snapshot();
        assert_eq!(s.enqueued, 2);
        assert_eq!(s.queue_depth_peak, 7);
        assert_eq!(s.completed, 1);
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.shed_best_effort, 1);
        assert_eq!(s.rejected_guaranteed, 1);
        assert_eq!((s.drains, s.drained_answered), (1, 4));
        assert_eq!(s.latency(ServeEndpoint::Open).count(), 1);
        assert_eq!(s.latency(ServeEndpoint::Query).count(), 0);
    }

    #[test]
    fn merge_equals_a_single_sink_fed_both_streams() {
        let mut whole = ServeSnapshot::default();
        let mut left = ServeSnapshot::default();
        let mut right = ServeSnapshot::default();
        let events = [
            ServeEvent::Enqueued { depth: 2 },
            ServeEvent::Completed {
                endpoint: ServeEndpoint::Query,
                wall: Duration::from_micros(120),
            },
            ServeEvent::Enqueued { depth: 5 },
            ServeEvent::Completed {
                endpoint: ServeEndpoint::Admit,
                wall: Duration::from_millis(3),
            },
            ServeEvent::ShedBestEffort,
        ];
        for (i, event) in events.iter().enumerate() {
            whole.apply(event);
            if i % 2 == 0 {
                left.apply(event);
            } else {
                right.apply(event);
            }
        }
        left.merge(&right);
        assert_eq!(left, whole);
    }

    #[test]
    fn prometheus_export_is_cumulative_and_labelled() {
        let mut s = ServeSnapshot::default();
        s.apply(&ServeEvent::ShedBestEffort);
        s.apply(&ServeEvent::Completed {
            endpoint: ServeEndpoint::Query,
            wall: Duration::from_micros(90),
        });
        s.apply(&ServeEvent::Completed {
            endpoint: ServeEndpoint::Query,
            wall: Duration::from_micros(90_000_000),
        });
        let text = serve_prometheus_text(&s);
        assert!(text.contains("mpdp_serve_shed_best_effort_total 1"));
        assert!(text
            .contains("mpdp_serve_latency_microseconds_bucket{endpoint=\"query\",le=\"100\"} 1"));
        assert!(text
            .contains("mpdp_serve_latency_microseconds_bucket{endpoint=\"query\",le=\"+Inf\"} 2"));
        assert!(text.contains("mpdp_serve_latency_microseconds_count{endpoint=\"query\"} 2"));
        assert!(
            !text.contains("endpoint=\"open\""),
            "empty endpoints omitted"
        );
    }

    #[test]
    fn prometheus_export_matches_the_pinned_rendering() {
        let mut s = ServeSnapshot::default();
        s.apply(&ServeEvent::Enqueued { depth: 3 });
        s.apply(&ServeEvent::ShedBestEffort);
        for (endpoint, us) in [
            (ServeEndpoint::Open, 450),
            (ServeEndpoint::Query, 90),
            (ServeEndpoint::Query, 90_000_000),
        ] {
            s.apply(&ServeEvent::Completed {
                endpoint,
                wall: Duration::from_micros(us),
            });
        }
        assert_eq!(
            serve_prometheus_text(&s),
            include_str!("../tests/golden/serve_prometheus.txt")
        );
    }
}
