//! # mpdp-mpdpd — the crash-tolerant online admission-control daemon
//!
//! The paper's offline tool decides schedulability before the system
//! boots; this crate packages that analysis as a long-running service. The
//! `mpdpd` daemon answers schedulability and aperiodic-admission queries
//! over a newline-delimited JSON protocol on a Unix or TCP socket, holding
//! one [`mpdp_analysis::AdmissionSession`] per client session and sharing
//! one [`mpdp_sweep::TableCache`] so repeated queries against the same
//! `(workload, procs)` coordinate hit the memoized RTA tables.
//!
//! The robustness layer mirrors MPDP's dual-priority discipline at the
//! service level:
//!
//! * **two bands** — session mutations are guaranteed; read-only queries
//!   are best-effort and shed first under load ([`server`]);
//! * **backpressure** — a bounded queue refuses work with typed
//!   `overloaded` responses instead of growing without bound;
//! * **deadlines** — every request carries (or inherits) a deadline and
//!   gets a typed `timeout` response if it expires in the queue;
//! * **crash safety** — mutations are journaled before execution and
//!   synced before any reply that reads them, one group-commit fsync
//!   covering every record written before it ([`session`]); a SIGKILLed
//!   daemon replays the journal and rebuilds every session
//!   byte-identically;
//! * **graceful drain** — SIGTERM stops the listener, answers everything
//!   in flight, and exits 0 (see the `mpdpd` binary's trampoline).
//!
//! Request lines are read by `mpdp-obs`'s one JSON reader
//! ([`mpdp_obs::parse_json`]); [`protocol`] adds the protocol's own rules
//! (a flat object of strings, numbers and booleans). Telemetry flows
//! through [`mpdp_telemetry::ServeMetrics`]: request and shed counters,
//! queue-depth peaks, and per-endpoint latency histograms, exportable in
//! Prometheus exposition format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;
pub mod session;

pub use client::Client;
pub use protocol::{parse_request, Envelope, ErrorKind, QueryKind, Request};
pub use server::{run, Bind, DrainSummary, ServerConfig};
pub use session::SessionStore;
