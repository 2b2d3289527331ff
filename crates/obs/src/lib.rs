//! Cycle-accounting observability for the MPDP simulators.
//!
//! The paper's evaluation attributes the FPGA prototype's 7–27% aperiodic
//! response-time penalty to context-switch traffic and bus/memory contention
//! — but a simulator that only reports end-to-end response times can
//! *measure* that gap, not *explain* it. This crate supplies the
//! explanation machinery, in three layers:
//!
//! 1. **Probes** ([`Probe`]): a typed callback interface the simulator
//!    stacks invoke at every observable event — job release, promotion
//!    firing, preemption, migration, IPI send/deliver, ISR entry/exit,
//!    scheduler-lock contention, bus-stall bursts, fail-stop and recovery.
//!    The default [`NullProbe`] is a zero-sized type whose methods are
//!    empty `#[inline]` bodies, so a simulator instantiated with it
//!    monomorphises to exactly the uninstrumented code: enabling the
//!    feature costs nothing when it is off, and a golden test in the root
//!    crate pins the Figure 4 exports byte-identical with the probe
//!    disabled. A recording probe is the simulators' only record of
//!    processor activity: its spans draw the Figure 3 Gantt chart.
//! 2. **Cycle ledger** ([`CycleLedger`]): a per-processor account that
//!    attributes *every* simulated cycle to exactly one [`Bucket`] — task
//!    work, scheduler pass, context save/restore, ISR, bus/memory stall,
//!    contention queueing, or idle. The books must balance: the
//!    conservation invariant ([`CycleLedger::check_conservation`]) demands
//!    that each processor's buckets sum to the simulated horizon, i.e. the
//!    grand total equals `horizon × processors` with **no cycle counted
//!    twice and none dropped**.
//! 3. **Exporters**: Chrome trace-event JSON ([`chrome_trace_json`]) that
//!    loads directly in [Perfetto](https://ui.perfetto.dev) or
//!    `chrome://tracing`, and flat CSV/JSON ledger metrics
//!    ([`ledger_csv`], [`ledger_json`]) for the attribution tables printed
//!    by the `exp_gap_attribution` bench binary.
//!
//! The crate also holds the workspace's one trace writer
//! ([`TraceWriter`], which `mpdp-telemetry`'s fleet timeline renders
//! through too) and its one JSON reader ([`parse_json`], which the
//! `mpdpd` daemon, the perf gates and the metrics validator read
//! structure through).
//!
//! # Example
//!
//! ```
//! use mpdp_core::time::Cycles;
//! use mpdp_obs::{Bucket, EventKind, EventRecorder, Probe};
//!
//! let mut rec = EventRecorder::new(2);
//! rec.event(Cycles::new(100), Some(0), EventKind::JobRelease {
//!     job: 0, task: 3, aperiodic: false,
//! });
//! rec.charge(0, Bucket::TaskWork, 800);
//! rec.charge(0, Bucket::Idle, 200);
//! rec.charge(1, Bucket::Idle, 1000);
//! assert!(rec.ledger().check_conservation(Cycles::new(1000)).is_ok());
//! ```

#![warn(missing_docs)]

pub mod chrome;
pub mod event;
pub mod json;
pub mod ledger;
pub mod metrics;
pub mod recorder;

pub use chrome::{chrome_trace_json, chrome_trace_json_multi, TraceWriter};
pub use event::{EventKind, IrqKind, ObsEvent};
pub use json::{escape_json, parse_json, Json, JsonError};
pub use ledger::{Bucket, CycleLedger, LedgerImbalance, WorkSplitter, BUCKETS};
pub use metrics::{ledger_csv, ledger_json};
pub use recorder::{EventRecorder, Span, SpanKind};

use mpdp_core::time::Cycles;

/// Instrumentation callbacks invoked by the simulator stacks.
///
/// Implementations fall into two camps: [`NullProbe`] (a ZST with empty
/// inline bodies — the default, costing nothing) and [`EventRecorder`]
/// (accumulates events, spans, and a cycle ledger). Simulators are generic
/// over `P: Probe` and guard any *preparation* work (formatting a label,
/// walking a list) behind `P::ENABLED` so that the disabled path does not
/// even compute the arguments' inputs where that would be measurable.
pub trait Probe {
    /// `true` for recording probes; lets callers skip argument preparation
    /// at compile time (`if P::ENABLED { ... }` folds to nothing for
    /// [`NullProbe`]).
    const ENABLED: bool;

    /// Records a cycle-stamped instant event. `proc` is the processor the
    /// event is attributed to, or `None` for system-wide events.
    #[inline]
    fn event(&mut self, at: Cycles, proc: Option<u32>, kind: EventKind) {
        let _ = (at, proc, kind);
    }

    /// Records a closed execution span `[start, end)` on `proc`.
    #[inline]
    fn span(&mut self, span: Span) {
        let _ = span;
    }

    /// Charges `cycles` on processor `proc` to `bucket` in the ledger.
    #[inline]
    fn charge(&mut self, proc: usize, bucket: Bucket, cycles: u64) {
        let _ = (proc, bucket, cycles);
    }
}

/// The do-nothing probe: every method is an empty `#[inline]` body on a
/// zero-sized type, so a simulator monomorphised with `NullProbe` compiles
/// to the same machine code as one with no probe calls at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullProbe;

impl Probe for NullProbe {
    const ENABLED: bool = false;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `ENABLED` as a runtime value, defeating the constant-assertion lint
    /// while still pinning the associated consts.
    fn enabled<P: Probe>(_: &P) -> bool {
        P::ENABLED
    }

    #[test]
    fn null_probe_is_zero_sized_and_disabled() {
        assert_eq!(std::mem::size_of::<NullProbe>(), 0);
        assert!(!enabled(&NullProbe));
        // All default bodies are callable no-ops.
        let mut p = NullProbe;
        p.event(Cycles::ZERO, None, EventKind::IsrExit);
        p.charge(0, Bucket::Idle, 7);
        p.span(Span {
            proc: 0,
            kind: SpanKind::Task,
            job: None,
            task: None,
            start: Cycles::ZERO,
            end: Cycles::new(1),
        });
    }

    #[test]
    fn recorder_is_enabled() {
        assert!(enabled(&EventRecorder::new(1)));
    }
}
