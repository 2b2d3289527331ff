//! # mpdp-telemetry — fleet telemetry for sharded sweeps
//!
//! The observability layer for the sweep/shard pipeline, mirroring the
//! zero-cost pattern [`mpdp-obs`](mpdp_obs) proved for the simulators:
//! the supervisor and the self-healing executor emit typed
//! [`FleetEvent`]s through a [`FleetObserver`] whose no-op impl
//! ([`NullFleetObserver`]) monomorphizes away — the disabled path
//! allocates nothing, formats nothing, and reads no clock.
//!
//! Three consumers ship with the crate:
//!
//! - [`TranscriptObserver`] — the compat adapter: renders events back
//!   into the supervisor's human-readable recovery transcript,
//!   byte-identical to the lines the `FnMut(&str)` callback printed
//!   before this crate existed.
//! - [`MetricsRegistry`] — folds events into a [`FleetSnapshot`] of
//!   monotone counters, per-shard stats, and fixed-bucket latency
//!   [`Histogram`]s whose merge is exact (associative, commutative), so
//!   worker-process snapshots recombine without approximation. Snapshots
//!   round-trip through a line-based text format
//!   ([`snapshot_to_text`]/[`snapshot_from_text`]) that workers persist
//!   next to their journals for the supervisor to collect.
//! - [`FleetRecorder`] — keeps the raw event stream for the
//!   [`fleet_trace_json`] Perfetto timeline (one track per shard, spans
//!   per launch attempt, instants for kills/tears/stalls) and for
//!   transcript replay.
//!
//! Exporters: [`prometheus_text`] (text exposition),
//! [`metrics_json`]/[`metrics_csv`] (schema-stamped snapshots whose
//! structure [`validate_metrics_json`] checks through
//! [`mpdp_obs::parse_json`]), [`fleet_trace_json`] (Chrome Trace Event
//! Format through `mpdp-obs`'s one trace writer, loadable at
//! <https://ui.perfetto.dev>). [`ServeMetrics`] is the `mpdpd` daemon's
//! request-lifecycle registry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod metrics;
pub mod perfetto;
pub mod recorder;
pub mod serve;
pub mod transcript;

pub use event::{FailureKind, FleetEvent, FleetEventKind};
pub use export::{metrics_csv, metrics_json, prometheus_text, validate_metrics_json};
pub use metrics::{
    snapshot_from_text, snapshot_to_text, FleetSnapshot, Histogram, MetricsRegistry, ShardStats,
    SnapshotParseError, LATENCY_BOUNDS_US,
};
pub use perfetto::fleet_trace_json;
pub use recorder::FleetRecorder;
pub use serve::{serve_prometheus_text, ServeEndpoint, ServeEvent, ServeMetrics, ServeSnapshot};
pub use transcript::TranscriptObserver;

/// A sink for [`FleetEvent`]s.
///
/// The pattern is `mpdp_obs::Probe`'s, lifted to the fleet: emitters are
/// generic over `O: FleetObserver` and guard all event construction
/// behind `if O::ENABLED`, so with [`NullFleetObserver`] the entire
/// telemetry path — clock reads, string formatting, journal stats —
/// compiles out and the code is exactly what it was before telemetry
/// existed.
///
/// Methods take `&self` so one observer can be shared by the executor's
/// scoped worker threads; implementations use interior mutability (the
/// shipped ones wrap a `Mutex`).
pub trait FleetObserver {
    /// Whether this observer consumes events. Emitters skip event
    /// construction entirely when this is `false`.
    const ENABLED: bool = true;

    /// Receives one event. Events from a single-threaded emitter (the
    /// supervisor) arrive in order; concurrent cell workers interleave.
    fn event(&self, event: &FleetEvent);
}

/// The disabled observer: telemetry compiled out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullFleetObserver;

impl FleetObserver for NullFleetObserver {
    const ENABLED: bool = false;

    #[inline(always)]
    fn event(&self, _event: &FleetEvent) {}
}

impl<O: FleetObserver + ?Sized> FleetObserver for &O {
    const ENABLED: bool = O::ENABLED;

    #[inline]
    fn event(&self, event: &FleetEvent) {
        (**self).event(event);
    }
}

impl<A: FleetObserver, B: FleetObserver> FleetObserver for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    #[inline]
    fn event(&self, event: &FleetEvent) {
        if A::ENABLED {
            self.0.event(event);
        }
        if B::ENABLED {
            self.1.event(event);
        }
    }
}

impl<A: FleetObserver, B: FleetObserver, C: FleetObserver> FleetObserver for (A, B, C) {
    const ENABLED: bool = A::ENABLED || B::ENABLED || C::ENABLED;

    #[inline]
    fn event(&self, event: &FleetEvent) {
        if A::ENABLED {
            self.0.event(event);
        }
        if B::ENABLED {
            self.1.event(event);
        }
        if C::ENABLED {
            self.2.event(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn ev(kind: FleetEventKind) -> FleetEvent {
        FleetEvent {
            at: Duration::from_millis(1),
            shard: Some(0),
            kind,
        }
    }

    #[test]
    fn null_observer_is_disabled_and_composition_tracks_it() {
        const { assert!(!NullFleetObserver::ENABLED) };
        const { assert!(!<(NullFleetObserver, NullFleetObserver)>::ENABLED) };
        const { assert!(<(NullFleetObserver, MetricsRegistry)>::ENABLED) };
        const { assert!(<(NullFleetObserver, NullFleetObserver, FleetRecorder)>::ENABLED) };
        const { assert!(!<&NullFleetObserver as FleetObserver>::ENABLED) };
    }

    #[test]
    fn tuple_composition_forwards_to_every_enabled_member() {
        let registry = MetricsRegistry::new();
        let recorder = FleetRecorder::new();
        let both = (&registry, &recorder);
        both.event(&ev(FleetEventKind::JournalTear));
        assert_eq!(registry.snapshot().torn_journals, 1);
        assert_eq!(recorder.events().len(), 1);
    }
}
