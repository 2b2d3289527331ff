//! An observer that keeps the raw event stream.
//!
//! The recorder is the source for the Perfetto fleet timeline
//! ([`fleet_trace_json`](crate::fleet_trace_json)) and for transcript
//! replay (rendering each recorded event through
//! [`TranscriptObserver::render`](crate::TranscriptObserver::render)
//! reproduces the live transcript byte-identically — the golden tests'
//! lever).

use std::sync::Mutex;

use crate::event::FleetEvent;
use crate::FleetObserver;

/// Records every event, in arrival order.
#[derive(Debug, Default)]
pub struct FleetRecorder {
    events: Mutex<Vec<FleetEvent>>,
}

impl FleetRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        FleetRecorder::default()
    }

    /// The events recorded so far, cloned in arrival order.
    pub fn events(&self) -> Vec<FleetEvent> {
        self.events
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Consumes the recorder, returning the events without cloning. Kept
    /// for `tests/resume.rs::a_range_runs_one_shard_and_reports_progress`.
    pub fn into_events(self) -> Vec<FleetEvent> {
        self.events.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

impl FleetObserver for FleetRecorder {
    fn event(&self, event: &FleetEvent) {
        self.events
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FleetEventKind;
    use std::time::Duration;

    #[test]
    fn records_in_arrival_order() {
        let rec = FleetRecorder::new();
        for journaled in 0..3 {
            rec.event(&FleetEvent {
                at: Duration::from_millis(journaled as u64),
                shard: Some(0),
                kind: FleetEventKind::Heartbeat { journaled },
            });
        }
        let events = rec.into_events();
        assert_eq!(events.len(), 3);
        assert!(events.windows(2).all(|pair| pair[0].at <= pair[1].at));
    }
}
