//! In-memory spans recorded by the benchmark around its calls into each
//! layer, self-time arithmetic, and the wall-time conservation check.
//!
//! Every traced thread records into its own [`Recorder`] (one *lane*). At
//! the end of a traced run the lanes are assembled into one [`Trace`],
//! each lane under a root span covering the whole traced interval. A
//! span's self time is its duration minus the union of its children, so
//! the roots' self time is exactly the unattributed `other` bucket, and
//! the self times of all spans must add up to wall time × lanes — the
//! same invariant `CycleLedger` checks on simulated cycles.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Name of the per-lane root span; its self time is the `other` bucket.
pub const LANE: &str = "trace.lane";

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer and call, e.g. `sim.prototype`.
    pub name: &'static str,
    /// Thread lane the span was recorded on.
    pub lane: usize,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the trace origin.
    pub start: u64,
    /// End, nanoseconds since the trace origin.
    pub end: u64,
    /// Cell index or request id the span belongs to.
    pub key: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Records the spans of one lane.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    lane: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder for `lane`, timing relative to `origin`.
    pub fn new(origin: Instant, lane: usize) -> Self {
        Recorder {
            origin,
            lane,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, key: u64) -> usize {
        let index = self.spans.len();
        let now = self.now();
        self.spans.push(Span {
            name,
            lane: self.lane,
            parent: self.open.last().copied(),
            start: now,
            end: now,
            key,
        });
        self.open.push(index);
        index
    }

    /// Closes the innermost open span, which must be `index`.
    pub fn exit(&mut self, index: usize) {
        let now = self.now();
        let closed = self.open.pop();
        assert_eq!(closed, Some(index), "spans must close innermost first");
        self.spans[index].end = now;
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, key: u64, f: impl FnOnce() -> R) -> R {
        let index = self.enter(name, key);
        let out = f();
        self.exit(index);
        out
    }
}

/// The assembled spans of a traced run.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Every span; the first `lanes` are the lane roots.
    pub spans: Vec<Span>,
    /// Number of lanes (traced threads).
    pub lanes: usize,
    /// Start of the traced interval, nanoseconds since the origin.
    pub start: u64,
    /// End of the traced interval.
    pub end: u64,
}

/// Where the traced busy time went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conservation {
    /// Σ self time of every span below the lane roots.
    pub attributed: u64,
    /// Self time of the lane roots: time no span covers.
    pub other: u64,
    /// Wall time × lanes.
    pub busy: u64,
}

impl Conservation {
    /// Whether attributed + other equals busy exactly.
    pub fn holds(&self) -> bool {
        self.attributed + self.other == self.busy
    }
}

/// Per-name aggregate of a trace.
#[derive(Debug, Clone, Default)]
pub struct Layer {
    /// Every span's duration, nanoseconds, in recording order.
    pub durations: Vec<u64>,
    /// Σ self time, nanoseconds.
    pub self_ns: u64,
}

impl Trace {
    /// Assembles lanes recorded over `[start, end]`. Each recorder's lane
    /// index must be below `lanes`, and all its spans must be closed.
    pub fn assemble(recorders: Vec<Recorder>, lanes: usize, start: u64, end: u64) -> Trace {
        let mut spans: Vec<Span> = (0..lanes)
            .map(|lane| Span {
                name: LANE,
                lane,
                parent: None,
                start,
                end,
                key: lane as u64,
            })
            .collect();
        for rec in recorders {
            assert!(rec.open.is_empty(), "lane {} has open spans", rec.lane);
            assert!(rec.lane < lanes, "lane {} out of range", rec.lane);
            let offset = spans.len();
            spans.extend(rec.spans.into_iter().map(|s| Span {
                parent: Some(s.parent.map_or(s.lane, |p| p + offset)),
                ..s
            }));
        }
        Trace {
            spans,
            lanes,
            start,
            end,
        }
    }

    /// Self time of every span, index-aligned with `spans`.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| self_time(s.start, s.end, kids))
            .collect()
    }

    /// The conservation ledger of this trace.
    pub fn conservation(&self) -> Conservation {
        let selfs = self.self_times();
        let other: u64 = selfs[..self.lanes].iter().sum();
        let attributed: u64 = selfs[self.lanes..].iter().sum();
        Conservation {
            attributed,
            other,
            busy: (self.end - self.start) * self.lanes as u64,
        }
    }

    /// Aggregates spans by name.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let layer = out.entry(s.name).or_default();
            layer.durations.push(s.duration());
            layer.self_ns += own;
        }
        out
    }

    /// Writes every span as CSV, once, at the end of the run.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::from("index,name,lane,parent,start_ns,end_ns,key\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{i},{},{},{parent},{},{},{}",
                s.name, s.lane, s.start, s.end, s.key
            );
        }
        std::fs::write(path, text)
    }
}

/// Self time of a span over `[start, end]` whose children cover
/// `children` (sorted in place): the duration minus the measure of the
/// union of the children, each clipped to the span.
pub fn self_time(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start) - covered
}
