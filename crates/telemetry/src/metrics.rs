//! The fleet metrics registry: monotone counters, per-shard stats, and
//! fixed-bucket latency histograms whose merge is *exact*.
//!
//! Everything here is plain integer arithmetic over fixed bucket bounds,
//! so merging two [`FleetSnapshot`]s (or two [`Histogram`]s) is
//! associative and commutative — counts add, sums add, min/max combine —
//! and a fleet-wide snapshot assembled from per-worker snapshots is
//! independent of merge order and shard order. That is the property the
//! proptest suite pins, and it is what lets worker *processes* (which
//! share no memory with the supervisor) each persist a snapshot next to
//! their journal ([`snapshot_to_text`]) for the supervisor to collect
//! and fold in ([`snapshot_from_text`] + [`FleetSnapshot::merge`])
//! without approximation.

use std::fmt;
use std::sync::Mutex;

use mpdp_core::hash::fnv1a;

use crate::event::{FleetEvent, FleetEventKind};
use crate::FleetObserver;

/// Upper bounds (inclusive, in microseconds) of the latency histogram
/// buckets. A final overflow bucket catches everything above the last
/// bound. Spanning 100 µs to 10 s covers a fast analytic cell through a
/// stalled multi-second simulation.
pub const LATENCY_BOUNDS_US: [u64; 16] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 5_000_000, 10_000_000,
];

/// Buckets including the overflow bucket.
const BUCKETS: usize = LATENCY_BOUNDS_US.len() + 1;

/// A fixed-bucket latency histogram with exact merge.
///
/// Tracks per-bucket counts plus exact count/sum/min/max, so merged
/// snapshots report the same totals as a single accumulator would have.
/// Percentiles are nearest-rank over the bucket bounds (the reported
/// value is the upper bound of the bucket containing the rank — exact
/// min/max, bucket-resolution quantiles).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum_us: u64,
    min_us: u64,
    max_us: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; BUCKETS],
            count: 0,
            sum_us: 0,
            min_us: u64::MAX,
            max_us: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample of `us` microseconds.
    pub fn record_us(&mut self, us: u64) {
        let bucket = LATENCY_BOUNDS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(LATENCY_BOUNDS_US.len());
        self.counts[bucket] += 1;
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.min_us = self.min_us.min(us);
        self.max_us = self.max_us.max(us);
    }

    /// Records one sample from a [`Duration`](std::time::Duration),
    /// saturating at `u64::MAX` microseconds.
    pub fn record(&mut self, wall: std::time::Duration) {
        self.record_us(u64::try_from(wall.as_micros()).unwrap_or(u64::MAX));
    }

    /// Folds `other` in. Exact: the result equals a single histogram fed
    /// both sample streams, in any order.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
        self.min_us = self.min_us.min(other.min_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples, in microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_us
    }

    /// Exact smallest sample, or `None` when empty.
    pub fn min_us(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min_us)
    }

    /// Exact largest sample, or `None` when empty.
    pub fn max_us(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max_us)
    }

    /// Per-bucket counts, one per bound in [`LATENCY_BOUNDS_US`] plus the
    /// overflow bucket.
    pub fn bucket_counts(&self) -> &[u64; BUCKETS] {
        &self.counts
    }

    /// Nearest-rank quantile (`q` in 0..=1) at bucket resolution: the
    /// upper bound of the bucket holding the rank, clamped to the exact
    /// max for the overflow bucket. `None` when empty.
    pub fn quantile_us(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (bucket, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(match LATENCY_BOUNDS_US.get(bucket) {
                    Some(&bound) => bound.min(self.max_us),
                    None => self.max_us,
                });
            }
        }
        Some(self.max_us)
    }
}

/// Per-shard supervision counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Worker processes launched (including failed spawn attempts, to
    /// match `ShardReport::launches`).
    pub launches: u64,
    /// Launches after the first (retries + chaos relaunches).
    pub relaunches: u64,
    /// Organic failures retried or terminal.
    pub retries: u64,
    /// Chaos SIGKILLs delivered to this shard's workers.
    pub chaos_kills: u64,
    /// High-water mark of durably journaled cells.
    pub journaled: u64,
    /// Whether the shard completed its range.
    pub done: bool,
}

/// One coherent view of every fleet counter and histogram.
///
/// Supervisor-side counters come from supervise events; cell-level
/// counters and histograms come from executor events (in worker
/// processes, shipped back via the text snapshot). [`merge`] adds
/// field-wise, so disjoint sources fold together exactly.
///
/// [`merge`]: FleetSnapshot::merge
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetSnapshot {
    /// Worker launches, including failed spawn attempts — matches the
    /// sum of `ShardReport::launches`.
    pub launches: u64,
    /// Launches after a shard's first.
    pub relaunches: u64,
    /// Organic failures recorded (retried or budget-exhausting) —
    /// matches the sum of `ShardReport::failures` lengths.
    pub retries: u64,
    /// Chaos SIGKILLs delivered.
    pub chaos_kills: u64,
    /// Stall-watchdog kills delivered.
    pub stall_kills: u64,
    /// Journals torn mid-record by chaos injection.
    pub torn_journals: u64,
    /// Chaos kills skipped because the worker finished first.
    pub chaos_skipped: u64,
    /// Failures by kind: spawn errors.
    pub failures_spawn: u64,
    /// Failures by kind: nonzero exits.
    pub failures_exited: u64,
    /// Failures by kind: fatal signals.
    pub failures_crashed: u64,
    /// Failures by kind: stalls (the journal stopped growing).
    pub failures_stalled: u64,
    /// Failures by kind: clean exits with short journals.
    pub failures_incomplete: u64,
    /// Shards whose journal covers their range.
    pub shards_done: u64,
    /// Journal merges performed.
    pub merges: u64,
    /// Cells in merged reports.
    pub merged_cells: u64,
    /// Cells executed by the self-healing executor (re-executions after
    /// a crash count again — this is work done, not coverage).
    pub cells_executed: u64,
    /// Cells recovered from checkpoint journals instead of executed.
    pub cells_resumed: u64,
    /// Failed cell attempts that were retried in-process.
    pub cell_retries: u64,
    /// Cell-cache lookups answered from the content-addressed cache.
    pub cache_hits: u64,
    /// Cell-cache lookups that fell through to execution.
    pub cache_misses: u64,
    /// Cache records dropped by capped-size segment eviction.
    pub cache_evictions: u64,
    /// Bytes of cache segment data loaded plus appended (high-water,
    /// reported as deltas by workers so merge stays additive).
    pub cache_bytes: u64,
    /// Wall latency of successful cell attempt chains.
    pub cell_wall_us: Histogram,
    /// Backoff sleeps scheduled (supervisor relaunches and in-process
    /// cell retries).
    pub backoff_us: Histogram,
    /// Per-shard stats, sorted by shard index.
    pub shards: Vec<ShardStats>,
}

/// A named scalar-counter accessor on a snapshot.
type CounterAccessor = (&'static str, fn(&FleetSnapshot) -> u64);

/// Scalar counter names, in canonical export order, paired with an
/// accessor. Shared by the text format and every exporter so they can
/// never drift.
const COUNTERS: &[CounterAccessor] = &[
    ("launches", |s| s.launches),
    ("relaunches", |s| s.relaunches),
    ("retries", |s| s.retries),
    ("chaos_kills", |s| s.chaos_kills),
    ("stall_kills", |s| s.stall_kills),
    ("torn_journals", |s| s.torn_journals),
    ("chaos_skipped", |s| s.chaos_skipped),
    ("failures_spawn", |s| s.failures_spawn),
    ("failures_exited", |s| s.failures_exited),
    ("failures_crashed", |s| s.failures_crashed),
    ("failures_stalled", |s| s.failures_stalled),
    ("failures_incomplete", |s| s.failures_incomplete),
    ("shards_done", |s| s.shards_done),
    ("merges", |s| s.merges),
    ("merged_cells", |s| s.merged_cells),
    ("cells_executed", |s| s.cells_executed),
    ("cells_resumed", |s| s.cells_resumed),
    ("cell_retries", |s| s.cell_retries),
    ("cache_hits", |s| s.cache_hits),
    ("cache_misses", |s| s.cache_misses),
    ("cache_evictions", |s| s.cache_evictions),
    ("cache_bytes", |s| s.cache_bytes),
];

impl FleetSnapshot {
    /// Every scalar counter as `(name, value)`, in canonical order.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        COUNTERS
            .iter()
            .map(|(name, get)| (*name, get(self)))
            .collect()
    }

    /// The named histograms as `(name, histogram)`, in canonical order.
    pub fn histograms(&self) -> [(&'static str, &Histogram); 2] {
        [
            ("cell_wall_us", &self.cell_wall_us),
            ("backoff_us", &self.backoff_us),
        ]
    }

    fn counter_mut(&mut self, name: &str) -> Option<&mut u64> {
        Some(match name {
            "launches" => &mut self.launches,
            "relaunches" => &mut self.relaunches,
            "retries" => &mut self.retries,
            "chaos_kills" => &mut self.chaos_kills,
            "stall_kills" => &mut self.stall_kills,
            "torn_journals" => &mut self.torn_journals,
            "chaos_skipped" => &mut self.chaos_skipped,
            "failures_spawn" => &mut self.failures_spawn,
            "failures_exited" => &mut self.failures_exited,
            "failures_crashed" => &mut self.failures_crashed,
            "failures_stalled" => &mut self.failures_stalled,
            "failures_incomplete" => &mut self.failures_incomplete,
            "shards_done" => &mut self.shards_done,
            "merges" => &mut self.merges,
            "merged_cells" => &mut self.merged_cells,
            "cells_executed" => &mut self.cells_executed,
            "cells_resumed" => &mut self.cells_resumed,
            "cell_retries" => &mut self.cell_retries,
            "cache_hits" => &mut self.cache_hits,
            "cache_misses" => &mut self.cache_misses,
            "cache_evictions" => &mut self.cache_evictions,
            "cache_bytes" => &mut self.cache_bytes,
            _ => return None,
        })
    }

    fn shard_mut(&mut self, shard: usize) -> &mut ShardStats {
        let pos = match self.shards.binary_search_by_key(&shard, |s| s.shard) {
            Ok(pos) => pos,
            Err(pos) => {
                self.shards.insert(
                    pos,
                    ShardStats {
                        shard,
                        ..ShardStats::default()
                    },
                );
                pos
            }
        };
        &mut self.shards[pos]
    }

    /// Folds `other` in, field-wise: counters and histograms add,
    /// per-shard stats add by shard index (`done` ORs, `journaled` takes
    /// the high-water mark). Exact and order-independent.
    pub fn merge(&mut self, other: &FleetSnapshot) {
        for (name, get) in COUNTERS {
            *self.counter_mut(name).expect("canonical counter") += get(other);
        }
        self.cell_wall_us.merge(&other.cell_wall_us);
        self.backoff_us.merge(&other.backoff_us);
        for theirs in &other.shards {
            let mine = self.shard_mut(theirs.shard);
            mine.launches += theirs.launches;
            mine.relaunches += theirs.relaunches;
            mine.retries += theirs.retries;
            mine.chaos_kills += theirs.chaos_kills;
            mine.journaled = mine.journaled.max(theirs.journaled);
            mine.done |= theirs.done;
        }
    }

    /// Folds one event into the snapshot. This is the single place event
    /// semantics turn into counters; [`MetricsRegistry`] is a `Mutex`
    /// around calls to this.
    pub fn apply(&mut self, event: &FleetEvent) {
        let shard = event.shard;
        match &event.kind {
            FleetEventKind::ShardLaunched { launch, .. } => {
                self.launches += 1;
                if *launch > 1 {
                    self.relaunches += 1;
                }
                if let Some(i) = shard {
                    let s = self.shard_mut(i);
                    s.launches += 1;
                    if *launch > 1 {
                        s.relaunches += 1;
                    }
                }
            }
            FleetEventKind::Heartbeat { journaled } => {
                if let Some(i) = shard {
                    let s = self.shard_mut(i);
                    s.journaled = s.journaled.max(*journaled as u64);
                }
            }
            FleetEventKind::Stalled { .. } => self.stall_kills += 1,
            FleetEventKind::ChaosKill { .. } => {
                self.chaos_kills += 1;
                if let Some(i) = shard {
                    self.shard_mut(i).chaos_kills += 1;
                }
            }
            FleetEventKind::ChaosSkipped { remaining } => {
                self.chaos_skipped += *remaining as u64;
            }
            FleetEventKind::JournalTear => self.torn_journals += 1,
            FleetEventKind::ChaosReaped => {}
            FleetEventKind::Retry { failure, backoff } => {
                self.record_failure(shard, failure.counter_name());
                self.backoff_us
                    .record_us(u64::try_from(backoff.as_micros()).unwrap_or(u64::MAX));
            }
            FleetEventKind::RetriesExhausted { failure, .. } => {
                self.record_failure(shard, failure.counter_name());
            }
            FleetEventKind::Resumed { cells } => {
                if let Some(i) = shard {
                    let s = self.shard_mut(i);
                    s.journaled = s.journaled.max(*cells as u64);
                }
            }
            FleetEventKind::ShardDone { cells, .. } => {
                self.shards_done += 1;
                if let Some(i) = shard {
                    let s = self.shard_mut(i);
                    s.done = true;
                    s.journaled = s.journaled.max(*cells as u64);
                }
            }
            FleetEventKind::MergeStarted { .. } => {}
            FleetEventKind::MergeDone { cells, .. } => {
                self.merges += 1;
                self.merged_cells += *cells as u64;
            }
            FleetEventKind::CellDone { wall, .. } => {
                self.cells_executed += 1;
                self.cell_wall_us.record(*wall);
            }
            FleetEventKind::CellRetried { backoff, .. } => {
                self.cell_retries += 1;
                self.backoff_us
                    .record_us(u64::try_from(backoff.as_micros()).unwrap_or(u64::MAX));
            }
            FleetEventKind::CellResumed { .. } => self.cells_resumed += 1,
            FleetEventKind::CacheReport {
                hits,
                misses,
                evictions,
                bytes,
            } => {
                self.cache_hits += hits;
                self.cache_misses += misses;
                self.cache_evictions += evictions;
                self.cache_bytes += bytes;
            }
        }
    }

    /// Books one organic failure. A failed *spawn* also counts as a
    /// launch: the supervisor increments `ShardReport::launches` for
    /// spawn attempts that never produced a process (and hence no
    /// [`ShardLaunched`](FleetEventKind::ShardLaunched) event), and the
    /// snapshot's launch counter must match the reports exactly.
    fn record_failure(&mut self, shard: Option<usize>, kind: &str) {
        self.retries += 1;
        let is_spawn = kind == "spawn";
        if is_spawn {
            self.launches += 1;
        }
        match kind {
            "spawn" => self.failures_spawn += 1,
            "exited" => self.failures_exited += 1,
            "crashed" => self.failures_crashed += 1,
            "stalled" => self.failures_stalled += 1,
            _ => self.failures_incomplete += 1,
        }
        if let Some(i) = shard {
            let s = self.shard_mut(i);
            s.retries += 1;
            if is_spawn {
                s.launches += 1;
            }
        }
    }
}

/// The thread-safe event-to-counters observer: a `Mutex` around a
/// [`FleetSnapshot`].
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<FleetSnapshot>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// A registry pre-loaded with `snapshot` — how a relaunched worker
    /// resumes the counters it persisted before a crash.
    pub fn preloaded(snapshot: FleetSnapshot) -> Self {
        MetricsRegistry {
            inner: Mutex::new(snapshot),
        }
    }

    /// The current counters, cloned coherently.
    pub fn snapshot(&self) -> FleetSnapshot {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// Raises `cells_executed` to at least `floor` — the relaunch
    /// reconciliation hook. The sidecar snapshot a worker resumes from is
    /// persisted *after* the journal append that the counter books, so a
    /// kill in that window leaves the snapshot one behind the journal.
    /// The journal's recovered-record count is ground truth for work
    /// durably completed; a relaunching worker floors the counter with it
    /// so kill-only chaos never undercounts. (Never lowers the counter:
    /// re-executions after a journal tear legitimately exceed the
    /// journal's count.)
    pub fn floor_cells_executed(&self, floor: u64) {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.cells_executed = inner.cells_executed.max(floor);
    }
}

impl FleetObserver for MetricsRegistry {
    fn event(&self, event: &FleetEvent) {
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .apply(event);
    }
}

/// A [`snapshot_from_text`] failure: line number (1-based) and diagnosis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotParseError {
    /// 1-based line number in the snapshot text.
    pub line: usize,
    /// What was wrong.
    pub detail: String,
}

impl fmt::Display for SnapshotParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "metrics snapshot line {}: {}", self.line, self.detail)
    }
}

impl std::error::Error for SnapshotParseError {}

/// Header line of the worker snapshot text format.
pub const SNAPSHOT_HEADER: &str = "mpdp-fleet-metrics-text/1";

/// Serializes a snapshot as the line-based text format worker processes
/// persist next to their journals (`shard-N.metrics`): a version header,
/// one `counter name value` line per scalar, one
/// `hist name count sum min max b0..b16` line per histogram, one
/// `shard index launches relaunches retries chaos_kills journaled done`
/// line per shard, and a final `crc <16-hex FNV-1a of everything above>`
/// trailer. The trailer is what makes truncation *detectable*: every
/// proper prefix of the body is itself well-formed lines, so without it a
/// torn sidecar would silently parse as a snapshot with lower counters.
/// Round-trips exactly through [`snapshot_from_text`].
pub fn snapshot_to_text(snapshot: &FleetSnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str(SNAPSHOT_HEADER);
    out.push('\n');
    for (name, value) in snapshot.counters() {
        let _ = writeln!(out, "counter {name} {value}");
    }
    for (name, hist) in snapshot.histograms() {
        let _ = write!(
            out,
            "hist {name} {} {} {} {}",
            hist.count, hist.sum_us, hist.min_us, hist.max_us
        );
        for n in hist.counts.iter() {
            let _ = write!(out, " {n}");
        }
        out.push('\n');
    }
    for s in &snapshot.shards {
        let _ = writeln!(
            out,
            "shard {} {} {} {} {} {} {}",
            s.shard,
            s.launches,
            s.relaunches,
            s.retries,
            s.chaos_kills,
            s.journaled,
            u64::from(s.done)
        );
    }
    let crc = fnv1a(out.as_bytes());
    let _ = writeln!(out, "crc {crc:016x}");
    out
}

fn parse_field<T: std::str::FromStr>(
    field: Option<&str>,
    line: usize,
    what: &str,
) -> Result<T, SnapshotParseError> {
    field
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| SnapshotParseError {
            line,
            detail: format!("missing or malformed {what}"),
        })
}

/// Splits off and verifies the `crc` trailer line, returning the body it
/// covers. The trailer must be the final newline-terminated line of the
/// text; anything else — no trailing newline (torn mid-line), a missing
/// trailer (torn at a line boundary), or a checksum mismatch (corrupt
/// body) — is an error.
fn verify_crc_trailer(text: &str) -> Result<&str, SnapshotParseError> {
    let fail = |detail: String| SnapshotParseError {
        line: text.lines().count().max(1),
        detail,
    };
    let complete = text
        .strip_suffix('\n')
        .ok_or_else(|| fail("torn snapshot: no final newline".to_string()))?;
    let trailer_start = complete.rfind('\n').map_or(0, |i| i + 1);
    let trailer = &complete[trailer_start..];
    let crc = trailer
        .strip_prefix("crc ")
        .filter(|hex| hex.len() == 16)
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or_else(|| fail("missing crc trailer (torn or pre-crc snapshot)".to_string()))?;
    let body = &text[..trailer_start];
    if crc != fnv1a(body.as_bytes()) {
        return Err(fail("crc mismatch (torn or corrupt snapshot)".to_string()));
    }
    Ok(body)
}

/// Parses the text format [`snapshot_to_text`] writes.
///
/// Strict: an unknown record kind, counter, or histogram name, a
/// malformed number, a wrong bucket count, or a missing/mismatched `crc`
/// trailer is an error — a torn or foreign file must never fold garbage
/// into fleet totals. The trailer check is what catches truncation at a
/// line boundary, where every surviving line still parses.
pub fn snapshot_from_text(text: &str) -> Result<FleetSnapshot, SnapshotParseError> {
    let body = verify_crc_trailer(text)?;
    let mut lines = body.lines().enumerate();
    match lines.next() {
        Some((_, header)) if header == SNAPSHOT_HEADER => {}
        _ => {
            return Err(SnapshotParseError {
                line: 1,
                detail: format!("expected header {SNAPSHOT_HEADER:?}"),
            })
        }
    }
    let mut snapshot = FleetSnapshot::default();
    for (index, line) in lines {
        let lineno = index + 1;
        let mut fields = line.split_whitespace();
        match fields.next() {
            Some("counter") => {
                let name = parse_field::<String>(fields.next(), lineno, "counter name")?;
                let value = parse_field::<u64>(fields.next(), lineno, "counter value")?;
                match snapshot.counter_mut(&name) {
                    Some(slot) => *slot = value,
                    None => {
                        return Err(SnapshotParseError {
                            line: lineno,
                            detail: format!("unknown counter {name:?}"),
                        })
                    }
                }
            }
            Some("hist") => {
                let name = parse_field::<String>(fields.next(), lineno, "histogram name")?;
                let mut hist = Histogram::new();
                hist.count = parse_field(fields.next(), lineno, "histogram count")?;
                hist.sum_us = parse_field(fields.next(), lineno, "histogram sum")?;
                hist.min_us = parse_field(fields.next(), lineno, "histogram min")?;
                hist.max_us = parse_field(fields.next(), lineno, "histogram max")?;
                for bucket in 0..BUCKETS {
                    hist.counts[bucket] = parse_field(fields.next(), lineno, "histogram bucket")?;
                }
                match name.as_str() {
                    "cell_wall_us" => snapshot.cell_wall_us = hist,
                    "backoff_us" => snapshot.backoff_us = hist,
                    _ => {
                        return Err(SnapshotParseError {
                            line: lineno,
                            detail: format!("unknown histogram {name:?}"),
                        })
                    }
                }
            }
            Some("shard") => {
                let shard = ShardStats {
                    shard: parse_field(fields.next(), lineno, "shard index")?,
                    launches: parse_field(fields.next(), lineno, "shard launches")?,
                    relaunches: parse_field(fields.next(), lineno, "shard relaunches")?,
                    retries: parse_field(fields.next(), lineno, "shard retries")?,
                    chaos_kills: parse_field(fields.next(), lineno, "shard chaos kills")?,
                    journaled: parse_field(fields.next(), lineno, "shard journaled")?,
                    done: parse_field::<u64>(fields.next(), lineno, "shard done flag")? != 0,
                };
                snapshot.shards.push(shard);
            }
            Some(other) => {
                return Err(SnapshotParseError {
                    line: lineno,
                    detail: format!("unknown record kind {other:?}"),
                })
            }
            None => continue,
        }
        if let Some(extra) = fields.next() {
            return Err(SnapshotParseError {
                line: lineno,
                detail: format!("trailing field {extra:?}"),
            });
        }
    }
    snapshot.shards.sort_by_key(|s| s.shard);
    Ok(snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn ev(shard: Option<usize>, kind: FleetEventKind) -> FleetEvent {
        FleetEvent {
            at: Duration::ZERO,
            shard,
            kind,
        }
    }

    #[test]
    fn histogram_tracks_exact_count_sum_min_max() {
        let mut h = Histogram::new();
        assert_eq!(h.min_us(), None);
        assert_eq!(h.quantile_us(0.5), None);
        for us in [90, 400, 400, 12_000_000] {
            h.record_us(us);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum_us(), 12_000_890);
        assert_eq!(h.min_us(), Some(90));
        assert_eq!(h.max_us(), Some(12_000_000));
        // 90 lands in the ≤100 bucket, both 400s in ≤500, the huge one
        // in overflow.
        assert_eq!(h.bucket_counts()[0], 1);
        assert_eq!(h.bucket_counts()[2], 2);
        assert_eq!(h.bucket_counts()[BUCKETS - 1], 1);
        // p50 rank 2 → ≤500 bucket; p99 rank 4 → overflow → exact max.
        assert_eq!(h.quantile_us(0.5), Some(500));
        assert_eq!(h.quantile_us(0.99), Some(12_000_000));
    }

    #[test]
    fn histogram_merge_equals_single_accumulator() {
        let samples = [3u64, 77, 1_500, 9_999, 123_456, 10_000_001];
        let mut whole = Histogram::new();
        for &s in &samples {
            whole.record_us(s);
        }
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        for (i, &s) in samples.iter().enumerate() {
            if i % 2 == 0 {
                left.record_us(s);
            } else {
                right.record_us(s);
            }
        }
        left.merge(&right);
        assert_eq!(left, whole);
    }

    #[test]
    fn apply_books_the_supervisor_event_vocabulary() {
        let mut s = FleetSnapshot::default();
        s.apply(&ev(
            Some(1),
            FleetEventKind::ShardLaunched {
                pid: 1,
                launch: 1,
                cells_start: 0,
                cells_end: 9,
            },
        ));
        s.apply(&ev(
            Some(1),
            FleetEventKind::ChaosKill {
                journaled: 4,
                threshold: 3,
            },
        ));
        s.apply(&ev(Some(1), FleetEventKind::JournalTear));
        s.apply(&ev(Some(1), FleetEventKind::ChaosReaped));
        s.apply(&ev(
            Some(1),
            FleetEventKind::ShardLaunched {
                pid: 2,
                launch: 2,
                cells_start: 0,
                cells_end: 9,
            },
        ));
        s.apply(&ev(Some(1), FleetEventKind::Resumed { cells: 4 }));
        s.apply(&ev(
            Some(1),
            FleetEventKind::ShardDone {
                cells: 9,
                launches: 2,
            },
        ));
        assert_eq!(s.launches, 2);
        assert_eq!(s.relaunches, 1);
        assert_eq!(s.chaos_kills, 1);
        assert_eq!(s.torn_journals, 1);
        assert_eq!(s.shards_done, 1);
        assert_eq!(s.retries, 0, "chaos is budget-exempt");
        let shard = &s.shards[0];
        assert_eq!((shard.shard, shard.launches, shard.chaos_kills), (1, 2, 1));
        assert_eq!(shard.journaled, 9);
        assert!(shard.done);
    }

    #[test]
    fn spawn_failures_count_as_launches_to_match_shard_reports() {
        let mut s = FleetSnapshot::default();
        s.apply(&ev(
            Some(0),
            FleetEventKind::Retry {
                failure: crate::FailureKind::Spawn {
                    detail: "enoent".into(),
                },
                backoff: Duration::from_millis(1),
            },
        ));
        assert_eq!(s.launches, 1);
        assert_eq!(s.failures_spawn, 1);
        assert_eq!(s.retries, 1);
        assert_eq!(s.backoff_us.count(), 1);
        assert_eq!(s.shards[0].launches, 1);
    }

    #[test]
    fn text_format_round_trips_exactly() {
        let mut s = FleetSnapshot::default();
        for event in [
            ev(
                Some(0),
                FleetEventKind::ShardLaunched {
                    pid: 7,
                    launch: 1,
                    cells_start: 0,
                    cells_end: 4,
                },
            ),
            ev(
                Some(0),
                FleetEventKind::CellDone {
                    cell: 2,
                    wall: Duration::from_micros(740),
                    attempts: 1,
                },
            ),
            ev(
                Some(0),
                FleetEventKind::CellRetried {
                    cell: 2,
                    backoff: Duration::from_millis(2),
                },
            ),
            ev(Some(0), FleetEventKind::CellResumed { cell: 1 }),
        ] {
            s.apply(&event);
        }
        let text = snapshot_to_text(&s);
        let parsed = snapshot_from_text(&text).expect("round-trip parses");
        assert_eq!(parsed, s);
        assert_eq!(snapshot_to_text(&parsed), text);
    }

    #[test]
    fn cache_reports_fold_as_deltas_and_floor_never_lowers() {
        let mut s = FleetSnapshot::default();
        s.apply(&ev(
            None,
            FleetEventKind::CacheReport {
                hits: 3,
                misses: 2,
                evictions: 1,
                bytes: 100,
            },
        ));
        s.apply(&ev(
            Some(1),
            FleetEventKind::CacheReport {
                hits: 1,
                misses: 0,
                evictions: 0,
                bytes: 20,
            },
        ));
        assert_eq!(
            (
                s.cache_hits,
                s.cache_misses,
                s.cache_evictions,
                s.cache_bytes
            ),
            (4, 2, 1, 120)
        );
        let text = snapshot_to_text(&s);
        assert_eq!(snapshot_from_text(&text).expect("round-trips"), s);

        let reg = MetricsRegistry::preloaded(s);
        reg.floor_cells_executed(5);
        assert_eq!(reg.snapshot().cells_executed, 5);
        reg.floor_cells_executed(2);
        assert_eq!(reg.snapshot().cells_executed, 5, "floor never lowers");
    }

    #[test]
    fn parser_rejects_garbage_loudly() {
        assert!(snapshot_from_text("").is_err(), "missing header");
        assert!(snapshot_from_text("not-the-header\n").is_err());
        let bad_counter = format!("{SNAPSHOT_HEADER}\ncounter bogus 3\n");
        assert!(snapshot_from_text(&bad_counter).is_err());
        let bad_value = format!("{SNAPSHOT_HEADER}\ncounter launches x\n");
        assert!(snapshot_from_text(&bad_value).is_err());
        let trailing = format!("{SNAPSHOT_HEADER}\ncounter launches 1 2\n");
        assert!(snapshot_from_text(&trailing).is_err());
        let torn = format!("{SNAPSHOT_HEADER}\nhist cell_wall_us 1 2 3\n");
        assert!(snapshot_from_text(&torn).is_err(), "short histogram line");
    }

    #[test]
    fn every_truncation_of_a_snapshot_is_rejected() {
        let mut s = FleetSnapshot::default();
        s.apply(&ev(
            Some(3),
            FleetEventKind::CellDone {
                cell: 0,
                wall: Duration::from_micros(321),
                attempts: 1,
            },
        ));
        let text = snapshot_to_text(&s);
        assert_eq!(snapshot_from_text(&text).expect("full text parses"), s);
        // Any strict prefix — mid-line or at a line boundary — must fail:
        // without the crc trailer a boundary truncation would silently
        // parse as a snapshot with lower counters.
        for cut in 0..text.len() {
            assert!(
                snapshot_from_text(&text[..cut]).is_err(),
                "truncation at byte {cut} parsed"
            );
        }
    }

    #[test]
    fn corrupted_snapshot_body_fails_the_crc() {
        let text = snapshot_to_text(&FleetSnapshot::default());
        // Flip one digit inside a counter line; every line still parses,
        // so only the trailer can catch it.
        let corrupted = text.replacen("counter launches 0", "counter launches 9", 1);
        assert_ne!(corrupted, text);
        let err = snapshot_from_text(&corrupted).expect_err("crc must catch the flip");
        assert!(err.detail.contains("crc mismatch"), "{err}");
    }

    #[test]
    fn snapshot_merge_is_field_wise_and_shard_aware() {
        let mut a = FleetSnapshot::default();
        a.apply(&ev(
            Some(2),
            FleetEventKind::ShardLaunched {
                pid: 1,
                launch: 1,
                cells_start: 0,
                cells_end: 3,
            },
        ));
        let mut b = FleetSnapshot::default();
        b.apply(&ev(
            Some(2),
            FleetEventKind::ShardDone {
                cells: 3,
                launches: 1,
            },
        ));
        b.apply(&ev(Some(5), FleetEventKind::Heartbeat { journaled: 8 }));
        a.merge(&b);
        assert_eq!(a.launches, 1);
        assert_eq!(a.shards_done, 1);
        assert_eq!(a.shards.len(), 2);
        assert_eq!(a.shards[0].shard, 2);
        assert!(a.shards[0].done);
        assert_eq!(a.shards[1].journaled, 8);
    }
}
