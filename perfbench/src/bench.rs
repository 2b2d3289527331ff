//! The runner: one workload per invocation, untraced (end-to-end
//! metrics) or traced (per-layer metrics), with every output check.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mpdp_sweep::{run_cell, CellResult, SweepSpec};

use crate::serve::{self, ConnLog, Daemon, Kind, SessionLog, CONNECTIONS};
use crate::stats::{self, quartiles, us, Samples, Tally};
use crate::sweeps::{self, Exports, FanoutCounters, Memo, WORKERS};
use crate::trace::{Layer, Recorder, Trace};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["sweep_mc", "serve_mixed"];

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run; a
/// layer the workload does not reach reads zero.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.prototype.self_ms", "ms"),
    ("sim.prototype.p50_us", "us"),
    ("sim.prototype.p99_us", "us"),
    ("sim.prototype.iterations", "count"),
    ("sim.prototype.ns_per_iter", "ns"),
    ("sim.theoretical.self_ms", "ms"),
    ("sim.theoretical.p50_us", "us"),
    ("workload.task_set.p50_us", "us"),
    ("analysis.prepare.calls", "count"),
    ("analysis.prepare.p50_us", "us"),
    ("analysis.open.p50_us", "us"),
    ("analysis.at.p50_us", "us"),
    ("analysis.headroom.p50_us", "us"),
    ("sweep.cell.p50_us", "us"),
    ("sweep.cell.p99_us", "us"),
    ("sweep.cell.other_us", "us"),
    ("sweep.fanout.busy_ratio", "ratio"),
    ("sweep.report.ms", "ms"),
    ("mpdpd.parse_ns", "ns"),
    ("mpdpd.open.count", "count"),
    ("mpdpd.open.p50_us", "us"),
    ("mpdpd.open.p99_us", "us"),
    ("mpdpd.admit.count", "count"),
    ("mpdpd.admit.p50_us", "us"),
    ("mpdpd.admit.p99_us", "us"),
    ("mpdpd.close.count", "count"),
    ("mpdpd.close.p50_us", "us"),
    ("mpdpd.close.p99_us", "us"),
    ("mpdpd.verdict.count", "count"),
    ("mpdpd.verdict.p50_us", "us"),
    ("mpdpd.verdict.p99_us", "us"),
    ("mpdpd.at.count", "count"),
    ("mpdpd.at.p50_us", "us"),
    ("mpdpd.at.p99_us", "us"),
    ("mpdpd.headroom.count", "count"),
    ("mpdpd.headroom.p50_us", "us"),
    ("mpdpd.headroom.p99_us", "us"),
    ("mpdpd.ping.count", "count"),
    ("mpdpd.ping.p50_us", "us"),
    ("mpdpd.ping.p99_us", "us"),
    ("mpdpd.wal.append_p50_us", "us"),
    ("mpdpd.wal.append_p99_us", "us"),
    ("mpdpd.queue_depth_peak", "count"),
    ("mpdpd.shed_best_effort", "count"),
    ("mpdpd.timeouts", "count"),
    ("mpdpd.journal_appends", "count"),
    ("cells_per_s", "cells/s"),
    ("rps", "req/s"),
    ("guaranteed_p99_us", "us"),
    ("error_rate", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.other_pct", "%"),
];

/// Batches of set-ups timed per sweep run; the reported `setup_s` is the
/// median of the batch means.
const SWEEP_SETUPS: usize = 15;
/// Sweep set-ups per batch: one takes microseconds, too short to time
/// alone.
const SETUP_BATCH: usize = 100;
/// Daemon set-ups timed per `serve_mixed` run.
const SERVE_SETUPS: usize = 5;

/// One invocation.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// The `mpdpd` executable `serve_mixed` starts.
    pub mpdpd: Option<PathBuf>,
    /// Scratch directory for journals and sockets.
    pub work: PathBuf,
    /// Where a traced run writes its spans.
    pub spans: PathBuf,
}

/// What a run measured: operations attempted and failed, and the metric
/// values by name.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

/// Runs the configured workload. `Err` means an operation failed or an
/// output check did not hold.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    match (cfg.workload.as_str(), cfg.trace) {
        ("sweep_mc", false) => mc_untraced(cfg),
        ("sweep_mc", true) => mc_traced(cfg),
        ("serve_mixed", false) => serve_untraced(cfg),
        ("serve_mixed", true) => serve_traced(cfg),
        (other, _) => Err(format!("unknown workload {other}")),
    }
}

// ---------------------------------------------------------------- helpers

/// Runs `f` repeatedly until `seconds` have passed, at least once.
fn repeat_for<T>(
    seconds: f64,
    mut f: impl FnMut(usize) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(f(out.len())?);
        if t0.elapsed().as_secs_f64() >= seconds {
            return Ok(out);
        }
    }
}

/// Times `sweep_mc` set-ups (spec build and validation) in batches of
/// [`SETUP_BATCH`], one batch before each repetition so that the set-up
/// median samples the whole run like the other metrics do.
struct SetupTimer {
    seed: u64,
    batches: Vec<f64>,
}

impl SetupTimer {
    fn new(seed: u64) -> Self {
        SetupTimer {
            seed,
            batches: Vec::new(),
        }
    }

    /// Times one batch.
    fn batch(&mut self) -> Result<(), String> {
        let t0 = Instant::now();
        for _ in 0..SETUP_BATCH {
            sweeps::mc_spec(self.seed)
                .validate()
                .map_err(|e| format!("invalid spec: {e}"))?;
        }
        self.batches
            .push(t0.elapsed().as_secs_f64() / SETUP_BATCH as f64);
        Ok(())
    }

    /// Tops up to [`SWEEP_SETUPS`] batches; returns each batch's mean
    /// set-up time in seconds.
    fn finish(mut self) -> Result<Vec<f64>, String> {
        while self.batches.len() < SWEEP_SETUPS {
            self.batch()?;
        }
        Ok(self.batches)
    }
}

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

fn check_exports(got: &Exports, want: &Exports, what: &str) -> Result<(), String> {
    ensure(got == want, || {
        format!("{what}: exports differ from the 1-worker run_sweep reference")
    })
}

fn run_cells(spec: &SweepSpec) -> Result<Vec<CellResult>, String> {
    spec.cells()
        .iter()
        .map(|c| run_cell(spec, c).map_err(|e| format!("run_cell failed: {e}")))
        .collect()
}

fn lanes(origin: Instant, n: usize) -> Vec<Recorder> {
    (0..n).map(|lane| Recorder::new(origin, lane)).collect()
}

/// Prints the median, quartiles and range of per-repetition values;
/// returns the median.
fn print_reps(name: &str, unit: &str, values: &[f64], what: &str) -> f64 {
    let (q1, median, q3) = quartiles(values).unwrap_or((0.0, 0.0, 0.0));
    let spread = if median != 0.0 {
        (q3 - q1) / median * 100.0
    } else {
        0.0
    };
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    println!(
        "  {name:<12} {unit:<4} median {median:<12.6} q1 {q1:<12.6} q3 {q3:<12.6} \
         spread {spread:5.2}%  min {min:<12.6} max {max:<12.6} n={}  ({what})",
        values.len()
    );
    median
}

/// One repetition of a workload: operations per wall-second and the
/// latency of each operation, nanoseconds.
struct Rep {
    rate: f64,
    latency: Vec<u64>,
}

/// Which latencies of a run `p50_us` and `p99_us` are taken over.
#[derive(Clone, Copy)]
enum Latency {
    /// Every repetition runs the same operations in the same order (the
    /// cells of one grid): each operation's best time over the
    /// repetitions.
    BestPerOperation,
    /// Repetitions run different operations (windows of a request
    /// stream): the fastest repetition's.
    FastestRepetition,
}

/// The end-to-end measurements of one untraced run.
struct EndToEnd {
    setups: Vec<f64>,
    reps: Vec<Rep>,
    rate_what: &'static str,
    latency: Latency,
    latency_what: &'static str,
    rss_mib: f64,
    rss_what: &'static str,
    tally: Tally,
}

impl EndToEnd {
    /// Reports `setup_s` as the median set-up and `ops_per_s` as the
    /// fastest repetition's rate. On a shared virtual machine other
    /// tenants slow the program by up to a half for minutes at a time,
    /// which moves the median of a run by 20% or more from one run to the
    /// next; that interference only ever slows a repetition, so the
    /// fastest one tracks the program's own speed more closely.
    fn finish(self) -> Result<Outcome, String> {
        let mut metrics = BTreeMap::new();
        println!("end-to-end metrics:");
        let setup = print_reps("setup_s", "s", &self.setups, "set-ups in this run");
        metrics.insert("setup_s", setup);
        let rates: Vec<f64> = self.reps.iter().map(|r| r.rate).collect();
        print_reps("ops_per_s", "1/s", &rates, self.rate_what);
        let best_rate = rates.iter().copied().fold(f64::MIN, f64::max);
        let (latency, how) = match self.latency {
            Latency::BestPerOperation => {
                let mut best = self
                    .reps
                    .first()
                    .ok_or("no repetition ran")?
                    .latency
                    .clone();
                for rep in &self.reps[1..] {
                    if rep.latency.len() != best.len() {
                        return Err("repetitions ran different operations".into());
                    }
                    for (b, &ns) in best.iter_mut().zip(&rep.latency) {
                        *b = (*b).min(ns);
                    }
                }
                (best, "each operation's best time over the repetitions")
            }
            Latency::FastestRepetition => {
                let best = self
                    .reps
                    .into_iter()
                    .max_by(|a, b| a.rate.total_cmp(&b.rate))
                    .ok_or("no repetition ran")?;
                (best.latency, "the fastest repetition's")
            }
        };
        let latency = Samples::new(latency);
        let n = latency.count();
        let p50 = latency.p50().ok_or("no latency samples")?;
        let p99 = latency
            .p99()
            .ok_or_else(|| format!("{n} latency samples leave fewer than 10 above p99"))?;
        println!("  ops_per_s {best_rate} 1/s: the fastest repetition");
        println!(
            "  p50_us {} us, p99_us {} us: exact order statistics of {n} samples, {how} ({})",
            us(p50),
            us(p99),
            self.latency_what
        );
        metrics.insert("ops_per_s", best_rate);
        metrics.insert("p50_us", us(p50));
        metrics.insert("p99_us", us(p99));
        println!(
            "  peak_rss_mb  MiB  {:<12.3} VmHWM of {}",
            self.rss_mib, self.rss_what
        );
        metrics.insert("peak_rss_mb", self.rss_mib);
        println!(
            "  error_rate   ratio {:<13} {} failed of {} attempted",
            self.tally.error_rate(),
            self.tally.failed,
            self.tally.attempted
        );
        Ok(Outcome {
            tally: self.tally,
            metrics,
        })
    }
}

fn own_rss() -> Result<f64, String> {
    stats::peak_rss_mib(std::process::id()).ok_or_else(|| "cannot read VmHWM".to_string())
}

/// Figures of one span name: count, p50 and p99 duration in µs (p99 zero
/// when fewer than 10 spans lie above it), mean duration and total self
/// time in ns.
struct SpanStats {
    count: f64,
    p50_us: f64,
    p99_us: f64,
    mean_ns: f64,
    self_ns: f64,
}

fn span_stats(layers: &BTreeMap<&'static str, Layer>, name: &str) -> SpanStats {
    let layer = layers.get(name).cloned().unwrap_or_default();
    let self_ns = layer.self_ns as f64;
    let samples = Samples::new(layer.durations);
    SpanStats {
        count: samples.count() as f64,
        p50_us: samples.p50().map_or(0.0, us),
        p99_us: samples.p99().map_or(0.0, us),
        mean_ns: samples.mean().unwrap_or(0.0),
        self_ns,
    }
}

/// Checks conservation, writes the spans, and prints the ledger. Returns
/// the `other` share of busy time in percent.
fn close_trace(trace: &Trace, spans: &Path) -> Result<f64, String> {
    let c = trace.conservation();
    println!(
        "conservation: attributed {} ns + other {} ns = {} ns; busy = wall {} ns x {} lanes = {} ns: {}",
        c.attributed,
        c.other,
        c.attributed + c.other,
        trace.end - trace.start,
        trace.lanes,
        c.busy,
        if c.holds() { "holds" } else { "VIOLATED" }
    );
    ensure(c.holds(), || {
        "span self times do not add up to busy time".into()
    })?;
    trace
        .write_csv(spans)
        .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;
    println!(
        "spans: {} written to {}",
        trace.spans.len(),
        spans.display()
    );
    Ok(c.other as f64 / c.busy.max(1) as f64 * 100.0)
}

fn overhead_pct(untraced_rate: f64, traced_rate: f64) -> f64 {
    (untraced_rate / traced_rate - 1.0) * 100.0
}

/// The per-layer metrics every sweep trace yields, normalized per
/// traced repetition where they are totals.
fn sweep_layers(
    layers: &BTreeMap<&'static str, Layer>,
    reps: f64,
    iterations: f64,
    fanout_ns: f64,
    m: &mut BTreeMap<&'static str, f64>,
) {
    let proto = span_stats(layers, "sim.prototype");
    let theo = span_stats(layers, "sim.theoretical");
    let prepare = span_stats(layers, "analysis.prepare");
    let cell = span_stats(layers, "sweep.cell");
    let cell_total: f64 = layers
        .get("sweep.cell")
        .map_or(0.0, |l| l.durations.iter().sum::<u64>() as f64);
    m.insert("sim.prototype.self_ms", proto.self_ns / reps / 1e6);
    m.insert("sim.prototype.p50_us", proto.p50_us);
    m.insert("sim.prototype.p99_us", proto.p99_us);
    m.insert("sim.prototype.iterations", iterations / reps);
    m.insert(
        "sim.prototype.ns_per_iter",
        proto.mean_ns * proto.count / iterations.max(1.0),
    );
    m.insert("sim.theoretical.self_ms", theo.self_ns / reps / 1e6);
    m.insert("sim.theoretical.p50_us", theo.p50_us);
    m.insert(
        "workload.task_set.p50_us",
        span_stats(layers, "workload.task_set").p50_us,
    );
    m.insert("analysis.prepare.calls", prepare.count / reps);
    m.insert("analysis.prepare.p50_us", prepare.p50_us);
    m.insert("sweep.cell.p50_us", cell.p50_us);
    m.insert("sweep.cell.p99_us", cell.p99_us);
    m.insert(
        "sweep.cell.other_us",
        cell.self_ns / cell.count.max(1.0) / 1e3,
    );
    m.insert(
        "sweep.fanout.busy_ratio",
        cell_total / (fanout_ns * WORKERS as f64).max(1.0),
    );
    m.insert(
        "sweep.report.ms",
        span_stats(layers, "sweep.report").mean_ns / 1e6,
    );
}

// --------------------------------------------------------------- sweep_mc

fn mc_untraced(cfg: &Config) -> Result<Outcome, String> {
    let mut setups = SetupTimer::new(cfg.seed);
    let spec = sweeps::mc_spec(cfg.seed);
    let (reference, want) = sweeps::reference(&spec)?;
    sweeps::check_mc_cells(&reference.cells)?;
    println!(
        "sweep_mc: {} cells per sweep, {WORKERS} workers",
        spec.cell_count()
    );

    let mut tally = Tally::default();
    let reps = repeat_for(cfg.seconds, |_| {
        setups.batch()?;
        let rep = sweeps::mc_rep(&spec)?;
        check_exports(&rep.exports, &want, "sweep_mc")?;
        sweeps::check_mc_cells(&rep.cells)?;
        tally.merge(rep.tally);
        Ok(Rep {
            rate: rep.cells.len() as f64 / rep.wall.as_secs_f64(),
            latency: rep.cell_walls,
        })
    })?;
    println!("checks: every sweep's exports byte-identical to the reference; every cell schedulable, miss-free, prototype mean >= theoretical");
    EndToEnd {
        setups: setups.finish()?,
        reps,
        rate_what: "cells per wall-second, one value per sweep",
        latency: Latency::BestPerOperation,
        latency_what: "per-cell wall time as the engine measures it",
        rss_mib: own_rss()?,
        rss_what: "the benchmark process, which runs the sweeps",
        tally,
    }
    .finish()
}

fn mc_traced(cfg: &Config) -> Result<Outcome, String> {
    let spec = sweeps::mc_spec(cfg.seed);
    let (reference, want) = sweeps::reference(&spec)?;
    sweeps::check_mc_cells(&reference.cells)?;
    let expected = run_cells(&spec)?;
    let half = cfg.seconds / 2.0;

    let mut tally = Tally::default();
    let (mut cells, mut wall) = (0.0, 0.0);
    repeat_for(half, |_| {
        let rep = sweeps::mc_rep(&spec)?;
        check_exports(&rep.exports, &want, "sweep_mc")?;
        tally.merge(rep.tally);
        cells += rep.cells.len() as f64;
        wall += rep.wall.as_secs_f64();
        Ok(())
    })?;
    let untraced_rate = cells / wall;

    let origin = Instant::now();
    let mut recs = lanes(origin, WORKERS);
    let start = recs[0].now();
    let (mut iterations, mut fanout_ns, mut traced_cells) = (0u64, 0u64, 0usize);
    let reps = repeat_for(half, |_| {
        let (memo, counters) = (Memo::default(), FanoutCounters::default());
        let t0 = Instant::now();
        let cells = sweeps::traced_fanout(&spec, &memo, &mut recs, &counters)?;
        let wall = t0.elapsed();
        ensure(cells == expected, || {
            "a rebuilt cell differs from run_cell's".into()
        })?;
        traced_cells += cells.len();
        let report = sweeps::report_of(&spec, cells, wall);
        let exports = recs[0].time("sweep.report", 0, || Exports::of(&report));
        check_exports(&exports, &want, "sweep_mc traced")?;
        iterations += counters.iterations.into_inner();
        fanout_ns += wall.as_nanos() as u64;
        Ok(())
    })?
    .len() as f64;
    let end = recs[0].now();
    let trace = Trace::assemble(recs, WORKERS, start, end);
    let other_pct = close_trace(&trace, &cfg.spans)?;
    let traced_rate = traced_cells as f64 / ((end - start) as f64 / 1e9);
    println!("checks: every rebuilt cell equals run_cell's; traced and untraced exports byte-identical to the reference");

    let mut m = BTreeMap::new();
    sweep_layers(
        &trace.layers(),
        reps,
        iterations as f64,
        fanout_ns as f64,
        &mut m,
    );
    m.insert("cells_per_s", untraced_rate);
    m.insert("error_rate", tally.error_rate());
    m.insert(
        "trace.overhead_pct",
        overhead_pct(untraced_rate, traced_rate),
    );
    m.insert("trace.other_pct", other_pct);
    Ok(Outcome { tally, metrics: m })
}

// ------------------------------------------------------------ serve_mixed

/// Runs both connections' closed loops for `seconds`; with recorders, one
/// lane per connection.
fn load(
    socket: &Path,
    seed: u64,
    seconds: f64,
    recs: Option<&mut [Recorder]>,
) -> (Vec<ConnLog>, Duration) {
    let origin = Instant::now();
    let until = origin + Duration::from_secs_f64(seconds);
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = match recs {
            Some(recs) => recs
                .iter_mut()
                .enumerate()
                .map(|(c, r)| {
                    scope.spawn(move || serve::drive(socket, seed, c, origin, until, Some(r)))
                })
                .collect(),
            None => (0..CONNECTIONS)
                .map(|c| scope.spawn(move || serve::drive(socket, seed, c, origin, until, None)))
                .collect(),
        };
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (logs, origin.elapsed())
}

fn sessions_of(logs: &mut [ConnLog]) -> Vec<SessionLog> {
    logs.iter_mut()
        .flat_map(|l| std::mem::take(&mut l.sessions))
        .collect()
}

/// One repetition per whole second of the load: requests answered
/// `ok:true` in that second, and the latency of every request completed
/// in it. A load shorter than two seconds is one repetition.
fn windows(logs: &[ConnLog], seconds: f64, wall: Duration) -> Vec<Rep> {
    let samples = logs.iter().flat_map(|l| &l.samples);
    let n = seconds.floor() as usize;
    if n < 2 {
        return vec![Rep {
            rate: ok_rate(logs, wall),
            latency: samples.map(|s| s.ns).collect(),
        }];
    }
    let mut reps: Vec<Rep> = (0..n)
        .map(|_| Rep {
            rate: 0.0,
            latency: Vec::new(),
        })
        .collect();
    for s in samples {
        if let Some(rep) = reps.get_mut((s.done / 1_000_000_000) as usize) {
            rep.rate += f64::from(u8::from(s.ok));
            rep.latency.push(s.ns);
        }
    }
    reps
}

fn ok_rate(logs: &[ConnLog], wall: Duration) -> f64 {
    let ok = logs
        .iter()
        .flat_map(|l| &l.samples)
        .filter(|s| s.ok)
        .count();
    ok as f64 / wall.as_secs_f64()
}

fn serve_untraced(cfg: &Config) -> Result<Outcome, String> {
    let exe = cfg.mpdpd.as_deref().ok_or("serve_mixed needs --mpdpd")?;
    let mut setups = Vec::new();
    let mut daemon = None;
    for i in 0..SERVE_SETUPS {
        let (d, setup) = Daemon::spawn(exe, &cfg.work.join(format!("d{i}")))?;
        setups.push(setup.as_secs_f64());
        if i + 1 < SERVE_SETUPS {
            d.stop()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("at least one set-up");
    println!(
        "serve_mixed: {CONNECTIONS} closed-loop connections, sessions of {} requests",
        serve::SESSION_LEN
    );

    let (mut logs, wall) = load(&daemon.socket, cfg.seed, cfg.seconds, None);
    let rss_mib = stats::peak_rss_mib(daemon.pid).ok_or("cannot read the daemon's VmHWM")?;
    daemon.stop()?;
    let reps = windows(&logs, cfg.seconds, wall);
    let mut tally = Tally::default();
    let mut guaranteed = Vec::new();
    for l in &logs {
        tally.merge(l.tally);
        guaranteed.extend(
            l.samples
                .iter()
                .filter(|s| s.kind.guaranteed())
                .map(|s| s.ns),
        );
    }
    let sessions = sessions_of(&mut logs);
    let checked = serve::replay(cfg.seed, &sessions, &cfg.work.join("replay.mpdpd"), None)?;
    println!("checks: {checked} sessions' open/admit/close replies and verdicts equal an in-process SessionStore replay");
    let guaranteed = Samples::new(guaranteed);
    match guaranteed.p99() {
        Some(p) => println!(
            "  guaranteed_p99_us us {:<13.3} exact order statistic of {} open/admit/close samples",
            us(p),
            guaranteed.count()
        ),
        None => println!("  guaranteed_p99_us: fewer than 10 samples above p99"),
    }
    EndToEnd {
        setups,
        reps,
        rate_what: "requests answered ok:true per wall-second, one value per second",
        latency: Latency::FastestRepetition,
        latency_what: "send-to-response time of every request",
        rss_mib,
        rss_what: "the mpdpd server process",
        tally,
    }
    .finish()
}

fn serve_traced(cfg: &Config) -> Result<Outcome, String> {
    let exe = cfg.mpdpd.as_deref().ok_or("serve_mixed needs --mpdpd")?;
    let (daemon, _) = Daemon::spawn(exe, &cfg.work.join("d0"))?;
    let half = cfg.seconds / 2.0;

    let (mut untraced_logs, wall) = load(&daemon.socket, cfg.seed, half, None);
    let untraced_rate = ok_rate(&untraced_logs, wall);

    let origin = Instant::now();
    let mut recs = lanes(origin, CONNECTIONS);
    let start = recs[0].now();
    let (mut traced_logs, traced_wall) = load(&daemon.socket, cfg.seed, half, Some(&mut recs[..]));
    let traced_rate = ok_rate(&traced_logs, traced_wall);
    let traced_sessions = sessions_of(&mut traced_logs);
    let replay_span = recs[0].enter("serve.replay", 0);
    let checked = serve::replay(
        cfg.seed,
        &traced_sessions,
        &cfg.work.join("replay-traced.mpdpd"),
        Some(&mut recs[0]),
    )?;
    recs[0].exit(replay_span);
    let end = recs[0].now();

    let stats_reply =
        serve::daemon_stats(&daemon.socket).map_err(|e| format!("stats request failed: {e}"))?;
    daemon.stop()?;
    let untraced_sessions = sessions_of(&mut untraced_logs);
    let checked = checked
        + serve::replay(
            cfg.seed,
            &untraced_sessions,
            &cfg.work.join("replay.mpdpd"),
            None,
        )?;
    let trace = Trace::assemble(recs, CONNECTIONS, start, end);
    let other_pct = close_trace(&trace, &cfg.spans)?;
    println!("checks: {checked} sessions' open/admit/close replies and verdicts equal an in-process SessionStore replay");

    let layers = trace.layers();
    let mut m = BTreeMap::new();
    let mut tally = Tally::default();
    let mut by_kind: BTreeMap<Kind, Vec<u64>> = BTreeMap::new();
    for l in untraced_logs.iter().chain(&traced_logs) {
        tally.merge(l.tally);
        for s in &l.samples {
            by_kind.entry(s.kind).or_default().push(s.ns);
        }
    }
    let guaranteed: Vec<u64> = Kind::ALL
        .iter()
        .filter(|k| k.guaranteed())
        .flat_map(|k| by_kind.get(k).cloned().unwrap_or_default())
        .collect();
    for kind in Kind::ALL {
        let samples = Samples::new(by_kind.remove(&kind).unwrap_or_default());
        let name = kind.span();
        m.insert(declared(&format!("{name}.count")), samples.count() as f64);
        m.insert(
            declared(&format!("{name}.p50_us")),
            samples.p50().map_or(0.0, us),
        );
        m.insert(
            declared(&format!("{name}.p99_us")),
            samples.p99().map_or(0.0, us),
        );
    }
    m.insert("mpdpd.parse_ns", span_stats(&layers, "mpdpd.parse").mean_ns);
    let wal = span_stats(&layers, "mpdpd.wal");
    m.insert("mpdpd.wal.append_p50_us", wal.p50_us);
    m.insert("mpdpd.wal.append_p99_us", wal.p99_us);
    m.insert(
        "analysis.open.p50_us",
        span_stats(&layers, "analysis.open").p50_us,
    );
    m.insert(
        "analysis.at.p50_us",
        span_stats(&layers, "analysis.at").p50_us,
    );
    m.insert(
        "analysis.headroom.p50_us",
        span_stats(&layers, "analysis.headroom").p50_us,
    );
    m.insert(
        "workload.task_set.p50_us",
        span_stats(&layers, "workload.task_set").p50_us,
    );
    for (metric, counter) in [
        ("mpdpd.queue_depth_peak", "queue_depth_peak"),
        ("mpdpd.shed_best_effort", "shed_best_effort"),
        ("mpdpd.timeouts", "timeouts"),
        ("mpdpd.journal_appends", "journal_appends"),
    ] {
        let value = serve::json_u64(&stats_reply, counter)
            .ok_or_else(|| format!("stats reply lacks {counter}: {stats_reply}"))?;
        m.insert(metric, value as f64);
    }
    m.insert("rps", untraced_rate);
    m.insert(
        "guaranteed_p99_us",
        Samples::new(guaranteed).p99().map_or(0.0, us),
    );
    m.insert("error_rate", tally.error_rate());
    m.insert(
        "trace.overhead_pct",
        overhead_pct(untraced_rate, traced_rate),
    );
    m.insert("trace.other_pct", other_pct);
    Ok(Outcome { tally, metrics: m })
}

/// The declared per-layer metric called `name`.
fn declared(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(n, _)| *n)
        .expect("every endpoint metric is declared")
}
