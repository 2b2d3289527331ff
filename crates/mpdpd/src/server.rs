//! The daemon proper: listener, bounded request queue, worker pool, the
//! two-band shedding policy, per-request deadlines, and graceful drain.
//!
//! A request runs on the reader thread that parsed it when it is the only
//! complete line its connection has sent, no request is queued, and fewer
//! than `workers` requests are executing: a client with one request in
//! flight on an idle daemon pays no hand-off to another thread. Every
//! other request waits in the bounded queue for a worker, so pipelined
//! lines keep their `workers`-way parallelism and nothing overtakes a
//! queued request. `workers` bounds the requests executing at once on both
//! paths. Each of these decisions is one method of the `Queue` behind
//! the daemon's queue lock.
//!
//! The service plane mirrors the paper's dual-priority scheduler. Session
//! mutations (`open`/`admit`/`close`) are the *guaranteed* band: under
//! overload they may evict queued best-effort work but are never shed
//! themselves, and each is journaled before it executes. Read-only
//! queries are the *best-effort* band: when the bounded queue is full they
//! are refused with a typed `overloaded` response and counted, exactly as
//! aperiodic work in MPDP yields to the periodic guarantee.
//!
//! The session-store lock covers in-memory work only. A mutation writes
//! its record, applies it and renders its reply under the lock, then
//! waits for the journal's group commit after releasing it; a query takes
//! a refcount on its session under the lock and computes outside it. No
//! reply reports state that is not on disk: a mutation's reply waits for
//! its own record, a query's for its session's last record, and an
//! `unknown_session` or `session_exists` reply for every record written
//! before it. Concurrent mutations share one fsync, and queries never
//! wait behind another connection's.
//!
//! Shutdown is cooperative: when the drain file appears (the `mpdpd`
//! binary's SIGTERM trampoline touches it), the listener stops accepting,
//! readers finish the request they run and stop pulling new lines,
//! workers answer everything already queued, the journal is already on
//! disk (every answered mutation waited for its fsync), and [`run`]
//! returns a [`DrainSummary`] so the binary can exit 0.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use mpdp_analysis::is_schedulable_at;
use mpdp_analysis::PartitionHeuristic;
use mpdp_obs::escape_json;
use mpdp_sweep::{run_cell_cached, LineJournal, SweepSpec, TableCache};
use mpdp_telemetry::{serve_prometheus_text, ServeEvent, ServeMetrics, ServeSnapshot};

use crate::protocol::{
    error_response, ok_response, parse_request, Envelope, ErrorKind, QueryKind, Request,
};
use crate::session::{await_durable, json_num, unknown, OpResult, SessionStore};

/// Where the daemon listens.
#[derive(Debug, Clone)]
pub enum Bind {
    /// A Unix-domain socket at this path (stale socket files are removed).
    Unix(PathBuf),
    /// A TCP address, e.g. `127.0.0.1:7071`.
    Tcp(String),
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listening socket.
    pub bind: Bind,
    /// Session journal path.
    pub journal: PathBuf,
    /// Bounded queue capacity; beyond it the shedding policy applies.
    pub queue_cap: usize,
    /// The bound on requests executing at once, on reader and worker
    /// threads together. It is also the number of worker threads, which
    /// run the requests that had to wait in the queue.
    pub workers: usize,
    /// Deadline applied to requests that do not carry `deadline_ms`.
    pub default_deadline: Duration,
    /// Where to write the final Prometheus exposition on drain.
    pub prom_file: Option<PathBuf>,
    /// Path whose existence triggers a graceful drain.
    pub drain_file: PathBuf,
}

impl ServerConfig {
    /// A config with the documented defaults: queue of 64, two workers,
    /// one-second default deadline, drain file next to the journal.
    pub fn new(bind: Bind, journal: PathBuf) -> Self {
        let mut drain_file = journal.as_os_str().to_os_string();
        drain_file.push(".drain");
        ServerConfig {
            bind,
            journal,
            queue_cap: 64,
            workers: 2,
            default_deadline: Duration::from_millis(1000),
            prom_file: None,
            drain_file: PathBuf::from(drain_file),
        }
    }
}

/// What a completed drain looked like; the binary logs this and exits 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainSummary {
    /// Requests answered after the drain signal arrived.
    pub answered: usize,
    /// Sessions still open at exit (all safely in the journal).
    pub sessions: usize,
    /// Sessions rebuilt from the journal at startup.
    pub rebuilt: usize,
}

type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

struct Job {
    envelope: Envelope,
    writer: SharedWriter,
    /// When the request was parsed; its deadline runs from here.
    received: Instant,
    deadline: Duration,
}

/// The bounded request queue and the count of executing requests, under
/// one lock. Every decision on where a request runs is a method here.
struct Queue {
    jobs: VecDeque<Job>,
    /// Requests executing, on reader and worker threads alike.
    running: usize,
    /// Capacity of `jobs`; beyond it the two-band rule applies.
    cap: usize,
    /// The bound on `running`.
    workers: usize,
}

/// What [`Queue::offer`] did with a request.
enum Offer {
    /// Queued; `depth` is the queue's length after it.
    Queued { depth: usize },
    /// Queued in place of `victim`, the oldest queued best-effort request.
    Evicted { victim: Job, depth: usize },
    /// A best-effort request refused by a full queue.
    Shed(Job),
    /// A guaranteed request refused by a queue full of guaranteed ones.
    Rejected(Job),
}

impl Queue {
    fn new(cap: usize, workers: usize) -> Queue {
        Queue {
            jobs: VecDeque::new(),
            running: 0,
            cap,
            workers,
        }
    }

    /// Claims a slot for a request its reader may run at once: it is the
    /// only complete line its connection has sent (`lone`), no request is
    /// queued, and fewer than `workers` requests are executing.
    fn claim(&mut self, lone: bool) -> bool {
        let free = lone && self.jobs.is_empty() && self.running < self.workers;
        self.running += usize::from(free);
        free
    }

    /// The two-band backpressure policy at the queue boundary.
    fn offer(&mut self, job: Job) -> Offer {
        if self.jobs.len() < self.cap {
            self.jobs.push_back(job);
            return Offer::Queued {
                depth: self.jobs.len(),
            };
        }
        if !job.envelope.request.guaranteed() {
            return Offer::Shed(job);
        }
        // Guaranteed request against a full queue: shed the oldest
        // queued best-effort entry to make room — the service-level
        // mirror of an aperiodic task yielding to the periodic band.
        let victim = self
            .jobs
            .iter()
            .position(|j| !j.envelope.request.guaranteed())
            .and_then(|pos| self.jobs.remove(pos));
        match victim {
            Some(victim) => {
                self.jobs.push_back(job);
                Offer::Evicted {
                    victim,
                    depth: self.jobs.len(),
                }
            }
            // Entirely guaranteed backlog: honest backpressure.
            None => Offer::Rejected(job),
        }
    }

    /// The oldest queued request, with a slot to run it in, if one is free.
    fn take(&mut self) -> Option<Job> {
        if self.running >= self.workers {
            return None;
        }
        let job = self.jobs.pop_front()?;
        self.running += 1;
        Some(job)
    }

    /// Frees a slot; returns whether a queued request can now take it.
    /// A [`Slot`] calls it from `drop`, which must not panic.
    fn release(&mut self) -> bool {
        self.running = self.running.saturating_sub(1);
        !self.jobs.is_empty()
    }
}

/// The slot of the request executing on this thread. Dropping it, on
/// return or while unwinding from a panic, frees the slot and wakes a
/// worker if a queued request can take it.
struct Slot<'a>(&'a Daemon);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        if self.0.queue().release() {
            self.0.queue_cv.notify_one();
        }
    }
}

struct Daemon {
    state: Mutex<SessionStore>,
    /// The store's journal: replies wait on it without holding `state`.
    journal: Arc<LineJournal>,
    cache: TableCache,
    metrics: ServeMetrics,
    queue: Mutex<Queue>,
    queue_cv: Condvar,
    draining: AtomicBool,
    /// Set once every reader thread has taken its final pass; workers must
    /// not exit on a momentarily-empty queue before then, or a request
    /// read during the drain window would go unanswered.
    readers_done: AtomicBool,
    drained_answered: AtomicUsize,
    default_deadline: Duration,
}

/// Sends one reply line in one write, so the client never wakes on half
/// a line.
fn respond(writer: &SharedWriter, mut line: String) {
    line.push('\n');
    let mut w = writer.lock().expect("writer lock");
    // The client may be gone; a failed response is not a server fault.
    let _ = w.write_all(line.as_bytes());
    let _ = w.flush();
}

fn render(id: u64, result: OpResult) -> String {
    match result {
        Ok(body) => ok_response(id, &body),
        Err((kind, detail)) => error_response(id, kind, &detail),
    }
}

impl Daemon {
    /// The queue. Its methods leave it consistent at every return, so a
    /// lock poisoned by a panic elsewhere is still safe to use, and a
    /// [`Slot`] dropped while unwinding must be able to take it.
    fn queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Parses one line and runs it here if [`Queue::claim`] allows (`lone`
    /// says no other complete line follows it), or offers it to the queue.
    fn handle_line(&self, line: &str, writer: &SharedWriter, lone: bool) {
        let envelope = match parse_request(line) {
            Ok(env) => env,
            Err((id, kind, detail)) => {
                self.metrics.event(&ServeEvent::BadRequest);
                respond(writer, error_response(id, kind, &detail));
                return;
            }
        };
        let deadline = envelope
            .deadline_ms
            .map(Duration::from_millis)
            .unwrap_or(self.default_deadline);
        let job = Job {
            envelope,
            writer: Arc::clone(writer),
            received: Instant::now(),
            deadline,
        };
        let claimed = self.queue().claim(lone);
        if claimed {
            let _slot = Slot(self);
            self.execute(job);
        } else {
            self.enqueue(job);
        }
    }

    /// Queues a request that cannot run at once, or answers it
    /// `overloaded` under the two-band rule.
    fn enqueue(&self, job: Job) {
        let offer = self.queue().offer(job);
        match offer {
            Offer::Queued { depth } => {
                self.queue_cv.notify_one();
                self.metrics.event(&ServeEvent::Enqueued { depth });
            }
            Offer::Evicted { victim, depth } => {
                self.queue_cv.notify_one();
                self.metrics.event(&ServeEvent::ShedBestEffort);
                respond(
                    &victim.writer,
                    error_response(
                        victim.envelope.id,
                        ErrorKind::Overloaded,
                        "shed to make room for a guaranteed request",
                    ),
                );
                self.metrics.event(&ServeEvent::Enqueued { depth });
            }
            Offer::Shed(job) => {
                self.metrics.event(&ServeEvent::ShedBestEffort);
                respond(
                    &job.writer,
                    error_response(
                        job.envelope.id,
                        ErrorKind::Overloaded,
                        "queue full; best-effort request shed",
                    ),
                );
            }
            Offer::Rejected(job) => {
                self.metrics.event(&ServeEvent::RejectedGuaranteed);
                respond(
                    &job.writer,
                    error_response(
                        job.envelope.id,
                        ErrorKind::Overloaded,
                        "queue full of guaranteed requests; retry",
                    ),
                );
            }
        }
    }

    fn worker_loop(&self) {
        while let Some(job) = self.next_job() {
            let _slot = Slot(self);
            self.execute(job);
        }
    }

    /// Waits for a queued request and a free slot to run it in; `None`
    /// once the drain has left nothing to answer.
    fn next_job(&self) -> Option<Job> {
        let mut q = self.queue();
        loop {
            if let Some(job) = q.take() {
                return Some(job);
            }
            if q.jobs.is_empty()
                && self.draining.load(Ordering::Acquire)
                && self.readers_done.load(Ordering::Acquire)
            {
                return None;
            }
            q = self
                .queue_cv
                .wait_timeout(q, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    fn execute(&self, job: Job) {
        let endpoint = job.envelope.request.endpoint();
        let id = job.envelope.id;
        if job.received.elapsed() > job.deadline {
            self.metrics.event(&ServeEvent::TimedOut { endpoint });
            respond(
                &job.writer,
                error_response(
                    id,
                    ErrorKind::Timeout,
                    &format!(
                        "deadline of {} ms exceeded in queue",
                        job.deadline.as_millis()
                    ),
                ),
            );
            return;
        }
        let response = self.dispatch(&job.envelope);
        respond(&job.writer, response);
        self.metrics.event(&ServeEvent::Completed {
            endpoint,
            wall: job.received.elapsed(),
        });
        if self.draining.load(Ordering::Acquire) {
            self.drained_answered.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn dispatch(&self, envelope: &Envelope) -> String {
        let id = envelope.id;
        match &envelope.request {
            Request::Open {
                session,
                util,
                procs,
            } => self.mutate(id, |s| s.stage_open(session, *util, *procs)),
            Request::Admit {
                session,
                task,
                exec_us,
                window_us,
            } => self.mutate(id, |s| s.stage_admit(session, *task, *exec_us, *window_us)),
            Request::Close { session } => self.mutate(id, |s| s.stage_close(session)),
            Request::Query { session, kind } => self.query(id, session, kind),
            Request::Ping => ok_response(id, "\"pong\":true"),
            Request::Stats => {
                let snap = self.metrics_snapshot();
                let mut body: Vec<String> = snap
                    .counters()
                    .iter()
                    .map(|(name, value)| format!("\"{name}\":{value}"))
                    .collect();
                body.push(format!(
                    "\"sessions\":{}",
                    self.state.lock().expect("state lock").len()
                ));
                ok_response(id, &body.join(","))
            }
            Request::Metrics => {
                let text = serve_prometheus_text(&self.metrics_snapshot());
                ok_response(id, &format!("\"prometheus\":\"{}\"", escape_json(&text)))
            }
        }
    }

    /// The counters, with the journal's fsync count.
    fn metrics_snapshot(&self) -> ServeSnapshot {
        let mut snap = self.metrics.snapshot();
        snap.journal_syncs = self.journal.syncs();
        snap
    }

    /// Runs `op` under the store lock and waits for the journal after
    /// releasing it: for the op's own record, or, when it wrote none (an
    /// `unknown_session` or `session_exists` reply), for every record
    /// written before it, since another connection's `close` or `open` may
    /// still be in flight.
    fn mutate(&self, id: u64, op: impl FnOnce(&mut SessionStore) -> OpResult) -> String {
        let (result, written, appended) = {
            let mut state = self.state.lock().expect("state lock");
            let before = state.written();
            let result = op(&mut state);
            let written = state.written();
            (result, written, written > before)
        };
        if appended {
            self.metrics.event(&ServeEvent::JournalAppend);
        }
        render(id, await_durable(&self.journal, written).and(result))
    }

    fn query(&self, id: u64, name: &str, kind: &QueryKind) -> String {
        // Take a refcount under the lock and compute outside it, so slow
        // analysis never blocks the guaranteed band.
        let found = {
            let state = self.state.lock().expect("state lock");
            state.snapshot(name).ok_or_else(|| state.written())
        };
        let session = match found {
            Ok(session) => session,
            Err(written) => {
                return render(
                    id,
                    await_durable(&self.journal, written).and(Err(unknown(name))),
                )
            }
        };
        let result = match kind {
            QueryKind::Verdict => {
                let base: f64 = session
                    .admission
                    .periodic()
                    .iter()
                    .map(|t| t.utilization())
                    .sum();
                Ok(format!(
                    "\"session\":\"{name}\",\"procs\":{},\"base_utilization\":{},\
                     \"aperiodic_bandwidth\":{},\"admitted\":{}",
                    session.procs,
                    json_num(base),
                    json_num(session.admission.aperiodic_bandwidth()),
                    session.admission.admitted().len()
                ))
            }
            QueryKind::At { factor } => {
                let schedulable = is_schedulable_at(
                    session.admission.periodic(),
                    session.procs,
                    *factor,
                    PartitionHeuristic::WorstFitDecreasing,
                );
                Ok(format!(
                    "\"schedulable\":{schedulable},\"factor\":{}",
                    json_num(*factor)
                ))
            }
            QueryKind::Headroom { tolerance } => session
                .admission
                .headroom(*tolerance)
                .map(|headroom| format!("\"headroom\":{}", json_num(headroom)))
                .map_err(|e| (ErrorKind::BadRequest, e.to_string())),
            QueryKind::Simulate { seed } => {
                let spec = simulate_spec(session.util, session.procs, *seed);
                let cells = spec.cells();
                run_cell_cached(&spec, &cells[0], &self.cache)
                    .map(|cell| {
                        let slowdown = cell
                            .slowdown_pct()
                            .map(|s| format!(",\"slowdown_pct\":{}", json_num(s)))
                            .unwrap_or_default();
                        format!(
                            "\"schedulable\":{},\"switches\":{}{slowdown}",
                            cell.schedulable, cell.real.switches
                        )
                    })
                    .map_err(|e| (ErrorKind::BadRequest, e.to_string()))
            }
        };
        // The reply reports the session as of its last record. Waiting for
        // that record costs nothing unless another connection's mutation
        // of this session is still in flight.
        render(id, await_durable(&self.journal, session.seq).and(result))
    }
}

/// The one-cell sweep spec a `simulate` query runs: the paper's Figure 4
/// configuration pinned to the session's grid coordinate. All specs share
/// the default knob, so every session's queries hit one RTA cache line per
/// `(utilization, procs)` coordinate.
fn simulate_spec(util: f64, procs: usize, seed: u64) -> SweepSpec {
    let mut spec = SweepSpec::figure4();
    spec.utilizations = vec![util];
    spec.proc_counts = vec![procs];
    spec.seeds = vec![seed];
    spec
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Listener {
    fn bind(bind: &Bind) -> io::Result<Listener> {
        match bind {
            Bind::Unix(path) => {
                // A SIGKILLed predecessor leaves a stale socket file.
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Unix(l))
            }
            Bind::Tcp(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Tcp(l))
            }
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        }
    }
}

impl Stream {
    /// Splits into a timeout-polling reader and a shared blocking writer.
    fn split(self) -> io::Result<(Box<dyn Read + Send>, SharedWriter)> {
        match self {
            Stream::Unix(s) => {
                s.set_nonblocking(false)?;
                s.set_read_timeout(Some(Duration::from_millis(50)))?;
                let w = s.try_clone()?;
                w.set_read_timeout(None)?;
                Ok((Box::new(s), Arc::new(Mutex::new(Box::new(w)))))
            }
            Stream::Tcp(s) => {
                s.set_nonblocking(false)?;
                s.set_read_timeout(Some(Duration::from_millis(50)))?;
                let _ = s.set_nodelay(true);
                let w = s.try_clone()?;
                Ok((Box::new(s), Arc::new(Mutex::new(Box::new(w)))))
            }
        }
    }
}

fn reader_loop(daemon: Arc<Daemon>, mut src: Box<dyn Read + Send>, writer: SharedWriter) {
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut final_pass = false;
    loop {
        while let Some(pos) = pending.iter().position(|&b| b == b'\n') {
            let raw: Vec<u8> = pending.drain(..=pos).collect();
            let lone = !pending.contains(&b'\n');
            let line = String::from_utf8_lossy(&raw[..raw.len() - 1]).into_owned();
            let line = line.trim();
            if !line.is_empty() {
                daemon.handle_line(line, &writer, lone);
            }
        }
        if daemon.draining.load(Ordering::Acquire) {
            // One last read so a request that raced the drain signal onto
            // the socket still counts as in flight; then stop for good.
            if final_pass {
                break;
            }
            final_pass = true;
        }
        match src.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => pending.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
        if pending.len() > (1 << 20) {
            // A megabyte without a newline is not our protocol.
            break;
        }
    }
}

/// Runs the daemon until the drain file appears, then drains gracefully.
///
/// # Errors
///
/// Journal open/recovery failures and socket bind failures, rendered as
/// one diagnostic string for the binary to print.
pub fn run(cfg: ServerConfig) -> Result<DrainSummary, String> {
    let store = SessionStore::open(&cfg.journal)
        .map_err(|e| format!("cannot open session journal: {e}"))?;
    let rebuilt = store.rebuilt();
    let journal = Arc::clone(store.journal());
    let daemon = Arc::new(Daemon {
        state: Mutex::new(store),
        journal,
        cache: TableCache::new(),
        metrics: ServeMetrics::new(),
        queue: Mutex::new(Queue::new(cfg.queue_cap.max(1), cfg.workers.max(1))),
        queue_cv: Condvar::new(),
        draining: AtomicBool::new(false),
        readers_done: AtomicBool::new(false),
        drained_answered: AtomicUsize::new(0),
        default_deadline: cfg.default_deadline,
    });
    for _ in 0..rebuilt {
        daemon.metrics.event(&ServeEvent::SessionRebuilt);
    }

    let listener = Listener::bind(&cfg.bind).map_err(|e| format!("cannot bind socket: {e}"))?;
    let workers: Vec<_> = (0..cfg.workers.max(1))
        .map(|i| {
            let d = Arc::clone(&daemon);
            std::thread::Builder::new()
                .name(format!("mpdpd-worker-{i}"))
                .spawn(move || d.worker_loop())
                .expect("spawn worker")
        })
        .collect();

    let active_readers = Arc::new(AtomicUsize::new(0));
    while !cfg.drain_file.exists() {
        match listener.accept() {
            Ok(stream) => {
                if let Ok((src, writer)) = stream.split() {
                    let d = Arc::clone(&daemon);
                    let readers = Arc::clone(&active_readers);
                    readers.fetch_add(1, Ordering::SeqCst);
                    let _ = std::thread::Builder::new()
                        .name("mpdpd-reader".to_string())
                        .spawn(move || {
                            reader_loop(d, src, writer);
                            readers.fetch_sub(1, Ordering::SeqCst);
                        });
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }

    // Drain: stop reading, answer everything already accepted, then leave.
    daemon.draining.store(true, Ordering::Release);
    let t0 = Instant::now();
    while active_readers.load(Ordering::SeqCst) > 0 && t0.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(10));
    }
    daemon.readers_done.store(true, Ordering::Release);
    daemon.queue_cv.notify_all();
    for w in workers {
        let _ = w.join();
    }
    let answered = daemon.drained_answered.load(Ordering::Relaxed);
    daemon.metrics.event(&ServeEvent::Drained { answered });
    if let Some(prom) = &cfg.prom_file {
        let text = serve_prometheus_text(&daemon.metrics_snapshot());
        let _ = std::fs::write(prom, text);
    }
    if let Bind::Unix(path) = &cfg.bind {
        let _ = std::fs::remove_file(path);
    }
    let sessions = daemon.state.lock().expect("state lock").len();
    Ok(DrainSummary {
        answered,
        sessions,
        rebuilt,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `close` (guaranteed) or a `ping` (best-effort) whose reply goes
    /// to a `Vec<u8>`.
    fn job(id: u64, guaranteed: bool) -> Job {
        let line = if guaranteed {
            format!(r#"{{"op":"close","id":{id},"session":"s"}}"#)
        } else {
            format!(r#"{{"op":"ping","id":{id}}}"#)
        };
        Job {
            envelope: parse_request(&line).expect("a valid request"),
            writer: Arc::new(Mutex::new(Box::new(Vec::<u8>::new()))),
            received: Instant::now(),
            deadline: Duration::from_secs(1),
        }
    }

    fn ids(q: &Queue) -> Vec<u64> {
        q.jobs.iter().map(|j| j.envelope.id).collect()
    }

    #[test]
    fn a_lone_request_on_an_idle_queue_runs_at_once() {
        let mut q = Queue::new(4, 2);
        assert!(q.claim(true));
        assert!(q.claim(true));
        assert_eq!(q.running, 2);
        // Every slot is taken: the third lone request must wait.
        assert!(!q.claim(true));
        assert_eq!(q.running, 2);
        assert!(!q.release(), "nothing is queued");
        assert!(q.claim(true));
    }

    #[test]
    fn a_request_with_lines_behind_it_is_queued() {
        let mut q = Queue::new(4, 2);
        assert!(!q.claim(false));
        assert_eq!(q.running, 0);
        assert!(matches!(q.offer(job(1, false)), Offer::Queued { depth: 1 }));
        assert_eq!(q.take().map(|j| j.envelope.id), Some(1));
        assert_eq!(q.running, 1);
    }

    #[test]
    fn nothing_overtakes_a_queued_request() {
        let mut q = Queue::new(4, 2);
        assert!(matches!(q.offer(job(1, false)), Offer::Queued { depth: 1 }));
        // A slot is free, but a lone request may not pass the queued one.
        assert!(!q.claim(true));
        assert_eq!(q.running, 0);
        assert_eq!(q.take().map(|j| j.envelope.id), Some(1));
        assert!(q.claim(true));

        // With every slot held, queued requests leave in arrival order as
        // slots free, and a release reports that they are waiting.
        assert!(matches!(q.offer(job(2, true)), Offer::Queued { depth: 1 }));
        assert!(matches!(q.offer(job(3, false)), Offer::Queued { depth: 2 }));
        assert!(q.take().is_none());
        assert!(q.release());
        assert!(!q.claim(true));
        assert_eq!(q.take().map(|j| j.envelope.id), Some(2));
        assert!(q.take().is_none());
        assert!(q.release());
        assert_eq!(q.take().map(|j| j.envelope.id), Some(3));
    }

    #[test]
    fn running_never_exceeds_workers() {
        // Every sequence of 7 steps over claim (lone or not), offer, take
        // and release, against a model count of the slots held.
        const STEPS: u32 = 7;
        const OPS: usize = 5;
        for workers in 1..=2 {
            for mut code in 0..OPS.pow(STEPS) {
                let mut q = Queue::new(2, workers);
                let mut held = 0;
                let mut next_id = 0;
                for _ in 0..STEPS {
                    let (op, rest) = (code % OPS, code / OPS);
                    code = rest;
                    match op {
                        0 | 1 => {
                            let lone = op == 0;
                            let idle = q.jobs.is_empty() && held < workers;
                            let claimed = q.claim(lone);
                            assert_eq!(claimed, lone && idle);
                            held += usize::from(claimed);
                        }
                        2 => {
                            next_id += 1;
                            let _ = q.offer(job(next_id, next_id % 2 == 0));
                            assert!(q.jobs.len() <= q.cap);
                        }
                        3 => {
                            let queued = q.jobs.len();
                            let taken = q.take().is_some();
                            assert_eq!(taken, queued > 0 && held < workers);
                            held += usize::from(taken);
                        }
                        _ => {
                            if held > 0 {
                                assert_eq!(q.release(), !q.jobs.is_empty());
                                held -= 1;
                            }
                        }
                    }
                    assert_eq!(q.running, held);
                    assert!(q.running <= workers);
                }
            }
        }
    }

    #[test]
    fn a_full_queue_sheds_evicts_and_rejects() {
        let mut q = Queue::new(2, 1);
        assert!(matches!(q.offer(job(1, false)), Offer::Queued { depth: 1 }));
        assert!(matches!(q.offer(job(2, true)), Offer::Queued { depth: 2 }));
        // Full: a best-effort request is shed itself.
        match q.offer(job(3, false)) {
            Offer::Shed(j) => assert_eq!(j.envelope.id, 3),
            _ => panic!("a best-effort request at a full queue is shed"),
        }
        // A guaranteed one evicts the oldest queued best-effort request.
        match q.offer(job(4, true)) {
            Offer::Evicted { victim, depth } => {
                assert_eq!((victim.envelope.id, depth), (1, 2));
            }
            _ => panic!("a guaranteed request evicts best-effort work"),
        }
        assert_eq!(ids(&q), [2, 4]);
        // Wall-to-wall guaranteed: honest backpressure, queue untouched.
        match q.offer(job(5, true)) {
            Offer::Rejected(j) => assert_eq!(j.envelope.id, 5),
            _ => panic!("a guaranteed backlog rejects a guaranteed request"),
        }
        assert!(matches!(q.offer(job(6, false)), Offer::Shed(_)));
        assert_eq!(ids(&q), [2, 4]);
        assert_eq!(q.running, 0, "offers never claim a slot");
    }
}
