//! The `serve_mixed` workload: a fresh `mpdpd` child process driven by a
//! closed loop over two Unix-socket connections, each cycling seeded
//! 50-request admission sessions, and the in-process `SessionStore`
//! replay that checks every session's verdicts.

use std::io;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use mpdp_analysis::{is_schedulable_at, AdmissionSession, PartitionHeuristic};
use mpdp_core::time::DEFAULT_TICK;
use mpdp_mpdpd::protocol::{error_response, ok_response, parse_request};
use mpdp_mpdpd::session::OpResult;
use mpdp_mpdpd::{Client, SessionStore};
use mpdp_workload::automotive_task_set;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::Tally;
use crate::trace::Recorder;

/// Client connections, one thread each.
pub const CONNECTIONS: usize = 2;
/// Requests per session.
pub const SESSION_LEN: usize = 50;
/// Deadline every request carries: far above any queueing delay two
/// closed-loop connections can cause.
const DEADLINE_MS: u64 = 30_000;
/// The Figure 4 grid the sessions' `open` requests rotate over.
const GRID: [(f64, usize); 9] = [
    (0.4, 2),
    (0.5, 2),
    (0.6, 2),
    (0.4, 3),
    (0.5, 3),
    (0.6, 3),
    (0.4, 4),
    (0.5, 4),
    (0.6, 4),
];

/// Request kinds, as the per-endpoint metrics name them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `open`.
    Open,
    /// `admit`.
    Admit,
    /// `close`.
    Close,
    /// `query` kind `verdict`.
    Verdict,
    /// `query` kind `at`.
    At,
    /// `query` kind `headroom`.
    Headroom,
    /// `ping`.
    Ping,
}

impl Kind {
    /// Every kind, in metric order.
    pub const ALL: [Kind; 7] = [
        Kind::Open,
        Kind::Admit,
        Kind::Close,
        Kind::Verdict,
        Kind::At,
        Kind::Headroom,
        Kind::Ping,
    ];

    /// Client span name, and the prefix of the endpoint's metrics.
    pub fn span(self) -> &'static str {
        match self {
            Kind::Open => "mpdpd.open",
            Kind::Admit => "mpdpd.admit",
            Kind::Close => "mpdpd.close",
            Kind::Verdict => "mpdpd.verdict",
            Kind::At => "mpdpd.at",
            Kind::Headroom => "mpdpd.headroom",
            Kind::Ping => "mpdpd.ping",
        }
    }

    /// Whether the daemon serves this kind in its guaranteed band.
    pub fn guaranteed(self) -> bool {
        matches!(self, Kind::Open | Kind::Admit | Kind::Close)
    }

    /// Whether the replay check compares this kind's replies.
    fn checked(self) -> bool {
        matches!(self, Kind::Open | Kind::Admit | Kind::Close | Kind::Verdict)
    }
}

/// What one request asks, with its parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Open the session at a grid coordinate.
    Open {
        /// Target utilization.
        util: f64,
        /// Processor count.
        procs: usize,
    },
    /// Admit one aperiodic request.
    Admit {
        /// Task id.
        task: u32,
        /// Execution demand, µs.
        exec_us: u64,
        /// Inter-arrival window, µs.
        window_us: u64,
    },
    /// Close the session.
    Close,
    /// Current verdict.
    Verdict,
    /// Schedulability at a load factor.
    At {
        /// Load factor.
        factor: f64,
    },
    /// Remaining admissible bandwidth.
    Headroom {
        /// Breakdown-search tolerance.
        tolerance: f64,
    },
    /// Liveness probe.
    Ping,
}

impl Op {
    /// The request's kind.
    pub fn kind(&self) -> Kind {
        match self {
            Op::Open { .. } => Kind::Open,
            Op::Admit { .. } => Kind::Admit,
            Op::Close => Kind::Close,
            Op::Verdict => Kind::Verdict,
            Op::At { .. } => Kind::At,
            Op::Headroom { .. } => Kind::Headroom,
            Op::Ping => Kind::Ping,
        }
    }
}

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Correlation id, unique within a run.
    pub id: u64,
    /// What it asks.
    pub op: Op,
    /// The NDJSON line sent.
    pub line: String,
}

fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Session name of session `k` of connection `conn`.
pub fn session_name(conn: usize, k: u64) -> String {
    format!("c{conn}-s{k}")
}

/// Session `k` of connection `conn` under `seed`: `open` first, `close`
/// last, and in between 5 `admit`, 5 `query at`, 5 `query headroom`,
/// 19 `query verdict` and 14 `ping` in a seeded order. The utilization
/// and processor count rotate over the Figure 4 grid.
pub fn session(seed: u64, conn: usize, k: u64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(mix(mix(seed, conn as u64 + 1), k));
    let (util, procs) = GRID[(k as usize + 4 * conn) % GRID.len()];
    let mut middle: Vec<Kind> = [
        (Kind::Admit, 5),
        (Kind::At, 5),
        (Kind::Headroom, 5),
        (Kind::Verdict, 19),
        (Kind::Ping, 14),
    ]
    .iter()
    .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
    .collect();
    for i in (1..middle.len()).rev() {
        middle.swap(i, rng.gen_range(0..=i));
    }
    let mut admits = 0u32;
    let ops = std::iter::once(Op::Open { util, procs })
        .chain(middle.into_iter().map(|kind| match kind {
            Kind::Admit => {
                admits += 1;
                Op::Admit {
                    task: 100 + admits,
                    exec_us: rng.gen_range(100u64..=4_000),
                    window_us: rng.gen_range(20_000u64..=200_000),
                }
            }
            Kind::At => Op::At {
                factor: rng.gen_range(500u32..1_600) as f64 / 1_000.0,
            },
            Kind::Headroom => Op::Headroom {
                tolerance: [0.01, 0.02, 0.05][rng.gen_range(0usize..3)],
            },
            Kind::Verdict => Op::Verdict,
            _ => Op::Ping,
        }))
        .chain(std::iter::once(Op::Close))
        .collect::<Vec<_>>();
    let name = session_name(conn, k);
    ops.into_iter()
        .enumerate()
        .map(|(j, op)| {
            let id = conn as u64 * 1_000_000_000_000 + k * 64 + j as u64;
            let tail = format!(",\"deadline_ms\":{DEADLINE_MS}}}");
            let line = match op {
                Op::Open { util, procs } => format!(
                    "{{\"op\":\"open\",\"id\":{id},\"session\":\"{name}\",\"util\":{util},\"procs\":{procs}{tail}"
                ),
                Op::Admit {
                    task,
                    exec_us,
                    window_us,
                } => format!(
                    "{{\"op\":\"admit\",\"id\":{id},\"session\":\"{name}\",\"task\":{task},\"exec_us\":{exec_us},\"window_us\":{window_us}{tail}"
                ),
                Op::Close => format!("{{\"op\":\"close\",\"id\":{id},\"session\":\"{name}\"{tail}"),
                Op::Verdict => format!(
                    "{{\"op\":\"query\",\"id\":{id},\"session\":\"{name}\",\"kind\":\"verdict\"{tail}"
                ),
                Op::At { factor } => format!(
                    "{{\"op\":\"query\",\"id\":{id},\"session\":\"{name}\",\"kind\":\"at\",\"factor\":{factor}{tail}"
                ),
                Op::Headroom { tolerance } => format!(
                    "{{\"op\":\"query\",\"id\":{id},\"session\":\"{name}\",\"kind\":\"headroom\",\"tolerance\":{tolerance}{tail}"
                ),
                Op::Ping => format!("{{\"op\":\"ping\",\"id\":{id}{tail}"),
            };
            Request { id, op, line }
        })
        .collect()
}

/// A running daemon child process.
pub struct Daemon {
    child: Option<Child>,
    /// Pid of the server process (the binary runs it under a shell
    /// trampoline that owns signal handling).
    pub pid: u32,
    /// Its socket.
    pub socket: PathBuf,
    drain: PathBuf,
}

impl Daemon {
    /// Starts `exe` with an empty journal in `dir`, 2 workers and queue
    /// 64, and waits until its socket accepts a connection. Returns the
    /// daemon and the time that took.
    pub fn spawn(exe: &Path, dir: &Path) -> Result<(Daemon, Duration), String> {
        let t0 = Instant::now();
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let socket = dir.join("d.sock");
        let journal = dir.join("sessions.mpdpd");
        let pid_file = dir.join("d.pid");
        let mut drain = journal.clone().into_os_string();
        drain.push(".drain");
        let child = Command::new(exe)
            .arg("--socket")
            .arg(&socket)
            .arg("--journal")
            .arg(&journal)
            .args(["--workers", "2", "--queue-cap", "64", "--pid-file"])
            .arg(&pid_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let mut daemon = Daemon {
            child: Some(child),
            pid: 0,
            socket,
            drain: PathBuf::from(drain),
        };
        while UnixStream::connect(&daemon.socket).is_err() {
            if t0.elapsed() > Duration::from_secs(20) {
                return Err("daemon did not accept connections within 20 s".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        let setup = t0.elapsed();
        daemon.pid = std::fs::read_to_string(&pid_file)
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .ok_or("daemon wrote no pid file")?;
        Ok((daemon, setup))
    }

    /// Drains the daemon through its drain file and waits for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        std::fs::write(&self.drain, b"").map_err(|e| format!("cannot touch drain file: {e}"))?;
        let mut child = self.child.take().expect("daemon is running");
        let t0 = Instant::now();
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if t0.elapsed() < Duration::from_secs(20) => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    kill(&mut child, self.pid);
                    return Err("daemon did not drain within 20 s".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            kill(&mut child, self.pid);
        }
    }
}

/// Kills the trampoline, reaps it, and waits for the server, which exits
/// on its own once its parent is gone.
fn kill(child: &mut Child, server: u32) {
    let _ = child.kill();
    let _ = child.wait();
    let proc_dir = PathBuf::from(format!("/proc/{server}"));
    let t0 = Instant::now();
    while server != 0 && proc_dir.exists() && t0.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// One answered (or lost) request as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Request kind.
    pub kind: Kind,
    /// Send-to-response latency, nanoseconds.
    pub ns: u64,
    /// Completion, nanoseconds since the load started.
    pub done: u64,
    /// Whether the reply was `ok:true`.
    pub ok: bool,
}

/// The replies of one session that the replay check compares.
#[derive(Debug, Clone)]
pub struct SessionLog {
    /// Connection index.
    pub conn: usize,
    /// Session index on that connection.
    pub k: u64,
    /// `(request position, reply)` for every checked request answered.
    pub replies: Vec<(usize, String)>,
    /// Requests answered, in order from the first.
    pub answered: usize,
}

/// What one connection did.
#[derive(Debug, Default)]
pub struct ConnLog {
    /// Every request's sample.
    pub samples: Vec<Sample>,
    /// Every session started.
    pub sessions: Vec<SessionLog>,
    /// Requests attempted and failed.
    pub tally: Tally,
}

/// Runs connection `conn`'s closed loop until `until`, finishing the
/// session in progress. With a recorder, every session and request is a
/// span.
pub fn drive(
    socket: &Path,
    seed: u64,
    conn: usize,
    origin: Instant,
    until: Instant,
    mut rec: Option<&mut Recorder>,
) -> ConnLog {
    let mut log = ConnLog::default();
    let mut client = match Client::connect_unix(socket) {
        Ok(c) => c,
        Err(_) => {
            log.tally.transport_error();
            return log;
        }
    };
    let mut k = 0u64;
    while Instant::now() < until {
        let requests = session(seed, conn, k);
        let session_span = rec.as_mut().map(|r| r.enter("serve.session", k));
        let mut slog = SessionLog {
            conn,
            k,
            replies: Vec::new(),
            answered: 0,
        };
        let mut broken = false;
        for (j, req) in requests.iter().enumerate() {
            let kind = req.op.kind();
            let span = rec.as_mut().map(|r| r.enter(kind.span(), req.id));
            let t0 = Instant::now();
            let reply = client.call(&req.line);
            let ns = t0.elapsed().as_nanos() as u64;
            if let (Some(r), Some(s)) = (rec.as_mut(), span) {
                r.exit(s);
            }
            match reply {
                Ok(reply) => {
                    log.tally.reply(&reply);
                    log.samples.push(Sample {
                        kind,
                        ns,
                        done: origin.elapsed().as_nanos() as u64,
                        ok: crate::stats::reply_ok(&reply),
                    });
                    slog.answered += 1;
                    if kind.checked() {
                        slog.replies.push((j, reply));
                    }
                }
                Err(_) => {
                    log.tally.transport_error();
                    broken = true;
                    break;
                }
            }
        }
        if let (Some(r), Some(s)) = (rec.as_mut(), session_span) {
            r.exit(s);
        }
        log.sessions.push(slog);
        if broken {
            break;
        }
        k += 1;
    }
    log
}

/// Asks the daemon for its `stats` counters.
pub fn daemon_stats(socket: &Path) -> io::Result<String> {
    Client::connect_unix(socket)?.call("{\"op\":\"stats\",\"id\":1}")
}

/// The unsigned value of `"key":N` in a flat JSON reply.
pub fn json_u64(reply: &str, key: &str) -> Option<u64> {
    json_field(reply, key)?.parse().ok()
}

/// The numeric value of `"key":X` in a flat JSON reply.
pub fn json_f64(reply: &str, key: &str) -> Option<f64> {
    json_field(reply, key)?.parse().ok()
}

fn json_field<'a>(reply: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = reply.find(&pat)? + pat.len();
    let rest = &reply[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

/// Renders an operation result the way the daemon answers it.
fn render(id: u64, result: OpResult) -> String {
    match result {
        Ok(body) => ok_response(id, &body),
        Err((kind, detail)) => error_response(id, kind, &detail),
    }
}

/// Replays every logged session in order against an in-process
/// `SessionStore` on the scratch journal `journal`, and checks that the
/// daemon's `open`, `admit` and `close` replies equal the store's, and
/// every `query verdict` reply matches the store's state at that point.
/// With a recorder, also times `parse_request` on every line, the
/// store's `admit` (one fsynced WAL record), and the analysis calls
/// behind `open`, `query at` and `query headroom`. Returns the sessions
/// checked.
pub fn replay(
    seed: u64,
    logs: &[SessionLog],
    journal: &Path,
    mut rec: Option<&mut Recorder>,
) -> Result<usize, String> {
    let mut store =
        SessionStore::open(journal).map_err(|e| format!("cannot open replay journal: {e}"))?;
    let heuristic = PartitionHeuristic::WorstFitDecreasing;
    for log in logs {
        let name = session_name(log.conn, log.k);
        let requests = session(seed, log.conn, log.k);
        let mut replies = log.replies.iter().peekable();
        for (j, req) in requests.iter().enumerate().take(log.answered) {
            let id = req.id;
            let logged = match replies.peek() {
                Some((at, reply)) if *at == j => {
                    replies.next();
                    Some(reply.as_str())
                }
                _ => None,
            };
            if let Some(r) = rec.as_mut() {
                r.time("mpdpd.parse", id, || parse_request(&req.line))
                    .map_err(|e| format!("request {id} does not parse: {e:?}"))?;
            }
            let expected = match req.op {
                Op::Open { util, procs } => {
                    if let Some(r) = rec.as_mut() {
                        let span = r.enter("analysis.open", id);
                        let set = r.time("workload.task_set", id, || {
                            automotive_task_set(util, procs, DEFAULT_TICK)
                        });
                        let _ = AdmissionSession::new(set.periodic, procs, heuristic);
                        r.exit(span);
                    }
                    Some(render(id, store.open_session(&name, util, procs)))
                }
                Op::Admit {
                    task,
                    exec_us,
                    window_us,
                } => {
                    let result = match rec.as_mut() {
                        Some(r) => r.time("mpdpd.wal", id, || {
                            store.admit(&name, task, exec_us, window_us)
                        }),
                        None => store.admit(&name, task, exec_us, window_us),
                    };
                    Some(render(id, result))
                }
                Op::Close => Some(render(id, store.close(&name))),
                Op::Verdict => {
                    let reply = logged.ok_or(format!("verdict {id} was not logged"))?;
                    check_verdict(&store, &name, reply)
                        .map_err(|e| format!("session {name} verdict {id}: {e}"))?;
                    None
                }
                Op::At { factor } => {
                    if let (Some(r), Some(s)) = (rec.as_mut(), store.get(&name)) {
                        r.time("analysis.at", id, || {
                            is_schedulable_at(s.admission.periodic(), s.procs, factor, heuristic)
                        });
                    }
                    None
                }
                Op::Headroom { tolerance } => {
                    if let (Some(r), Some(s)) = (rec.as_mut(), store.get(&name)) {
                        let _ = r.time("analysis.headroom", id, || s.admission.headroom(tolerance));
                    }
                    None
                }
                Op::Ping => None,
            };
            if let Some(expected) = expected {
                let reply = logged.ok_or(format!("reply {id} was not logged"))?;
                if reply != expected {
                    return Err(format!(
                        "session {name}: daemon answered {reply} where the replay gives {expected}"
                    ));
                }
            }
        }
    }
    Ok(logs.len())
}

/// Checks a `query verdict` reply against the replayed session state.
fn check_verdict(store: &SessionStore, name: &str, reply: &str) -> Result<(), String> {
    let s = store
        .get(name)
        .ok_or("the replay has no such session open")?;
    let base: f64 = s.admission.periodic().iter().map(|t| t.utilization()).sum();
    let want = [
        ("procs", s.procs as f64),
        ("base_utilization", base),
        ("aperiodic_bandwidth", s.admission.aperiodic_bandwidth()),
        ("admitted", s.admission.admitted().len() as f64),
    ];
    for (key, value) in want {
        if json_f64(reply, key) != Some(value) {
            return Err(format!("{key} is not {value} in {reply}"));
        }
    }
    Ok(())
}
