//! End-to-end tests against the real `mpdpd` binary: protocol round
//! trips, SIGKILL crash recovery (also mid-stream under group commit),
//! journal poisoning by a real write failure, overload shedding, typed
//! timeouts, and the SIGTERM graceful drain through the sh trampoline.

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use mpdp_mpdpd::Client;

struct Daemon {
    child: Child,
    socket: PathBuf,
    dir: PathBuf,
}

impl Daemon {
    /// Spawns the server in inner mode (no trampoline): `Child::kill` is
    /// then a true SIGKILL of the serving process.
    fn spawn_inner(tag: &str, extra: &[&str]) -> Daemon {
        Daemon::spawn(tag, extra, true, None)
    }

    fn spawn(tag: &str, extra: &[&str], inner: bool, dir: Option<PathBuf>) -> Daemon {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_mpdpd"));
        if inner {
            cmd.env("MPDPD_INNER", "1");
        } else {
            cmd.env_remove("MPDPD_INNER").env_remove("MPDPD_WRAPPED");
        }
        Daemon::start(tag, cmd, extra, dir)
    }

    /// Spawns the server in inner mode under a 512-byte file-size limit
    /// with SIGXFSZ ignored (both carry across `exec`): the journal write
    /// that crosses the limit is partial and fails with EFBIG.
    fn spawn_with_file_limit(tag: &str) -> Daemon {
        let mut cmd = Command::new("/bin/sh");
        cmd.args(["-c", r#"trap '' XFSZ; ulimit -f 1; exec "$0" "$@""#])
            .arg(env!("CARGO_BIN_EXE_mpdpd"))
            .env("MPDPD_INNER", "1");
        Daemon::start(tag, cmd, &[], None)
    }

    fn start(tag: &str, mut cmd: Command, extra: &[&str], dir: Option<PathBuf>) -> Daemon {
        let dir = dir.unwrap_or_else(|| {
            let d = std::env::temp_dir().join(format!("mpdpd-it-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&d);
            std::fs::create_dir_all(&d).expect("temp dir");
            d
        });
        let socket = dir.join("mpdpd.sock");
        let _ = std::fs::remove_file(&socket);
        cmd.arg("--socket")
            .arg(&socket)
            .arg("--journal")
            .arg(dir.join("sessions.mpdpd"))
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        let child = cmd.spawn().expect("spawn mpdpd");
        let daemon = Daemon { child, socket, dir };
        daemon.await_ready();
        daemon
    }

    fn await_ready(&self) {
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(30) {
            if Client::connect_unix(&self.socket).is_ok() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("daemon did not start listening on {:?}", self.socket);
    }

    fn connect(&self) -> Client {
        Client::connect_unix(&self.socket).expect("connect")
    }

    fn journal(&self) -> PathBuf {
        self.dir.join("sessions.mpdpd")
    }

    fn cleanup(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    /// SIGKILLs the server and returns its directory for a relaunch.
    fn sigkill(mut self) -> PathBuf {
        self.child.kill().expect("sigkill");
        let _ = self.child.wait();
        self.dir
    }
}

/// Sends `line` on a fresh connection whose reads give up after
/// `timeout`, so a wedged daemon fails the test instead of hanging it.
fn send_within(socket: &Path, line: &str, timeout: Duration) -> io::Result<BufReader<UnixStream>> {
    let mut stream = UnixStream::connect(socket)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.write_all(format!("{line}\n").as_bytes())?;
    Ok(BufReader::new(stream))
}

/// The next response line on a [`send_within`] connection.
fn reply_on(mut conn: BufReader<UnixStream>) -> io::Result<String> {
    let mut reply = String::new();
    conn.read_line(&mut reply)?;
    Ok(reply.trim_end().to_string())
}

fn sigterm(pid: u32) {
    let status = Command::new("kill")
        .args(["-TERM", &pid.to_string()])
        .status()
        .expect("run kill");
    assert!(status.success(), "kill -TERM failed");
}

#[test]
fn protocol_round_trip_over_a_unix_socket() {
    let d = Daemon::spawn_inner("roundtrip", &[]);
    let mut c = d.connect();
    let open = c
        .call(r#"{"op":"open","id":1,"session":"s1","util":0.4,"procs":2}"#)
        .expect("open");
    assert!(open.starts_with(r#"{"id":1,"ok":true"#), "{open}");
    assert!(open.contains("\"tasks\":18"), "{open}");

    let admit = c
        .call(r#"{"op":"admit","id":2,"session":"s1","task":100,"exec_us":2000,"window_us":10000000}"#)
        .expect("admit");
    assert!(admit.contains("\"admitted\":true"), "{admit}");

    let verdict = c
        .call(r#"{"op":"query","id":3,"session":"s1"}"#)
        .expect("verdict");
    assert!(verdict.contains("\"admitted\":1"), "{verdict}");

    let at = c
        .call(r#"{"op":"query","id":4,"session":"s1","kind":"at","factor":1.1}"#)
        .expect("at");
    assert!(at.contains("\"schedulable\":true"), "{at}");

    let ghost = c
        .call(r#"{"op":"query","id":5,"session":"ghost"}"#)
        .expect("ghost");
    assert!(ghost.contains("\"error\":\"unknown_session\""), "{ghost}");

    let stats = c.call(r#"{"op":"stats","id":6}"#).expect("stats");
    assert!(stats.contains("\"sessions\":1"), "{stats}");
    assert!(
        stats.contains("\"serve_completed\":") || stats.contains("\"completed\":"),
        "{stats}"
    );

    let metrics = c.call(r#"{"op":"metrics","id":7}"#).expect("metrics");
    assert!(metrics.contains("mpdp_serve_"), "{metrics}");

    let close = c
        .call(r#"{"op":"close","id":8,"session":"s1"}"#)
        .expect("close");
    assert!(close.contains("\"closed\":\"s1\""), "{close}");
    d.cleanup();
}

#[test]
fn a_tiny_headroom_tolerance_never_wedges_a_worker() {
    // Both workers get a search whose tolerance is below the spacing of
    // doubles; a ping behind them must still be answered.
    let d = Daemon::spawn_inner("tolerance", &[]);
    let limit = Duration::from_secs(10);
    let call = |line: &str| send_within(&d.socket, line, limit).and_then(reply_on);
    let open = call(r#"{"op":"open","id":1,"session":"s","util":0.4,"procs":2}"#);
    let searches: Vec<_> = [2, 3]
        .map(|id| {
            send_within(
                &d.socket,
                &format!(
                    r#"{{"op":"query","id":{id},"session":"s","kind":"headroom","tolerance":1e-300,"deadline_ms":30000}}"#
                ),
                limit,
            )
        })
        .into_iter()
        .collect();
    let pong = call(r#"{"op":"ping","id":4}"#);
    let headrooms: Vec<_> = searches
        .into_iter()
        .map(|search| search.and_then(reply_on))
        .collect();
    // A wedged daemon spins its workers until killed: stop it first.
    d.cleanup();
    let open = open.expect("open answered");
    assert!(open.contains("\"ok\":true"), "{open}");
    let pong = pong.expect("ping answered behind two searches");
    assert!(pong.contains("\"pong\":true"), "{pong}");
    for reply in headrooms {
        let reply = reply.expect("headroom answered");
        assert!(reply.contains("\"headroom\":"), "{reply}");
    }
}

#[test]
fn an_admit_past_the_cycle_range_is_a_bad_request() {
    let d = Daemon::spawn_inner("range", &[]);
    let limit = Duration::from_secs(10);
    let call = |line: &str| send_within(&d.socket, line, limit).and_then(reply_on);
    let open = call(r#"{"op":"open","id":1,"session":"s","util":0.6,"procs":2}"#);
    // 368934881474191104 µs is 2^64 + 3584 cycles: it must not wrap.
    let huge = call(
        r#"{"op":"admit","id":2,"session":"s","task":100,"exec_us":368934881474191104,"window_us":100000}"#,
    );
    let verdict = call(r#"{"op":"query","id":3,"session":"s"}"#);
    d.cleanup();
    let open = open.expect("open answered");
    assert!(open.contains("\"ok\":true"), "{open}");
    let huge = huge.expect("admit answered");
    assert!(
        huge.contains("\"error\":\"bad_request\"") && huge.contains("exec_us"),
        "{huge}"
    );
    let verdict = verdict.expect("verdict answered");
    assert!(verdict.contains("\"admitted\":0"), "{verdict}");
}

#[test]
fn sigkill_recovery_rebuilds_sessions_byte_identically() {
    let d = Daemon::spawn_inner("sigkill", &[]);
    let mut c = d.connect();
    for (name, util, procs) in [("alpha", "0.4", "3"), ("beta", "0.5", "2")] {
        let open = c
            .call(&format!(
                r#"{{"op":"open","id":1,"session":"{name}","util":{util},"procs":{procs}}}"#
            ))
            .expect("open");
        assert!(open.contains("\"ok\":true"), "{open}");
    }
    for task in [100, 101, 102] {
        let admit = c
            .call(&format!(
                r#"{{"op":"admit","id":2,"session":"alpha","task":{task},"exec_us":3000,"window_us":5000000}}"#
            ))
            .expect("admit");
        assert!(admit.contains("\"ok\":true"), "{admit}");
    }
    let verdict_alpha = c
        .call(r#"{"op":"query","id":9,"session":"alpha"}"#)
        .expect("verdict");
    let verdict_beta = c
        .call(r#"{"op":"query","id":9,"session":"beta"}"#)
        .expect("verdict");

    // SIGKILL: no drain, no flush beyond the fsync each reply waited for.
    let mut child = d.child;
    child.kill().expect("sigkill");
    let _ = child.wait();

    let d2 = Daemon::spawn("sigkill-relaunch", &[], true, Some(d.dir.clone()));
    let mut c2 = d2.connect();
    let after_alpha = c2
        .call(r#"{"op":"query","id":9,"session":"alpha"}"#)
        .expect("verdict after relaunch");
    let after_beta = c2
        .call(r#"{"op":"query","id":9,"session":"beta"}"#)
        .expect("verdict after relaunch");
    assert_eq!(after_alpha, verdict_alpha, "alpha state is byte-identical");
    assert_eq!(after_beta, verdict_beta, "beta state is byte-identical");
    let stats = c2.call(r#"{"op":"stats","id":1}"#).expect("stats");
    assert!(
        stats.contains("\"serve_sessions_rebuilt\":2") || stats.contains("\"sessions_rebuilt\":2"),
        "{stats}"
    );
    d2.cleanup();
}

#[test]
fn overload_sheds_best_effort_but_never_guaranteed() {
    // One worker and a tiny queue so the burst actually overloads it.
    let d = Daemon::spawn_inner(
        "overload",
        &[
            "--workers",
            "1",
            "--queue-cap",
            "4",
            "--deadline-ms",
            "60000",
        ],
    );
    let mut setup = d.connect();
    let open = setup
        .call(r#"{"op":"open","id":1,"session":"s","util":0.4,"procs":2}"#)
        .expect("open");
    assert!(open.contains("\"ok\":true"), "{open}");

    // Occupy the single worker with a slow simulate query.
    let mut slow = d.connect();
    slow.send(r#"{"op":"query","id":2,"session":"s","kind":"simulate"}"#)
        .expect("send simulate");
    std::thread::sleep(Duration::from_millis(100));

    // A 10x best-effort burst against a queue of 4.
    let mut burst = d.connect();
    let n_burst = 40;
    for i in 0..n_burst {
        burst
            .send(&format!(r#"{{"op":"ping","id":{}}}"#, 100 + i))
            .expect("send ping");
    }
    std::thread::sleep(Duration::from_millis(100));

    // Guaranteed admissions arrive while the queue is saturated.
    let mut guaranteed = d.connect();
    let n_admits = 3;
    for i in 0..n_admits {
        guaranteed
            .send(&format!(
                r#"{{"op":"admit","id":{},"session":"s","task":{},"exec_us":1000,"window_us":10000000}}"#,
                200 + i,
                300 + i
            ))
            .expect("send admit");
    }
    for _ in 0..n_admits {
        let reply = guaranteed.recv().expect("admit answered");
        assert!(
            reply.contains("\"ok\":true") && reply.contains("\"admitted\":true"),
            "guaranteed request was not honored: {reply}"
        );
    }

    let mut shed = 0;
    let mut answered = 0;
    for _ in 0..n_burst {
        let reply = burst.recv().expect("ping response");
        if reply.contains("\"error\":\"overloaded\"") {
            shed += 1;
        } else {
            assert!(reply.contains("\"pong\":true"), "{reply}");
            answered += 1;
        }
    }
    assert!(shed > 0, "burst never overloaded the queue");
    assert_eq!(shed + answered, n_burst);

    let _ = slow.recv().expect("simulate eventually answers");
    let stats = setup.call(r#"{"op":"stats","id":3}"#).expect("stats");
    let rejected: u64 = field(&stats, "rejected_guaranteed");
    let shed_counter: u64 = field(&stats, "shed_best_effort");
    assert_eq!(rejected, 0, "no guaranteed request may be shed: {stats}");
    assert!(shed_counter >= shed, "{stats}");

    // The sheds are visible in the Prometheus export too.
    let metrics = setup.call(r#"{"op":"metrics","id":4}"#).expect("metrics");
    assert!(
        metrics.contains("mpdp_serve_shed_best_effort_total"),
        "{metrics}"
    );
    d.cleanup();
}

#[test]
fn an_open_refused_for_its_base_is_journaled_and_counted() {
    let d = Daemon::spawn_inner("unschedulable", &[]);
    let mut c = d.connect();
    let open = c
        .call(r#"{"op":"open","id":1,"session":"s","util":0.95,"procs":1}"#)
        .expect("open");
    assert!(open.contains("\"error\":\"unschedulable_base\""), "{open}");
    // The record is written before the base is analysed, and replays to
    // the same refusal.
    let stats = c.call(r#"{"op":"stats","id":2}"#).expect("stats");
    assert_eq!(field(&stats, "journal_appends"), 1, "{stats}");
    assert_eq!(field(&stats, "journal_syncs"), 1, "{stats}");
    d.cleanup();
}

/// A reply without its `"id":N` prefix, for comparing replies to
/// different requests.
fn without_id(reply: &str) -> &str {
    &reply[reply.find(",\"ok\"").unwrap_or(0)..]
}

#[test]
fn a_failed_journal_write_poisons_the_journal_and_loses_no_acknowledged_mutation() {
    let d = Daemon::spawn_with_file_limit("efbig");
    let mut c = d.connect();
    let open = c
        .call(r#"{"op":"open","id":1,"session":"s","util":0.4,"procs":2}"#)
        .expect("open");
    assert!(open.contains("\"ok\":true"), "{open}");
    let mut acknowledged = 0;
    let failed = loop {
        assert!(
            acknowledged < 100,
            "no journal write hit the file-size limit"
        );
        let reply = c
            .call(&format!(
                r#"{{"op":"admit","id":2,"session":"s","task":{},"exec_us":1,"window_us":10000000}}"#,
                100 + acknowledged
            ))
            .expect("admit");
        if reply.contains("\"ok\":false") {
            break reply;
        }
        assert!(reply.contains("\"admitted\":true"), "{reply}");
        acknowledged += 1;
    };
    assert!(
        failed.contains("\"error\":\"overloaded\"") && failed.contains("journal write failed"),
        "{failed}"
    );
    let verdict = c
        .call(r#"{"op":"query","id":3,"session":"s"}"#)
        .expect("verdict");
    assert!(
        verdict.contains(&format!("\"admitted\":{acknowledged}")),
        "{verdict}"
    );
    // Every later mutation is refused the same way; reads still answer.
    for later in [
        r#"{"op":"admit","id":4,"session":"s","task":999,"exec_us":1,"window_us":10000000}"#,
        r#"{"op":"open","id":5,"session":"t","util":0.4,"procs":2}"#,
        r#"{"op":"close","id":6,"session":"s"}"#,
    ] {
        let reply = c.call(later).expect("mutation answered");
        assert_eq!(without_id(&reply), without_id(&failed), "{later}");
    }
    let pong = c.call(r#"{"op":"ping","id":7}"#).expect("ping");
    assert!(pong.contains("\"pong\":true"), "{pong}");
    let again = c
        .call(r#"{"op":"query","id":3,"session":"s"}"#)
        .expect("verdict");
    assert_eq!(again, verdict);

    // Without the limit, the same journal rebuilds exactly what was
    // acknowledged: the torn record is truncated, nothing follows it.
    let dir = d.sigkill();
    let d2 = Daemon::spawn("efbig-relaunch", &[], true, Some(dir));
    let mut c2 = d2.connect();
    let rebuilt = c2
        .call(r#"{"op":"query","id":3,"session":"s"}"#)
        .expect("verdict after relaunch");
    assert_eq!(rebuilt, verdict, "byte-identical after relaunch");
    let ghost = c2
        .call(r#"{"op":"query","id":8,"session":"t"}"#)
        .expect("query t");
    assert!(ghost.contains("\"error\":\"unknown_session\""), "{ghost}");
    d2.cleanup();
}

#[test]
fn sigkill_mid_stream_loses_no_acknowledged_admit() {
    const CONNECTIONS: usize = 4;
    let d = Daemon::spawn_inner("group-kill", &[]);
    let opened = Arc::new(Barrier::new(CONNECTIONS + 1));
    let streams: Vec<_> = (0..CONNECTIONS)
        .map(|k| {
            let mut c = d.connect();
            let opened = Arc::clone(&opened);
            std::thread::spawn(move || {
                let open = c
                    .call(&format!(
                        r#"{{"op":"open","id":1,"session":"g{k}","util":0.4,"procs":2}}"#
                    ))
                    .expect("open");
                assert!(open.contains("\"ok\":true"), "{open}");
                opened.wait();
                // One admit in flight at a time, until the kill cuts the
                // connection: at most one record is written but not
                // acknowledged.
                let mut acknowledged = 0u64;
                while let Ok(reply) = c.call(&format!(
                    r#"{{"op":"admit","id":2,"session":"g{k}","task":{},"exec_us":1,"window_us":10000000}}"#,
                    100 + acknowledged
                )) {
                    assert!(reply.contains("\"admitted\":true"), "{reply}");
                    acknowledged += 1;
                }
                acknowledged
            })
        })
        .collect();
    opened.wait();
    std::thread::sleep(Duration::from_millis(300));
    let dir = d.sigkill();
    let acknowledged: Vec<u64> = streams
        .into_iter()
        .map(|s| s.join().expect("stream thread"))
        .collect();

    let d2 = Daemon::spawn("group-kill-relaunch", &[], true, Some(dir));
    let mut c2 = d2.connect();
    for (k, acked) in acknowledged.into_iter().enumerate() {
        assert!(
            acked > 0,
            "session g{k} acknowledged no admit before the kill"
        );
        let verdict = c2
            .call(&format!(r#"{{"op":"query","id":3,"session":"g{k}"}}"#))
            .expect("verdict after relaunch");
        let rebuilt = field(&verdict, "admitted");
        assert!(
            rebuilt == acked || rebuilt == acked + 1,
            "session g{k}: {acked} admits acknowledged, {rebuilt} rebuilt: {verdict}"
        );
    }
    d2.cleanup();
}

/// Extracts `"...<name>":<value>` from a flat JSON stats line, tolerating
/// a `serve_` prefix on the counter name.
fn field(stats: &str, name: &str) -> u64 {
    for key in [format!("\"serve_{name}\":"), format!("\"{name}\":")] {
        if let Some(pos) = stats.find(&key) {
            let rest = &stats[pos + key.len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            return rest[..end].parse().unwrap_or_else(|_| panic!("{stats}"));
        }
    }
    panic!("counter {name} not in {stats}");
}

#[test]
fn an_expired_deadline_is_a_typed_timeout() {
    let d = Daemon::spawn_inner("timeout", &["--workers", "1"]);
    let mut c = d.connect();
    // deadline_ms: 0 — expired the moment it is dequeued.
    let reply = c
        .call(r#"{"op":"ping","id":5,"deadline_ms":0}"#)
        .expect("ping");
    assert!(
        reply.contains("\"error\":\"timeout\"") && reply.contains("\"id\":5"),
        "{reply}"
    );
    let stats = c.call(r#"{"op":"stats","id":6}"#).expect("stats");
    assert!(field(&stats, "timeouts") >= 1, "{stats}");
    d.cleanup();
}

#[test]
fn sigterm_through_the_trampoline_drains_and_exits_zero() {
    let d = Daemon::spawn("drain", &[], false, None);
    let mut c = d.connect();
    let open = c
        .call(r#"{"op":"open","id":1,"session":"drain-s","util":0.4,"procs":2}"#)
        .expect("open");
    assert!(open.contains("\"ok\":true"), "{open}");

    // Pipeline a batch, prove the server is reading it, then SIGTERM.
    let n = 5;
    for i in 0..n {
        c.send(&format!(
            r#"{{"op":"query","id":{},"session":"drain-s","deadline_ms":30000}}"#,
            10 + i
        ))
        .expect("send query");
    }
    let first = c.recv().expect("first response before drain");
    assert!(first.contains("\"ok\":true"), "{first}");

    let journal = d.journal();
    let dir = d.dir.clone();
    sigterm(d.child.id());

    // Every remaining in-flight request is still answered.
    for _ in 1..n {
        let reply = c.recv().expect("in-flight request answered during drain");
        assert!(reply.contains("\"ok\":true"), "{reply}");
    }

    let mut child = d.child;
    let t0 = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait") {
            break status;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "daemon did not exit after SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(0), "graceful drain exits 0");

    // The journal survived the drain: a relaunch rebuilds the session.
    assert!(journal_nonempty(&journal));
    let d2 = Daemon::spawn("drain-relaunch", &[], true, Some(dir));
    let mut c2 = d2.connect();
    let verdict = c2
        .call(r#"{"op":"query","id":1,"session":"drain-s"}"#)
        .expect("verdict");
    assert!(verdict.contains("\"ok\":true"), "{verdict}");
    d2.cleanup();
}

fn journal_nonempty(path: &Path) -> bool {
    std::fs::metadata(path)
        .map(|m| m.len() > 0)
        .unwrap_or(false)
}
