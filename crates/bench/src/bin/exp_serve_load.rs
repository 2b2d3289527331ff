//! Load benchmark and chaos harness for the `mpdpd` admission daemon.
//!
//! Run with `cargo run --release -p mpdp-bench --bin exp_serve_load --
//! [--out BENCH_serve.json] [--clients N] [--requests N] [--repeats N]
//! [--quick] [--gate BENCH_serve.json] [--threshold PCT] [--chaos]
//! [--seed N] [--daemon PATH]`.
//!
//! The measurement spawns a fresh daemon per repeat (so journal growth in
//! one repeat cannot slow the next), drives `--clients` concurrent
//! closed-loop clients through a fixed request mix, and reports the
//! **minimum** wall-clock plus latency quantiles into a schema-validated
//! `mpdp-bench-serve/1` report; `--gate` fails (exit 1) on a wall-clock
//! regression beyond `--threshold` percent, exactly like `bench_sweep`.
//!
//! `--chaos` additionally runs the recovery scenario the daemon exists
//! for: SIGKILL mid-load, relaunch on the same journal, assert **zero
//! lost guaranteed sessions** (byte-identical verdicts), then a 10×
//! overload burst asserting no guaranteed request is shed while the
//! best-effort sheds show up in the Prometheus export.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use mpdp_bench::cli::{
    check_known_flags, flag_value, has_flag, parse_flag, runtime_error, usage_error,
    write_json_output,
};
use mpdp_bench::load_baseline_with_schema;
use mpdp_mpdpd::Client;
use mpdp_telemetry::Histogram;

/// Schema marker of the report this binary writes and gates against.
const SERVE_SCHEMA: &str = "mpdp-bench-serve/1";

struct Daemon {
    child: Child,
    socket: PathBuf,
    dir: PathBuf,
}

fn daemon_binary(args: &[String]) -> PathBuf {
    if let Some(path) = flag_value(args, "--daemon") {
        return PathBuf::from(path);
    }
    let me = std::env::current_exe()
        .unwrap_or_else(|e| runtime_error(format_args!("cannot resolve own executable: {e}")));
    let sibling = me.with_file_name("mpdpd");
    if !sibling.exists() {
        runtime_error(format_args!(
            "mpdpd binary not found at {} — build it first (cargo build --release -p mpdp-mpdpd) \
             or pass --daemon PATH",
            sibling.display()
        ));
    }
    sibling
}

fn spawn_daemon(binary: &Path, tag: &str, extra: &[&str]) -> Daemon {
    let dir = std::env::temp_dir().join(format!("mpdp-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    relaunch_daemon(binary, dir, extra)
}

/// Starts (or restarts, preserving the journal) a daemon in `dir`. Inner
/// mode: `Child::kill` is then a genuine SIGKILL of the serving process.
fn relaunch_daemon(binary: &Path, dir: PathBuf, extra: &[&str]) -> Daemon {
    let socket = dir.join("mpdpd.sock");
    let _ = std::fs::remove_file(&socket);
    let child = Command::new(binary)
        .arg("--socket")
        .arg(&socket)
        .arg("--journal")
        .arg(dir.join("sessions.mpdpd"))
        .args(extra)
        .env("MPDPD_INNER", "1")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap_or_else(|e| runtime_error(format_args!("cannot spawn mpdpd: {e}")));
    let daemon = Daemon { child, socket, dir };
    let t0 = Instant::now();
    while Client::connect_unix(&daemon.socket).is_err() {
        if t0.elapsed() > Duration::from_secs(30) {
            runtime_error(format_args!("mpdpd did not start listening"));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    daemon
}

fn stop_daemon(mut daemon: Daemon) {
    let _ = daemon.child.kill();
    let _ = daemon.child.wait();
    let _ = std::fs::remove_dir_all(&daemon.dir);
}

fn connect(daemon: &Daemon) -> Client {
    Client::connect_unix(&daemon.socket)
        .unwrap_or_else(|e| runtime_error(format_args!("connect failed: {e}")))
}

fn call(client: &mut Client, line: &str) -> String {
    client
        .call(line)
        .unwrap_or_else(|e| runtime_error(format_args!("request failed: {e}")))
}

fn expect_ok(reply: &str, context: &str) {
    if !reply.contains("\"ok\":true") {
        runtime_error(format_args!("{context}: daemon refused: {reply}"));
    }
}

/// One closed-loop client: open a session, run the fixed mix, return the
/// per-request latency histogram.
fn drive_client(socket: &Path, index: usize, requests: usize) -> Histogram {
    let mut client = Client::connect_unix(socket)
        .unwrap_or_else(|e| runtime_error(format_args!("client connect failed: {e}")));
    let session = format!("bench-{index}");
    let open = format!(
        "{{\"op\":\"open\",\"session\":\"{session}\",\"util\":0.4,\"procs\":2,\"deadline_ms\":30000}}"
    );
    expect_ok(&call(&mut client, &open), "open");
    let mut latency = Histogram::new();
    for i in 0..requests {
        let line = if i % 10 == 0 {
            format!(
                "{{\"op\":\"admit\",\"session\":\"{session}\",\"task\":{},\
                 \"exec_us\":1000,\"window_us\":10000000,\"deadline_ms\":30000}}",
                100 + i
            )
        } else if i % 3 == 1 {
            format!(
                "{{\"op\":\"query\",\"session\":\"{session}\",\"kind\":\"verdict\",\
                 \"deadline_ms\":30000}}"
            )
        } else {
            "{\"op\":\"ping\",\"deadline_ms\":30000}".to_string()
        };
        let t0 = Instant::now();
        expect_ok(&call(&mut client, &line), "mix request");
        latency.record(t0.elapsed());
    }
    latency
}

struct LoadResult {
    wall_ms: f64,
    latency: Histogram,
}

fn run_load(binary: &Path, clients: usize, requests: usize) -> LoadResult {
    let daemon = spawn_daemon(binary, "load", &["--workers", "2", "--queue-cap", "64"]);
    let socket = daemon.socket.clone();
    let t0 = Instant::now();
    let histograms: Vec<Histogram> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                let socket = socket.clone();
                scope.spawn(move || drive_client(&socket, i, requests))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_ms = t0.elapsed().as_secs_f64() * 1000.0;
    stop_daemon(daemon);
    let mut latency = Histogram::new();
    for h in &histograms {
        latency.merge(h);
    }
    LoadResult { wall_ms, latency }
}

/// The chaos scenario. Panics (via `runtime_error`) on any violated
/// guarantee; returns the number of sessions proven recovered.
fn run_chaos(binary: &Path, seed: u64) -> usize {
    eprintln!("exp_serve_load: chaos: seed {seed}");
    let daemon = spawn_daemon(
        binary,
        "chaos",
        &[
            "--workers",
            "1",
            "--queue-cap",
            "8",
            "--deadline-ms",
            "60000",
        ],
    );

    // Guaranteed sessions with real admission history.
    let n_sessions = 4;
    let mut setup = connect(&daemon);
    let mut verdicts = Vec::new();
    for s in 0..n_sessions {
        let open =
            format!("{{\"op\":\"open\",\"session\":\"chaos-{s}\",\"util\":0.4,\"procs\":2}}");
        expect_ok(&call(&mut setup, &open), "chaos open");
        for t in 0..3 {
            let admit = format!(
                "{{\"op\":\"admit\",\"session\":\"chaos-{s}\",\"task\":{},\
                 \"exec_us\":2000,\"window_us\":10000000}}",
                100 + t
            );
            expect_ok(&call(&mut setup, &admit), "chaos admit");
        }
        verdicts.push(call(
            &mut setup,
            &format!("{{\"op\":\"query\",\"id\":9,\"session\":\"chaos-{s}\"}}"),
        ));
    }

    // Best-effort load in flight while the SIGKILL lands; transport errors
    // here are expected (the daemon dies under them).
    let socket = daemon.socket.clone();
    let load = std::thread::spawn(move || {
        let Ok(mut c) = Client::connect_unix(&socket) else {
            return;
        };
        for _ in 0..100_000 {
            if c.call("{\"op\":\"ping\"}").is_err() {
                return;
            }
        }
    });

    // Seeded mid-load SIGKILL.
    let kill_delay = Duration::from_millis(20 + seed % 100);
    std::thread::sleep(kill_delay);
    let mut child = daemon.child;
    child.kill().expect("SIGKILL mpdpd");
    let _ = child.wait();
    let _ = load.join();
    eprintln!(
        "exp_serve_load: chaos: SIGKILL after {} ms of load; relaunching",
        kill_delay.as_millis()
    );

    // Relaunch on the same journal: every guaranteed session must answer
    // byte-identically to the pre-kill daemon.
    let daemon = relaunch_daemon(
        binary,
        daemon.dir,
        &[
            "--workers",
            "1",
            "--queue-cap",
            "8",
            "--deadline-ms",
            "60000",
        ],
    );
    let mut check = connect(&daemon);
    for (s, before) in verdicts.iter().enumerate() {
        let after = call(
            &mut check,
            &format!("{{\"op\":\"query\",\"id\":9,\"session\":\"chaos-{s}\"}}"),
        );
        if &after != before {
            runtime_error(format_args!(
                "chaos: session chaos-{s} lost or drifted after SIGKILL:\n  before: {before}\n  after:  {after}"
            ));
        }
    }
    eprintln!(
        "exp_serve_load: chaos: all {n_sessions} guaranteed sessions rebuilt byte-identically"
    );

    // Overload burst: occupy the single worker, flood 10x the queue with
    // best-effort pings, then demand guaranteed admissions.
    let mut slow = connect(&daemon);
    slow.send("{\"op\":\"query\",\"id\":1,\"session\":\"chaos-0\",\"kind\":\"simulate\"}")
        .expect("send simulate");
    std::thread::sleep(Duration::from_millis(100));
    let mut burst = connect(&daemon);
    for i in 0..80 {
        burst
            .send(&format!("{{\"op\":\"ping\",\"id\":{}}}", 1000 + i))
            .expect("send ping");
    }
    std::thread::sleep(Duration::from_millis(100));
    let mut guaranteed = connect(&daemon);
    for i in 0..3 {
        let admit = format!(
            "{{\"op\":\"admit\",\"id\":{},\"session\":\"chaos-1\",\"task\":{},\
             \"exec_us\":1000,\"window_us\":10000000}}",
            2000 + i,
            500 + i
        );
        guaranteed.send(&admit).expect("send admit");
    }
    for _ in 0..3 {
        let reply = guaranteed.recv().expect("admit answered");
        if !(reply.contains("\"ok\":true") && reply.contains("\"admitted\":true")) {
            runtime_error(format_args!(
                "chaos: guaranteed admission refused under overload: {reply}"
            ));
        }
    }
    let mut shed = 0;
    for _ in 0..80 {
        if burst
            .recv()
            .expect("ping response")
            .contains("\"overloaded\"")
        {
            shed += 1;
        }
    }
    if shed == 0 {
        runtime_error(format_args!("chaos: overload burst never shed best-effort"));
    }
    let _ = slow.recv();
    let metrics = call(&mut check, "{\"op\":\"metrics\",\"id\":3}");
    if !metrics.contains("mpdp_serve_shed_best_effort_total") {
        runtime_error(format_args!(
            "chaos: sheds missing from Prometheus export: {metrics}"
        ));
    }
    if metrics.contains("mpdp_serve_rejected_guaranteed_total")
        && !metrics.contains("mpdp_serve_rejected_guaranteed_total 0")
    {
        runtime_error(format_args!(
            "chaos: a guaranteed request was rejected under burst: {metrics}"
        ));
    }
    eprintln!("exp_serve_load: chaos: burst shed {shed} best-effort, zero guaranteed lost");
    stop_daemon(daemon);
    n_sessions
}

fn report_json(clients: usize, requests: usize, best: &LoadResult) -> String {
    let answered = best.latency.count();
    let rps = answered as f64 / (best.wall_ms / 1000.0);
    format!(
        "{{\n  \"schema\": \"{SERVE_SCHEMA}\",\n  \"benches\": [\n    \
         {{\"name\": \"serve_load_c{clients}\", \"clients\": {clients}, \"requests\": {}, \
         \"wall_ms\": {:.3}, \"rps\": {:.1}, \"p50_us\": {}, \"p99_us\": {}}}\n  ]\n}}\n",
        clients * requests,
        best.wall_ms,
        rps,
        best.latency.quantile_us(0.50).unwrap_or(0),
        best.latency.quantile_us(0.99).unwrap_or(0),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    check_known_flags(
        &args,
        &[
            "--out",
            "--clients",
            "--requests",
            "--repeats",
            "--quick",
            "--gate",
            "--threshold",
            "--chaos",
            "--seed",
            "--daemon",
        ],
        &[
            "--out",
            "--clients",
            "--requests",
            "--repeats",
            "--gate",
            "--threshold",
            "--seed",
            "--daemon",
        ],
    );
    let out_path = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_serve.json".to_string());
    let quick = has_flag(&args, "--quick");
    let clients: usize = parse_flag(&args, "--clients", "a client count").unwrap_or(4);
    let requests: usize =
        parse_flag(&args, "--requests", "a request count").unwrap_or(if quick { 50 } else { 150 });
    let repeats: usize =
        parse_flag(&args, "--repeats", "a repeat count").unwrap_or(if quick { 1 } else { 3 });
    let threshold: f64 = parse_flag(&args, "--threshold", "a percentage").unwrap_or(40.0);
    let seed: u64 = parse_flag(&args, "--seed", "a seed").unwrap_or(0);
    let gate = flag_value(&args, "--gate");
    if clients == 0 || requests == 0 || repeats == 0 {
        usage_error("--clients, --requests, and --repeats must be positive");
    }
    let binary = daemon_binary(&args);

    // Load the baseline *before* the run writes `--out`: gating against the
    // committed baseline while refreshing it in place must compare against
    // the committed numbers, not the ones this run just wrote.
    let baseline = gate.as_ref().map(|baseline_path| {
        match load_baseline_with_schema(baseline_path, SERVE_SCHEMA) {
            Ok(baseline) => baseline,
            Err(e) => usage_error(e),
        }
    });

    if has_flag(&args, "--chaos") {
        let recovered = run_chaos(&binary, seed);
        eprintln!("exp_serve_load: chaos passed ({recovered} sessions recovered)");
    }

    eprintln!(
        "exp_serve_load: {clients} client(s) x {requests} request(s), {repeats} repeat(s) ..."
    );
    let mut best: Option<LoadResult> = None;
    for _ in 0..repeats {
        let result = run_load(&binary, clients, requests);
        if best.as_ref().is_none_or(|b| result.wall_ms < b.wall_ms) {
            best = Some(result);
        }
    }
    let best = best.expect("at least one repeat");
    let answered = best.latency.count();
    eprintln!(
        "  serve_load_c{clients}: {:.1} ms, {} answered ({:.0} req/s), p50 {} us, p99 {} us",
        best.wall_ms,
        answered,
        answered as f64 / (best.wall_ms / 1000.0),
        best.latency.quantile_us(0.50).unwrap_or(0),
        best.latency.quantile_us(0.99).unwrap_or(0),
    );

    let doc = report_json(clients, requests, &best);
    write_json_output(&out_path, "serve report JSON", &doc);

    if let (Some(baseline_path), Some(baseline)) = (gate, baseline) {
        let name = format!("serve_load_c{clients}");
        let mut failed = false;
        for (base_name, base_ms) in &baseline {
            if base_name != &name {
                eprintln!("gate: `{base_name}` not measured this run (different --clients?)");
                continue;
            }
            let delta_pct = 100.0 * (best.wall_ms / base_ms - 1.0);
            let verdict = if delta_pct > threshold { "FAIL" } else { "ok" };
            eprintln!(
                "gate: {base_name:<16} {base_ms:>9.1} ms -> {:>9.1} ms  ({delta_pct:>+6.1}%)  {verdict}",
                best.wall_ms
            );
            if delta_pct > threshold {
                failed = true;
            }
        }
        if failed {
            runtime_error(format_args!(
                "perf gate: regression beyond {threshold}% against {baseline_path}"
            ));
        }
        eprintln!("perf gate clean (threshold {threshold}%)");
    }
}
