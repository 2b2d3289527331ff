//! The `mpdpd` daemon binary.
//!
//! ```text
//! mpdpd --socket /run/mpdpd.sock --journal /var/lib/mpdpd/sessions.mpdpd
//! mpdpd --tcp 127.0.0.1:7071 --journal sessions.mpdpd --workers 4
//! ```
//!
//! ## Signal handling without libc
//!
//! The workspace is std-only, and std cannot install a SIGTERM handler. So
//! the binary launches as a *trampoline*: the outer process `exec`s
//! `/bin/sh` with a tiny script that starts the real server (inner mode,
//! `MPDPD_INNER=1`) in the background, traps `TERM`/`INT` by touching the
//! server's drain file, and re-waits until the server exits, forwarding
//! its exit code. The inner server polls for the drain file (the same
//! mechanism tests and operators can use directly: `touch <journal>.drain`)
//! and performs the graceful drain — stop accepting, answer everything in
//! flight, flush (already-fsynced) journal, exit 0.
//!
//! An inner-mode server lives only as long as the process that started it:
//! once that parent is gone (the trampoline was SIGKILLed, or a harness
//! that started the server in inner mode exited or died), the server
//! notices it was reparented and exits with code 137, which is exactly the
//! crash the journal recovery path is built for. No orphan keeps polling
//! its socket.

use std::os::unix::process::CommandExt;
use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

use mpdp_mpdpd::server::{run, Bind, ServerConfig};

const USAGE: &str = "usage: mpdpd (--socket PATH | --tcp ADDR) --journal PATH \
 [--queue-cap N] [--workers N] [--deadline-ms N] [--pid-file PATH] [--prom-file PATH]";

fn usage_error(msg: &str) -> ! {
    eprintln!("mpdpd: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

struct Args {
    cfg: ServerConfig,
    pid_file: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Args {
    let mut socket = None;
    let mut tcp = None;
    let mut journal = None;
    let mut queue_cap = 64usize;
    let mut workers = 2usize;
    let mut deadline_ms = 1000u64;
    let mut pid_file = None;
    let mut prom_file = None;

    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| usage_error(&format!("{name} needs a value")))
                .clone()
        };
        match flag.as_str() {
            "--socket" => socket = Some(PathBuf::from(value("--socket"))),
            "--tcp" => tcp = Some(value("--tcp")),
            "--journal" => journal = Some(PathBuf::from(value("--journal"))),
            "--queue-cap" => {
                queue_cap = value("--queue-cap")
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage_error("--queue-cap must be a positive integer"))
            }
            "--workers" => {
                workers = value("--workers")
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage_error("--workers must be a positive integer"))
            }
            "--deadline-ms" => {
                deadline_ms = value("--deadline-ms")
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage_error("--deadline-ms must be a positive integer"))
            }
            "--pid-file" => pid_file = Some(PathBuf::from(value("--pid-file"))),
            "--prom-file" => prom_file = Some(PathBuf::from(value("--prom-file"))),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown flag {other}")),
        }
    }

    let bind = match (socket, tcp) {
        (Some(path), None) => Bind::Unix(path),
        (None, Some(addr)) => Bind::Tcp(addr),
        (Some(_), Some(_)) => usage_error("--socket and --tcp are mutually exclusive"),
        (None, None) => usage_error("one of --socket or --tcp is required"),
    };
    let journal = journal.unwrap_or_else(|| usage_error("--journal is required"));
    let mut cfg = ServerConfig::new(bind, journal);
    cfg.queue_cap = queue_cap;
    cfg.workers = workers;
    cfg.default_deadline = Duration::from_millis(deadline_ms);
    cfg.prom_file = prom_file;
    Args { cfg, pid_file }
}

/// Replaces this process with the sh trampoline that owns signal handling.
fn exec_trampoline(argv: &[String], drain_file: &std::path::Path) -> ! {
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("mpdpd: cannot resolve own executable: {e}");
        std::process::exit(1);
    });
    // TERM/INT only touch the drain file; the server notices within one
    // poll interval and drains. `wait` returns >128 when a trap fires, so
    // re-wait until the server has really exited, then forward its code.
    let script = r#"
code=0
trap 'touch "$MPDPD_DRAIN_FILE" 2>/dev/null' TERM INT
"$MPDPD_EXE" "$@" &
srv=$!
while kill -0 "$srv" 2>/dev/null; do
  wait "$srv"
  code=$?
done
exit "$code"
"#;
    let err = Command::new("/bin/sh")
        .arg("-c")
        .arg(script)
        .arg("mpdpd-trampoline")
        .args(argv)
        .env("MPDPD_INNER", "1")
        .env("MPDPD_EXE", exe)
        .env("MPDPD_DRAIN_FILE", drain_file)
        .exec();
    eprintln!("mpdpd: cannot exec /bin/sh trampoline: {err}");
    std::process::exit(1);
}

/// Exits 137 once the process that started this server is gone (the
/// trampoline, or whatever started the server in inner mode): an orphaned
/// server would otherwise outlive its signal handling and poll its socket
/// until someone kills it.
fn watch_parent() {
    let parent = std::os::unix::process::parent_id();
    std::thread::spawn(move || loop {
        if std::os::unix::process::parent_id() != parent {
            std::process::exit(137);
        }
        std::thread::sleep(Duration::from_millis(100));
    });
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv);

    if std::env::var("MPDPD_INNER").ok().as_deref() != Some("1") {
        exec_trampoline(&argv, &args.cfg.drain_file);
    }
    watch_parent();

    // A stale drain file from a previous run must not drain us at birth.
    let _ = std::fs::remove_file(&args.cfg.drain_file);

    // The pid written is the inner server's — the process to SIGKILL in
    // chaos tests. Readiness is the socket accepting connections.
    if let Some(pid_file) = &args.pid_file {
        if let Err(e) = std::fs::write(pid_file, format!("{}\n", std::process::id())) {
            eprintln!("mpdpd: cannot write pid file: {e}");
            std::process::exit(1);
        }
    }

    match run(args.cfg) {
        Ok(summary) => {
            eprintln!(
                "mpdpd: drained: answered {} in-flight, {} sessions journaled, {} rebuilt at start",
                summary.answered, summary.sessions, summary.rebuilt
            );
            if let Some(pid_file) = &args.pid_file {
                let _ = std::fs::remove_file(pid_file);
            }
        }
        Err(e) => {
            eprintln!("mpdpd: {e}");
            std::process::exit(1);
        }
    }
}
