//! Shared command-line handling for the experiment binaries.
//!
//! Every binary parses its flags through these helpers so that invalid
//! arguments and unwritable output paths fail the same way everywhere:
//! a **one-line diagnostic on stderr** and a **non-zero exit** (2 for
//! usage errors, 1 for runtime failures) — never a panic with a backtrace,
//! which buries the actual problem and reports success-shaped exit codes
//! to shell pipelines on some platforms.

use std::fmt::Display;
use std::path::PathBuf;
use std::process::exit;
use std::str::FromStr;

use mpdp_shard::{parse_worker_invocation, run_worker, WorkerConfig};
use mpdp_sweep::SweepSpec;
use mpdp_telemetry::{metrics_json, validate_metrics_json, FleetSnapshot};

/// Exit code for invalid command-line usage.
pub const USAGE_ERROR: i32 = 2;
/// Exit code for runtime failures (unwritable outputs, failed sweeps).
pub const RUNTIME_ERROR: i32 = 1;

/// Prints a one-line diagnostic and exits with `USAGE_ERROR`.
pub fn usage_error(message: impl Display) -> ! {
    eprintln!("error: {message}");
    exit(USAGE_ERROR);
}

/// Prints a one-line diagnostic and exits with `RUNTIME_ERROR`.
pub fn runtime_error(message: impl Display) -> ! {
    eprintln!("error: {message}");
    exit(RUNTIME_ERROR);
}

/// The raw value following `flag`, if present. A flag at the end of the
/// argument list with no value is a usage error.
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    match args.get(i + 1) {
        Some(v) => Some(v.clone()),
        None => usage_error(format_args!("{flag} requires a value")),
    }
}

/// Whether the bare `flag` is present.
pub fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Parses the value of `flag` as a `T`, exiting with a one-line usage
/// diagnostic when the value does not parse. `what` names the expected
/// shape (e.g. `"a worker count"`).
pub fn parse_flag<T: FromStr>(args: &[String], flag: &str, what: &str) -> Option<T> {
    let raw = flag_value(args, flag)?;
    match raw.parse() {
        Ok(v) => Some(v),
        Err(_) => usage_error(format_args!("{flag} takes {what}, got `{raw}`")),
    }
}

/// Rejects unknown `--flags`, catching typos like `--worker` before hours
/// of sweeping begin. `known` lists every flag the binary accepts; flag
/// values (the token after a value-taking flag) are skipped.
pub fn check_known_flags(args: &[String], known: &[&str], value_flags: &[&str]) {
    let mut i = 1; // skip argv[0]
    while i < args.len() {
        let arg = &args[i];
        if arg.starts_with("--") {
            if !known.contains(&arg.as_str()) {
                if known.is_empty() {
                    usage_error(format_args!(
                        "unknown flag `{arg}` (this binary takes no flags)"
                    ));
                }
                usage_error(format_args!(
                    "unknown flag `{arg}` (known: {})",
                    known.join(", ")
                ));
            }
            if value_flags.contains(&arg.as_str()) {
                i += 1; // skip the value token
            }
        } else {
            usage_error(format_args!("unexpected argument `{arg}`"));
        }
        i += 1;
    }
}

/// The worker count: `--workers N`, defaulting to available parallelism.
pub fn workers_flag(args: &[String]) -> usize {
    parse_flag(args, "--workers", "a thread count")
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Writes `contents` to `path`, exiting with a one-line diagnostic when
/// the path is unwritable, and confirms on stderr.
pub fn write_output(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        runtime_error(format_args!("cannot write {path}: {e}"));
    }
    eprintln!("wrote {path}");
}

/// [`write_output`] for a JSON document this binary rendered (`what`
/// names it): a document that does not parse is a runtime error, never
/// written.
pub fn write_json_output(path: &str, what: &str, doc: &str) {
    if let Err(e) = mpdp_obs::parse_json(doc) {
        runtime_error(format_args!("{what} failed self-validation: {e}"));
    }
    write_output(path, doc);
}

/// Writes the `mpdp-fleet-metrics/1` JSON of `snapshot` to `path`; a
/// document that fails schema validation is a runtime error, never
/// written.
pub fn write_metrics_json(path: &str, snapshot: &FleetSnapshot) {
    let json = metrics_json(snapshot);
    if let Err(e) = validate_metrics_json(&json) {
        runtime_error(format_args!("telemetry JSON failed validation: {e}"));
    }
    write_output(path, &json);
}

/// Hidden shard-worker mode, for a binary a supervisor re-executed with
/// the worker flag block in `args` (see `mpdp_shard::reexec`): runs the
/// assigned range of `spec` — which the binary rebuilt from the same
/// flags the supervisor saw — with the `--cache-dir` in `args`, if any,
/// and exits 0. A malformed or missing flag block is a usage error; a
/// failed shard is a runtime error the supervisor retries.
pub fn shard_worker(args: &[String], spec: &SweepSpec) -> ! {
    let invocation = match parse_worker_invocation(args) {
        Some(Ok(invocation)) => invocation,
        Some(Err(e)) => usage_error(e),
        None => usage_error("worker mode is launched by a supervisor, not by hand"),
    };
    let cfg = WorkerConfig {
        threads: invocation.threads,
        throttle: invocation.throttle,
        cache_dir: flag_value(args, "--cache-dir").map(PathBuf::from),
    };
    match run_worker(
        spec,
        invocation.start..invocation.end,
        &invocation.journal,
        &cfg,
    ) {
        Ok(_) => exit(0),
        Err(e) => runtime_error(format_args!("shard worker failed: {e}")),
    }
}
