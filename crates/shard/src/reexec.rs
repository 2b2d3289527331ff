//! Self re-execution: how a user-facing binary becomes its own worker
//! fleet without serializing the spec.
//!
//! A `SweepSpec` is not serializable (knobs carry fault plans and
//! policies), but it does not need to be: every worker can rebuild the
//! spec from the same CLI flags the user typed, because the spec is a
//! pure function of those flags. A supervising binary therefore
//! relaunches **itself** (`current_exe()`) with its original flags plus a
//! hidden flag block naming the shard range and journal path. The child
//! sees [`parse_worker_invocation`] return `Some`, switches into worker
//! mode, runs its range, and exits — it never prints the user-facing
//! report.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use mpdp_sweep::ShardPlan;

/// The hidden flag that switches a binary into shard-worker mode.
pub const WORKER_FLAG: &str = "--shard-worker";

/// A parsed hidden worker-mode flag block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerInvocation {
    /// First cell index (inclusive).
    pub start: usize,
    /// One past the last cell index (exclusive).
    pub end: usize,
    /// Shard journal path.
    pub journal: PathBuf,
    /// Worker-pool threads inside the worker process.
    pub threads: usize,
    /// Post-cell throttle (chaos testing only).
    pub throttle: Duration,
}

fn value_after<'a>(args: &'a [String], flag: &str) -> Result<&'a str, String> {
    match args.iter().position(|a| a == flag) {
        Some(i) => args
            .get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} requires a value")),
        None => Err(format!("worker mode requires {flag}")),
    }
}

/// Detects the hidden worker-mode flags in `args` (the full argv). Returns
/// `None` when the process was not launched as a worker, `Some(Err(_))`
/// when the flag block is malformed (a supervisor bug — workers are only
/// ever launched by [`self_launcher`]).
pub fn parse_worker_invocation(args: &[String]) -> Option<Result<WorkerInvocation, String>> {
    let at = args.iter().position(|a| a == WORKER_FLAG)?;
    Some(parse_block(args, at))
}

fn parse_block(args: &[String], at: usize) -> Result<WorkerInvocation, String> {
    let range = args
        .get(at + 1)
        .ok_or_else(|| format!("{WORKER_FLAG} requires a START..END range"))?;
    let (start, end) = range
        .split_once("..")
        .ok_or_else(|| format!("malformed shard range `{range}` (expected START..END)"))?;
    let start: usize = start
        .parse()
        .map_err(|_| format!("malformed shard range `{range}`"))?;
    let end: usize = end
        .parse()
        .map_err(|_| format!("malformed shard range `{range}`"))?;
    let journal = PathBuf::from(value_after(args, "--shard-journal")?);
    let threads = match args.iter().position(|a| a == "--shard-threads") {
        Some(_) => value_after(args, "--shard-threads")?
            .parse()
            .map_err(|_| "malformed --shard-threads".to_string())?,
        None => 1,
    };
    let throttle = match args.iter().position(|a| a == "--shard-throttle-ms") {
        Some(_) => Duration::from_millis(
            value_after(args, "--shard-throttle-ms")?
                .parse()
                .map_err(|_| "malformed --shard-throttle-ms".to_string())?,
        ),
        None => Duration::ZERO,
    };
    Ok(WorkerInvocation {
        start,
        end,
        journal,
        threads,
        throttle,
    })
}

/// Builds a launcher (the closure [`supervise`](crate::supervise) calls)
/// that re-executes the current binary with `passthrough` (the flags the
/// worker needs to rebuild the spec) plus the hidden worker block.
/// Worker stdout/stderr are discarded: a worker's output is its journal,
/// and letting it print would corrupt the supervisor's own report bytes.
///
/// # Errors
///
/// Fails only when the current executable path cannot be resolved.
pub fn self_launcher(
    passthrough: Vec<String>,
    threads: usize,
    throttle: Duration,
) -> io::Result<impl FnMut(&ShardPlan, u32, &Path) -> io::Result<Child>> {
    let exe = std::env::current_exe()?;
    Ok(move |plan: &ShardPlan, _attempt: u32, journal: &Path| {
        let mut cmd = Command::new(&exe);
        cmd.args(&passthrough)
            .arg(WORKER_FLAG)
            .arg(format!("{}..{}", plan.start, plan.end))
            .arg("--shard-journal")
            .arg(journal)
            .arg("--shard-threads")
            .arg(threads.to_string())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if !throttle.is_zero() {
            cmd.arg("--shard-throttle-ms")
                .arg(throttle.as_millis().to_string());
        }
        cmd.spawn()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn non_worker_argv_is_ignored() {
        assert!(parse_worker_invocation(&argv(&["bin", "--shards", "4"])).is_none());
    }

    #[test]
    fn worker_block_round_trips() {
        let args = argv(&[
            "bin",
            "--procs",
            "2-4",
            WORKER_FLAG,
            "3..9",
            "--shard-journal",
            "/tmp/j",
            "--shard-threads",
            "2",
            "--shard-throttle-ms",
            "15",
        ]);
        let inv = parse_worker_invocation(&args)
            .expect("worker mode detected")
            .expect("block parses");
        assert_eq!(
            inv,
            WorkerInvocation {
                start: 3,
                end: 9,
                journal: PathBuf::from("/tmp/j"),
                threads: 2,
                throttle: Duration::from_millis(15),
            }
        );
    }

    #[test]
    fn malformed_blocks_are_typed_errors_not_panics() {
        for bad in [
            vec!["bin", WORKER_FLAG],
            vec!["bin", WORKER_FLAG, "3-9"],
            vec!["bin", WORKER_FLAG, "a..b"],
            vec!["bin", WORKER_FLAG, "3..9"],
            vec!["bin", WORKER_FLAG, "3..9", "--shard-journal"],
            vec![
                "bin",
                WORKER_FLAG,
                "3..9",
                "--shard-journal",
                "/tmp/j",
                "--shard-threads",
                "x",
            ],
        ] {
            let args = argv(&bad);
            assert!(
                parse_worker_invocation(&args)
                    .expect("worker flag present")
                    .is_err(),
                "{bad:?} must be rejected"
            );
        }
    }
}
