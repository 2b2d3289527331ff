//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 [--mpdpd PATH]`
//!
//! Runs one workload and prints its metrics, one per line with unit,
//! median and spread, then as the last line one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! Exits 1 when an output check fails and 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::bench::{self, Config, Outcome, END_TO_END, PER_LAYER, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload (sweep_mc|serve_mixed) \
 --seed N --seconds S --trace 0|1 [--mpdpd PATH]";

fn parse_args(argv: &[String]) -> Result<Config, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut mpdpd) =
        (None, None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value) => workload = Some(value.to_string()),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|_| "--seed takes an unsigned integer")?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0 && *s <= 120.0)
                        .ok_or("--seconds takes a number in (0, 120]")?,
                )
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--mpdpd" => mpdpd = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    let seed: u64 = seed.ok_or("--seed is required")?;
    let trace = trace.unwrap_or(false);
    let root = PathBuf::from(".bench_run");
    Ok(Config {
        work: root.join(format!("{workload}-{}", std::process::id())),
        spans: root.join(format!("spans-{workload}-seed{seed}.csv")),
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        mpdpd,
    })
}

fn json_line(correct: bool, outcome: &Outcome, declared: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = declared
        .iter()
        .map(|(name, unit)| {
            let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.tally.attempted.max(1),
        outcome.tally.failed,
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&argv) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} available_parallelism={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    if let Err(e) = std::fs::create_dir_all(&cfg.work) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.work.display());
        return ExitCode::from(1);
    }
    let result = bench::run(&cfg);
    let _ = std::fs::remove_dir_all(&cfg.work);
    let declared: &[(&str, &str)] = if cfg.trace { PER_LAYER } else { &END_TO_END };
    match result {
        Ok(outcome) => {
            if cfg.trace {
                println!("per-layer metrics:");
                for (name, unit) in declared {
                    let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
                    println!("  {name:<30} {unit:<8} {value}");
                }
            }
            println!("{}", json_line(true, &outcome, declared));
            ExitCode::SUCCESS
        }
        Err(e) => {
            println!("check failed: {e}");
            println!("{}", json_line(false, &Outcome::default(), declared));
            ExitCode::from(1)
        }
    }
}
