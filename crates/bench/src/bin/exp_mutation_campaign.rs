//! The scheduler mutation campaign: proves the repo's checking layers
//! actually detect scheduler bugs, and measures *which* layer catches
//! *what*.
//!
//! Every seeded bug in the `mpdp-monitor` mutation catalog is thrown at
//! three independent detection layers:
//!
//! 1. **explorer** — bounded exhaustive enumeration of all arrival /
//!    delivery-delay / tie-order interleavings of a small model
//!    (`mpdp-explore`), with both simulator stacks, the invariant
//!    monitors, and the cross-stack differential oracle checking every
//!    path;
//! 2. **monitor** — the invariant monitors over one fixed sampled run
//!    (what production-style runtime monitoring alone would catch);
//! 3. **suite** — in-process replays of the existing test suite's
//!    assertions (promotion smoke, failover guarantees, degradation
//!    counters, progress-ledger sums, completion counts).
//!
//! The pristine scheduler is first explored exhaustively on every model —
//! any counterexample there is a real scheduler bug and fails the run.
//!
//! Exit status: 0 when the pristine runs are clean and every mutant is
//! killed by at least one layer; 1 otherwise; 2 on bad usage.
//!
//! Run with `cargo run --release -p mpdp-bench --bin exp_mutation_campaign
//! -- [--budget N] [--seed N] [--quick] [--json out.json] [--csv out.csv]`,
//! or replay a printed counterexample with `--replay <model> --arrivals
//! at:task,at:task [--mutant <name>]` (exit 0 if the replayed path is
//! clean, 1 if it still fails).

use std::process::exit;

use mpdp_bench::cli::{
    check_known_flags, flag_value, has_flag, parse_flag, runtime_error, usage_error,
    write_json_output, write_output,
};
use mpdp_core::time::Cycles;
use mpdp_explore::{replay, run_campaign, CampaignOutcome, ExploreConfig, ExploreModel};
use mpdp_monitor::Mutation;

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The kill-rate matrix as a small, schema-tagged, byte-stable JSON
/// document (hand-rolled like every export in this repo).
fn matrix_json(outcome: &CampaignOutcome) -> String {
    let mut out = String::from("{\n  \"schema\": \"mpdp-kill-matrix-v1\",\n  \"models\": [\n");
    for (i, (name, report)) in outcome.pristine.iter().enumerate() {
        let comma = if i + 1 < outcome.pristine.len() {
            ","
        } else {
            ""
        };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"paths_run\": {}, \"paths_deduped\": {}, \
             \"budget_exhausted\": {}, \"clean\": {}}}{comma}\n",
            report.paths_run,
            report.paths_deduped,
            report.budget_exhausted,
            report.is_clean()
        ));
    }
    out.push_str("  ],\n  \"mutants\": [\n");
    for (i, r) in outcome.records.iter().enumerate() {
        let comma = if i + 1 < outcome.records.len() {
            ","
        } else {
            ""
        };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"site\": \"{}\", \"explorer\": {}, \"monitor\": {}, \
             \"suite\": {}, \"killed\": {}, \"detail\": \"{}\"}}{comma}\n",
            r.mutation.name(),
            r.mutation.site().name(),
            r.explorer,
            r.monitor,
            r.suite,
            r.killed(),
            esc(&r.detail)
        ));
    }
    let killed = outcome.records.iter().filter(|r| r.killed()).count();
    out.push_str(&format!(
        "  ],\n  \"killed\": {killed},\n  \"total\": {},\n  \"passed\": {}\n}}\n",
        outcome.records.len(),
        outcome.passed()
    ));
    out
}

fn matrix_csv(outcome: &CampaignOutcome) -> String {
    let mut out = String::from("mutant,site,explorer,monitor,suite,killed\n");
    for r in &outcome.records {
        out.push_str(&format!(
            "{},{},{},{},{},{}\n",
            r.mutation.name(),
            r.mutation.site().name(),
            r.explorer,
            r.monitor,
            r.suite,
            r.killed()
        ));
    }
    out
}

fn parse_arrivals(raw: &str) -> Vec<(Cycles, usize)> {
    if raw == "none" {
        return Vec::new();
    }
    raw.split(',')
        .filter(|s| !s.is_empty())
        .map(|pair| {
            let Some((at, task)) = pair.split_once(':') else {
                usage_error(format_args!("--arrivals entries are at:task, got `{pair}`"));
            };
            match (at.parse::<u64>(), task.parse::<usize>()) {
                (Ok(at), Ok(task)) => (Cycles::new(at), task),
                _ => usage_error(format_args!("--arrivals entries are at:task, got `{pair}`")),
            }
        })
        .collect()
}

fn replay_mode(args: &[String], model_name: &str) {
    let model = match model_name {
        "two-proc" => ExploreModel::two_proc(),
        "contended" => ExploreModel::contended(),
        other => usage_error(format_args!(
            "unknown model `{other}` (known: two-proc, contended)"
        )),
    };
    let arrivals = parse_arrivals(
        &flag_value(args, "--arrivals")
            .unwrap_or_else(|| usage_error("--replay requires --arrivals")),
    );
    let mutation = flag_value(args, "--mutant").map(|name| {
        Mutation::from_name(&name).unwrap_or_else(|| {
            usage_error(format_args!("unknown mutant `{name}`"));
        })
    });
    match replay(&model, mutation, &arrivals) {
        Ok(outcome) => match outcome.reason() {
            None => {
                println!(
                    "replay on `{}` ({}): clean",
                    model.name,
                    mutation.map(|m| m.name()).unwrap_or("pristine")
                );
            }
            Some(reason) => {
                println!(
                    "replay on `{}` ({}): FAILS\n  {reason}",
                    model.name,
                    mutation.map(|m| m.name()).unwrap_or("pristine")
                );
                exit(1);
            }
        },
        Err(e) => runtime_error(format_args!("replay failed to run: {e}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    check_known_flags(
        &args,
        &[
            "--budget",
            "--seed",
            "--quick",
            "--json",
            "--csv",
            "--replay",
            "--arrivals",
            "--mutant",
        ],
        &[
            "--budget",
            "--seed",
            "--json",
            "--csv",
            "--replay",
            "--arrivals",
            "--mutant",
        ],
    );

    if let Some(model) = flag_value(&args, "--replay") {
        replay_mode(&args, &model);
        return;
    }

    let config = ExploreConfig {
        path_budget: parse_flag(&args, "--budget", "a path count").unwrap_or(
            if has_flag(&args, "--quick") {
                512
            } else {
                4096
            },
        ),
        visit_seed: parse_flag(&args, "--seed", "a seed").unwrap_or(0),
    };

    let outcome = match run_campaign(&config) {
        Ok(o) => o,
        Err(e) => runtime_error(format_args!("campaign failed to run: {e}")),
    };

    println!("== pristine exhaustive exploration ==");
    for (name, report) in &outcome.pristine {
        println!(
            "  {name}: {} distinct paths ({} deduped){}{}",
            report.paths_run,
            report.paths_deduped,
            if report.budget_exhausted {
                " [BUDGET EXHAUSTED]"
            } else {
                ""
            },
            if report.is_clean() { ", clean" } else { "" }
        );
        if let Some(cex) = &report.counterexample {
            println!("  PRISTINE SCHEDULER BUG:\n{cex}");
        }
    }

    println!("\n== mutation kill matrix ==");
    println!(
        "  {:<28} {:>8} {:>8} {:>6}  verdict",
        "mutant", "explorer", "monitor", "suite"
    );
    for r in &outcome.records {
        println!(
            "  {:<28} {:>8} {:>8} {:>6}  {}",
            r.mutation.name(),
            r.explorer,
            r.monitor,
            r.suite,
            if r.killed() { "killed" } else { "SURVIVED" }
        );
    }
    for r in &outcome.records {
        println!("    {}: {}", r.mutation.name(), r.detail);
        if let Some(cex) = &r.counterexample {
            for line in cex.to_string().lines() {
                println!("      {line}");
            }
        }
    }

    if let Some(path) = flag_value(&args, "--json") {
        write_json_output(&path, "kill-matrix JSON", &matrix_json(&outcome));
    }
    if let Some(path) = flag_value(&args, "--csv") {
        write_output(&path, &matrix_csv(&outcome));
    }

    let survivors = outcome.survivors();
    if !survivors.is_empty() {
        eprintln!(
            "error: {} mutant(s) survived every layer: {}",
            survivors.len(),
            survivors
                .iter()
                .map(|m| m.name())
                .collect::<Vec<_>>()
                .join(", ")
        );
        exit(1);
    }
    if !outcome.passed() {
        eprintln!("error: pristine exploration was not clean and closed");
        exit(1);
    }
    println!(
        "\nall {} mutants killed; pristine models clean",
        outcome.records.len()
    );
}
