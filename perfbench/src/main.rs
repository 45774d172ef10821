//! The benchmark's command line.
//!
//! ```text
//! perfbench --workload <town-wire|continent-alt|hotspot-churn|all> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one line per metric (name, value, unit, sample count), then, as
//! the last line, a JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics untraced, the per-layer metrics
//! traced. A failed correctness gate prints no numbers and exits 1.

use perfbench::report::{END_TO_END, Kind, Outcome, PER_LAYER, parse_result, result_line};
use perfbench::{RunArgs, continent, hotspot, town};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: perfbench --workload <town-wire|continent-alt|hotspot-churn|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// A workload's entry point.
type Drive = fn(&RunArgs) -> Outcome;

const WORKLOADS: [(&str, Drive); 3] =
    [("town-wire", town::run), ("continent-alt", continent::run), ("hotspot-churn", hotspot::run)];

fn parse(args: &[String]) -> Result<(String, RunArgs), String> {
    let mut workload = None;
    let mut run = RunArgs { seed: 0, seconds: 10.0, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(run.seconds > 0.0 && run.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, run))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, run) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (kind, expected) =
        if run.trace { (Kind::Layer, &PER_LAYER[..]) } else { (Kind::EndToEnd, &END_TO_END[..]) };
    if workload == "all" {
        return run_all(&args, expected);
    }
    let Some((name, drive)) = WORKLOADS.iter().find(|(name, _)| *name == workload) else {
        eprintln!("unknown workload {workload}\n{USAGE}");
        return ExitCode::from(2);
    };
    let mut outcome = drive(&run);
    outcome.check_metric_set(kind, expected);
    if outcome.correct() {
        print!("{}", outcome.lines(name));
    } else {
        for v in &outcome.violations {
            eprintln!("{name}: correctness gate failed: {v}");
        }
        eprintln!("{name}: {} of {} requests failed", outcome.failed, outcome.attempted);
    }
    println!(
        "{}",
        result_line(outcome.correct(), outcome.attempted, outcome.failed, &outcome.entries(kind))
    );
    if outcome.correct() { ExitCode::SUCCESS } else { ExitCode::FAILURE }
}

/// `--workload all`: every workload in a child process of this binary
/// (so each one's peak memory is its own), one after another. Their metric
/// lines pass through; their results merge into one, every metric named
/// `<workload>/<metric>`.
fn run_all(args: &[String], expected: &[&str]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this program to run the workloads: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut entries = Vec::new();
    for (name, _) in WORKLOADS {
        let mut child_args = args.to_vec();
        if let Some(i) = child_args.iter().position(|a| a == "--workload") {
            child_args[i + 1] = name.to_string();
        }
        let output =
            Command::new(&exe).args(&child_args).stderr(Stdio::inherit()).output().map_err(|e| {
                eprintln!("{name}: could not run: {e}");
            });
        let Ok(output) = output else {
            correct = false;
            continue;
        };
        let text = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        match parse_result(last) {
            Some(result) => {
                correct &= result.correct && output.status.success();
                attempted += result.attempted;
                failed += result.failed;
                let mut body = result.metrics.to_string();
                for metric in expected {
                    body = body.replacen(
                        &format!("\"{metric}\": "),
                        &format!("\"{name}/{metric}\": "),
                        1,
                    );
                }
                if !body.is_empty() {
                    entries.push(body);
                }
            }
            None => {
                eprintln!("{name}: no result line ({})", output.status);
                correct = false;
            }
        }
    }
    println!("{}", result_line(correct, attempted, failed, &entries));
    if correct { ExitCode::SUCCESS } else { ExitCode::FAILURE }
}
