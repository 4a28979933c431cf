//! `perfbench` command line.
//!
//! ```text
//! perfbench --workload fleet_small|landscape_heavy|mixed_tail
//!           [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! ```
//!
//! Prints the host facts, a summary and (traced) the self-time table,
//! then, as the last line, one JSON object
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`. Exits 0 only
//! for a correct run; 1 for a run whose outputs did not match their
//! references; 2 for bad flags or a run that could not measure.

use perfbench::workload::Workload;
use perfbench::{host_facts, metrics_json, result_line, run, write, Options};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::FleetSmall,
        seed: 1,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from("perfbench/out"),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.parse::<Workload>()?),
            "--seed" => {
                opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--out" => opts.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let facts = host_facts(&opts);
    println!("host {facts}");
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for problem in &outcome.problems {
        eprintln!("perfbench: {problem}");
    }
    println!("extra {}", metrics_json(&outcome.extra));
    if let Some(table) = &outcome.table {
        println!("{table}");
    }
    let line = result_line(&outcome);
    let record = facts
        .field("result", line.clone())
        .field("extra", metrics_json(&outcome.extra));
    let trace = if opts.trace { "traced" } else { "untraced" };
    let path = opts.out_dir.join(format!(
        "result_{}_seed{}_{trace}.json",
        opts.workload, opts.seed
    ));
    if let Err(e) = write(&path, &record.to_pretty()) {
        eprintln!("perfbench: {e}");
    }
    println!("{line}");
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
