//! The in-process half of the benchmark (`run.py` drives it):
//!
//! ```text
//! perfbench contention-matrix|serve-mixed|figures-replay
//!           --seed N --seconds S --trace 0|1 [--trace-out PATH]
//! ```
//!
//! Prints one JSON line: attempted and failed operations, the output
//! digest, notes, and the metrics with their units. `figures-replay` is the
//! traced `figures` run's in-process half and is always traced. With
//! `--trace 1 --trace-out PATH` the recorded spans are written to `PATH`.

use std::process::ExitCode;

use perfbench::{figplan, matrix, serve, Config};

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench contention-matrix|serve-mixed|figures-replay \
         --seed N --seconds S --trace 0|1 [--trace-out PATH]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(workload) = args.first() else { return usage() };
    let mut cfg = Config { seed: 0, seconds: 0.0, short: false };
    let mut trace = false;
    let mut trace_out = None;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { return usage() };
        let ok = match flag.as_str() {
            "--seed" => value.parse().map(|v| cfg.seed = v).is_ok(),
            "--seconds" => value.parse().map(|v| cfg.seconds = v).is_ok(),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    trace = value == "1";
                    true
                }
                _ => false,
            },
            "--trace-out" => {
                trace_out = Some(value.clone());
                true
            }
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    let outcome = match (workload.as_str(), trace) {
        ("contention-matrix", false) => matrix::run(&cfg),
        ("contention-matrix", true) => matrix::run_traced(&cfg),
        ("serve-mixed", false) => serve::run(&cfg),
        ("serve-mixed", true) => serve::run_traced(&cfg),
        ("figures-replay", _) => figplan::run_traced(&cfg, figplan::SCALE),
        _ => return usage(),
    };
    if let Some(path) = trace_out {
        if let Err(e) = std::fs::write(&path, outcome.trace.to_json()) {
            eprintln!("perfbench: writing {path} failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
