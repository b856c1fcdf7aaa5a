//! Table I: benchmark information — source, input, 1-core Swarm run time,
//! 1-core Swarm vs tuned serial, number of task functions, hint patterns.
//!
//! The "vs serial" column compares the 1-core Swarm run time against an
//! idealized serial execution (the same committed work without any
//! task-management or speculation overhead), which is how our substrate can
//! approximate the paper's tuned-serial comparison.

use crate::{HarnessArgs, RunRequest};
use spatial_hints::Scheduler;
use swarm_apps::AppSpec;

/// Run the `table1` command with the argument slice that follows the
/// subcommand name (`swarm table1 <args...>`).
pub fn run(args: &[String]) -> i32 {
    let args = match HarnessArgs::parse_args(args) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let requests: Vec<RunRequest> = args
        .apps
        .iter()
        .map(|&bench| args.request(AppSpec::coarse(bench), Scheduler::Random, 1))
        .collect();
    let all_stats = args.pool().try_run_matrix(&requests);

    println!("Table I: benchmark information (scale: {:?}, seed: {:#x})", args.scale, args.seed);
    println!(
        "{:<8} {:<20} {:<22} {:>14} {:>12} {:>6}  hint pattern",
        "bench", "source", "paper input", "1c run (cyc)", "vs serial", "#fns"
    );
    for (&bench, result) in args.apps.iter().zip(&all_stats) {
        let num_fns = AppSpec::coarse(bench).build(args.scale, args.seed).num_task_fns();
        let (runtime, vs_serial) = match result {
            Ok(stats) => {
                // Idealized serial time: the committed work minus queueing
                // overheads is what a tuned serial implementation would
                // execute.
                let serial_estimate = stats.breakdown.committed.max(1);
                let vs_serial = serial_estimate as f64 / stats.runtime_cycles.max(1) as f64;
                (
                    format!("{:>14}", stats.runtime_cycles),
                    format!("{:>11.0}%", (vs_serial - 1.0) * 100.0),
                )
            }
            Err(_) => (format!("{:>14}", "n/a"), format!("{:>12}", "n/a")),
        };
        println!(
            "{:<8} {:<20} {:<22} {runtime} {vs_serial} {:>6}  {}",
            bench.name(),
            bench.source(),
            bench.paper_input(),
            num_fns,
            bench.hint_pattern()
        );
    }

    super::report_failures(all_stats.iter().filter_map(|r| r.as_ref().err()))
}
