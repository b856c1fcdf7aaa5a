//! Section VI-A ablation: committed-cycles vs idle-task-count as the load
//! balancer's signal, on the four load-imbalanced benchmarks. The paper
//! finds the idle-count variant performs significantly worse because
//! balancing queued tasks does not balance useful work.

use crate::{HarnessArgs, RunRequest};
use spatial_hints::Scheduler;
use swarm_apps::{AppSpec, BenchmarkId};

const SIGNALS: [Scheduler; 3] = [Scheduler::Hints, Scheduler::LbHints, Scheduler::IdleLb];

/// Run the `ablation_lb` command with the argument slice that follows the
/// subcommand name (`swarm ablation_lb <args...>`).
pub fn run(args: &[String]) -> i32 {
    let args = match HarnessArgs::parse_args(args) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let args = &args;
    let cores = args.max_cores();
    let benches: Vec<BenchmarkId> =
        [BenchmarkId::Des, BenchmarkId::Nocsim, BenchmarkId::Silo, BenchmarkId::Kmeans]
            .into_iter()
            .filter(|b| args.apps.contains(b))
            .collect();

    let requests: Vec<RunRequest> = benches
        .iter()
        .flat_map(|&bench| {
            SIGNALS
                .iter()
                .map(move |&scheduler| args.request(AppSpec::coarse(bench), scheduler, cores))
        })
        .collect();
    let all_stats = args.pool().try_run_matrix(&requests);

    println!("Section VI-A ablation at {cores} cores: load-balancer signal comparison");
    println!(
        "{:<8}{:>12}{:>12}{:>12}{:>16}{:>16}",
        "app", "Hints", "LBHints", "IdleLB", "LB vs Hints", "Idle vs Hints"
    );
    for (bench, results) in benches.iter().zip(all_stats.chunks(SIGNALS.len())) {
        let [hints, lb, idle] =
            [0, 1, 2].map(|i| results[i].as_ref().ok().map(|s| s.runtime_cycles as f64));
        let cycles = |c: Option<f64>| match c {
            Some(c) => format!("{c:>12.0}"),
            None => format!("{:>12}", "n/a"),
        };
        let gain = |other: Option<f64>| match (hints, other) {
            (Some(hints), Some(other)) => format!("{:>15.1}%", (hints / other - 1.0) * 100.0),
            _ => format!("{:>16}", "n/a"),
        };
        println!(
            "{:<8}{}{}{}{}{}",
            bench.name(),
            cycles(hints),
            cycles(lb),
            cycles(idle),
            gain(lb),
            gain(idle)
        );
    }
    println!("(positive percentages mean the load balancer improved over plain Hints)");

    super::report_failures(all_stats.iter().filter_map(|r| r.as_ref().err()))
}
