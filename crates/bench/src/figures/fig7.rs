//! Fig. 7: speedup of fine-grain (FG) vs coarse-grain (CG) versions of bfs,
//! sssp, astar and color under Random, Stealing and Hints. All speedups are
//! relative to the CG version on one core.

use crate::{format_speedup_table_results, CurveSpec, HarnessArgs, RunRequest};
use spatial_hints::Scheduler;
use swarm_apps::{AppSpec, BenchmarkId};

/// Run the `fig7` command with the argument slice that follows the
/// subcommand name (`swarm fig7 <args...>`).
pub fn run(args: &[String]) -> i32 {
    let args = match HarnessArgs::parse_args(args) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let schedulers =
        args.schedulers_or(&[Scheduler::Random, Scheduler::Stealing, Scheduler::Hints]);
    let benches: Vec<BenchmarkId> =
        BenchmarkId::WITH_FINE_GRAIN.into_iter().filter(|b| args.apps.contains(b)).collect();

    // One group per bench: the shared baseline (coarse-grain on one core
    // under Hints) plus the CG/FG × scheduler series — all benches batched
    // into one flat matrix.
    let groups: Vec<(RunRequest, Vec<CurveSpec>)> = benches
        .iter()
        .map(|&bench| {
            let baseline = args.request(AppSpec::coarse(bench), Scheduler::Hints, 1);
            let series: Vec<CurveSpec> =
                [("CG", AppSpec::coarse(bench)), ("FG", AppSpec::fine(bench))]
                    .into_iter()
                    .flat_map(|(label, spec)| {
                        schedulers
                            .iter()
                            .map(move |&s| (format!("{label}-{}", s.short_label()), spec, s))
                    })
                    .collect();
            (baseline, series)
        })
        .collect();
    let results = args.pool().try_speedup_curve_groups(&groups, &args.cores, args.scale, args.seed);

    for (bench, curves) in benches.iter().zip(&results) {
        println!(
            "Fig. 7 [{}]: CG and FG speedup vs cores (relative to CG at 1 core)",
            bench.name()
        );
        println!("{}", format_speedup_table_results(curves));
    }

    super::report_failures(
        results.iter().flatten().flat_map(|(_, points)| points).filter_map(|p| p.as_ref().err()),
    )
}
