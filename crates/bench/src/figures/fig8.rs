//! Fig. 8: core-cycle and NoC-traffic breakdowns of the fine-grain versions
//! of bfs, sssp, astar and color at the largest core count, under Random,
//! Stealing and Hints, normalized to the coarse-grain version under Random.

use crate::report::baseline_label;
use crate::{format_breakdown_table_results, format_traffic_table_results, HarnessArgs};
use spatial_hints::Scheduler;
use swarm_apps::{AppSpec, BenchmarkId};

/// Run the `fig8` command with the argument slice that follows the
/// subcommand name (`swarm fig8 <args...>`).
pub fn run(args: &[String]) -> i32 {
    let args = match HarnessArgs::parse_args(args) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let args = &args;
    let schedulers =
        args.schedulers_or(&[Scheduler::Random, Scheduler::Stealing, Scheduler::Hints]);
    let cores = args.max_cores();
    let benches: Vec<BenchmarkId> =
        BenchmarkId::WITH_FINE_GRAIN.into_iter().filter(|b| args.apps.contains(b)).collect();

    // Per bench: the CG-Random normalization baseline (as in the paper),
    // then the FG runs — all batched into one labelled matrix.
    let entries = args.pool().try_run_labeled(
        benches
            .iter()
            .flat_map(|&bench| {
                let base = args.request(AppSpec::coarse(bench), Scheduler::Random, cores);
                std::iter::once(("CG-Random".to_string(), base)).chain(schedulers.iter().map(
                    move |&s| {
                        (format!("FG-{}", s.name()), args.request(AppSpec::fine(bench), s, cores))
                    },
                ))
            })
            .collect(),
    );

    for (bench, bench_entries) in benches.iter().zip(entries.chunks(schedulers.len() + 1)) {
        let baseline = baseline_label(bench_entries);
        println!(
            "Fig. 8a [{}]: FG core-cycle breakdown at {cores} cores (normalized to {baseline})",
            bench.name()
        );
        println!("{}", format_breakdown_table_results(bench_entries));
        println!(
            "Fig. 8b [{}]: FG NoC data breakdown at {cores} cores (normalized to {baseline})",
            bench.name()
        );
        println!("{}", format_traffic_table_results(bench_entries, args.noc));
    }

    super::report_failures(entries.iter().filter_map(|(_, r)| r.as_ref().err()))
}
