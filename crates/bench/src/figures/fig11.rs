//! Fig. 11: core-cycle breakdown of des, nocsim, silo and kmeans at the
//! largest core count under Random, Stealing, Hints and LBHints (normalized
//! to Random) — the benchmarks where the data-centric load balancer matters.

use crate::report::baseline_label;
use crate::{format_breakdown_table_results, HarnessArgs};
use swarm_apps::{AppSpec, BenchmarkId};

/// Run the `fig11` command with the argument slice that follows the
/// subcommand name (`swarm fig11 <args...>`).
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

    let entries = args.pool().try_run_labeled(
        benches
            .iter()
            .flat_map(|&bench| {
                let spec = AppSpec::coarse(bench);
                args.schedulers
                    .iter()
                    .map(move |&s| (s.name().to_string(), args.request(spec, s, cores)))
            })
            .collect(),
    );

    for (bench, bench_entries) in benches.iter().zip(entries.chunks(args.schedulers.len())) {
        println!(
            "Fig. 11 [{}]: core-cycle breakdown at {cores} cores (normalized to {})",
            bench.name(),
            baseline_label(bench_entries)
        );
        println!("{}", format_breakdown_table_results(bench_entries));
    }

    super::report_failures(entries.iter().filter_map(|(_, r)| r.as_ref().err()))
}
