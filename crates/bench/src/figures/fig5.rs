//! Fig. 5: (a) core-cycle breakdown and (b) NoC-traffic breakdown for every
//! application at the largest core count, under Random, Stealing and Hints,
//! normalized to Random.

use crate::report::baseline_label;
use crate::{format_breakdown_table_results, format_traffic_table_results, HarnessArgs};
use spatial_hints::Scheduler;
use swarm_apps::AppSpec;

/// Run the `fig5` command with the argument slice that follows the
/// subcommand name (`swarm fig5 <args...>`).
pub fn run(args: &[String]) -> i32 {
    let args = match HarnessArgs::parse_args(args) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let args = &args;
    let schedulers =
        args.schedulers_or(&[Scheduler::Random, Scheduler::Stealing, Scheduler::Hints]);
    let cores = args.max_cores();

    // One flat labelled matrix across all apps × schedulers.
    let entries = args.pool().try_run_labeled(
        args.apps
            .iter()
            .flat_map(|&bench| {
                let spec = AppSpec::coarse(bench);
                schedulers
                    .iter()
                    .map(move |&s| (s.name().to_string(), args.request(spec, s, cores)))
            })
            .collect(),
    );

    for (bench, app_entries) in args.apps.iter().zip(entries.chunks(schedulers.len())) {
        let baseline = baseline_label(app_entries);
        println!(
            "Fig. 5a [{}]: core-cycle breakdown at {cores} cores (normalized to {baseline})",
            bench.name()
        );
        println!("{}", format_breakdown_table_results(app_entries));
        println!(
            "Fig. 5b [{}]: NoC data breakdown at {cores} cores (normalized to {baseline})",
            bench.name()
        );
        println!("{}", format_traffic_table_results(app_entries, args.noc));
    }

    super::report_failures(entries.iter().filter_map(|(_, r)| r.as_ref().err()))
}
