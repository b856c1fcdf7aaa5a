//! Fig. 4: speedup of the Random, Stealing and Hints schedulers from 1 to N
//! cores, for each of the nine applications.

use crate::{format_speedup_table_results, CurveSpec, HarnessArgs};
use spatial_hints::Scheduler;
use swarm_apps::AppSpec;

/// Run the `fig4` command with the argument slice that follows the
/// subcommand name (`swarm fig4 <args...>`).
pub fn run(args: &[String]) -> i32 {
    let args = match HarnessArgs::parse_args(args) {
        Ok(args) => args,
        Err(code) => return code,
    };
    // Fig. 4 compares Random, Stealing and Hints (LBHints appears in Fig. 10).
    let schedulers =
        args.schedulers_or(&[Scheduler::Random, Scheduler::Stealing, Scheduler::Hints]);

    // One flat matrix across all apps × schedulers × core counts, chunked
    // back into one table per app.
    let series: Vec<CurveSpec> = args
        .apps
        .iter()
        .flat_map(|&bench| {
            let spec = AppSpec::coarse(bench);
            schedulers.iter().map(move |&s| (s.name().to_string(), spec, s))
        })
        .collect();
    let curves = args.speedup_curves(&series);

    for (bench, app_curves) in args.apps.iter().zip(curves.chunks(schedulers.len())) {
        println!("Fig. 4 [{}]: speedup vs cores", bench.name());
        println!("{}", format_speedup_table_results(app_curves));
    }

    super::report_failures(
        curves.iter().flat_map(|(_, points)| points).filter_map(|p| p.as_ref().err()),
    )
}
