//! Fig. 10: speedup of Random, Stealing, Hints and LBHints from 1 to N
//! cores on all nine applications. For the four benchmarks with fine-grain
//! versions, the hint-based schedulers use the fine-grain variant (the paper
//! reports the best-performing version per scheme).

use crate::{format_speedup_table_results, CurveSpec, HarnessArgs};
use spatial_hints::Scheduler;
use swarm_apps::{AppSpec, BenchmarkId};

/// Run the `fig10` command with the argument slice that follows the
/// subcommand name (`swarm fig10 <args...>`).
pub fn run(args: &[String]) -> i32 {
    let args = match HarnessArgs::parse_args(args) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let series: Vec<CurveSpec> = args
        .apps
        .iter()
        .flat_map(|&bench| {
            args.schedulers.iter().map(move |&s| {
                let hint_based = matches!(s, Scheduler::Hints | Scheduler::LbHints);
                let spec = if hint_based && BenchmarkId::WITH_FINE_GRAIN.contains(&bench) {
                    AppSpec::fine(bench)
                } else {
                    AppSpec::coarse(bench)
                };
                (format!("{}{}", s.name(), if spec.fine_grain { "(FG)" } else { "" }), spec, s)
            })
        })
        .collect();
    let curves = args.speedup_curves(&series);

    for (bench, app_curves) in args.apps.iter().zip(curves.chunks(args.schedulers.len())) {
        println!("Fig. 10 [{}]: speedup vs cores", bench.name());
        println!("{}", format_speedup_table_results(app_curves));
    }

    super::report_failures(
        curves.iter().flat_map(|(_, points)| points).filter_map(|p| p.as_ref().err()),
    )
}
