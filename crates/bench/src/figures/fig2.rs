//! Fig. 2: motivation — des under Random, Stealing, Hints and LBHints:
//! (a) speedup from 1 to N cores and (b) cycle breakdown at the largest
//! core count, normalized to Random.

use crate::report::baseline_label;
use crate::{format_breakdown_table_results, format_speedup_table_results, CurveSpec, HarnessArgs};
use swarm_apps::{AppSpec, BenchmarkId};

/// Run the `fig2` command with the argument slice that follows the
/// subcommand name (`swarm fig2 <args...>`).
pub fn run(args: &[String]) -> i32 {
    let args = match HarnessArgs::parse_args(args) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let spec = AppSpec::coarse(BenchmarkId::Des);

    // One matrix serves both parts: the largest core count is always part
    // of the sweep, so Fig. 2b reuses those points instead of re-running.
    let series: Vec<CurveSpec> =
        args.schedulers.iter().map(|&s| (s.name().to_string(), spec, s)).collect();
    let curves = args.speedup_curves(&series);

    println!("Fig. 2a: des speedup vs cores (relative to 1-core Swarm)");
    println!("{}", format_speedup_table_results(&curves));

    let max = args.max_cores();
    let entries: Vec<_> = curves
        .iter()
        .map(|(label, points)| {
            let at_max = points
                .iter()
                .find(|p| {
                    let cores = match p {
                        Ok(point) => point.request.cores,
                        Err(err) => err.request().cores,
                    };
                    cores == max
                })
                .expect("max_cores is the largest swept core count");
            (label.clone(), at_max.clone().map(|p| p.stats))
        })
        .collect();
    println!(
        "Fig. 2b: des cycle breakdown at {max} cores (normalized to {})",
        baseline_label(&entries)
    );
    println!("{}", format_breakdown_table_results(&entries));

    super::report_failures(
        curves.iter().flat_map(|(_, points)| points).filter_map(|p| p.as_ref().err()),
    )
}
