//! Fig. 6: access classification of coarse-grain (CG) vs fine-grain (FG)
//! versions of bfs, sssp, astar and color. FG bars are normalized to the CG
//! total of the same application, so values above 1.0 show the extra
//! accesses (work) fine-grain tasks perform.

use crate::report::format_classification_na_row;
use crate::{classification_header, format_classification_row, HarnessArgs, RunRequest};
use spatial_hints::{classify_accesses, ClassifierConfig, Scheduler};
use swarm_apps::{AppSpec, BenchmarkId};

/// Run the `fig6` command with the argument slice that follows the
/// subcommand name (`swarm fig6 <args...>`).
pub fn run(args: &[String]) -> i32 {
    let args = match HarnessArgs::parse_args(args) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let benches: Vec<BenchmarkId> =
        BenchmarkId::WITH_FINE_GRAIN.into_iter().filter(|b| args.apps.contains(b)).collect();

    // CG and FG profiled runs for every selected bench, in one matrix.
    let labeled: Vec<(String, AppSpec)> = benches
        .iter()
        .flat_map(|&bench| {
            [
                (format!("{}-cg", bench.name()), AppSpec::coarse(bench)),
                (format!("{}-fg", bench.name()), AppSpec::fine(bench)),
            ]
        })
        .collect();
    let requests: Vec<RunRequest> =
        labeled.iter().map(|&(_, spec)| args.request(spec, Scheduler::Hints, 4)).collect();
    let all_stats = args.pool().try_run_matrix_profiled(&requests);

    println!("Fig. 6: access classification, coarse-grain vs fine-grain (normalized to CG total)");
    print!("{}", classification_header());
    let mut cg_total = None;
    for (i, ((label, _), result)) in labeled.iter().zip(&all_stats).enumerate() {
        let classification = result
            .as_ref()
            .ok()
            .map(|stats| classify_accesses(&stats.committed_accesses, ClassifierConfig::default()));
        // Even entries are the CG runs: they set the normalization baseline
        // for themselves and the FG run that follows, so an FG row whose CG
        // run failed is `n/a` too.
        if i % 2 == 0 {
            cg_total = classification.as_ref().map(|c| c.total());
        }
        match (&classification, cg_total) {
            (Some(c), Some(total)) => print!("{}", format_classification_row(label, c, total)),
            _ => print!("{}", format_classification_na_row(label)),
        }
    }

    super::report_failures(all_stats.iter().filter_map(|r| r.as_ref().err()))
}
