//! Fig. 3: architecture-independent classification of memory accesses made
//! by committing tasks, per application: arguments, single-/multi-hint ×
//! read-only/read-write.

use crate::report::format_classification_na_row;
use crate::{classification_header, format_classification_row, HarnessArgs, RunRequest};
use spatial_hints::{classify_accesses, ClassifierConfig, Scheduler};
use swarm_apps::AppSpec;

/// Run the `fig3` command with the argument slice that follows the
/// subcommand name (`swarm fig3 <args...>`).
pub fn run(args: &[String]) -> i32 {
    let args = match HarnessArgs::parse_args(args) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let requests: Vec<RunRequest> = args
        .apps
        .iter()
        .map(|&bench| args.request(AppSpec::coarse(bench), Scheduler::Hints, 4))
        .collect();
    let all_stats = args.pool().try_run_matrix_profiled(&requests);

    println!("Fig. 3: classification of memory accesses (fractions of each app's total)");
    print!("{}", classification_header());
    for (bench, result) in args.apps.iter().zip(&all_stats) {
        let row = match result {
            Ok(stats) => {
                let c = classify_accesses(&stats.committed_accesses, ClassifierConfig::default());
                format_classification_row(bench.name(), &c, c.total())
            }
            Err(_) => format_classification_na_row(bench.name()),
        };
        print!("{row}");
    }

    super::report_failures(all_stats.iter().filter_map(|r| r.as_ref().err()))
}
