//! Section VI-B "putting it all together": geometric-mean speedups of
//! Random, Hints, Hints with fine-grain versions, and LBHints at the largest
//! core count, plus efficiency metrics (aborted-cycle and traffic
//! reductions). Optionally dumps machine-readable JSON with `--json`.

use crate::{gmean, HarnessArgs, RunRequest};
use spatial_hints::Scheduler;
use swarm_apps::{AppSpec, BenchmarkId};
use swarm_serve::Value;
use swarm_sim::RunStats;

/// The per-app metrics, in column order, by their JSON names.
const METRICS: [&str; 7] = [
    "random_speedup",
    "stealing_speedup",
    "hints_speedup",
    "hints_fg_speedup",
    "lbhints_speedup",
    "abort_cycle_reduction_hints_vs_random",
    "traffic_reduction_hints_vs_random",
];

/// One app's row. A metric is `None` when a run it depends on failed; it
/// then prints as `n/a` (`null` in the JSON).
struct AppSummary {
    app: String,
    cores: u32,
    metrics: [Option<f64>; METRICS.len()],
}

/// The rows as one JSON array (one compact line): per app, its name, the
/// core count and every metric, `null` where a metric is missing.
fn to_json(summaries: &[AppSummary]) -> Value {
    let row = |s: &AppSummary| {
        let metrics = METRICS
            .iter()
            .zip(s.metrics)
            .map(|(name, v)| (*name, v.map_or(Value::Null, Value::Float)));
        let fields = [("app", Value::str(&s.app)), ("cores", Value::UInt(s.cores.into()))];
        Value::Obj(fields.into_iter().chain(metrics).map(|(k, v)| (k.to_string(), v)).collect())
    };
    Value::Arr(summaries.iter().map(row).collect())
}

/// The table's column widths, metric by metric.
const WIDTHS: [usize; METRICS.len()] = [10, 10, 10, 12, 10, 14, 14];

/// The metrics from this column on are reduction factors, printed `1.9x`.
const FIRST_REDUCTION: usize = 5;

/// One table row: the label, five speedups and two reduction factors, with
/// `n/a` for a missing metric.
fn table_row(label: &str, metrics: [Option<f64>; METRICS.len()]) -> String {
    let mut row = format!("{label:<8}");
    for (i, (v, width)) in metrics.into_iter().zip(WIDTHS).enumerate() {
        row.push_str(&match v {
            Some(v) if i >= FIRST_REDUCTION => format!("{v:>w$.1}x", w = width - 1),
            Some(v) => format!("{v:>width$.2}"),
            None => format!("{:>width$}", "n/a"),
        });
    }
    row
}

/// The six runs the summary needs per app, in matrix order.
const RUNS_PER_APP: usize = 6;

/// Run the `summary` command with the argument slice that follows the
/// subcommand name (`swarm summary <args...>`).
pub fn run(args: &[String]) -> i32 {
    let extras = [crate::ExtraFlag {
        name: "--json",
        takes_value: false,
        help: "print one JSON line instead of the table",
    }];
    let args = match HarnessArgs::parse_args_with(args, &extras) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let json = args.extra("--json").is_some();
    let cores = args.max_cores();

    // Per app: 1-core Random baseline, then Random/Stealing/Hints on the
    // coarse version and Hints/LBHints on the best (fine where available)
    // version, all at the target core count — one flat matrix.
    let requests: Vec<RunRequest> = args
        .apps
        .iter()
        .flat_map(|&bench| {
            let cg = AppSpec::coarse(bench);
            let best_fg = if BenchmarkId::WITH_FINE_GRAIN.contains(&bench) {
                AppSpec::fine(bench)
            } else {
                cg
            };
            [
                (cg, Scheduler::Random, 1),
                (cg, Scheduler::Random, cores),
                (cg, Scheduler::Stealing, cores),
                (cg, Scheduler::Hints, cores),
                (best_fg, Scheduler::Hints, cores),
                (best_fg, Scheduler::LbHints, cores),
            ]
            .map(|(spec, scheduler, c)| args.request(spec, scheduler, c))
        })
        .collect();
    let all_stats = args.pool().try_run_matrix(&requests);

    let summaries: Vec<AppSummary> = args
        .apps
        .iter()
        .zip(all_stats.chunks(RUNS_PER_APP))
        .map(|(&bench, results)| {
            let [baseline, random, stealing, hints, hints_fg, lbhints] =
                [0, 1, 2, 3, 4, 5].map(|i| results[i].as_ref().ok());
            let speedup = |run: Option<&RunStats>| Some(run?.speedup_over(baseline?));
            let vs_random = |measure: fn(&RunStats) -> u64| {
                let (random, hints) = (random?, hints?);
                Some(measure(random).max(1) as f64 / measure(hints).max(1) as f64)
            };
            AppSummary {
                app: bench.name().to_string(),
                cores,
                metrics: [
                    speedup(random),
                    speedup(stealing),
                    speedup(hints),
                    speedup(hints_fg),
                    speedup(lbhints),
                    vs_random(|s| s.breakdown.aborted),
                    vs_random(|s| s.traffic.total()),
                ],
            }
        })
        .collect();
    let failures = || all_stats.iter().filter_map(|r| r.as_ref().err());

    if json {
        println!("{}", to_json(&summaries).render());
        return super::report_failures(failures());
    }

    println!("Section VI-B summary at {cores} cores (speedups over 1-core Random)");
    println!(
        "{:<8}{:>10}{:>10}{:>10}{:>12}{:>10}{:>14}{:>14}",
        "app", "Random", "Stealing", "Hints", "Hints(FG)", "LBHints", "abort red.", "traffic red."
    );
    for s in &summaries {
        println!("{}", table_row(&s.app, s.metrics));
    }
    // A gmean over a column with a missing value would describe a different
    // app set than the column above it, so that column's gmean is `n/a`.
    let gmeans = std::array::from_fn(|col| {
        let values: Option<Vec<f64>> = summaries.iter().map(|s| s.metrics[col]).collect();
        values.map(|v| gmean(&v))
    });
    println!("{}", table_row("gmean", gmeans));

    super::report_failures(failures())
}
