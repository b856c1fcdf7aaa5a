//! Table 2 (this repository, not the paper): the workloads beyond Table I —
//! `maxflow`, `triangle` and `kvstore` — characterised like Table I and
//! swept across all four schedulers.
//!
//! The paper's evaluation fixes nine benchmarks; these three were added
//! because their hint/locality structure stresses the mechanisms
//! differently: `maxflow` pushes write sets two hops wide (vertex hints
//! cover a smaller access share), `triangle` hints by the lower-degree
//! endpoint of each edge (a long-tail hint distribution), and `kvstore`
//! draws keys from a Zipfian so a few hints dominate (the load balancer's
//! favourite regime). See the module docs of `swarm_apps::{maxflow,
//! triangle, kvstore}`.
//!
//! Defaults to the three new workloads and all four schedulers; `--apps`
//! and `--schedulers` override. Pool-parallel like every other harness
//! binary: `--jobs N` output is byte-identical to `--jobs 1`.

use crate::{format_speedup_table_results, CurveSpec, HarnessArgs};
use swarm_apps::{AppSpec, BenchmarkId};

/// Run the `table2` command with the argument slice that follows the
/// subcommand name (`swarm table2 <args...>`).
pub fn run(args: &[String]) -> i32 {
    let args = match HarnessArgs::parse_args(args) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let apps = args.apps_or(&BenchmarkId::BEYOND_TABLE1);

    println!("Table 2: workloads beyond Table I (scale: {:?}, seed: {:#x})", args.scale, args.seed);
    println!(
        "{:<9} {:<9} {:<10} {:<24} {:>6}  hint pattern",
        "bench", "kind", "source", "input", "#fns"
    );
    for &bench in &apps {
        let app = AppSpec::coarse(bench).build(args.scale, args.seed);
        println!(
            "{:<9} {:<9} {:<10} {:<24} {:>6}  {}",
            bench.name(),
            if bench.is_ordered() { "ordered" } else { "unordered" },
            bench.source(),
            bench.paper_input(),
            app.num_task_fns(),
            bench.hint_pattern()
        );
    }
    println!();

    let series: Vec<CurveSpec> = apps
        .iter()
        .flat_map(|&bench| {
            args.schedulers.iter().map(move |&s| (s.name().to_string(), AppSpec::coarse(bench), s))
        })
        .collect();
    let curves = args.speedup_curves(&series);

    for (bench, app_curves) in apps.iter().zip(curves.chunks(args.schedulers.len())) {
        println!("Table 2 [{}]: speedup vs cores", bench.name());
        println!("{}", format_speedup_table_results(app_curves));
    }

    super::report_failures(
        curves.iter().flat_map(|(_, points)| points).filter_map(|p| p.as_ref().err()),
    )
}
