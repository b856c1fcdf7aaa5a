//! The point matrix behind each of the 13 paper-suite commands, for the
//! traced `figures` run.
//!
//! The untimed `figures` workload runs the suite through the `swarm` binary,
//! which no decorator can reach. Its traced run therefore replays, in this
//! process, the same points each command hands its `Pool` — built from the
//! same `HarnessArgs` defaults the binary parses — with the decorators
//! attached. Each command's matrix is deduplicated as the pool does it, so
//! the replay simulates exactly the runs the binary does: with the default
//! flags, 558 simulations of 257 distinct points.

use std::collections::HashSet;

use spatial_hints::Scheduler;
use swarm_apps::{AppSpec, BenchmarkId};
use swarm_bench::{CurveSpec, HarnessArgs, RunRequest};

use crate::layers::{self, Counts};
use crate::trace::Tracer;
use crate::{Config, Metric, Outcome};

/// The scale the `figures` workload runs the suite at (`run.py` passes the
/// same to the `swarm` binary): at tiny scale a run averages over dozens of
/// suite regenerations, where small-scale inputs vary in cost too much
/// between seeds for a steady figure.
pub const SCALE: &str = "tiny";

/// The paper suite, in the order the benchmark runs it.
pub const COMMANDS: [&str; 13] = [
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig10",
    "fig11",
    "table1",
    "table2",
    "summary",
    "ablation-lb",
];

/// The flags every suite command gets, as `HarnessArgs` parses them. The
/// shortened form for the benchmark's own tests narrows the apps (keeping a
/// fine-grain app and a load-balancer app) and the core counts.
pub fn suite_args(scale: &str, seed: u64, short: bool) -> HarnessArgs {
    let mut flags = vec!["--scale".to_string(), scale.into(), "--seed".into(), seed.to_string()];
    if short {
        flags.extend(["--apps", "bfs,des", "--cores", "1,4"].map(String::from));
    }
    HarnessArgs::parse_from(flags).expect("the suite flags are valid")
}

/// Requests of a speedup sweep: per curve, the 1-core baseline, then every
/// other core count (the order of `Pool::try_speedup_curves`).
fn curves(args: &HarnessArgs, series: &[CurveSpec]) -> Vec<RunRequest> {
    let mut out = Vec::new();
    for &(_, spec, scheduler) in series {
        out.push(args.request(spec, scheduler, 1));
        for &cores in args.cores.iter().filter(|&&c| c != 1) {
            out.push(args.request(spec, scheduler, cores));
        }
    }
    out
}

/// One unlabelled curve per app × scheduler, app-major.
fn series(
    apps: &[BenchmarkId],
    schedulers: &[Scheduler],
    spec: impl Fn(BenchmarkId, Scheduler) -> AppSpec,
) -> Vec<CurveSpec> {
    let mut out = Vec::new();
    for &b in apps {
        for &s in schedulers {
            out.push((String::new(), spec(b, s), s));
        }
    }
    out
}

/// Whether `command` runs its matrix with access profiling, and the
/// requests it hands the pool (before deduplication).
pub fn plan(command: &str, args: &HarnessArgs) -> (bool, Vec<RunRequest>) {
    use Scheduler::{Hints, IdleLb, LbHints, Random, Stealing};
    let rsh = args.schedulers_or(&[Random, Stealing, Hints]);
    let max = args.max_cores();
    let fine: Vec<BenchmarkId> =
        BenchmarkId::WITH_FINE_GRAIN.into_iter().filter(|b| args.apps.contains(b)).collect();
    let lb_apps: Vec<BenchmarkId> =
        [BenchmarkId::Des, BenchmarkId::Nocsim, BenchmarkId::Silo, BenchmarkId::Kmeans]
            .into_iter()
            .filter(|b| args.apps.contains(b))
            .collect();
    let coarse = |b, _| AppSpec::coarse(b);
    let at = |apps: &[BenchmarkId], schedulers: &[Scheduler], cores: u32| -> Vec<RunRequest> {
        apps.iter()
            .flat_map(|&b| {
                schedulers.iter().map(move |&s| args.request(AppSpec::coarse(b), s, cores))
            })
            .collect()
    };
    match command {
        "fig2" => (false, curves(args, &series(&[BenchmarkId::Des], &args.schedulers, coarse))),
        "fig3" => (true, at(&args.apps, &[Hints], 4)),
        "fig4" => (false, curves(args, &series(&args.apps, &rsh, coarse))),
        "fig5" => (false, at(&args.apps, &rsh, max)),
        "fig6" => (
            true,
            fine.iter()
                .flat_map(|&b| [AppSpec::coarse(b), AppSpec::fine(b)])
                .map(|spec| args.request(spec, Hints, 4))
                .collect(),
        ),
        "fig7" => {
            let mut out = Vec::new();
            for &b in &fine {
                out.push(args.request(AppSpec::coarse(b), Hints, 1));
                for spec in [AppSpec::coarse(b), AppSpec::fine(b)] {
                    for &s in &rsh {
                        out.extend(args.cores.iter().map(|&c| args.request(spec, s, c)));
                    }
                }
            }
            (false, out)
        }
        "fig8" => (
            false,
            fine.iter()
                .flat_map(|&b| {
                    std::iter::once(args.request(AppSpec::coarse(b), Random, max))
                        .chain(rsh.iter().map(move |&s| args.request(AppSpec::fine(b), s, max)))
                })
                .collect(),
        ),
        "fig10" => (
            false,
            curves(
                args,
                &series(&args.apps, &args.schedulers, |b, s| {
                    if matches!(s, Hints | LbHints) && BenchmarkId::WITH_FINE_GRAIN.contains(&b) {
                        AppSpec::fine(b)
                    } else {
                        AppSpec::coarse(b)
                    }
                }),
            ),
        ),
        "fig11" => (false, at(&lb_apps, &args.schedulers, max)),
        "table1" => (false, at(&args.apps, &[Random], 1)),
        "table2" => (
            false,
            curves(
                args,
                &series(&args.apps_or(&BenchmarkId::BEYOND_TABLE1), &args.schedulers, coarse),
            ),
        ),
        "summary" => (
            false,
            args.apps
                .iter()
                .flat_map(|&b| {
                    let cg = AppSpec::coarse(b);
                    let best = if BenchmarkId::WITH_FINE_GRAIN.contains(&b) {
                        AppSpec::fine(b)
                    } else {
                        cg
                    };
                    [
                        (cg, Random, 1),
                        (cg, Random, max),
                        (cg, Stealing, max),
                        (cg, Hints, max),
                        (best, Hints, max),
                        (best, LbHints, max),
                    ]
                    .map(|(spec, s, c)| args.request(spec, s, c))
                })
                .collect(),
        ),
        "ablation-lb" => (false, at(&lb_apps, &[Hints, LbHints, IdleLb], max)),
        other => panic!("no plan for command '{other}'"),
    }
}

/// Each command's requests deduplicated as the pool deduplicates them, in
/// first-occurrence order.
pub fn suite(args: &HarnessArgs) -> Vec<(&'static str, bool, Vec<RunRequest>)> {
    COMMANDS
        .iter()
        .map(|&command| {
            let (profiled, requests) = plan(command, args);
            let mut seen = HashSet::new();
            let unique = requests.into_iter().filter(|r| seen.insert(*r)).collect();
            (command, profiled, unique)
        })
        .collect()
}

/// One traced replay of the suite at `scale` with seed `cfg.seed`.
pub fn traced_iteration(cfg: &Config, scale: &str, out: &mut Outcome) -> Vec<Metric> {
    let args = suite_args(scale, cfg.seed, cfg.short);
    let mut tracer = Tracer::default();
    let mut counts = Counts::default();
    let (mut plain, mut traced) = (0.0, 0.0);
    let (mut runs, mut distinct) = (0, HashSet::new());
    // A profiled run is a different simulation from its unprofiled twin.
    for (command, profiled, requests) in suite(&args) {
        let span = tracer.open("bench.command", command, None);
        for request in requests {
            runs += 1;
            distinct.insert((request, profiled));
            let times =
                layers::run_twin(request, profiled, &mut tracer, &mut counts, Some(span), out);
            plain += times.plain_s;
            traced += times.traced_s;
        }
        tracer.close(span);
    }
    let mut metrics = layers::layer_metrics(&tracer, &counts);
    metrics.push(Metric {
        name: "trace.overhead_frac".into(),
        value: traced / plain - 1.0,
        unit: "fraction",
        exact: false,
    });
    if out.trace.is_empty() {
        out.trace = tracer;
        out.notes
            .push(format!("replayed {runs} simulations of {} distinct points", distinct.len()));
    }
    metrics
}

/// The traced replay run (`perfbench figures-replay`).
pub fn run_traced(cfg: &Config, scale: &str) -> Outcome {
    crate::repeat_traced(cfg, |out| traced_iteration(cfg, scale, out))
}
