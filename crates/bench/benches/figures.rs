//! Criterion benchmarks behind the evaluation figures: for each figure
//! family, time the simulated runs that regenerate it (at tiny scale, so
//! `cargo bench` completes quickly). The figure *content* (speedups,
//! breakdowns) is produced by the `swarm` figure commands; these benches
//! track the cost of regenerating them and act as end-to-end performance
//! regressions.

use criterion::{criterion_group, criterion_main, BenchmarkId as CriterionId, Criterion};

use spatial_hints::{classify_accesses, ClassifierConfig, Scheduler};
use swarm_apps::{AppSpec, BenchmarkId, InputScale};
use swarm_bench::{run_point_result, Pool, RunRequest};

const CORES: u32 = 16;

/// Fig. 2 / Fig. 4 / Fig. 10 family: scheduler comparison on one app.
fn bench_fig_scheduler_comparison(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_scheduler_sweep");
    group.sample_size(10);
    for scheduler in Scheduler::ALL {
        group.bench_with_input(
            CriterionId::from_parameter(scheduler.name()),
            &scheduler,
            |b, &scheduler| {
                b.iter(|| {
                    run_point_result(
                        RunRequest::new(
                            AppSpec::coarse(BenchmarkId::Des),
                            scheduler,
                            CORES,
                            InputScale::Tiny,
                        ),
                        false,
                    )
                })
            },
        );
    }
    group.finish();
}

/// Fig. 3 / Fig. 6 family: profiled runs plus access classification.
fn bench_fig_access_classification(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_access_classification");
    group.sample_size(10);
    for bench in [BenchmarkId::Sssp, BenchmarkId::Kmeans] {
        group.bench_with_input(CriterionId::from_parameter(bench.name()), &bench, |b, &bench| {
            b.iter(|| {
                let request =
                    RunRequest::new(AppSpec::coarse(bench), Scheduler::Hints, 4, InputScale::Tiny);
                let stats = run_point_result(request, true).expect("a tiny point runs");
                classify_accesses(&stats.committed_accesses, ClassifierConfig::default())
            })
        });
    }
    group.finish();
}

/// Fig. 7 / Fig. 8 family: fine-grain vs coarse-grain versions.
fn bench_fig_fine_grain(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7_granularity");
    group.sample_size(10);
    for (label, spec) in [
        ("sssp-cg", AppSpec::coarse(BenchmarkId::Sssp)),
        ("sssp-fg", AppSpec::fine(BenchmarkId::Sssp)),
    ] {
        group.bench_with_input(CriterionId::from_parameter(label), &spec, |b, &spec| {
            b.iter(|| {
                run_point_result(
                    RunRequest::new(spec, Scheduler::Hints, CORES, InputScale::Tiny),
                    false,
                )
            })
        });
    }
    group.finish();
}

/// Fig. 10 / Fig. 11 family: the load balancer on an imbalanced workload.
fn bench_fig_load_balancer(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig11_load_balancer");
    group.sample_size(10);
    for scheduler in [Scheduler::Hints, Scheduler::LbHints, Scheduler::IdleLb] {
        group.bench_with_input(
            CriterionId::from_parameter(scheduler.name()),
            &scheduler,
            |b, &scheduler| {
                b.iter(|| {
                    run_point_result(
                        RunRequest::new(
                            AppSpec::coarse(BenchmarkId::Nocsim),
                            scheduler,
                            CORES,
                            InputScale::Tiny,
                        ),
                        false,
                    )
                })
            },
        );
    }
    group.finish();
}

/// Whole-figure regeneration, serial vs parallel: the Fig. 2a matrix
/// (4 schedulers × 4 core counts on des) through a 1-job and an all-cores
/// [`Pool`]. The gap between the two is the wall-clock win `--jobs` buys.
fn bench_fig_matrix_parallelism(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig2_matrix_jobs");
    group.sample_size(10);
    let series: Vec<_> = Scheduler::ALL
        .iter()
        .map(|&s| (s.name().to_string(), AppSpec::coarse(BenchmarkId::Des), s))
        .collect();
    for (label, pool) in [("serial", Pool::serial()), ("parallel", Pool::new(0))] {
        group.bench_with_input(CriterionId::from_parameter(label), &pool, |b, pool| {
            b.iter(|| pool.try_speedup_curves(&series, &[1, 4, 16], InputScale::Tiny, 0xF1605))
        });
    }
    group.finish();
}

criterion_group!(
    figures,
    bench_fig_scheduler_comparison,
    bench_fig_access_classification,
    bench_fig_fine_grain,
    bench_fig_load_balancer,
    bench_fig_matrix_parallelism
);
criterion_main!(figures);
