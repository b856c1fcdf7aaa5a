//! Criterion benchmarks behind the benchmark tables: the single-core run of
//! every benchmark — the Table I nine and the beyond-Table-I three — at
//! tiny scale (the tables' "1-core run-time" column, scaled).

use criterion::{criterion_group, criterion_main, BenchmarkId as CriterionId, Criterion};

use spatial_hints::Scheduler;
use swarm_apps::{AppSpec, BenchmarkId, InputScale};
use swarm_bench::{run_point_result, RunRequest};

fn bench_table1_single_core_runs(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_single_core");
    group.sample_size(10);
    for bench in BenchmarkId::ALL {
        group.bench_with_input(CriterionId::from_parameter(bench.name()), &bench, |b, &bench| {
            b.iter(|| {
                run_point_result(
                    RunRequest::new(AppSpec::coarse(bench), Scheduler::Random, 1, InputScale::Tiny),
                    false,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(tables, bench_table1_single_core_runs);
criterion_main!(tables);
