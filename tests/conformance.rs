//! The SwarmApp conformance suite: every benchmark — the Table I nine, the
//! three beyond-Table-I workloads, the three synthetic scenario families,
//! and the four fine-grain variants — runs through the generic test-kit in
//! `swarm_sim::conformance`, which asserts per app × scheduler × core count:
//!
//! * the run completes and `validate()` accepts the final memory against
//!   the app's serial reference;
//! * repeated identical runs produce bit-identical statistics and memory;
//! * commit/abort accounting invariants hold (per-tile ledger consistency,
//!   busy cycles within the wall clock, no single-core misspeculation, the
//!   speculative line table drains);
//! * where the app's task structure is schedule-independent, committed task
//!   counts match across every scheduler and core count.
//!
//! This suite is the promoted, table-driven form of checks that previously
//! lived ad hoc in `tests/end_to_end.rs` and `tests/determinism.rs`; those
//! files now keep only the paper-*shape* assertions. Adding a benchmark
//! means adding one row here — the completeness test fails otherwise.
//!
//! A separate test locks the experiment-runner half of the contract: every
//! app's results are byte-identical between `--jobs 1` and `--jobs 8`.

use spatial_hints::Scheduler;
use swarm_bench::{Pool, RunRequest};
use swarm_repro::prelude::*;
use swarm_repro::sim::conformance::{check_app, check_plan, CheckOptions, MapperSpec};
use swarm_repro::sim::{standard_faults, FaultPlan};

const SEED: u64 = 99;

fn spec(bench: BenchmarkId, fine: bool) -> AppSpec {
    if fine {
        AppSpec::fine(bench)
    } else {
        AppSpec::coarse(bench)
    }
}

/// Run the kit over one app under all four schedulers at 1 and 16 cores.
fn check(spec: AppSpec, stable_commit_count: bool) {
    check_with_options(spec, CheckOptions::default(), stable_commit_count);
}

/// [`check`] with explicit [`CheckOptions`] (the contention shard
/// overrides the machine-configuration hook).
fn check_with_options(spec: AppSpec, opts: CheckOptions, stable_commit_count: bool) {
    let mappers: Vec<MapperSpec<'_>> =
        Scheduler::ALL.iter().map(|s| MapperSpec { name: s.name(), factory: s }).collect();
    let combos =
        check_app(&|| spec.build(InputScale::Tiny, SEED), &mappers, &opts, stable_commit_count)
            .unwrap_or_else(|e| panic!("{} failed conformance: {e}", spec.name()));
    assert_eq!(combos.len(), Scheduler::ALL.len() * opts.core_counts.len());
}

/// A machine configuration with the contention NoC model enabled.
fn contention_config(cores: u32) -> SystemConfig {
    let mut cfg = SystemConfig::with_cores(cores);
    cfg.noc.model = swarm_repro::types::NocModel::Contention;
    cfg
}

/// One row per app: `name => (benchmark, fine_grain, stable_commit_count)`.
///
/// `stable_commit_count` is false for coarse `sssp` and `astar` — both
/// spawn several tasks at *equal* timestamps for the same vertex, and which
/// of the ties commits first (and therefore whether the later ones
/// re-spawn) legitimately depends on the schedule — for the synthetic
/// `stream` app, whose relaxation wavefront re-spawns depend the same way on
/// how equal-timestamp relaxations serialize, and for fine-grain `astar`:
/// it prunes a task whose timestamp reaches the target's best distance
/// (`ts >= best`), so tasks whose timestamp equals that distance race the
/// target's claim in creation order, and whether they run and spawn depends
/// on the schedule. Every other app has a schedule-independent committed
/// task structure.
macro_rules! conformance_suite {
    ($($test:ident => ($bench:ident, $fine:expr, $stable:expr)),* $(,)?) => {
        $(
            #[test]
            fn $test() {
                check(spec(BenchmarkId::$bench, $fine), $stable);
            }
        )*

        /// Every spec the rows above exercise.
        fn suite_specs() -> Vec<AppSpec> {
            vec![$(spec(BenchmarkId::$bench, $fine)),*]
        }
    };
}

conformance_suite! {
    bfs_conforms => (Bfs, false, true),
    sssp_conforms => (Sssp, false, false),
    astar_conforms => (Astar, false, false),
    color_conforms => (Color, false, true),
    des_conforms => (Des, false, true),
    nocsim_conforms => (Nocsim, false, true),
    silo_conforms => (Silo, false, true),
    genome_conforms => (Genome, false, true),
    kmeans_conforms => (Kmeans, false, true),
    maxflow_conforms => (Maxflow, false, true),
    triangle_conforms => (Triangle, false, true),
    kvstore_conforms => (Kvstore, false, true),
    stream_conforms => (Stream, false, false),
    pipeline_conforms => (Pipeline, false, true),
    hostile_conforms => (Hostile, false, true),
    bfs_fine_conforms => (Bfs, true, true),
    sssp_fine_conforms => (Sssp, true, true),
    astar_fine_conforms => (Astar, true, false),
    color_fine_conforms => (Color, true, true),
}

/// Contention-mode conformance shard: the full battery (validation,
/// bit-identical repeats, accounting invariants) must hold with per-link
/// queueing on, for a representative ordered graph app and the DES
/// workload whose abort traffic stresses the link model.
#[test]
fn contention_mode_bfs_conforms() {
    check_with_options(
        AppSpec::coarse(BenchmarkId::Bfs),
        CheckOptions { config: contention_config, ..CheckOptions::default() },
        true,
    );
}

#[test]
fn contention_mode_des_conforms() {
    check_with_options(
        AppSpec::coarse(BenchmarkId::Des),
        CheckOptions { config: contention_config, ..CheckOptions::default() },
        true,
    );
}

/// Contention-mode runs are byte-identical between `--jobs 1` and
/// `--jobs 8`, and actually accumulate queueing cycles (the analytic model
/// reports none).
#[test]
fn contention_runs_are_byte_identical_across_pool_jobs() {
    use swarm_repro::types::NocModel;
    let requests: Vec<RunRequest> = [BenchmarkId::Bfs, BenchmarkId::Des, BenchmarkId::Kvstore]
        .iter()
        .flat_map(|&bench| {
            Scheduler::ALL.iter().map(move |&scheduler| {
                RunRequest::new(AppSpec::coarse(bench), scheduler, 16, InputScale::Tiny)
                    .with_seed(SEED)
                    .with_noc(NocModel::Contention)
            })
        })
        .collect();
    let serial = Pool::new(1).try_run_matrix(&requests);
    let parallel = Pool::new(8).try_run_matrix(&requests);
    assert_eq!(serial, parallel, "a contention-mode matrix diverged from --jobs 1");
    assert!(
        serial
            .iter()
            .all(|s| s.as_ref().is_ok_and(|s| s.noc_queue_cycles > 0 && s.link_stats.is_some())),
        "contention-mode runs must accumulate link queueing statistics"
    );
}

#[test]
fn suite_covers_every_benchmark_and_fine_variant() {
    let specs = suite_specs();
    for bench in BenchmarkId::ALL {
        assert!(
            specs.contains(&AppSpec::coarse(bench)),
            "benchmark {bench} has no conformance row — add it to the table above"
        );
    }
    for bench in BenchmarkId::WITH_FINE_GRAIN {
        assert!(
            specs.contains(&AppSpec::fine(bench)),
            "fine-grain {bench} has no conformance row — add it to the table above"
        );
    }
    assert_eq!(specs.len(), BenchmarkId::ALL.len() + BenchmarkId::WITH_FINE_GRAIN.len());
}

#[test]
fn every_app_is_byte_identical_across_pool_jobs() {
    // The runner half of the conformance contract: for every app × scheduler
    // point, a multi-threaded matrix returns the same bytes as --jobs 1.
    let requests: Vec<RunRequest> = BenchmarkId::ALL
        .iter()
        .flat_map(|&bench| {
            Scheduler::ALL.iter().map(move |&scheduler| {
                RunRequest::new(AppSpec::coarse(bench), scheduler, 4, InputScale::Tiny)
                    .with_seed(SEED)
            })
        })
        .collect();
    let serial = Pool::new(1).try_run_matrix(&requests);
    let parallel = Pool::new(8).try_run_matrix(&requests);
    assert!(serial.iter().all(Result::is_ok), "every app runs: {serial:#?}");
    assert_eq!(serial, parallel, "a multi-threaded matrix diverged from --jobs 1");
}

#[test]
fn an_unbuildable_machine_fails_typed_instead_of_panicking() {
    // Zero cores yield a config `validate()` rejects. The kit must say so,
    // with or without a fault plan, before a mapper sizes its tables from
    // it: LBHints would panic.
    let mappers = [MapperSpec { name: "LBHints", factory: &Scheduler::LbHints }];
    let make = || AppSpec::coarse(BenchmarkId::Bfs).build(InputScale::Tiny, SEED);
    let opts = CheckOptions { core_counts: vec![0], ..CheckOptions::default() };
    let err = check_app(&make, &mappers, &opts, false).expect_err("zero cores is not a machine");
    assert!(err.contains("invalid simulation"), "{err}");
    let plan = FaultPlan::from(standard_faults(100)[0]);
    let err = check_plan(&make, &mappers, &plan, &opts).expect_err("zero cores is not a machine");
    assert!(err.contains("invalid simulation"), "{err}");
}
