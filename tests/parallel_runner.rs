//! Determinism of the parallel experiment runner: a multi-threaded sweep
//! must produce **byte-identical** `ExperimentPoint` results (stats,
//! speedups, ordering) to the single-threaded path, for it to be safe to
//! regenerate the paper's figures at any `--jobs` level.
//!
//! Every simulated run draws all randomness from its own seed, so the only
//! way parallelism could change results is through result *reassembly* —
//! which is exactly what these tests pin down, across three apps × two
//! schedulers (an ordered and an unordered Table I benchmark plus a
//! beyond-Table-I workload, under a hint-based and a hint-oblivious
//! scheduler). `tests/conformance.rs` additionally sweeps every app ×
//! scheduler point through the pool at `--jobs 1` vs `--jobs 8`.

use spatial_hints::Scheduler;
use swarm_apps::{AppSpec, BenchmarkId, InputScale};
use swarm_bench::{
    format_speedup_table_results, speedup_curve, CurveSpec, FailurePolicy, PointResult, Pool,
    RunRequest,
};
use swarm_sim::{FaultEvent, FaultKind};
use swarm_types::TileId;

const APPS: [BenchmarkId; 3] = [BenchmarkId::Sssp, BenchmarkId::Kmeans, BenchmarkId::Kvstore];
const SCHEDULERS: [Scheduler; 2] = [Scheduler::Random, Scheduler::Hints];
const CORES: [u32; 3] = [1, 2, 4];
const SEED: u64 = 0xF1605;

/// The full three-app × two-scheduler curve set.
fn series() -> Vec<CurveSpec> {
    APPS.iter()
        .flat_map(|&app| {
            SCHEDULERS.iter().map(move |&s| {
                (format!("{}-{}", app.name(), s.short_label()), AppSpec::coarse(app), s)
            })
        })
        .collect()
}

#[test]
fn multi_threaded_sweep_is_byte_identical_to_jobs_1() {
    let series = series();
    let serial = Pool::new(1).try_speedup_curves(&series, &CORES, InputScale::Tiny, SEED);
    let parallel = Pool::new(4).try_speedup_curves(&series, &CORES, InputScale::Tiny, SEED);
    assert!(serial.iter().flat_map(|(_, points)| points).all(Result::is_ok));

    // Byte-identical ExperimentPoints: requests, full stats (cycle
    // breakdowns, traffic, per-tile counters) and speedups, in order.
    assert_eq!(format!("{serial:#?}"), format!("{parallel:#?}"));

    // And the rendered figure output is byte-identical too.
    assert_eq!(format_speedup_table_results(&serial), format_speedup_table_results(&parallel));
}

#[test]
fn pool_sweep_matches_the_hand_written_serial_reference() {
    for &app in &APPS {
        for &scheduler in &SCHEDULERS {
            let spec = AppSpec::coarse(app);
            let reference: Vec<PointResult> =
                speedup_curve(spec, scheduler, &CORES, InputScale::Tiny, SEED)
                    .into_iter()
                    .map(Ok)
                    .collect();
            let series = [(String::new(), spec, scheduler)];
            let mut curves =
                Pool::new(4).try_speedup_curves(&series, &CORES, InputScale::Tiny, SEED);
            let pooled = curves.remove(0).1;
            assert_eq!(
                format!("{reference:#?}"),
                format!("{pooled:#?}"),
                "{} under {scheduler} diverged from the serial reference",
                app.name()
            );
        }
    }
}

#[test]
fn run_matrix_preserves_request_order_under_contention() {
    // More requests than workers, deliberately shuffled core counts, so
    // the shared-cursor dispatch must reorder execution — results must not
    // reorder.
    let requests: Vec<RunRequest> = [4, 1, 2, 8, 2, 1, 4, 8]
        .iter()
        .map(|&cores| {
            RunRequest::new(
                AppSpec::coarse(BenchmarkId::Sssp),
                Scheduler::Hints,
                cores,
                InputScale::Tiny,
            )
        })
        .collect();
    let serial = Pool::new(1).try_run_matrix(&requests);
    let parallel = Pool::new(3).try_run_matrix(&requests);
    for ((req, s), p) in requests.iter().zip(&serial).zip(&parallel) {
        assert_eq!(s.as_ref().expect("a tiny point runs").cores, req.cores as usize);
        assert_eq!(format!("{s:?}"), format!("{p:?}"));
    }
}

#[test]
fn faulted_matrix_is_byte_identical_across_jobs() {
    // Benign faults perturb timing deterministically: a faulted matrix must
    // stay byte-identical between --jobs 1 and --jobs 8, exactly like a
    // healthy one.
    let benign = [
        FaultEvent {
            at_cycle: 40,
            kind: FaultKind::DelayedMessage { tile: TileId(0), extra_cycles: 9 },
        },
        FaultEvent { at_cycle: 60, kind: FaultKind::DuplicateMessage },
        FaultEvent { at_cycle: 80, kind: FaultKind::AbortStorm },
    ];
    let requests: Vec<RunRequest> = APPS
        .iter()
        .zip(benign)
        .map(|(&app, fault)| {
            RunRequest::new(AppSpec::coarse(app), Scheduler::Hints, 4, InputScale::Tiny)
                .with_fault(fault)
        })
        .collect();
    let serial = Pool::new(1).try_run_matrix(&requests);
    let parallel = Pool::new(8).try_run_matrix(&requests);
    assert!(serial.iter().all(Result::is_ok), "benign faults complete: {serial:#?}");
    assert_eq!(format!("{serial:#?}"), format!("{parallel:#?}"));
}

#[test]
fn failing_matrix_results_are_byte_identical_across_jobs_under_collect_all() {
    // With CollectAll, every slot — including each typed failure — must be
    // reassembled identically at any --jobs level.
    let doom = FaultEvent { at_cycle: 0, kind: FaultKind::LostTaskWake { ts: 1 } };
    let requests: Vec<RunRequest> = [1u32, 2, 4, 8]
        .iter()
        .enumerate()
        .map(|(i, &cores)| {
            let r = RunRequest::new(
                AppSpec::coarse(BenchmarkId::Sssp),
                Scheduler::Hints,
                cores,
                InputScale::Tiny,
            );
            if i % 2 == 1 {
                r.with_fault(doom)
            } else {
                r
            }
        })
        .collect();
    let serial = Pool::new(1).with_policy(FailurePolicy::CollectAll).try_run_matrix(&requests);
    let parallel = Pool::new(8).with_policy(FailurePolicy::CollectAll).try_run_matrix(&requests);
    assert_eq!(format!("{serial:#?}"), format!("{parallel:#?}"));
    assert_eq!(serial.iter().filter(|r| r.is_err()).count(), 2);
}

#[test]
fn profiled_matrix_is_deterministic_across_jobs() {
    let requests: Vec<RunRequest> = APPS
        .iter()
        .map(|&app| RunRequest::new(AppSpec::coarse(app), Scheduler::Hints, 4, InputScale::Tiny))
        .collect();
    let serial = Pool::new(1).try_run_matrix_profiled(&requests);
    let parallel = Pool::new(2).try_run_matrix_profiled(&requests);
    assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
    assert!(serial.iter().all(|s| s.as_ref().is_ok_and(|s| !s.committed_accesses.is_empty())));
}
