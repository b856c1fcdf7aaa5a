//! `contention-matrix`: a flat matrix of distinct points, one at a time on
//! one thread through `swarm_bench::run_point_result`.
//!
//! The nine Table I coarse apps under Random, Stealing, Hints and LBHints at
//! 256 simulated cores with per-link NoC queueing, at tiny scale. No point repeats, within
//! an iteration or across iterations (each iteration draws a fresh seed), so
//! a result memo must show no change here, while the per-link NoC walk does
//! a large share of the work. Random beside Hints runs the same engine
//! abort-heavy and commit-heavy; Stealing and LBHints exercise every mapper
//! hook.

use std::time::Instant;

use spatial_hints::Scheduler;
use swarm_apps::{AppSpec, BenchmarkId, InputScale};
use swarm_bench::RunRequest;
use swarm_types::NocModel;

use crate::layers::{self, Counts};
use crate::trace::Tracer;
use crate::{iteration_seed, median, percentile, secs, Config, CpuRotation, Outcome};

/// Iterations whose outputs form the digest; every run completes at least
/// this many, however slow.
const DIGEST_ITERATIONS: u64 = 3;

/// How many times set-up is measured (its median is reported).
const SETUP_REPEATS: usize = 3;

/// Iterations whose points one set-up builds (more inputs, steadier time).
const SETUP_ITERATIONS: u64 = 4;

/// The points of one iteration: the nine Table I coarse apps under every
/// scheduler at 256 cores with contention, at tiny scale (the link walk is
/// an even larger share of the work there than at small scale, and an
/// iteration is short enough for a run to average over many inputs). Each
/// point gets its own input seed, derived from `seed`: input cost varies a
/// lot between seeds (des and kmeans above all), so independent draws keep
/// the per-iteration time steady.
pub fn requests(seed: u64, short: bool) -> Vec<RunRequest> {
    let (apps, cores): (&[BenchmarkId], u32) = if short {
        (&[BenchmarkId::Bfs, BenchmarkId::Des], 16)
    } else {
        (&BenchmarkId::TABLE1, 256)
    };
    let mut points = Vec::new();
    for &app in apps {
        for scheduler in Scheduler::ALL {
            let point_seed = iteration_seed(seed, points.len() as u64);
            points.push(
                RunRequest::new(AppSpec::coarse(app), scheduler, cores, InputScale::Tiny)
                    .with_seed(point_seed)
                    .with_noc(NocModel::Contention),
            );
        }
    }
    points
}

/// Set-up: generate every input and build every engine of the first
/// `SETUP_ITERATIONS` iterations, without running them.
fn setup_once(cfg: &Config, out: &mut Outcome) -> f64 {
    let start = Instant::now();
    let iterations = if cfg.short { 1 } else { SETUP_ITERATIONS };
    for request in (0..iterations).flat_map(|i| requests(iteration_seed(cfg.seed, i), cfg.short)) {
        let app = request.spec.build(request.scale, request.seed);
        let built = layers::machine(&request).app_boxed(app).scheduler(request.scheduler).build();
        out.check(built.err().map(|e| format!("{}: {e}", layers::point_id(&request))));
    }
    secs(start)
}

/// The plain run: end-to-end metrics.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let setups: Vec<f64> = (0..SETUP_REPEATS).map(|_| setup_once(cfg, &mut out)).collect();

    let mut latencies_ms = Vec::new();
    let cpu_start = crate::cpu_seconds();
    let start = Instant::now();
    let min_iterations = if cfg.short { 1 } else { DIGEST_ITERATIONS };
    let cpus = CpuRotation::default();
    let mut i = 0;
    while i < min_iterations || secs(start) < cfg.seconds {
        cpus.pin(i);
        for request in requests(iteration_seed(cfg.seed, i), cfg.short) {
            let point = Instant::now();
            let result = layers::run_plain(request, false);
            latencies_ms.push(secs(point) * 1e3);
            if let Ok(stats) = &result {
                if i < DIGEST_ITERATIONS {
                    out.digest.feed_debug(stats);
                }
            }
            out.check(result.err());
        }
        i += 1;
    }
    let total = secs(start);
    let cpu = crate::cpu_seconds() - cpu_start;

    out.time("wall_s", total / i as f64, "s");
    out.time("cpu_s", cpu / i as f64, "s");
    out.time("setup_s", median(&setups), "s");
    out.time("req_per_s", latencies_ms.len() as f64 / total, "1/s");
    out.time("latency_p50_ms", percentile(&latencies_ms, 50.0), "ms");
    out.time("latency_p99_ms", percentile(&latencies_ms, 99.0), "ms");
    out.notes.push(format!(
        "{i} iterations, {} points; p99 over {} samples, {} beyond it",
        latencies_ms.len(),
        latencies_ms.len(),
        crate::beyond(&latencies_ms, 99.0)
    ));
    out
}

/// One traced iteration (always the first iteration's points): every point
/// runs untraced and traced, and the two must agree.
pub fn traced_iteration(cfg: &Config, out: &mut Outcome) -> Vec<crate::Metric> {
    let mut tracer = Tracer::default();
    let mut counts = Counts::default();
    let (mut plain, mut traced) = (0.0, 0.0);
    for request in requests(iteration_seed(cfg.seed, 0), cfg.short) {
        let times = layers::run_twin(request, false, &mut tracer, &mut counts, None, out);
        plain += times.plain_s;
        traced += times.traced_s;
    }
    let mut metrics = layers::layer_metrics(&tracer, &counts);
    metrics.push(crate::Metric {
        name: "trace.overhead_frac".into(),
        value: traced / plain - 1.0,
        unit: "fraction",
        exact: false,
    });
    if out.trace.is_empty() {
        out.trace = tracer;
    }
    metrics
}

/// The traced run.
pub fn run_traced(cfg: &Config) -> Outcome {
    let cpus = CpuRotation::default();
    let mut repeat = 0;
    crate::repeat_traced(cfg, |out| {
        cpus.pin(repeat);
        repeat += 1;
        traced_iteration(cfg, out)
    })
}
