//! Running one (benchmark, scheduler, core count) point and sweeps thereof.

use std::fmt;

use spatial_hints::Scheduler;
use swarm_apps::{AppSpec, InputScale};
use swarm_sim::{BuildError, FaultPlan, RunStats, Sim};
use swarm_types::SimError;

/// Everything needed to run one simulation point: the harness's name for
/// the one point type, [`swarm_serve::RunPoint`].
pub use swarm_serve::RunPoint as RunRequest;

/// Why one simulation point has no statistics: the typed, per-point failure
/// the pool records instead of tearing the whole process down (see
/// [`crate::FailurePolicy`]). Every variant carries the offending request, so
/// reports can name the exact point, and `Display` mirrors the harness's
/// historical panic messages.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The request does not describe a valid simulation.
    InvalidPoint {
        /// The offending request.
        request: RunRequest,
        /// What the builder rejected.
        error: BuildError,
    },
    /// The simulation ran but failed with a typed error (validation
    /// mismatch, deadlock, budget overrun, ...).
    Sim {
        /// The offending request.
        request: RunRequest,
        /// The simulator's error.
        error: SimError,
    },
    /// The simulation panicked (a bug in an app or the engine, surfaced as
    /// a value instead of unwinding through the pool).
    Panicked {
        /// The offending request.
        request: RunRequest,
        /// Best-effort panic message.
        message: String,
    },
    /// The point was never run: an earlier failure aborted the matrix under
    /// [`crate::FailurePolicy::FailFast`].
    Skipped {
        /// The request that was not run.
        request: RunRequest,
    },
}

impl RunError {
    /// The request the failure belongs to.
    pub fn request(&self) -> &RunRequest {
        match self {
            RunError::InvalidPoint { request, .. }
            | RunError::Sim { request, .. }
            | RunError::Panicked { request, .. }
            | RunError::Skipped { request } => request,
        }
    }

    /// Whether this error is a root cause (as opposed to a point skipped as
    /// a *consequence* of another point's failure).
    pub fn is_root_cause(&self) -> bool {
        !matches!(self, RunError::Skipped { .. })
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = self.request();
        let at = format!("{} under {} at {} cores", r.spec.name(), r.scheduler, r.cores);
        match self {
            RunError::InvalidPoint { error, .. } => {
                write!(f, "{at} is not a valid simulation: {error}")
            }
            RunError::Sim { error, .. } => write!(f, "{at} failed: {error}"),
            RunError::Panicked { message, .. } => write!(f, "{at} panicked: {message}"),
            RunError::Skipped { .. } => {
                write!(f, "{at} was skipped after an earlier failure")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// One measured point of a sweep.
#[derive(Debug, Clone)]
pub struct ExperimentPoint {
    /// The request that produced this point.
    pub request: RunRequest,
    /// The measured statistics.
    pub stats: RunStats,
    /// Speedup relative to the 1-core baseline of the same app/scale/seed.
    pub speedup: f64,
}

/// Run one point, converting every failure mode — an invalid description, a
/// typed simulator error, even a panic inside the app or engine — into a
/// structured [`RunError`] instead of unwinding.
pub fn run_point_result(request: RunRequest, profiled: bool) -> Result<RunStats, RunError> {
    let guarded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut builder = Sim::builder()
            .config(request.system_config())
            .app_boxed(request.spec.build(request.scale, request.seed))
            .scheduler(request.scheduler)
            .profiling(profiled);
        if let Some(fault) = request.fault {
            builder = builder.fault_plan(FaultPlan::from(fault));
        }
        let mut engine =
            builder.build().map_err(|error| RunError::InvalidPoint { request, error })?;
        engine.run().map_err(|error| RunError::Sim { request, error })
    }));
    match guarded {
        Ok(result) => result,
        Err(payload) => {
            let message = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "<non-string panic payload>".to_string()
            };
            Err(RunError::Panicked { request, message })
        }
    }
}

/// Sweep core counts for one app/scheduler and return speedups relative to
/// the 1-core run of the same configuration.
///
/// This is the hand-written *serial reference path*: [`crate::Pool`] sweeps
/// are defined to produce byte-identical results to it at any `--jobs`
/// level, and `tests/parallel_runner.rs` compares the two.
///
/// # Panics
///
/// Panics with the [`RunError`] if any point fails: a reference that
/// silently skipped points would not be a reference. Figures use the
/// Result-typed [`crate::HarnessArgs::speedup_curves`] instead.
pub fn speedup_curve(
    spec: AppSpec,
    scheduler: Scheduler,
    core_counts: &[u32],
    scale: InputScale,
    seed: u64,
) -> Vec<ExperimentPoint> {
    let run = |request| run_point_result(request, false).unwrap_or_else(|e| panic!("{e}"));
    let baseline = run(RunRequest::new(spec, scheduler, 1, scale).with_seed(seed));
    core_counts
        .iter()
        .map(|&cores| {
            let request = RunRequest::new(spec, scheduler, cores, scale).with_seed(seed);
            let stats = if cores == 1 { baseline.clone() } else { run(request) };
            let speedup = stats.speedup_over(&baseline);
            ExperimentPoint { request, stats, speedup }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use swarm_apps::BenchmarkId;

    #[test]
    fn run_point_result_produces_stats() {
        let request = RunRequest::new(
            AppSpec::coarse(BenchmarkId::Sssp),
            Scheduler::Hints,
            4,
            InputScale::Tiny,
        );
        let stats = run_point_result(request, false).expect("a tiny point runs");
        assert!(stats.tasks_committed > 0);
        assert!(stats.runtime_cycles > 0);
    }

    #[test]
    fn profiled_run_collects_accesses() {
        let request = RunRequest::new(
            AppSpec::coarse(BenchmarkId::Kmeans),
            Scheduler::Hints,
            4,
            InputScale::Tiny,
        );
        let stats = run_point_result(request, true).expect("a tiny point runs");
        assert!(!stats.committed_accesses.is_empty());
    }

    #[test]
    fn run_point_result_reports_typed_failures_without_panicking() {
        use swarm_sim::{FaultEvent, FaultKind};
        use swarm_types::SimError;
        // A lost task wake wedges the run; the Result path must hand back a
        // typed Sim error naming the point, not unwind.
        let request = RunRequest::new(
            AppSpec::coarse(BenchmarkId::Sssp),
            Scheduler::Hints,
            4,
            InputScale::Tiny,
        )
        .with_fault(FaultEvent { at_cycle: 0, kind: FaultKind::LostTaskWake { ts: 1 } });
        let err = run_point_result(request, false).expect_err("a lost wake must fail");
        assert!(matches!(&err, RunError::Sim { error: SimError::Deadlock { .. }, .. }), "{err}");
        assert_eq!(err.request(), &request);
        assert!(err.is_root_cause());
        let msg = err.to_string();
        assert!(msg.contains("sssp under Hints at 4 cores failed:"), "{msg}");
    }

    #[test]
    fn run_errors_display_like_the_legacy_panics() {
        let request = RunRequest::new(
            AppSpec::coarse(BenchmarkId::Des),
            Scheduler::Random,
            8,
            InputScale::Tiny,
        );
        let cases: Vec<(RunError, &str)> = vec![
            (
                RunError::InvalidPoint { request, error: swarm_sim::BuildError::MissingApp },
                "is not a valid simulation:",
            ),
            (
                RunError::Sim { request, error: swarm_types::SimError::TaskLimitExceeded(10) },
                "failed:",
            ),
            (RunError::Panicked { request, message: "boom".into() }, "panicked: boom"),
            (RunError::Skipped { request }, "skipped"),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.starts_with("des under Random at 8 cores"), "{msg}");
            assert!(msg.contains(needle), "{msg}");
        }
    }

    #[test]
    fn speedup_curve_is_relative_to_one_core() {
        let points = speedup_curve(
            AppSpec::coarse(BenchmarkId::Des),
            Scheduler::Hints,
            &[1, 4],
            InputScale::Tiny,
            7,
        );
        assert_eq!(points.len(), 2);
        assert!((points[0].speedup - 1.0).abs() < 1e-9);
        assert!(points[1].speedup > 0.0);
    }
}
