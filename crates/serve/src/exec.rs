//! The execution seam between the server and the simulation harness.
//!
//! `swarm_serve` deliberately does not depend on `swarm_bench` (the
//! dependency points the other way so the registry can host the `serve`
//! subcommand). The server schedules points through this trait;
//! `swarm_bench::figures::serve` implements it on top of the work-sharing
//! `Pool`, and the tests implement it with deterministic fakes.

use swarm_sim::RunStats;

use crate::point::RunPoint;
use crate::proto::PointFailure;

/// What running one point produced.
pub type PointOutcome = Result<RunStats, PointFailure>;

/// Something that can simulate run points.
pub trait PointRunner: Send + Sync {
    /// Run a batch of points, returning one outcome per point in order.
    /// Implementations may parallelise internally.
    fn run_batch(&self, points: &[RunPoint]) -> Vec<PointOutcome>;
}
