//! Reproduction of "Data-Centric Execution of Speculative Parallel Programs"
//! (Jeffrey et al., MICRO 2016).
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`types`] — identifiers, the [`types::Hint`] abstraction, machine
//!   configuration (Table II);
//! * [`mem`] — simulated shared memory with undo logging and the cache
//!   hierarchy model;
//! * [`noc`] — the mesh network model and traffic accounting;
//! * [`sim`] — the Swarm-like speculative architecture simulator (task
//!   units, conflict detection, aborts, GVT commits);
//! * [`hints`] — the paper's contribution: hint-based spatial task mapping,
//!   same-hint serialization, the data-centric load balancer, and the
//!   access-classification profiler;
//! * [`apps`] — the nine benchmarks of Table I, three beyond-Table-I
//!   workloads (maxflow, triangle, kvstore), and three synthetic scenario
//!   families (stream, pipeline, hostile), with seeded workload generators
//!   and serial references.
//!
//! # Quickstart
//!
//! ```
//! use swarm_repro::prelude::*;
//!
//! // Simulate sssp on a small road graph under the Hints scheduler.
//! let mut engine = Sim::builder()
//!     .cores(16)
//!     .app_boxed(AppSpec::coarse(BenchmarkId::Sssp).build(InputScale::Tiny, 1))
//!     .scheduler(Scheduler::Hints)
//!     .build()
//!     .expect("a valid simulation description");
//! let stats = engine.run().expect("validated against Dijkstra");
//! assert!(stats.tasks_committed > 0);
//! ```

pub use spatial_hints as hints;
pub use swarm_apps as apps;
pub use swarm_mem as mem;
pub use swarm_noc as noc;
pub use swarm_sim as sim;
pub use swarm_types as types;

/// Commonly used items, importable with `use swarm_repro::prelude::*`.
pub mod prelude {
    pub use spatial_hints::{classify_accesses, AccessClassification, Scheduler};
    pub use swarm_apps::{AppSpec, BenchmarkId, InputScale};
    pub use swarm_sim::{
        AbortEvent, BuildError, CommitEvent, DequeueEvent, Engine, InitialTask, NetworkEvent,
        RunStats, Sim, SimBuilder, SimObserver, SwarmApp, TaskCtx, TaskMapper,
    };
    pub use swarm_types::{Hint, SystemConfig, TileId, Timestamp};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_the_public_api() {
        use crate::prelude::*;
        let cfg = SystemConfig::with_cores(16);
        let mapper = Scheduler::Random.build(&cfg);
        assert_eq!(mapper.name(), "Random");
        assert_eq!(BenchmarkId::ALL.len(), 15);
        assert_eq!(BenchmarkId::TABLE1.len(), 9);
    }
}
