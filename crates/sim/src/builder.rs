//! The validated, fluent way to describe and construct a simulation.
//!
//! Every simulation in the workspace — figure commands, conformance checks,
//! examples, tests — is assembled through [`SimBuilder`], the only public
//! way to construct an [`Engine`]: the builder checks the description
//! *before* any state is allocated and reports problems as a typed
//! [`BuildError`] instead of a panic deep inside the engine.
//!
//! The builder itself only knows the simulator-level vocabulary (an
//! application, a task mapper, a machine). Higher layers plug in through
//! two seams:
//!
//! * [`MapperFactory`] — anything that can produce a [`TaskMapper`] for a
//!   given machine configuration. The `spatial-hints` crate implements it
//!   for its `Scheduler` enum, so `.scheduler(Scheduler::Hints)` works
//!   without this crate depending on the scheduler implementations.
//!   Closures `Fn(&SystemConfig) -> Box<dyn TaskMapper>` also qualify.
//! * [`SimObserver`] — custom metrics attach with
//!   [`SimBuilder::observer`] and see the same event stream the built-in
//!   statistics observer consumes.
//!
//! # Example
//!
//! ```
//! use swarm_sim::{RoundRobinMapper, Sim};
//! # use swarm_sim::{InitialTask, SwarmApp, TaskCtx};
//! # use swarm_types::Hint;
//! # struct ChainSum { n: u64 }
//! # impl SwarmApp for ChainSum {
//! #     fn name(&self) -> &str { "chain-sum" }
//! #     fn initial_tasks(&self) -> Vec<InitialTask> {
//! #         vec![InitialTask::new(0, 0, Hint::value(0), vec![0])]
//! #     }
//! #     fn run_task(&self, _fid: u16, ts: u64, args: &[u64], ctx: &mut TaskCtx<'_>) {
//! #         let i = args[0];
//! #         let acc = ctx.read(0x1000);
//! #         ctx.write(0x1000, acc + i);
//! #         if i + 1 < self.n {
//! #             ctx.enqueue(0, ts + 1, Hint::value(i + 1), &[i + 1]);
//! #         }
//! #     }
//! # }
//!
//! let mut engine = Sim::builder()
//!     .cores(16)
//!     .app(ChainSum { n: 10 })
//!     .mapper(Box::new(RoundRobinMapper::new()))
//!     .build()
//!     .expect("a complete, valid simulation description");
//! let stats = engine.run().unwrap();
//! assert_eq!(stats.tasks_committed, 10);
//! ```

use std::fmt;

use swarm_types::SystemConfig;

use crate::app::SwarmApp;
use crate::engine::Engine;
use crate::fault::FaultPlan;
use crate::mapper::TaskMapper;
use crate::observer::SimObserver;

/// Namespace for [`Sim::builder`], the entry point of the builder API.
pub struct Sim;

impl Sim {
    /// Start describing a simulation.
    pub fn builder() -> SimBuilder {
        SimBuilder::default()
    }
}

/// Anything that can instantiate a [`TaskMapper`] for a machine
/// configuration.
///
/// This is the seam that lets scheduler *catalogues* living above this crate
/// (like `spatial_hints::Scheduler`) plug into [`SimBuilder::scheduler`]:
/// the mapper is built only once the builder has settled the final
/// [`SystemConfig`], so seeded mappers see the right seed and
/// machine shape. Closures of type `Fn(&SystemConfig) -> Box<dyn TaskMapper>`
/// implement it automatically.
pub trait MapperFactory {
    /// Build a fresh mapper for `cfg`.
    fn build_mapper(&self, cfg: &SystemConfig) -> Box<dyn TaskMapper>;
}

impl<F> MapperFactory for F
where
    F: Fn(&SystemConfig) -> Box<dyn TaskMapper>,
{
    fn build_mapper(&self, cfg: &SystemConfig) -> Box<dyn TaskMapper> {
        self(cfg)
    }
}

/// What [`SimBuilder::build`] rejects, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// No application was supplied ([`SimBuilder::app`] /
    /// [`SimBuilder::app_boxed`]).
    MissingApp,
    /// No scheduler was supplied ([`SimBuilder::scheduler`] /
    /// [`SimBuilder::mapper`]).
    MissingScheduler,
    /// Both [`SimBuilder::cores`] and [`SimBuilder::config`] were called;
    /// the machine must be described exactly one way.
    AmbiguousMachine,
    /// The system configuration failed [`SystemConfig::validate`].
    InvalidConfig(String),
    /// The commit queue must hold more entries than the tile has cores, or
    /// dispatches deadlock waiting for commit-queue slots.
    CommitQueueTooSmall {
        /// Configured commit-queue entries per tile.
        commit_queue: usize,
        /// Cores per tile in the same configuration.
        cores_per_tile: usize,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::MissingApp => write!(f, "no application supplied (call .app(...))"),
            BuildError::MissingScheduler => {
                write!(f, "no scheduler supplied (call .scheduler(...) or .mapper(...))")
            }
            BuildError::AmbiguousMachine => {
                write!(f, "both .cores(...) and .config(...) were given; pick one")
            }
            BuildError::InvalidConfig(msg) => write!(f, "invalid system configuration: {msg}"),
            BuildError::CommitQueueTooSmall { commit_queue, cores_per_tile } => write!(
                f,
                "commit queue ({commit_queue} entries/tile) must be larger than the number of \
                 cores per tile ({cores_per_tile})"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

enum SchedulerSource {
    Built(Box<dyn TaskMapper>),
    Factory(Box<dyn MapperFactory>),
}

/// A fluent, validated description of one simulation.
///
/// Obtain one with [`Sim::builder`], describe the run, then call
/// [`SimBuilder::build`] to get a ready [`Engine`]. See the
/// [module docs](self) for an example.
#[derive(Default)]
pub struct SimBuilder {
    cores: Option<u32>,
    config: Option<SystemConfig>,
    app: Option<Box<dyn SwarmApp>>,
    scheduler: Option<SchedulerSource>,
    observers: Vec<Box<dyn SimObserver>>,
    profiling: bool,
    fault_plan: Option<FaultPlan>,
}

impl SimBuilder {
    /// The application to simulate.
    pub fn app(mut self, app: impl SwarmApp + 'static) -> Self {
        self.app = Some(Box::new(app));
        self
    }

    /// The application to simulate, already boxed (what the workload
    /// catalogues hand out).
    pub fn app_boxed(mut self, app: Box<dyn SwarmApp>) -> Self {
        self.app = Some(app);
        self
    }

    /// The scheduler, as a [`MapperFactory`] invoked with the final machine
    /// configuration (e.g. `spatial_hints::Scheduler::Hints`, or a closure
    /// returning a boxed [`TaskMapper`]).
    pub fn scheduler(mut self, factory: impl MapperFactory + 'static) -> Self {
        self.scheduler = Some(SchedulerSource::Factory(Box::new(factory)));
        self
    }

    /// The scheduler, as an already-built task mapper (for mappers with no
    /// dependence on the machine configuration).
    pub fn mapper(mut self, mapper: Box<dyn TaskMapper>) -> Self {
        self.scheduler = Some(SchedulerSource::Built(mapper));
        self
    }

    /// Simulate a [`SystemConfig::with_cores`] machine of `n` cores.
    /// Mutually exclusive with [`SimBuilder::config`].
    pub fn cores(mut self, n: u32) -> Self {
        self.cores = Some(n);
        self
    }

    /// Simulate exactly `cfg`. Mutually exclusive with
    /// [`SimBuilder::cores`].
    pub fn config(mut self, cfg: SystemConfig) -> Self {
        self.config = Some(cfg);
        self
    }

    /// Collect per-committed-task access traces (Fig. 3 / Fig. 6 need
    /// them). Off by default: traces are large.
    pub fn profiling(mut self, enabled: bool) -> Self {
        self.profiling = enabled;
        self
    }

    /// Attach a custom observer to the simulation's event stream (see
    /// [`crate::observer`]). May be called multiple times; observers are
    /// notified in attach order, after the built-in statistics observer.
    pub fn observer(mut self, observer: impl SimObserver + 'static) -> Self {
        self.observers.push(Box::new(observer));
        self
    }

    /// Inject a deterministic [`FaultPlan`] (see [`crate::fault`]): each
    /// event fires at its exact cycle, before any same-cycle engine work.
    /// An empty plan is equivalent to not calling this at all.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Validate the description and construct the [`Engine`].
    ///
    /// # Errors
    ///
    /// Returns the first [`BuildError`] the description violates; nothing is
    /// allocated in that case.
    pub fn build(self) -> Result<Engine, BuildError> {
        let app = self.app.ok_or(BuildError::MissingApp)?;
        let scheduler = self.scheduler.ok_or(BuildError::MissingScheduler)?;
        let cfg = match (self.cores, self.config) {
            (Some(_), Some(_)) => return Err(BuildError::AmbiguousMachine),
            (Some(n), None) => SystemConfig::with_cores(n),
            (None, Some(cfg)) => cfg,
            (None, None) => SystemConfig::with_cores(16),
        };
        cfg.validate().map_err(BuildError::InvalidConfig)?;
        if cfg.commit_queue_per_tile() <= cfg.cores_per_tile as usize {
            return Err(BuildError::CommitQueueTooSmall {
                commit_queue: cfg.commit_queue_per_tile(),
                cores_per_tile: cfg.cores_per_tile as usize,
            });
        }
        let mapper = match scheduler {
            SchedulerSource::Built(mapper) => mapper,
            SchedulerSource::Factory(factory) => factory.build_mapper(&cfg),
        };
        let mut engine = Engine::new(cfg, app, mapper);
        if self.profiling {
            engine.enable_profiling();
        }
        if let Some(plan) = self.fault_plan {
            engine.set_fault_plan(plan);
        }
        for observer in self.observers {
            engine.add_observer(observer);
        }
        Ok(engine)
    }
}

impl fmt::Debug for SimBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimBuilder")
            .field("cores", &self.cores)
            .field("config", &self.config.as_ref().map(|c| c.num_cores()))
            .field("app", &self.app.as_ref().map(|a| a.name().to_string()))
            .field("has_scheduler", &self.scheduler.is_some())
            .field("observers", &self.observers.len())
            .field("profiling", &self.profiling)
            .field("fault_plan", &self.fault_plan)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::RoundRobinMapper;
    use crate::task::InitialTask;
    use crate::TaskCtx;
    use swarm_types::Hint;

    struct OneTask;
    impl SwarmApp for OneTask {
        fn name(&self) -> &str {
            "one-task"
        }
        fn initial_tasks(&self) -> Vec<InitialTask> {
            vec![InitialTask::new(0, 0, Hint::None, vec![])]
        }
        fn run_task(&self, _fid: u16, _ts: u64, _args: &[u64], ctx: &mut TaskCtx<'_>) {
            ctx.write(0x40, 7);
        }
    }

    fn round_robin() -> Box<dyn TaskMapper> {
        Box::new(RoundRobinMapper::new())
    }

    #[test]
    fn a_complete_description_builds_and_runs() {
        let mut engine =
            Sim::builder().cores(4).app(OneTask).mapper(round_robin()).build().unwrap();
        let stats = engine.run().unwrap();
        assert_eq!(stats.tasks_committed, 1);
        assert_eq!(stats.cores, 4);
        assert_eq!(engine.memory().load(0x40), 7);
    }

    #[test]
    fn defaults_to_the_small_machine() {
        let mut engine = Sim::builder().app(OneTask).mapper(round_robin()).build().unwrap();
        assert_eq!(engine.run().unwrap().cores, SystemConfig::with_cores(16).num_cores());
    }

    #[test]
    fn closures_are_mapper_factories() {
        let mut engine = Sim::builder()
            .cores(4)
            .app(OneTask)
            .scheduler(|_cfg: &SystemConfig| -> Box<dyn TaskMapper> {
                Box::new(RoundRobinMapper::new())
            })
            .build()
            .unwrap();
        assert_eq!(engine.run().unwrap().tasks_committed, 1);
    }

    #[test]
    fn missing_pieces_are_typed_errors() {
        assert_eq!(
            Sim::builder().mapper(round_robin()).build().err(),
            Some(BuildError::MissingApp)
        );
        assert_eq!(Sim::builder().app(OneTask).build().err(), Some(BuildError::MissingScheduler));
    }

    #[test]
    fn ambiguous_machine_descriptions_are_rejected() {
        let err = Sim::builder()
            .cores(4)
            .config(SystemConfig::with_cores(16))
            .app(OneTask)
            .mapper(round_robin())
            .build()
            .err();
        assert_eq!(err, Some(BuildError::AmbiguousMachine));
    }

    #[test]
    fn invalid_configurations_are_rejected_not_panicked() {
        let mut cfg = SystemConfig::with_cores(16);
        cfg.tiles_x = 0;
        let err =
            Sim::builder().config(cfg).app(OneTask).mapper(round_robin()).build().err().unwrap();
        assert!(matches!(err, BuildError::InvalidConfig(_)), "{err}");

        let mut cfg = SystemConfig::with_cores(16);
        // Passes SystemConfig::validate (positive capacity) but leaves the
        // 4-core tiles with only 4 commit-queue entries: a deadlock recipe.
        cfg.queues.commit_queue_per_core = 1;
        let err =
            Sim::builder().config(cfg).app(OneTask).mapper(round_robin()).build().err().unwrap();
        assert!(matches!(err, BuildError::CommitQueueTooSmall { .. }), "{err}");

        let err = Sim::builder().cores(0).app(OneTask).mapper(round_robin()).build().err().unwrap();
        assert!(matches!(err, BuildError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn fault_plans_ride_through_the_builder() {
        use crate::fault::{FaultEvent, FaultKind, FaultPlan};
        use swarm_types::SimError;
        // A lost wake planted at cycle 0 must surface as a typed deadlock.
        let plan =
            FaultPlan::from(FaultEvent { at_cycle: 0, kind: FaultKind::LostTaskWake { ts: 3 } });
        let mut engine = Sim::builder()
            .cores(4)
            .app(OneTask)
            .mapper(round_robin())
            .fault_plan(plan)
            .build()
            .unwrap();
        let err = engine.run().expect_err("a lost wake must deadlock");
        assert!(matches!(err, SimError::Deadlock { .. }), "{err}");

        // An empty plan changes nothing.
        let mut engine = Sim::builder()
            .cores(4)
            .app(OneTask)
            .mapper(round_robin())
            .fault_plan(FaultPlan::new())
            .build()
            .unwrap();
        assert_eq!(engine.run().unwrap().tasks_committed, 1);
    }

    #[test]
    fn build_errors_format_helpfully() {
        for (err, needle) in [
            (BuildError::MissingApp, "app"),
            (BuildError::MissingScheduler, "scheduler"),
            (BuildError::AmbiguousMachine, "pick one"),
            (BuildError::InvalidConfig("x".into()), "x"),
            (BuildError::CommitQueueTooSmall { commit_queue: 1, cores_per_tile: 4 }, "commit"),
        ] {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }
}
