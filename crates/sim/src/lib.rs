//! A discrete-event simulator of a Swarm-like tiled speculative architecture.
//!
//! This crate is the *substrate* of the reproduction of "Data-Centric
//! Execution of Speculative Parallel Programs" (MICRO 2016). It models the
//! baseline architecture the paper builds on (Swarm, MICRO 2015): a tiled
//! multicore whose task units queue, dispatch and commit timestamped
//! speculative tasks, with eager versioning, eager conflict detection, abort
//! cascades, task spilling and high-throughput ordered commits via a global
//! virtual time (GVT).
//!
//! The scheduler is pluggable through the [`TaskMapper`] trait; the paper's
//! schedulers (Random, work Stealing, spatial Hints and the hint-based load
//! balancer) are implemented in the companion `spatial-hints` crate.
//!
//! Simulations are described through the fluent, validated [`SimBuilder`]
//! (see [`Sim::builder`]); measurements flow out through the
//! [`SimObserver`] event hooks, with a built-in statistics observer
//! producing the [`RunStats`] every figure is built from; after a run,
//! [`Engine::memory`] exposes the final simulated memory.
//!
//! # Example: a tiny ordered program
//!
//! ```
//! use swarm_sim::{InitialTask, RoundRobinMapper, Sim, SwarmApp, TaskCtx};
//! use swarm_types::Hint;
//!
//! /// Sums 0..n by chaining one task per value through simulated memory.
//! struct ChainSum {
//!     n: u64,
//! }
//!
//! impl SwarmApp for ChainSum {
//!     fn name(&self) -> &str {
//!         "chain-sum"
//!     }
//!     fn initial_tasks(&self) -> Vec<InitialTask> {
//!         vec![InitialTask::new(0, 0, Hint::value(0), vec![0])]
//!     }
//!     fn run_task(&self, _fid: u16, ts: u64, args: &[u64], ctx: &mut TaskCtx<'_>) {
//!         let i = args[0];
//!         let acc = ctx.read(0x1000);
//!         ctx.write(0x1000, acc + i);
//!         if i + 1 < self.n {
//!             ctx.enqueue(0, ts + 1, Hint::value(i + 1), &[i + 1]);
//!         }
//!     }
//! }
//!
//! let mut engine = Sim::builder()
//!     .cores(16)
//!     .app(ChainSum { n: 10 })
//!     .mapper(Box::new(RoundRobinMapper::new()))
//!     .build()
//!     .expect("a complete, valid simulation description");
//! let stats = engine.run().unwrap();
//! assert_eq!(stats.tasks_committed, 10);
//! assert_eq!(engine.memory().load(0x1000), 45);
//! ```

#![warn(missing_docs)]

// The engine internals (`arena`, `key_list`, `state`, `task`) are private
// modules whose items are `pub(crate)`, so rustc reports any that go unused.
pub mod app;
mod arena;
pub mod builder;
pub mod conformance;
pub mod engine;
pub mod event_queue;
pub mod fault;
pub mod fuzz;
mod key_list;
pub mod line_table;
pub mod mapper;
pub mod observer;
mod state;
pub mod stats;
mod task;

pub use app::{SwarmApp, TaskCtx};
pub use builder::{BuildError, MapperFactory, Sim, SimBuilder};
pub use engine::{Engine, DEFAULT_TASK_LIMIT};
pub use event_queue::{TimingWheel, WHEEL_SLOTS};
pub use fault::{standard_faults, FaultEvent, FaultKind, FaultParseError, FaultPlan};
pub use line_table::{LineAccessors, LineTable};
pub use mapper::{PinnedMapper, RoundRobinMapper, TaskMapper};
pub use observer::{
    AbortEvent, CommitEvent, CoreWaitEvent, DequeueEvent, FaultInjectedEvent, NetworkEvent,
    SimObserver, SpillDirection, SpillEvent, WaitKind,
};
pub use stats::{CommittedTaskAccesses, CycleBreakdown, RunStats};
pub use task::InitialTask;

#[cfg(test)]
mod tests {
    use super::*;
    use swarm_types::{Hint, SystemConfig};

    /// An unordered (equal-timestamp) counter increment app: `tasks` tasks
    /// each add 1 to a single shared counter. Exercises conflict detection,
    /// aborts and relaxed equal-timestamp commits.
    struct SharedCounter {
        tasks: u64,
    }

    const COUNTER_ADDR: u64 = 0x8000;

    impl SwarmApp for SharedCounter {
        fn name(&self) -> &str {
            "shared-counter"
        }
        fn initial_tasks(&self) -> Vec<InitialTask> {
            (0..self.tasks).map(|i| InitialTask::new(0, 0, Hint::value(7), vec![i])).collect()
        }
        fn run_task(&self, _fid: u16, _ts: u64, _args: &[u64], ctx: &mut TaskCtx<'_>) {
            let v = ctx.read(COUNTER_ADDR);
            ctx.compute(20);
            ctx.write(COUNTER_ADDR, v + 1);
        }
        fn validate(&self, mem: &swarm_mem::SimMemory) -> Result<(), String> {
            let got = mem.load(COUNTER_ADDR);
            if got == self.tasks {
                Ok(())
            } else {
                Err(format!("counter is {got}, expected {}", self.tasks))
            }
        }
    }

    /// Independent tasks each writing their own word; no conflicts possible.
    struct Independent {
        tasks: u64,
    }

    impl SwarmApp for Independent {
        fn name(&self) -> &str {
            "independent"
        }
        fn initial_tasks(&self) -> Vec<InitialTask> {
            (0..self.tasks).map(|i| InitialTask::new(0, i, Hint::value(i), vec![i])).collect()
        }
        fn run_task(&self, _fid: u16, _ts: u64, args: &[u64], ctx: &mut TaskCtx<'_>) {
            let i = args[0];
            ctx.write(0x2_0000 + i * 64, i * 3);
        }
        fn validate(&self, mem: &swarm_mem::SimMemory) -> Result<(), String> {
            for i in 0..self.tasks {
                if mem.load(0x2_0000 + i * 64) != i * 3 {
                    return Err(format!("slot {i} wrong"));
                }
            }
            Ok(())
        }
    }

    /// A parent task that spawns a fan-out of children, each incrementing a
    /// private word; checks parent/child ordering and child enqueue flow.
    struct FanOut {
        children: u64,
    }

    impl SwarmApp for FanOut {
        fn name(&self) -> &str {
            "fan-out"
        }
        fn initial_tasks(&self) -> Vec<InitialTask> {
            vec![InitialTask::new(0, 0, Hint::None, vec![])]
        }
        fn run_task(&self, fid: u16, ts: u64, args: &[u64], ctx: &mut TaskCtx<'_>) {
            match fid {
                0 => {
                    for i in 0..self.children {
                        ctx.enqueue(1, ts + 1 + i, Hint::value(i), &[i]);
                    }
                }
                1 => {
                    let i = args[0];
                    ctx.write(0x3_0000 + i * 8, 1);
                }
                _ => unreachable!("unknown task function"),
            }
        }
        fn num_task_fns(&self) -> usize {
            2
        }
        fn validate(&self, mem: &swarm_mem::SimMemory) -> Result<(), String> {
            for i in 0..self.children {
                if mem.load(0x3_0000 + i * 8) != 1 {
                    return Err(format!("child {i} did not run"));
                }
            }
            Ok(())
        }
    }

    #[test]
    fn ordered_chain_produces_serial_result() {
        // The doctest covers the chain; here we check it on 1 core too.
        struct Chain;
        impl SwarmApp for Chain {
            fn name(&self) -> &str {
                "chain"
            }
            fn initial_tasks(&self) -> Vec<InitialTask> {
                vec![InitialTask::new(0, 0, Hint::value(0), vec![0])]
            }
            fn run_task(&self, _fid: u16, ts: u64, args: &[u64], ctx: &mut TaskCtx<'_>) {
                let i = args[0];
                let acc = ctx.read(0x1000);
                ctx.write(0x1000, acc + i);
                if i + 1 < 20 {
                    ctx.enqueue(0, ts + 1, Hint::value(i + 1), &[i + 1]);
                }
            }
        }
        let mut engine = Sim::builder()
            .config(SystemConfig::single_core())
            .app(Chain)
            .mapper(Box::new(PinnedMapper))
            .build()
            .expect("valid single-core description");
        let stats = engine.run().unwrap();
        assert_eq!(stats.tasks_committed, 20);
        assert_eq!(engine.memory().load(0x1000), (0..20u64).sum());
        assert_eq!(stats.tasks_aborted, 0, "a serial chain never aborts");
    }

    #[test]
    fn conflicting_counter_is_serializable() {
        let mut engine = Sim::builder()
            .config(SystemConfig::with_cores(16))
            .app(SharedCounter { tasks: 64 })
            .mapper(Box::new(RoundRobinMapper::new()))
            .build()
            .expect("valid description");
        let stats = engine.run().expect("validation must pass");
        assert_eq!(stats.tasks_committed, 64);
        // With 16 cores hammering one counter there must be speculation waste.
        assert!(stats.tasks_aborted > 0, "expected aborts under contention");
    }

    #[test]
    fn independent_tasks_do_not_abort() {
        let mut engine = Sim::builder()
            .config(SystemConfig::with_cores(16))
            .app(Independent { tasks: 200 })
            .mapper(Box::new(RoundRobinMapper::new()))
            .build()
            .expect("valid description");
        let stats = engine.run().unwrap();
        assert_eq!(stats.tasks_committed, 200);
        assert_eq!(stats.tasks_aborted, 0);
    }

    #[test]
    fn fan_out_children_all_commit() {
        let mut engine = Sim::builder()
            .config(SystemConfig::with_cores(16))
            .app(FanOut { children: 50 })
            .mapper(Box::new(RoundRobinMapper::new()))
            .build()
            .expect("valid description");
        let stats = engine.run().unwrap();
        assert_eq!(stats.tasks_committed, 51);
    }

    #[test]
    fn more_cores_do_not_change_the_result_but_change_runtime() {
        let run = |cores: u32| {
            let mut engine = Sim::builder()
                .cores(cores)
                .app(Independent { tasks: 400 })
                .mapper(Box::new(RoundRobinMapper::new()))
                .build()
                .expect("valid description");
            engine.run().unwrap()
        };
        let one = run(1);
        let sixteen = run(16);
        assert_eq!(one.tasks_committed, sixteen.tasks_committed);
        assert!(
            sixteen.runtime_cycles < one.runtime_cycles,
            "16 cores ({}) should beat 1 core ({})",
            sixteen.runtime_cycles,
            one.runtime_cycles
        );
    }

    #[test]
    fn breakdown_accounts_all_core_time() {
        let mut engine = Sim::builder()
            .config(SystemConfig::with_cores(16))
            .app(SharedCounter { tasks: 32 })
            .mapper(Box::new(RoundRobinMapper::new()))
            .build()
            .expect("valid description");
        let stats = engine.run().unwrap();
        let total = stats.breakdown.total();
        let wall = stats.runtime_cycles * stats.cores as u64;
        // Committed + aborted + stall + empty (+ spill, which is charged on
        // top) should roughly cover runtime × cores. Allow slack for the
        // execute-at-dispatch approximation and spill cycles being additive.
        assert!(total > 0);
        assert!(
            total <= wall + stats.breakdown.spill + stats.runtime_cycles,
            "breakdown {total} exceeds wall-clock budget {wall}"
        );
    }

    #[test]
    fn timestamp_regression_is_reported() {
        struct Regressing;
        impl SwarmApp for Regressing {
            fn name(&self) -> &str {
                "regressing"
            }
            fn initial_tasks(&self) -> Vec<InitialTask> {
                vec![InitialTask::new(0, 10, Hint::None, vec![])]
            }
            fn run_task(&self, fid: u16, _ts: u64, _args: &[u64], ctx: &mut TaskCtx<'_>) {
                if fid == 0 {
                    // Children may not travel back in time; the engine turns
                    // the panic-free path (enqueue at finish) into an error.
                    ctx.enqueue(1, 10, Hint::None, &[]);
                }
            }
        }
        // Enqueueing at the same timestamp is allowed; regression is checked
        // in TaskCtx::enqueue via an assertion. Here we exercise the legal
        // path and make sure nothing errors.
        let mut engine = Sim::builder()
            .config(SystemConfig::single_core())
            .app(Regressing)
            .mapper(Box::new(PinnedMapper))
            .build()
            .expect("valid single-core description");
        assert!(engine.run().is_ok());
    }

    #[test]
    fn profiling_records_committed_accesses() {
        let mut engine = Sim::builder()
            .config(SystemConfig::with_cores(16))
            .app(Independent { tasks: 10 })
            .mapper(Box::new(RoundRobinMapper::new()))
            .profiling(true)
            .build()
            .expect("valid description");
        let stats = engine.run().unwrap();
        assert_eq!(stats.committed_accesses.len(), 10);
        assert!(stats.committed_accesses.iter().all(|a| !a.accesses.is_empty()));
    }

    #[test]
    fn traffic_is_recorded_on_multi_tile_systems() {
        let mut engine = Sim::builder()
            .config(SystemConfig::with_cores(16))
            .app(Independent { tasks: 100 })
            .mapper(Box::new(RoundRobinMapper::new()))
            .build()
            .expect("valid description");
        let stats = engine.run().unwrap();
        assert!(stats.traffic.total() > 0);
        assert!(stats.gvt_updates > 0);
    }
}
