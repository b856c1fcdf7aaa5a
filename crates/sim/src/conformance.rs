//! A conformance test-kit for [`SwarmApp`] implementations.
//!
//! Every benchmark in this repository — and any future one — must simulate
//! *faithfully*: identical configurations must produce identical results,
//! the final memory state must match the app's serial reference under every
//! scheduler, and the engine's commit/abort accounting must stay coherent.
//! Those properties used to be asserted ad hoc, app by app, across the
//! integration suites; this module packages them as one reusable checker so
//! a new app gets the full battery by adding a single table row (see
//! `tests/conformance.rs` in the workspace root).
//!
//! The kit is scheduler-agnostic: it takes mapper *factories* rather than
//! depending on the `spatial-hints` crate, so it can also exercise the
//! built-in [`RoundRobinMapper`](crate::RoundRobinMapper)-style mappers and
//! any future scheduling policy.
//!
//! What [`check_app`] verifies, for every mapper × core-count combination:
//!
//! 1. **Validation**: the run completes and `validate()` accepts the final
//!    memory state (the engine calls it internally; any failure is surfaced
//!    with the offending mapper and core count).
//! 2. **Determinism**: repeated runs of the identical configuration produce
//!    bit-identical statistics *and* bit-identical final memory.
//! 3. **Accounting invariants**: committed work is positive and consistent
//!    with the per-tile ledger, aborted cycles exist iff aborted tasks do,
//!    busy cycles fit in the wall-clock budget, the speculative line table
//!    drains to empty, the engine's idle-task count agrees with the tile
//!    idle lists (both empty), and a single core never misspeculates unless a
//!    task-queue overflow forced tasks to execute out of commit order.
//! 4. Optionally, **commit-count stability**: the number of committed tasks
//!    is a property of the program, not the schedule (enable via
//!    [`ConformanceOptions::stable_commit_count`] for apps whose task
//!    structure is deterministic across schedules).

use swarm_types::SystemConfig;

use crate::{RunStats, Sim, SimState, SwarmApp, TaskMapper};

/// A named way of building a scheduler for a given machine configuration.
pub struct MapperSpec<'a> {
    /// Display name used in failure messages (e.g. `"Hints"`).
    pub name: &'a str,
    /// Factory producing a fresh, identically-seeded mapper per run.
    #[allow(clippy::type_complexity)]
    pub build: &'a dyn Fn(&SystemConfig) -> Box<dyn TaskMapper>,
}

/// Knobs for [`check_app`].
pub struct ConformanceOptions {
    /// Core counts to exercise (must include 1 to get the no-misspeculation
    /// check; the default does).
    pub core_counts: Vec<u32>,
    /// Times to run each configuration; the determinism check compares
    /// every repeat against the first, so [`check_app`] rejects values
    /// below 2.
    pub repeats: usize,
    /// Whether committed task counts must be identical across every mapper
    /// and core count. True for apps whose committed task structure is
    /// schedule-independent (fixed task graphs, or ordered programs with
    /// distinct timestamps); leave false for apps like coarse-grain `sssp`,
    /// where equal-timestamp ties decide whether a redundant relaxation
    /// spawns and commits.
    pub stable_commit_count: bool,
    /// Builds the machine configuration for a given core count. Defaults to
    /// [`SystemConfig::with_cores`]; override it to run the battery under
    /// queue pressure (tiny task/commit queues, aggressive spill thresholds)
    /// — every invariant above must hold there too.
    pub config: fn(u32) -> SystemConfig,
}

impl Default for ConformanceOptions {
    fn default() -> Self {
        ConformanceOptions {
            core_counts: vec![1, 16],
            repeats: 2,
            stable_commit_count: false,
            config: SystemConfig::with_cores,
        }
    }
}

/// Statistics of the first run of each mapper × core-count combination.
#[derive(Debug)]
pub struct ComboResult {
    /// Mapper name.
    pub mapper: String,
    /// Simulated core count.
    pub cores: u32,
    /// The (deterministic) run statistics.
    pub stats: RunStats,
}

/// What [`check_app`] returns on success.
#[derive(Debug)]
pub struct ConformanceReport {
    /// One entry per mapper × core-count combination, in check order.
    pub combos: Vec<ComboResult>,
    /// Total simulations executed (combos × repeats).
    pub runs: usize,
}

/// Run the full conformance battery over `make_app`.
///
/// `make_app` must build an identical application each time it is called
/// (same workload, same seed) — the determinism check is meaningless
/// otherwise, and a generator that varies across calls is reported as a
/// determinism failure.
///
/// # Errors
///
/// Returns a description of the first violated property, naming the app,
/// mapper and core count.
pub fn check_app(
    make_app: &dyn Fn() -> Box<dyn SwarmApp>,
    mappers: &[MapperSpec<'_>],
    opts: &ConformanceOptions,
) -> Result<ConformanceReport, String> {
    assert!(!mappers.is_empty(), "need at least one mapper");
    assert!(!opts.core_counts.is_empty(), "need at least one core count");
    assert!(opts.repeats >= 2, "the determinism check needs at least two runs per configuration");
    let mut combos = Vec::new();
    let mut runs = 0;
    for mapper in mappers {
        for &cores in &opts.core_counts {
            let (first_stats, first_mem) = run_once(make_app, mapper, cores, opts.config)?;
            runs += 1;
            let at = || format!("{} under {} at {cores} cores", first_stats.app, mapper.name);
            for repeat in 1..opts.repeats {
                let (stats, mem) = run_once(make_app, mapper, cores, opts.config)?;
                runs += 1;
                if stats != first_stats {
                    return Err(format!("{}: repeat {repeat} produced different statistics", at()));
                }
                if mem != first_mem {
                    return Err(format!(
                        "{}: repeat {repeat} produced a different final memory state",
                        at()
                    ));
                }
            }
            check_accounting(&first_stats).map_err(|e| format!("{}: {e}", at()))?;
            combos.push(ComboResult { mapper: mapper.name.to_string(), cores, stats: first_stats });
        }
    }
    if opts.stable_commit_count {
        let expected = combos[0].stats.tasks_committed;
        for combo in &combos {
            if combo.stats.tasks_committed != expected {
                return Err(format!(
                    "{}: committed {} tasks under {} at {} cores, but {} under {} at {} cores \
                     — commit counts must be schedule-independent",
                    combo.stats.app,
                    combo.stats.tasks_committed,
                    combo.mapper,
                    combo.cores,
                    expected,
                    combos[0].mapper,
                    combos[0].cores,
                ));
            }
        }
    }
    Ok(ConformanceReport { combos, runs })
}

/// One simulation plus a snapshot of the final memory (sorted by address).
#[allow(clippy::type_complexity)]
fn run_once(
    make_app: &dyn Fn() -> Box<dyn SwarmApp>,
    mapper: &MapperSpec<'_>,
    cores: u32,
    config: fn(u32) -> SystemConfig,
) -> Result<(RunStats, Vec<(u64, u64)>), String> {
    let cfg = config(cores);
    let app = make_app();
    let name = app.name().to_string();
    let invalid = |e: String| {
        format!("{name} under {} at {cores} cores: invalid simulation: {e}", mapper.name)
    };
    // Mappers size their tables from the config: validate before building one.
    cfg.validate().map_err(invalid)?;
    let mapper_impl = (mapper.build)(&cfg);
    let mut engine = Sim::builder()
        .config(cfg)
        .app_boxed(app)
        .mapper(mapper_impl)
        .build()
        .map_err(|e| invalid(e.to_string()))?;
    let stats = engine
        .run()
        .map_err(|e| format!("{name} under {} at {cores} cores failed: {e}", mapper.name))?;
    if let Some(violation) = drained_state_violation(engine.state()) {
        return Err(format!("{name} under {} at {cores} cores {violation}", mapper.name));
    }
    let mem: Vec<(u64, u64)> = engine.state().mem.iter().collect();
    Ok((stats, mem))
}

/// What a completed run must leave behind: an empty speculative line table,
/// and an idle-task count that agrees with the tile idle lists, all empty.
/// Returns a description of the first violation.
pub(crate) fn drained_state_violation(state: &SimState) -> Option<String> {
    if !state.line_table.is_empty() {
        return Some(format!(
            "left {} lines registered in the speculative line table after completion",
            state.line_table.len()
        ));
    }
    let listed: usize = state.tiles.iter().map(|t| t.idle.len()).sum();
    let counted = state.idle_task_count();
    if counted != listed || listed != 0 {
        return Some(format!(
            "ended with an idle-task count of {counted} while the tile idle lists hold \
             {listed} tasks (both must be 0)"
        ));
    }
    None
}

/// The per-run commit/abort accounting invariants.
fn check_accounting(stats: &RunStats) -> Result<(), String> {
    if stats.tasks_committed == 0 {
        return Err("no tasks committed".to_string());
    }
    if stats.runtime_cycles == 0 {
        return Err("zero runtime".to_string());
    }
    if stats.gvt_updates == 0 {
        return Err("the GVT never updated".to_string());
    }
    let per_tile: u64 = stats.committed_cycles_per_tile.iter().sum();
    if per_tile != stats.breakdown.committed {
        return Err(format!(
            "per-tile committed cycles ({per_tile}) disagree with the aggregate breakdown ({})",
            stats.breakdown.committed
        ));
    }
    if (stats.tasks_aborted == 0) != (stats.breakdown.aborted == 0) {
        return Err(format!(
            "{} aborted executions but {} aborted cycles",
            stats.tasks_aborted, stats.breakdown.aborted
        ));
    }
    let wall = stats.runtime_cycles * stats.cores as u64;
    if stats.breakdown.committed + stats.breakdown.aborted > wall {
        return Err(format!(
            "busy cycles ({} committed + {} aborted) exceed the wall-clock budget ({wall})",
            stats.breakdown.committed, stats.breakdown.aborted
        ));
    }
    // Spill cycles are charged on top of core time, so the full breakdown may
    // exceed the wall clock by at most that plus one epoch of slack.
    if stats.breakdown.total() > wall + stats.breakdown.spill + stats.runtime_cycles {
        return Err(format!(
            "cycle breakdown ({}) exceeds the wall-clock budget ({wall}) by more than the \
             spill allowance",
            stats.breakdown.total()
        ));
    }
    // A single core dispatches in commit-key order, so it can only
    // misspeculate when a task-queue overflow spilled an early task and let
    // a later one run first; with no spills there is no legal abort source.
    if stats.cores == 1 && stats.tasks_spilled == 0 && stats.tasks_aborted != 0 {
        return Err(format!(
            "{} executions aborted on a single core without any task spills",
            stats.tasks_aborted
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InitialTask, RoundRobinMapper, SwarmApp, TaskCtx};
    use swarm_types::Hint;

    /// The well-behaved reference citizen: ordered chain summing 0..n.
    struct ChainSum {
        n: u64,
    }

    impl SwarmApp for ChainSum {
        fn name(&self) -> &str {
            "chain-sum"
        }
        fn initial_tasks(&self) -> Vec<InitialTask> {
            vec![InitialTask::new(0, 0, Hint::value(0), vec![0])]
        }
        fn run_task(&self, _fid: u16, ts: u64, args: &[u64], ctx: &mut TaskCtx<'_>) {
            let i = args[0];
            let acc = ctx.read(0x1000);
            ctx.write(0x1000, acc + i);
            if i + 1 < self.n {
                ctx.enqueue(0, ts + 1, Hint::value(i + 1), vec![i + 1]);
            }
        }
        fn validate(&self, mem: &swarm_mem::SimMemory) -> Result<(), String> {
            let want: u64 = (0..self.n).sum();
            if mem.load(0x1000) == want {
                Ok(())
            } else {
                Err(format!("sum is {}, want {want}", mem.load(0x1000)))
            }
        }
    }

    fn round_robin_mappers() -> [&'static str; 1] {
        ["RoundRobin"]
    }

    fn check(
        make_app: &dyn Fn() -> Box<dyn SwarmApp>,
        opts: &ConformanceOptions,
    ) -> Result<ConformanceReport, String> {
        let build = |_: &SystemConfig| -> Box<dyn TaskMapper> { Box::new(RoundRobinMapper::new()) };
        let mappers = [MapperSpec { name: round_robin_mappers()[0], build: &build }];
        check_app(make_app, &mappers, opts)
    }

    #[test]
    fn well_behaved_app_passes() {
        let opts =
            ConformanceOptions { stable_commit_count: true, ..ConformanceOptions::default() };
        let report = check(&|| Box::new(ChainSum { n: 24 }), &opts).expect("chain conforms");
        assert_eq!(report.combos.len(), 2);
        assert_eq!(report.runs, 4);
        assert!(report.combos.iter().all(|c| c.stats.tasks_committed == 24));
    }

    #[test]
    fn validation_failures_are_surfaced_with_context() {
        struct BadValidate;
        impl SwarmApp for BadValidate {
            fn name(&self) -> &str {
                "bad-validate"
            }
            fn initial_tasks(&self) -> Vec<InitialTask> {
                vec![InitialTask::new(0, 0, Hint::None, vec![])]
            }
            fn run_task(&self, _f: u16, _t: u64, _a: &[u64], ctx: &mut TaskCtx<'_>) {
                ctx.write(0x10, 1);
            }
            fn validate(&self, _mem: &swarm_mem::SimMemory) -> Result<(), String> {
                Err("deliberately wrong".to_string())
            }
        }
        let err = check(&|| Box::new(BadValidate), &ConformanceOptions::default()).unwrap_err();
        assert!(err.contains("bad-validate"), "{err}");
        assert!(err.contains("deliberately wrong"), "{err}");
    }

    #[test]
    fn nondeterministic_workload_generation_is_caught() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static CALLS: AtomicU64 = AtomicU64::new(0);
        // Each build produces a different chain length, so the repeat run
        // must diverge from the first.
        let make: Box<dyn Fn() -> Box<dyn SwarmApp>> = Box::new(|| {
            let n = 10 + CALLS.fetch_add(1, Ordering::Relaxed) % 7;
            Box::new(ChainSum { n: 10 + n })
        });
        let err = check(&make, &ConformanceOptions::default()).unwrap_err();
        assert!(err.contains("different"), "{err}");
    }
}
