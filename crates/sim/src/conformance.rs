//! The conformance test-kit for [`SwarmApp`] implementations, with and
//! without injected faults.
//!
//! Every benchmark in this repository — and any future one — must simulate
//! *faithfully*: identical configurations must produce identical results,
//! the final memory state must match the app's serial reference under every
//! scheduler, and the engine's commit/abort accounting must stay coherent.
//! A new app gets the whole battery by adding a single table row (see
//! `tests/conformance.rs` in the workspace root).
//!
//! The kit is scheduler-agnostic: it takes [`MapperFactory`]s rather than
//! depending on the `spatial-hints` crate, so it can also exercise the
//! built-in [`RoundRobinMapper`](crate::RoundRobinMapper)-style mappers and
//! any future scheduling policy.
//!
//! Both entry points run every mapper × core-count combination twice
//! through one guarded run: the configuration is validated before a mapper
//! sizes its tables from it, a panic is caught and reported, a cycle-budget
//! watchdog ([`CheckOptions::max_cycles`]) turns a hang into a typed
//! [`SimError::CycleBudgetExceeded`], and a completed run must leave the
//! speculative line table and the tile idle lists empty.
//!
//! [`check_plan`] asserts the **chaos contract** under a [`FaultPlan`] (see
//! [`crate::fault`]): each combination must either complete cleanly —
//! `validate()` accepts the final memory, the state drained, and the repeat
//! reproduces bit-identical statistics and memory — or fail with a typed
//! [`SimError`] (a lost wake surfaces as [`SimError::Deadlock`]) that the
//! repeat reproduces. It must never panic, hang, or return success with
//! wrong memory. `swarm chaos` and the fault-plan fuzzer loop it over
//! [`crate::standard_faults`] or sampled plans.
//!
//! [`check_app`] is [`check_plan`] with an empty plan, plus:
//!
//! 1. **Validation**: every run completes and `validate()` accepts the
//!    final memory state (a failure names the offending mapper and core
//!    count).
//! 2. **Accounting invariants**: committed work is positive and consistent
//!    with the per-tile ledger, aborted cycles exist iff aborted tasks do,
//!    busy cycles fit in the wall-clock budget, and a single core never
//!    misspeculates unless a task-queue overflow forced tasks to execute
//!    out of commit order.
//! 3. Optionally, **commit-count stability**: the number of committed tasks
//!    is a property of the program, not the schedule (for apps whose task
//!    structure is deterministic across schedules).

use std::panic::{catch_unwind, AssertUnwindSafe};

use swarm_types::{SimError, SystemConfig};

use crate::fault::FaultPlan;
use crate::state::SimState;
use crate::{MapperFactory, RunStats, Sim, SwarmApp};

/// A named scheduler to run the battery under.
pub struct MapperSpec<'a> {
    /// Display name used in failure messages (e.g. `"Hints"`).
    pub name: &'a str,
    /// Builds a fresh, identically-seeded mapper per run.
    pub factory: &'a dyn MapperFactory,
}

/// Knobs for [`check_plan`] and [`check_app`].
pub struct CheckOptions {
    /// Core counts to exercise (must include 1 to get the no-misspeculation
    /// check; the default does).
    pub core_counts: Vec<u32>,
    /// Builds the machine configuration for a given core count. Defaults to
    /// [`SystemConfig::with_cores`]; override it to run the battery under
    /// queue pressure or the contention NoC — every invariant must hold
    /// there too.
    pub config: fn(u32) -> SystemConfig,
    /// Watchdog cycle budget applied to every run (a configuration's own
    /// tighter budget is kept). Must be positive.
    pub max_cycles: u64,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            core_counts: vec![1, 16],
            config: SystemConfig::with_cores,
            max_cycles: 50_000_000,
        }
    }
}

/// How one run ended: both legal shapes of the chaos contract.
#[derive(Debug, PartialEq)]
pub enum Outcome {
    /// The run completed, the app's `validate()` accepted the final memory
    /// (the engine checks it internally), the line table drained and the
    /// idle-task count agrees with the (empty) tile idle lists.
    Completed {
        /// Statistics of the run.
        stats: Box<RunStats>,
        /// Final memory snapshot, sorted by address (for the determinism
        /// comparison).
        mem: Vec<(u64, u64)>,
    },
    /// The run failed with a typed simulator error.
    Failed(SimError),
}

/// One mapper × core-count combination and its (repeatable) outcome.
#[derive(Debug)]
pub struct Combo {
    /// Mapper name.
    pub mapper: String,
    /// Simulated core count.
    pub cores: u32,
    /// What happened, identically on both runs.
    pub outcome: Outcome,
}

/// Assert the chaos contract for one whole [`FaultPlan`] over every
/// mapper × core count: run each combination twice and require an
/// identical, panic-free, typed-or-validated outcome both times.
///
/// `make_app` must build an identical application each time it is called
/// (same workload, same seed); a generator that varies across calls is
/// reported as a determinism failure.
///
/// # Errors
///
/// Returns a description of the first contract violation — an unbuildable
/// machine, a panic, a nondeterministic outcome, or a completed run that
/// left speculative state behind — naming the app, mapper, core count and
/// (if any) plan.
pub fn check_plan(
    make_app: &dyn Fn() -> Box<dyn SwarmApp>,
    mappers: &[MapperSpec<'_>],
    plan: &FaultPlan,
    opts: &CheckOptions,
) -> Result<Vec<Combo>, String> {
    assert!(!mappers.is_empty(), "need at least one mapper");
    assert!(!opts.core_counts.is_empty(), "need at least one core count");
    assert!(opts.max_cycles > 0, "the watchdog budget must be positive");
    let mut combos = Vec::new();
    for mapper in mappers {
        for &cores in &opts.core_counts {
            let first = run_guarded(make_app, mapper, cores, plan, opts)?;
            let second = run_guarded(make_app, mapper, cores, plan, opts)?;
            if first != second {
                return Err(format!(
                    "{}: identical runs produced different outcomes ({} vs {})",
                    at(make_app().name(), mapper.name, cores, plan),
                    describe(&first),
                    describe(&second),
                ));
            }
            combos.push(Combo { mapper: mapper.name.to_string(), cores, outcome: first });
        }
    }
    Ok(combos)
}

/// Run the fault-free conformance battery over `make_app`: [`check_plan`]
/// with an empty plan, then require every combination to have completed
/// with coherent accounting. With `stable_commit_count`, committed task
/// counts must also be identical across every mapper and core count —
/// true for apps whose committed task structure is schedule-independent
/// (fixed task graphs, or ordered programs with distinct timestamps); leave
/// it false for apps like coarse-grain `sssp`, where equal-timestamp ties
/// decide whether a redundant relaxation spawns and commits.
///
/// # Errors
///
/// Returns a description of the first violated property, naming the app,
/// mapper and core count.
pub fn check_app(
    make_app: &dyn Fn() -> Box<dyn SwarmApp>,
    mappers: &[MapperSpec<'_>],
    opts: &CheckOptions,
    stable_commit_count: bool,
) -> Result<Vec<Combo>, String> {
    let plan = FaultPlan::new();
    let combos = check_plan(make_app, mappers, &plan, opts)?;
    let mut first: Option<(&Combo, &RunStats)> = None;
    for combo in &combos {
        let stats: &RunStats = match &combo.outcome {
            Outcome::Completed { stats, .. } => stats,
            Outcome::Failed(e) => {
                let here = at(make_app().name(), &combo.mapper, combo.cores, &plan);
                return Err(format!("{here} failed: {e}"));
            }
        };
        let here = at(&stats.app, &combo.mapper, combo.cores, &plan);
        check_accounting(stats).map_err(|e| format!("{here}: {e}"))?;
        let (base, base_stats) = *first.get_or_insert((combo, stats));
        if stable_commit_count && stats.tasks_committed != base_stats.tasks_committed {
            return Err(format!(
                "{here}: committed {} tasks, but {} under {} at {} cores \
                 — commit counts must be schedule-independent",
                stats.tasks_committed, base_stats.tasks_committed, base.mapper, base.cores,
            ));
        }
    }
    Ok(combos)
}

/// `"<app> under <mapper> at <n> cores[ with plan [<plan>]]"`, the prefix
/// of every violation message.
fn at(app: &str, mapper: &str, cores: u32, plan: &FaultPlan) -> String {
    let mut s = format!("{app} under {mapper} at {cores} cores");
    if !plan.is_empty() {
        s.push_str(&format!(" with plan [{plan}]"));
    }
    s
}

/// One simulation under a panic guard and a cycle-budget watchdog.
fn run_guarded(
    make_app: &dyn Fn() -> Box<dyn SwarmApp>,
    mapper: &MapperSpec<'_>,
    cores: u32,
    plan: &FaultPlan,
    opts: &CheckOptions,
) -> Result<Outcome, String> {
    let mut cfg = (opts.config)(cores);
    if cfg.max_cycles == 0 || cfg.max_cycles > opts.max_cycles {
        cfg.max_cycles = opts.max_cycles;
    }
    let app = make_app();
    let here = at(app.name(), mapper.name, cores, plan);
    // Mappers size their tables from the config: validate before building one.
    cfg.validate().map_err(|e| format!("{here}: invalid simulation: {e}"))?;
    let guarded = catch_unwind(AssertUnwindSafe(move || {
        let mapper_impl = mapper.factory.build_mapper(&cfg);
        let mut engine = Sim::builder()
            .config(cfg)
            .app_boxed(app)
            .mapper(mapper_impl)
            .fault_plan(plan.clone())
            .build()
            .map_err(|e| format!("invalid simulation: {e}"))?;
        match engine.run() {
            Ok(stats) => {
                if let Some(violation) = drained_state_violation(engine.state()) {
                    return Err(format!("run completed but {violation}"));
                }
                let mem: Vec<(u64, u64)> = engine.state().mem.iter().collect();
                Ok(Outcome::Completed { stats: Box::new(stats), mem })
            }
            Err(e) => Ok(Outcome::Failed(e)),
        }
    }));
    match guarded {
        Ok(Ok(outcome)) => Ok(outcome),
        Ok(Err(violation)) => Err(format!("{here}: {violation}")),
        Err(payload) => Err(format!("{here}: panicked: {}", panic_message(payload.as_ref()))),
    }
}

/// What a completed run must leave behind: an empty speculative line table,
/// and an idle-task count that agrees with the tile idle lists, all empty.
/// Returns a description of the first violation.
fn drained_state_violation(state: &SimState) -> Option<String> {
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

/// A one-line rendering of an outcome for violation messages.
fn describe(outcome: &Outcome) -> String {
    match outcome {
        Outcome::Completed { stats, .. } => {
            format!("completed in {} cycles", stats.runtime_cycles)
        }
        Outcome::Failed(e) => format!("failed: {e}"),
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
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
    use crate::fault::{standard_faults, FaultEvent, FaultKind};
    use crate::{InitialTask, RoundRobinMapper, TaskCtx, TaskMapper};
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
                ctx.enqueue(0, ts + 1, Hint::value(i + 1), &[i + 1]);
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

    fn round_robin(_: &SystemConfig) -> Box<dyn TaskMapper> {
        Box::new(RoundRobinMapper::new())
    }

    const ROUND_ROBIN: [MapperSpec<'static>; 1] =
        [MapperSpec { name: "RoundRobin", factory: &round_robin }];

    fn cores(core_counts: &[u32]) -> CheckOptions {
        CheckOptions { core_counts: core_counts.to_vec(), ..CheckOptions::default() }
    }

    #[test]
    fn well_behaved_app_passes() {
        let combos = check_app(
            &|| Box::new(ChainSum { n: 24 }),
            &ROUND_ROBIN,
            &CheckOptions::default(),
            true,
        )
        .expect("chain conforms");
        assert_eq!(combos.len(), 2);
        assert!(combos.iter().all(|c| matches!(
            &c.outcome,
            Outcome::Completed { stats, .. } if stats.tasks_committed == 24
        )));
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
        let err =
            check_app(&|| Box::new(BadValidate), &ROUND_ROBIN, &CheckOptions::default(), false)
                .unwrap_err();
        assert!(err.contains("bad-validate"), "{err}");
        assert!(err.contains("deliberately wrong"), "{err}");
    }

    #[test]
    fn nondeterministic_workload_generation_is_caught() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static CALLS: AtomicU64 = AtomicU64::new(0);
        // Each build produces a different chain length, so the repeat run
        // must diverge from the first.
        let make = || -> Box<dyn SwarmApp> {
            let n = 10 + CALLS.fetch_add(1, Ordering::Relaxed) % 7;
            Box::new(ChainSum { n: 10 + n })
        };
        let err = check_app(&make, &ROUND_ROBIN, &CheckOptions::default(), false).unwrap_err();
        assert!(err.contains("different"), "{err}");
    }

    #[test]
    fn standard_faults_all_satisfy_the_chaos_contract() {
        let make = || -> Box<dyn SwarmApp> { Box::new(ChainSum { n: 40 }) };
        let mut completed = 0;
        for fault in standard_faults(100) {
            let combos = check_plan(&make, &ROUND_ROBIN, &FaultPlan::from(fault), &cores(&[1, 4]))
                .expect("chaos contract must hold");
            assert_eq!(combos.len(), 2);
            completed +=
                combos.iter().filter(|c| matches!(c.outcome, Outcome::Completed { .. })).count();
            // A lost wake must surface as a typed error.
            if matches!(fault.kind, FaultKind::LostTaskWake { .. }) {
                assert!(
                    matches!(combos[0].outcome, Outcome::Failed(SimError::Deadlock { .. })),
                    "lost wake must be a typed deadlock, got {:?}",
                    combos[0].outcome
                );
            }
        }
        // Benign faults complete.
        assert!(completed > 0, "no faulted run completed");
    }

    #[test]
    fn a_panicking_app_is_reported_as_a_contract_violation() {
        struct Exploding;
        impl SwarmApp for Exploding {
            fn name(&self) -> &str {
                "exploding"
            }
            fn initial_tasks(&self) -> Vec<InitialTask> {
                vec![InitialTask::new(0, 0, Hint::None, vec![])]
            }
            fn run_task(&self, _f: u16, _t: u64, _a: &[u64], _ctx: &mut TaskCtx<'_>) {
                panic!("deliberate test explosion");
            }
        }
        let plan = FaultPlan::from(FaultEvent { at_cycle: 10, kind: FaultKind::AbortStorm });
        let err =
            check_plan(&|| Box::new(Exploding), &ROUND_ROBIN, &plan, &cores(&[1])).unwrap_err();
        assert!(err.contains("panicked"), "{err}");
        assert!(err.contains("deliberate test explosion"), "{err}");
        assert!(err.contains("exploding"), "{err}");
    }

    #[test]
    fn the_watchdog_budget_converts_hangs_into_typed_errors() {
        /// Endless self-rescheduling chain: no fault needed to livelock, but
        /// the battery's watchdog must still turn it into a typed outcome.
        struct Endless;
        impl SwarmApp for Endless {
            fn name(&self) -> &str {
                "endless"
            }
            fn initial_tasks(&self) -> Vec<InitialTask> {
                vec![InitialTask::new(0, 0, Hint::None, vec![])]
            }
            fn run_task(&self, _f: u16, ts: u64, _a: &[u64], ctx: &mut TaskCtx<'_>) {
                ctx.write(0x1000, ts);
                ctx.enqueue(0, ts + 1, Hint::None, &[]);
            }
        }
        let plan = FaultPlan::from(FaultEvent { at_cycle: 50, kind: FaultKind::DuplicateMessage });
        let opts = CheckOptions { max_cycles: 20_000, ..cores(&[1]) };
        let combos = check_plan(&|| Box::new(Endless), &ROUND_ROBIN, &plan, &opts)
            .expect("a budgeted livelock is a legal typed outcome");
        assert!(
            matches!(
                combos[0].outcome,
                Outcome::Failed(SimError::CycleBudgetExceeded { .. })
                    | Outcome::Failed(SimError::TaskLimitExceeded(_))
            ),
            "expected a budget or task-limit trip, got {:?}",
            combos[0].outcome
        );
    }
}
