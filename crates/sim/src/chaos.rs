//! A chaos conformance battery: fault injection must never produce a hang,
//! a panic, or a silently-wrong answer.
//!
//! The [`crate::fault`] module can wedge queues, lose wakes, stall cores and
//! corrupt hints — and the engine's contract under all of that is narrow and
//! checkable: a faulted run must either
//!
//! 1. **complete cleanly** — `validate()` accepts the final memory, the
//!    speculative line table drains, and repeating the identical faulted run
//!    reproduces bit-identical statistics and memory; or
//! 2. **fail with a typed [`SimError`]** — e.g. a lost wake surfaces as
//!    [`SimError::Deadlock`], a livelock as a budget overrun — and the *same*
//!    error reproduces on a repeat run.
//!
//! What it must never do is panic, hang (every battery run carries a
//! cycle budget as a watchdog), or return success with wrong memory.
//!
//! [`check_chaos`] packages that contract as a reusable checker in the style
//! of [`crate::conformance::check_app`]: hand it an app factory, a set of
//! mapper specs and a fault list, and it asserts the contract for every
//! mapper × core-count × fault combination, twice each. The `swarm chaos`
//! subcommand and the workspace `chaos` integration suite are thin wrappers
//! around this function.

use std::panic::{catch_unwind, AssertUnwindSafe};

use swarm_types::{SimError, SystemConfig};

use crate::conformance::{drained_state_violation, MapperSpec};
use crate::fault::{FaultEvent, FaultPlan};
use crate::{RunStats, Sim, SwarmApp};

/// Knobs for [`check_chaos`].
pub struct ChaosOptions {
    /// Core counts to exercise.
    pub core_counts: Vec<u32>,
    /// Builds the machine configuration for a given core count (defaults to
    /// [`SystemConfig::with_cores`]).
    pub config: fn(u32) -> SystemConfig,
    /// Watchdog cycle budget applied to every battery run, so a fault that
    /// would otherwise hang the simulation surfaces as a typed
    /// [`SimError::CycleBudgetExceeded`] instead. Must be positive.
    pub max_cycles: u64,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            core_counts: vec![1, 16],
            config: SystemConfig::with_cores,
            max_cycles: 50_000_000,
        }
    }
}

/// How one faulted run ended (both legal shapes of the chaos contract).
#[derive(Debug, PartialEq)]
pub enum ChaosOutcome {
    /// The run completed, the app's `validate()` accepted the final memory
    /// (the engine checks it internally), the line table drained and the
    /// idle-task count agrees with the (empty) tile idle lists.
    Completed {
        /// Statistics of the faulted run.
        stats: Box<RunStats>,
        /// Final memory snapshot, sorted by address (for the determinism
        /// comparison).
        mem: Vec<(u64, u64)>,
    },
    /// The run failed with a typed simulator error.
    Failed(SimError),
}

/// One mapper × core-count × fault combination, with its (repeatable)
/// outcome.
#[derive(Debug)]
pub struct ChaosCombo {
    /// Mapper name.
    pub mapper: String,
    /// Simulated core count.
    pub cores: u32,
    /// The injected fault.
    pub fault: FaultEvent,
    /// What happened, identically on both runs.
    pub outcome: ChaosOutcome,
}

/// What [`check_chaos`] returns on success.
#[derive(Debug)]
pub struct ChaosReport {
    /// One entry per mapper × core-count × fault combination, in check
    /// order.
    pub combos: Vec<ChaosCombo>,
    /// Total simulations executed (combos × 2).
    pub runs: usize,
}

impl ChaosReport {
    /// How many combinations completed cleanly despite the fault.
    pub fn completed(&self) -> usize {
        self.combos.iter().filter(|c| matches!(c.outcome, ChaosOutcome::Completed { .. })).count()
    }

    /// How many combinations failed with a typed error.
    pub fn failed(&self) -> usize {
        self.combos.len() - self.completed()
    }
}

/// Run the chaos battery over `make_app`.
///
/// `make_app` must build an identical application each time it is called,
/// exactly as for [`crate::conformance::check_app`].
///
/// # Errors
///
/// Returns a description of the first contract violation — a panic, a
/// nondeterministic outcome, or a completed run that leaked speculative
/// lines — naming the app, mapper, core count and fault.
pub fn check_chaos(
    make_app: &dyn Fn() -> Box<dyn SwarmApp>,
    mappers: &[MapperSpec<'_>],
    faults: &[FaultEvent],
    opts: &ChaosOptions,
) -> Result<ChaosReport, String> {
    assert!(!mappers.is_empty(), "need at least one mapper");
    assert!(!opts.core_counts.is_empty(), "need at least one core count");
    assert!(!faults.is_empty(), "need at least one fault");
    assert!(opts.max_cycles > 0, "the watchdog budget must be positive");
    let mut combos = Vec::new();
    let mut runs = 0;
    for mapper in mappers {
        for &cores in &opts.core_counts {
            for &fault in faults {
                let plan = FaultPlan::from(fault);
                let first = run_planned(make_app, mapper, cores, &plan, opts)?;
                let second = run_planned(make_app, mapper, cores, &plan, opts)?;
                runs += 2;
                if first != second {
                    return Err(format!(
                        "{} under {} at {cores} cores with fault {fault}: outcome is not \
                         deterministic across identical runs ({} vs {})",
                        app_name(make_app),
                        mapper.name,
                        describe(&first),
                        describe(&second),
                    ));
                }
                combos.push(ChaosCombo {
                    mapper: mapper.name.to_string(),
                    cores,
                    fault,
                    outcome: first,
                });
            }
        }
    }
    Ok(ChaosReport { combos, runs })
}

/// Outcomes of [`check_plan`], one per mapper × core count.
#[derive(Debug)]
pub struct PlanCombo {
    /// Mapper name.
    pub mapper: String,
    /// Simulated core count.
    pub cores: u32,
    /// What happened, identically on both runs.
    pub outcome: ChaosOutcome,
}

/// Assert the chaos contract for one whole [`FaultPlan`] (possibly many
/// events) over every mapper × core count: run each combination twice and
/// require an identical, panic-free, typed-or-validated outcome both times.
/// This is the entry point the fault-plan fuzzer drives with *sampled*
/// plans; [`check_chaos`] sweeps it one curated fault at a time.
///
/// # Errors
///
/// Returns a description of the first contract violation, as for
/// [`check_chaos`].
pub fn check_plan(
    make_app: &dyn Fn() -> Box<dyn SwarmApp>,
    mappers: &[MapperSpec<'_>],
    plan: &FaultPlan,
    opts: &ChaosOptions,
) -> Result<Vec<PlanCombo>, String> {
    assert!(!mappers.is_empty(), "need at least one mapper");
    assert!(!opts.core_counts.is_empty(), "need at least one core count");
    assert!(opts.max_cycles > 0, "the watchdog budget must be positive");
    let mut combos = Vec::new();
    for mapper in mappers {
        for &cores in &opts.core_counts {
            let first = run_planned(make_app, mapper, cores, plan, opts)?;
            let second = run_planned(make_app, mapper, cores, plan, opts)?;
            if first != second {
                return Err(format!(
                    "{} under {} at {cores} cores with plan [{plan}]: outcome is not \
                     deterministic across identical runs ({} vs {})",
                    app_name(make_app),
                    mapper.name,
                    describe(&first),
                    describe(&second),
                ));
            }
            combos.push(PlanCombo { mapper: mapper.name.to_string(), cores, outcome: first });
        }
    }
    Ok(combos)
}

/// One planned simulation under a panic guard and a cycle-budget watchdog.
fn run_planned(
    make_app: &dyn Fn() -> Box<dyn SwarmApp>,
    mapper: &MapperSpec<'_>,
    cores: u32,
    plan: &FaultPlan,
    opts: &ChaosOptions,
) -> Result<ChaosOutcome, String> {
    let mut cfg = (opts.config)(cores);
    if cfg.max_cycles == 0 || cfg.max_cycles > opts.max_cycles {
        cfg.max_cycles = opts.max_cycles;
    }
    let app = make_app();
    let name = app.name().to_string();
    let at = || format!("{name} under {} at {cores} cores with plan [{plan}]", mapper.name);
    cfg.validate().map_err(|e| format!("{}: invalid simulation: {e}", at()))?;
    let mapper_impl = (mapper.build)(&cfg);
    let plan = plan.clone();
    let guarded = catch_unwind(AssertUnwindSafe(move || {
        let mut engine = Sim::builder()
            .config(cfg)
            .app_boxed(app)
            .mapper(mapper_impl)
            .fault_plan(plan)
            .build()
            .map_err(|e| format!("invalid simulation: {e}"))?;
        match engine.run() {
            Ok(stats) => {
                if let Some(violation) = drained_state_violation(engine.state()) {
                    return Err(format!("run completed but {violation}"));
                }
                let mem: Vec<(u64, u64)> = engine.state().mem.iter().collect();
                Ok(ChaosOutcome::Completed { stats: Box::new(stats), mem })
            }
            Err(e) => Ok(ChaosOutcome::Failed(e)),
        }
    }));
    match guarded {
        Ok(Ok(outcome)) => Ok(outcome),
        Ok(Err(violation)) => Err(format!("{}: {violation}", at())),
        Err(payload) => Err(format!("{}: panicked: {}", at(), panic_message(payload.as_ref()))),
    }
}

/// The app's name, for violation messages (built once, thrown away).
fn app_name(make_app: &dyn Fn() -> Box<dyn SwarmApp>) -> String {
    make_app().name().to_string()
}

/// A one-line rendering of an outcome for violation messages.
fn describe(outcome: &ChaosOutcome) -> String {
    match outcome {
        ChaosOutcome::Completed { stats, .. } => {
            format!("completed in {} cycles", stats.runtime_cycles)
        }
        ChaosOutcome::Failed(e) => format!("failed: {e}"),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{standard_faults, FaultKind};
    use crate::{InitialTask, RoundRobinMapper, TaskCtx, TaskMapper};
    use swarm_types::Hint;

    /// Ordered chain summing 0..n — the well-behaved battery subject.
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

    fn round_robin_spec(build: &dyn Fn(&SystemConfig) -> Box<dyn TaskMapper>) -> MapperSpec<'_> {
        MapperSpec { name: "RoundRobin", build }
    }

    #[test]
    fn standard_faults_all_satisfy_the_chaos_contract() {
        let build = |_: &SystemConfig| -> Box<dyn TaskMapper> { Box::new(RoundRobinMapper::new()) };
        let mappers = [round_robin_spec(&build)];
        let faults = standard_faults(100);
        let opts = ChaosOptions { core_counts: vec![1, 4], ..ChaosOptions::default() };
        let report = check_chaos(&|| Box::new(ChainSum { n: 40 }), &mappers, &faults, &opts)
            .expect("chaos contract must hold");
        assert_eq!(report.combos.len(), 2 * faults.len());
        assert_eq!(report.runs, 4 * faults.len());
        // Benign faults complete; a lost wake must surface as a typed error.
        assert!(report.completed() > 0, "no faulted run completed");
        let lost = report
            .combos
            .iter()
            .find(|c| matches!(c.fault.kind, FaultKind::LostTaskWake { .. }))
            .expect("battery covers the lost-wake fault");
        assert!(
            matches!(lost.outcome, ChaosOutcome::Failed(SimError::Deadlock { .. })),
            "lost wake must be a typed deadlock, got {:?}",
            lost.outcome
        );
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
        let build = |_: &SystemConfig| -> Box<dyn TaskMapper> { Box::new(RoundRobinMapper::new()) };
        let mappers = [round_robin_spec(&build)];
        let faults = [FaultEvent { at_cycle: 10, kind: FaultKind::AbortStorm }];
        let opts = ChaosOptions { core_counts: vec![1], ..ChaosOptions::default() };
        let err = check_chaos(&|| Box::new(Exploding), &mappers, &faults, &opts).unwrap_err();
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
                ctx.enqueue(0, ts + 1, Hint::None, vec![]);
            }
        }
        let build = |_: &SystemConfig| -> Box<dyn TaskMapper> { Box::new(RoundRobinMapper::new()) };
        let mappers = [round_robin_spec(&build)];
        let faults = [FaultEvent { at_cycle: 50, kind: FaultKind::DuplicateMessage }];
        let opts =
            ChaosOptions { core_counts: vec![1], max_cycles: 20_000, ..ChaosOptions::default() };
        let report = check_chaos(&|| Box::new(Endless), &mappers, &faults, &opts)
            .expect("a budgeted livelock is a legal typed outcome");
        assert!(
            matches!(
                report.combos[0].outcome,
                ChaosOutcome::Failed(SimError::CycleBudgetExceeded { .. })
                    | ChaosOutcome::Failed(SimError::TaskLimitExceeded(_))
            ),
            "expected a budget or task-limit trip, got {:?}",
            report.combos[0].outcome
        );
    }
}
