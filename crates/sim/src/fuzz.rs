//! A proptest-driven [`SwarmApp`] fuzzer built on the conformance kit.
//!
//! [`scenario`] is a `proptest` strategy sampling random — but always
//! *legal* — Swarm programs: a forest-shaped task DAG (every child's parent
//! precedes it), timestamps with controlled structure (including equal-
//! timestamp ties, which the relaxed commit rule must order), a small
//! aliased hint pool (including NOHINT), overlapping read/write sets over a
//! handful of shared cells, and a queue-pressure bit that swaps in a
//! starved machine configuration ([`pressured_config`]) whose tiny task and
//! commit queues force spills, refills and dispatch-time resource aborts.
//!
//! Every sampled [`ScenarioSpec`] resolves to a [`ScenarioApp`] whose
//! effects are *commutative adds* (`TaskCtx::update`), so its final memory
//! is a schedule-independent function of the spec — each cell must equal
//! the sum of all deltas targeting it — while its reads still create real
//! conflict edges. That makes every scenario checkable by the full
//! conformance battery ([`check_scenario`] wraps
//! [`crate::conformance::check_app`]): serial-reference
//! validation, bit-identical determinism, accounting invariants, line-table
//! drain, and a schedule-independent commit count.
//!
//! The workspace-root `tests/fuzz.rs` drives this strategy through all four
//! paper schedulers; failures shrink to minimal scenarios via the proptest
//! shim's stream shrinker and are committed as named regression tests.
//!
//! The module also fuzzes the *fault* dimension: [`fault_plan`] samples
//! random [`FaultPlan`]s across the whole [`FaultKind`] family, and
//! [`check_scenario_with_faults`] runs a sampled scenario under a sampled
//! plan through the chaos contract ([`crate::conformance::check_plan`]): the
//! faulted run must complete `validate()`-clean or fail with a typed error,
//! identically on a repeat — never hang, panic, or silently corrupt.

use proptest::collection::vec;
use proptest::{any, Strategy};
use swarm_mem::{AddressSpace, Region, SimMemory};
use swarm_types::{CoreId, Hint, SystemConfig, TaskFnId, TileId, Timestamp};

use crate::conformance::{check_app, check_plan, CheckOptions, Combo, MapperSpec};
use crate::fault::{FaultEvent, FaultKind, FaultPlan};
use crate::{InitialTask, SwarmApp, TaskCtx};

/// Upper bound on tasks per sampled scenario; kept small so a fuzz run can
/// afford thousands of scenarios × mappers × core counts.
pub const MAX_TASKS: usize = 20;

/// One task of a sampled scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSpec {
    /// Index of the task that enqueues this one (always less than the
    /// task's own index), or `None` for an initial task.
    pub parent: Option<usize>,
    /// Resolved absolute timestamp (a child's is `>=` its parent's; equal
    /// timestamps are deliberately common).
    pub ts: u64,
    /// Spatial hint: `Some(v)` for `Hint::value(v)` drawn from a small
    /// aliased pool, `None` for NOHINT.
    pub hint: Option<u64>,
    /// Cells read (conflict edges without effects).
    pub reads: Vec<u8>,
    /// Commutative read-modify-write effects: `(cell, delta)`.
    pub adds: Vec<(u8, u64)>,
    /// Cycles of compute between the accesses and the child enqueues.
    pub compute: u64,
}

/// A fully-resolved random Swarm program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// Number of shared memory cells (adjacent words, so they share cache
    /// lines — maximizing conflict pressure).
    pub cells: u8,
    /// The task forest, in creation order.
    pub tasks: Vec<TaskSpec>,
    /// Run under [`pressured_config`] instead of the default machine.
    pub pressure: bool,
}

/// Raw per-task draw, before structural constraints are applied.
type RawTask = (u64, u64, u64, Vec<u8>, Vec<(u8, u64)>, u64);

impl ScenarioSpec {
    /// Apply the structural constraints to raw draws: parents must precede
    /// children, child timestamps may not regress, and cell/hint selectors
    /// wrap into their pools. Zero draws resolve to the minimal scenario
    /// (independent initial tasks at timestamp 0 with no accesses).
    fn resolve(cells: u8, hints: u8, pressure: bool, raw: Vec<RawTask>) -> ScenarioSpec {
        let mut tasks: Vec<TaskSpec> = Vec::with_capacity(raw.len());
        for (i, (parent_raw, ts_delta, hint_raw, reads_raw, adds_raw, compute)) in
            raw.into_iter().enumerate()
        {
            let parent = match parent_raw % (i as u64 + 1) {
                0 => None,
                p => Some(p as usize - 1),
            };
            let ts = match parent {
                None => ts_delta,
                Some(p) => tasks[p].ts + ts_delta,
            };
            let hint = match hint_raw % (hints as u64 + 1) {
                h if h == hints as u64 => None,
                h => Some(0xBEEF_0000 + h),
            };
            let reads = reads_raw.into_iter().map(|c| c % cells).collect();
            let adds = adds_raw.into_iter().map(|(c, d)| (c % cells, d)).collect();
            tasks.push(TaskSpec { parent, ts, hint, reads, adds, compute });
        }
        ScenarioSpec { cells, tasks, pressure }
    }

    /// The schedule-independent expected final value of every cell.
    pub fn expected_cells(&self) -> Vec<u64> {
        let mut expected = vec![0u64; self.cells as usize];
        for t in &self.tasks {
            for &(c, d) in &t.adds {
                expected[c as usize] = expected[c as usize].wrapping_add(d);
            }
        }
        expected
    }
}

/// The strategy: random legal Swarm programs, shrinking toward a single
/// access-free initial task.
pub fn scenario() -> impl Strategy<Value = ScenarioSpec> {
    ((1usize..=MAX_TASKS), (1u8..=4), (1u8..=3), any::<bool>()).prop_flat_map(
        |(n, cells, hints, pressure)| {
            let task = (
                0u64..64,                      // parent selector (0 ⇒ initial task)
                0u64..4,                       // timestamp delta (0 ⇒ equal-timestamp tie)
                0u64..16,                      // hint selector over the aliased pool + NOHINT
                vec(0u8..16, 0..3),            // read set
                vec((0u8..16, 0u64..6), 0..4), // commutative adds
                0u64..50,                      // compute cycles
            );
            vec(task, n).prop_map(move |raw| ScenarioSpec::resolve(cells, hints, pressure, raw))
        },
    )
}

/// The app a [`ScenarioSpec`] resolves to.
pub struct ScenarioApp {
    spec: ScenarioSpec,
    cells: Region,
    /// `children[i]` = tasks enqueued when task `i` runs.
    children: Vec<Vec<usize>>,
    expected: Vec<u64>,
}

impl ScenarioApp {
    /// Resolve a sampled spec into a runnable app (allocates its cell
    /// region, precomputes the child lists and the expected final memory).
    pub fn new(spec: ScenarioSpec) -> Self {
        let mut space = AddressSpace::new();
        let cells = space.alloc_array("cells", spec.cells as u64);
        let mut children = vec![Vec::new(); spec.tasks.len()];
        for (i, t) in spec.tasks.iter().enumerate() {
            if let Some(p) = t.parent {
                children[p].push(i);
            }
        }
        let expected = spec.expected_cells();
        ScenarioApp { spec, cells, children, expected }
    }

    fn cell_addr(&self, c: u8) -> u64 {
        self.cells.addr_of(c as u64)
    }

    fn hint_of(&self, i: usize) -> Hint {
        match self.spec.tasks[i].hint {
            Some(v) => Hint::value(v),
            None => Hint::None,
        }
    }
}

impl SwarmApp for ScenarioApp {
    fn name(&self) -> &str {
        "fuzz-scenario"
    }

    fn init_memory(&self, _mem: &mut SimMemory) {}

    fn initial_tasks(&self) -> Vec<InitialTask> {
        self.spec
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.parent.is_none())
            .map(|(i, t)| InitialTask::new(0, t.ts, self.hint_of(i), vec![i as u64]))
            .collect()
    }

    fn run_task(&self, _fid: TaskFnId, _ts: Timestamp, args: &[u64], ctx: &mut TaskCtx<'_>) {
        let i = args[0] as usize;
        let t = &self.spec.tasks[i];
        for &c in &t.reads {
            ctx.read(self.cell_addr(c));
        }
        for &(c, d) in &t.adds {
            ctx.update(self.cell_addr(c), |v| v.wrapping_add(d));
        }
        ctx.compute(t.compute);
        for &j in &self.children[i] {
            ctx.enqueue(0, self.spec.tasks[j].ts, self.hint_of(j), &[j as u64]);
        }
    }

    fn validate(&self, mem: &SimMemory) -> Result<(), String> {
        for (c, &want) in self.expected.iter().enumerate() {
            let got = mem.load(self.cells.addr_of(c as u64));
            if got != want {
                return Err(format!(
                    "fuzz-scenario: cell {c} is {got}, the sum of its deltas is {want}"
                ));
            }
        }
        Ok(())
    }
}

/// A machine starved for queue space: six task-queue entries and three
/// commit-queue entries per core, spilling two tasks at a time. Runs
/// of more than a handful of tasks spill, refill, resource-abort at
/// dispatch, and execute out of commit order — every conformance invariant
/// must survive that regime too.
pub fn pressured_config(cores: u32) -> SystemConfig {
    let mut cfg = SystemConfig::with_cores(cores);
    cfg.queues.task_queue_per_core = 6;
    cfg.queues.commit_queue_per_core = 3;
    cfg.queues.spill_batch = 2;
    cfg
}

/// The kit options for one sampled scenario: its pressure bit picks the
/// machine, and every run carries a cycle-budget watchdog, so a run that
/// would wedge surfaces as a typed error instead of a hang.
fn scenario_options(spec: &ScenarioSpec, core_counts: &[u32]) -> CheckOptions {
    CheckOptions {
        core_counts: core_counts.to_vec(),
        config: if spec.pressure { pressured_config } else { SystemConfig::with_cores },
        // Scenarios are at most MAX_TASKS tiny tasks; a run that is still
        // going after this many cycles is wedged, not slow.
        max_cycles: 2_000_000,
    }
}

/// Run one sampled scenario through the full conformance battery under
/// every given mapper × core count, honoring the spec's pressure bit.
///
/// # Errors
///
/// Propagates the first conformance violation, naming the mapper and core
/// count (see [`check_app`]).
pub fn check_scenario(
    spec: &ScenarioSpec,
    mappers: &[MapperSpec<'_>],
    core_counts: &[u32],
) -> Result<Vec<Combo>, String> {
    let opts = scenario_options(spec, core_counts);
    let spec = spec.clone();
    let make = move || -> Box<dyn SwarmApp> { Box::new(ScenarioApp::new(spec.clone())) };
    // The task forest is fixed by the spec, so the committed count is a
    // property of the program under every schedule.
    check_app(&make, mappers, &opts, true)
}

/// Raw per-event draw for [`fault_plan`]: `(cycle, kind selector, two
/// parameter draws)`.
type RawFault = (u64, u64, u64, u64);

/// The fault-plan strategy: one to three events across the full
/// [`FaultKind`] family, at cycles early enough to land inside the short
/// runs [`scenario`] produces. Out-of-range tile/core targets are legal —
/// the runtime switches compare by identity, so a fault aimed at hardware
/// the machine does not have is simply inert.
pub fn fault_plan() -> impl Strategy<Value = FaultPlan> {
    vec((0u64..1500, 0u64..7, 0u64..16, 1u64..8), 1..4).prop_map(|raw: Vec<RawFault>| {
        let mut plan = FaultPlan::new();
        for (at_cycle, kind_sel, a, b) in raw {
            let kind = match kind_sel {
                0 => FaultKind::LostTaskWake { ts: a },
                1 => {
                    FaultKind::DelayedMessage { tile: TileId(a as u32 % 4), extra_cycles: b as u32 }
                }
                2 => FaultKind::DuplicateMessage,
                3 => FaultKind::QueueSqueeze { tile: TileId(a as u32 % 4), capacity: b as u16 },
                4 => FaultKind::StuckCore { core: CoreId(a as u32) },
                5 => FaultKind::AbortStorm,
                _ => FaultKind::CorruptHint { xor: 0x5A5A_0000 | a },
            };
            plan.push(FaultEvent { at_cycle, kind });
        }
        plan
    })
}

/// Run one sampled scenario under one sampled fault plan through the chaos
/// contract for every mapper × core count, honoring the spec's pressure
/// bit.
///
/// # Errors
///
/// Propagates the first chaos-contract violation, naming the mapper, core
/// count and plan (see [`check_plan`]).
pub fn check_scenario_with_faults(
    spec: &ScenarioSpec,
    plan: &FaultPlan,
    mappers: &[MapperSpec<'_>],
    core_counts: &[u32],
) -> Result<Vec<Combo>, String> {
    let opts = scenario_options(spec, core_counts);
    let spec = spec.clone();
    let make = move || -> Box<dyn SwarmApp> { Box::new(ScenarioApp::new(spec.clone())) };
    check_plan(&make, mappers, plan, &opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RoundRobinMapper, TaskMapper};
    use proptest::{test_rng, TestRng};

    fn round_robin() -> [MapperSpec<'static>; 1] {
        fn build(_: &SystemConfig) -> Box<dyn TaskMapper> {
            Box::new(RoundRobinMapper::new())
        }
        [MapperSpec { name: "RoundRobin", factory: &build }]
    }

    #[test]
    fn zero_draws_resolve_to_the_minimal_scenario() {
        let mut rng = TestRng::replay(vec![]);
        let spec = scenario().generate(&mut rng);
        assert_eq!(spec.tasks.len(), 1);
        let t = &spec.tasks[0];
        assert_eq!(t.parent, None);
        assert_eq!(t.ts, 0);
        assert!(t.reads.is_empty() && t.adds.is_empty());
        assert_eq!(t.compute, 0);
        assert!(!spec.pressure);
    }

    #[test]
    fn resolved_scenarios_are_structurally_legal() {
        let strat = scenario();
        let mut rng = test_rng("fuzz-structural");
        for _ in 0..200 {
            rng.begin_case();
            let spec = strat.generate(&mut rng);
            assert!((1..=MAX_TASKS).contains(&spec.tasks.len()));
            for (i, t) in spec.tasks.iter().enumerate() {
                if let Some(p) = t.parent {
                    assert!(p < i, "parent {p} does not precede task {i}");
                    assert!(t.ts >= spec.tasks[p].ts, "child timestamp regressed");
                }
                assert!(t.reads.iter().all(|&c| c < spec.cells));
                assert!(t.adds.iter().all(|&(c, _)| c < spec.cells));
            }
            assert!(spec.tasks[0].parent.is_none(), "task 0 must be initial");
        }
    }

    #[test]
    fn sampled_scenarios_conform_under_round_robin() {
        let strat = scenario();
        let mut rng = test_rng("fuzz-smoke");
        let mappers = round_robin();
        for _ in 0..25 {
            rng.begin_case();
            let spec = strat.generate(&mut rng);
            check_scenario(&spec, &mappers, &[1, 4]).expect("sampled scenario must conform");
        }
    }

    #[test]
    fn sampled_fault_plans_satisfy_the_chaos_contract_under_round_robin() {
        let scenarios = scenario();
        let plans = fault_plan();
        let mut rng = test_rng("fuzz-fault-smoke");
        let mappers = round_robin();
        for _ in 0..15 {
            rng.begin_case();
            let spec = scenarios.generate(&mut rng);
            let plan = plans.generate(&mut rng);
            check_scenario_with_faults(&spec, &plan, &mappers, &[1, 4])
                .unwrap_or_else(|e| panic!("plan [{plan}] broke the chaos contract: {e}"));
        }
    }

    #[test]
    fn sampled_fault_plans_cover_the_whole_family() {
        let plans = fault_plan();
        let mut rng = test_rng("fuzz-fault-coverage");
        let mut seen = std::collections::HashSet::new();
        for _ in 0..300 {
            rng.begin_case();
            for event in plans.generate(&mut rng).events() {
                seen.insert(event.kind.name());
            }
        }
        for kind in
            ["lost-wake", "delay", "duplicate", "squeeze", "stuck", "abort-storm", "corrupt-hint"]
        {
            assert!(seen.contains(kind), "strategy never sampled {kind}");
        }
    }

    #[test]
    fn pressured_config_is_valid_and_starved() {
        for cores in [1, 4, 16] {
            let cfg = pressured_config(cores);
            cfg.validate().expect("pressured config must stay valid");
            assert!(cfg.commit_queue_per_tile() > cfg.cores_per_tile as usize);
            assert!(
                cfg.task_queue_per_tile() < SystemConfig::with_cores(cores).task_queue_per_tile()
            );
        }
    }
}
