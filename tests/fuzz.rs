//! The SwarmApp fuzzer: random legal Swarm programs, sampled by the
//! `swarm_sim::fuzz::scenario` proptest strategy, driven through the full
//! conformance battery under **all four paper schedulers** at 1 and 8
//! cores (validation, bit-identical determinism, accounting invariants,
//! line-table drain, schedule-independent commit counts) — half the
//! scenarios additionally run on a queue-starved machine that forces
//! spills, refills and dispatch-time resource aborts.
//!
//! The 1000 cases are split across four `#[test]`s (250 each, distinct
//! deterministic seeds derived from the test names) so libtest parallelism
//! keeps the wall-clock inside the CI budget. On failure the proptest shim
//! shrinks the recorded draw stream to a minimal scenario and prints both
//! the scenario and the replay stream; pin it in [`corpus`] as a named
//! regression test.
//!
//! Alongside the random sweep, this file holds the deterministic
//! adversarial end-to-end tests: the single legal single-core abort source
//! (spill-induced commit-order inversion) and the deadlock detector driven
//! through `Engine::run` on a wedged machine.

use proptest::prelude::*;
use swarm_repro::apps::synth::{Hostile, HostileWorkload};
use swarm_repro::prelude::*;
use swarm_repro::sim::conformance::MapperSpec;
use swarm_repro::sim::fault::{FaultEvent, FaultKind, FaultPlan};
use swarm_repro::sim::fuzz::{
    check_scenario, check_scenario_with_faults, fault_plan, scenario, ScenarioSpec,
};
use swarm_repro::types::{SimError, TaskId};

/// The four paper schedulers as conformance-kit mappers.
fn paper_mappers() -> Vec<MapperSpec<'static>> {
    Scheduler::ALL.iter().map(|s| MapperSpec { name: s.name(), factory: s }).collect()
}

/// Run one sampled scenario through the whole battery; panics (which the
/// proptest runner shrinks) on the first violated invariant.
fn check(spec: &ScenarioSpec) {
    check_scenario(spec, &paper_mappers(), &[1, 8])
        .unwrap_or_else(|e| panic!("scenario violated conformance: {e}\nspec: {spec:?}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(250))]
    #[test]
    fn random_scenarios_conform_part_a(spec in scenario()) {
        check(&spec);
    }

    #[test]
    fn random_scenarios_conform_part_b(spec in scenario()) {
        check(&spec);
    }

    #[test]
    fn random_scenarios_conform_part_c(spec in scenario()) {
        check(&spec);
    }

    #[test]
    fn random_scenarios_conform_part_d(spec in scenario()) {
        check(&spec);
    }
}

/// Run one sampled (scenario, fault plan) pair through the chaos contract
/// under every paper scheduler: each combo must either complete clean and
/// bit-identical on repeat, or fail with the same typed `SimError` on
/// repeat — never hang, panic, or leak residue.
fn check_with_faults(spec: &ScenarioSpec, plan: &FaultPlan) {
    check_scenario_with_faults(spec, plan, &paper_mappers(), &[1, 8]).unwrap_or_else(|e| {
        panic!("faulted scenario violated the chaos contract: {e}\nspec: {spec:?}\nplan: {plan}")
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]
    #[test]
    fn fault_scenarios_conform_part_a(spec in scenario(), plan in fault_plan()) {
        check_with_faults(&spec, &plan);
    }

    #[test]
    fn fault_scenarios_conform_part_b(spec in scenario(), plan in fault_plan()) {
        check_with_faults(&spec, &plan);
    }
}

/// The regression corpus: every counterexample the fuzzer ever finds is
/// shrunk (the runner prints the minimal replay stream) and pinned here as
/// a named test replaying that exact stream, so the bug class stays fixed
/// forever. The corpus is empty so far: the sweep above has not produced a
/// surviving counterexample on the committed engine.
///
/// To pin one, take the printed `replay stream` and add:
///
/// ```ignore
/// #[test]
/// fn shrunk_description_of_the_bug() {
///     corpus::replay(vec![/* minimal stream */]);
/// }
/// ```
mod corpus {
    use super::*;

    /// Regenerate the scenario a recorded stream denotes and re-check it.
    #[allow(dead_code)]
    pub fn replay(stream: Vec<u64>) {
        let mut rng = TestRng::replay(stream);
        let spec = scenario().generate(&mut rng);
        check(&spec);
    }

    /// Meta-test: the corpus replay path itself keeps working (an empty
    /// stream denotes the minimal one-task scenario).
    #[test]
    fn replaying_the_minimal_stream_conforms() {
        replay(Vec::new());
    }
}

/// A machine with almost no task-queue headroom: 10 entries, spilling one
/// task at a time. With `spill_batch = 1` each overflowing
/// enqueue spills one task and inserts one, so once the queue reaches
/// capacity it *stays* there between commits — and a full queue is exactly
/// the condition under which the dispatcher may not refill an
/// earlier-timestamp spilled task, forcing out-of-commit-order execution.
fn starved_single_core() -> SystemConfig {
    let mut cfg = SystemConfig::single_core();
    cfg.queues.task_queue_per_core = 10;
    cfg.queues.commit_queue_per_core = 4;
    cfg.queues.spill_batch = 1;
    cfg
}

/// The one legal way a single core can abort: a task-queue overflow spills
/// an early-timestamp task, a later one executes first, and the refilled
/// early task's conflicting write rolls the later one back. The spill-storm
/// generator makes this deterministic on a starved queue: a 48-wide wave
/// (cap 10) guarantees spills, every task updates one shared counter, and
/// each wave task's fan-out keeps the queue at capacity so spilled
/// early tasks cannot refill before later ones dispatch.
#[test]
fn spill_induced_inversion_is_the_single_core_abort_source() {
    let w = HostileWorkload::spill_storm(48, 4, 30, 21);
    let mut engine = Sim::builder()
        .config(starved_single_core())
        .app(Hostile::new(w))
        .scheduler(Scheduler::Hints)
        .build()
        .expect("valid starved single-core simulation");
    let stats = engine.run().expect("inverted execution must still serialize correctly");
    assert_eq!(stats.cores, 1);
    assert!(stats.tasks_spilled > 0, "a 48-wide wave must overflow a 10-entry queue");
    assert!(
        stats.tasks_aborted > 0,
        "queue starvation must force an out-of-commit-order execution visible as an abort \
         (spilled {} tasks)",
        stats.tasks_spilled
    );
    // And the same workload on an unstarved single core stays abort-free:
    // without an inversion there is no legal single-core abort source.
    let mut engine = Sim::builder()
        .config(SystemConfig::single_core())
        .app(Hostile::new(HostileWorkload::spill_storm(40, 1, 30, 21)))
        .scheduler(Scheduler::Hints)
        .build()
        .expect("valid single-core simulation");
    let stats = engine.run().expect("must validate");
    assert_eq!(stats.tasks_aborted, 0, "no overflow pressure, no single-core aborts");
}

/// The deadlock detector, end to end: a real hostile workload runs through
/// spills and aborts, drains — and then the engine discovers the task a
/// `lost-wake` fault planted at cycle 0 (a task registered as remaining
/// work with no queue entry and no wake) and reports `SimError::Deadlock`
/// instead of spinning on GVT events forever.
#[test]
fn wedged_run_reports_deadlock_with_remaining_work() {
    for (cores, scheduler) in [(1u32, Scheduler::Hints), (16, Scheduler::Stealing)] {
        let w = HostileWorkload::spill_storm(48, 2, 20, 33);
        let app = Hostile::new(w);
        let initial = app.initial_tasks().len() as u64;
        // Far past all real work, so every healthy task drains first.
        let plan = FaultPlan::from(FaultEvent {
            at_cycle: 0,
            kind: FaultKind::LostTaskWake { ts: u64::MAX / 2 },
        });
        let mut engine = Sim::builder()
            .cores(cores)
            .app(app)
            .scheduler(scheduler)
            .fault_plan(plan)
            .build()
            .expect("valid simulation");
        let err = engine.run().expect_err("a wedged run must error, not hang");
        let SimError::Deadlock { remaining, min_ts, stuck_task } = &err else {
            panic!("at {cores} cores under {}, expected a deadlock, got {err}", scheduler.name());
        };
        assert_eq!(*remaining, 1, "the planted task must be the only remainder");
        assert_eq!(*min_ts, u64::MAX / 2, "diagnostics must name the planted timestamp");
        // The fault fires at cycle 0, after the initial tasks are enqueued
        // and before any task finishes and creates children, so the planted
        // task takes the next arena slot — the diagnosis must name it
        // exactly.
        assert_eq!(*stuck_task, TaskId(initial), "diagnostics must name the planted task");
    }
}
