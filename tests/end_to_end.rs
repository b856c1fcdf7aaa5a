//! Cross-crate integration tests asserting that the headline *shapes* of
//! the paper hold at a scale a laptop can simulate. Each run is validated
//! against its serial reference inside `Engine::run`.
//!
//! The blanket correctness checks that used to live here (every app ×
//! scheduler validates, commit counts are scheduler-independent, single
//! cores never misspeculate, repeated runs are bit-identical) were promoted
//! into the table-driven `tests/conformance.rs` suite, which runs them over
//! every benchmark — including the beyond-Table-I workloads — through
//! `swarm_sim::conformance`.

use swarm_repro::prelude::*;

fn run(spec: AppSpec, scheduler: Scheduler, cores: u32) -> RunStats {
    let mut engine = Sim::builder()
        .cores(cores)
        .app_boxed(spec.build(InputScale::Tiny, 99))
        .scheduler(scheduler)
        .build()
        .expect("a valid simulation description");
    engine.run().unwrap_or_else(|e| {
        panic!("{} under {scheduler} at {cores} cores failed: {e}", spec.name())
    })
}

#[test]
fn hints_reduce_aborts_and_traffic_on_the_object_partitioned_apps() {
    // The paper's headline efficiency claim (Section IV-C): on des, nocsim
    // and silo, where most read-write data is single-hint, Hints wastes far
    // less work and moves far less data than Random.
    for bench in [BenchmarkId::Des, BenchmarkId::Nocsim] {
        let random = run(AppSpec::coarse(bench), Scheduler::Random, 16);
        let hints = run(AppSpec::coarse(bench), Scheduler::Hints, 16);
        assert!(
            hints.tasks_aborted <= random.tasks_aborted,
            "{bench}: hints aborted more ({}) than random ({})",
            hints.tasks_aborted,
            random.tasks_aborted
        );
        assert!(
            hints.traffic.total() < random.traffic.total(),
            "{bench}: hints moved more data ({}) than random ({})",
            hints.traffic.total(),
            random.traffic.total()
        );
    }
}

#[test]
fn hints_cut_waste_on_the_beyond_table1_workloads_too() {
    // The new workloads exist because their hint structure differs from the
    // Table I nine, but the paper's efficiency claim must still hold: on
    // maxflow (vertex-line hints over two-hop push write sets), triangle
    // (lower-degree-endpoint hints with a long-tail distribution) and
    // kvstore (Zipfian-hot key hints), Hints aborts less and moves less
    // data than Random.
    for bench in BenchmarkId::BEYOND_TABLE1 {
        let random = run(AppSpec::coarse(bench), Scheduler::Random, 16);
        let hints = run(AppSpec::coarse(bench), Scheduler::Hints, 16);
        assert!(
            hints.tasks_aborted < random.tasks_aborted,
            "{bench}: hints aborted {} vs random's {}",
            hints.tasks_aborted,
            random.tasks_aborted
        );
        assert!(
            hints.traffic.total() < random.traffic.total(),
            "{bench}: hints moved {} flit-hops vs random's {}",
            hints.traffic.total(),
            random.traffic.total()
        );
    }
    // Triangle's write set is exactly its hinted line, so same-hint
    // serialization removes conflicts entirely.
    let triangle = run(AppSpec::coarse(BenchmarkId::Triangle), Scheduler::Hints, 16);
    assert_eq!(triangle.tasks_aborted, 0, "triangle under hints should never conflict");
}

#[test]
fn load_balancer_reduces_committed_cycle_imbalance_on_nocsim() {
    // Section VI: tornado traffic overloads central columns; LBHints remaps
    // router buckets so per-tile committed cycles even out relative to
    // static Hints. Use a workload long enough for several reconfiguration
    // epochs.
    use swarm_repro::apps::nocsim::{NocWorkload, Nocsim};
    let run_with = |scheduler: Scheduler| {
        let mut cfg = SystemConfig::with_cores(16);
        cfg.lb_epoch = 2_000;
        let workload = NocWorkload::tornado(8, 12, 17);
        let mut engine = Sim::builder()
            .config(cfg)
            .app(Nocsim::new(workload))
            .scheduler(scheduler)
            .build()
            .expect("a valid simulation description");
        engine.run().expect("nocsim must validate")
    };
    let hints = run_with(Scheduler::Hints);
    let lb = run_with(Scheduler::LbHints);
    assert!(lb.lb_reconfigs > 0, "the load balancer never reconfigured");
    assert!(
        lb.load_imbalance() <= hints.load_imbalance() * 1.25,
        "LBHints imbalance ({:.3}) much worse than Hints ({:.3})",
        lb.load_imbalance(),
        hints.load_imbalance()
    );
}

#[test]
fn cycle_breakdowns_cover_the_machine_time() {
    let stats = run(AppSpec::coarse(BenchmarkId::Silo), Scheduler::Hints, 16);
    let wall = stats.runtime_cycles * stats.cores as u64;
    let accounted = stats.breakdown.total();
    assert!(accounted > 0);
    // The breakdown may exceed the wall-clock budget slightly because spill
    // cycles are charged on top of core time, but it must stay in the same
    // ballpark and the busy part must fit inside the wall clock.
    assert!(stats.breakdown.committed + stats.breakdown.aborted <= wall);
    assert!(accounted <= wall + stats.breakdown.spill + stats.runtime_cycles);
}

#[test]
fn access_classification_explains_hint_effectiveness() {
    // Fig. 3 / Fig. 6 shape: des is dominated by single-hint read-write
    // accesses; coarse-grain sssp has mostly multi-hint read-write accesses,
    // and its fine-grain version flips that.
    let classify = |spec: AppSpec| {
        let mut engine = Sim::builder()
            .cores(4)
            .app_boxed(spec.build(InputScale::Tiny, 7))
            .scheduler(Scheduler::Hints)
            .profiling(true)
            .build()
            .expect("a valid simulation description");
        let stats = engine.run().unwrap();
        classify_accesses(&stats.committed_accesses)
    };
    let des = classify(AppSpec::coarse(BenchmarkId::Des));
    assert!(des.single_hint_rw_share() > 0.9, "des read-write data should be single-hint");

    let sssp_cg = classify(AppSpec::coarse(BenchmarkId::Sssp));
    let sssp_fg = classify(AppSpec::fine(BenchmarkId::Sssp));
    assert!(
        sssp_fg.single_hint_rw_share() > sssp_cg.single_hint_rw_share(),
        "fine-grain sssp must raise the single-hint share ({:.2} vs {:.2})",
        sssp_fg.single_hint_rw_share(),
        sssp_cg.single_hint_rw_share()
    );
    assert!(sssp_fg.single_hint_rw_share() > 0.9);
}
