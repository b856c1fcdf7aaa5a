//! Scheduler-behaviour integration tests: observable consequences of the
//! mapping policies when driven through the full engine (locality of
//! same-hint tasks, serialization, stealing, and load-balancer activity).

use swarm_repro::prelude::*;
use swarm_repro::sim::InitialTask;

/// A workload whose tasks declare exactly which "object" they touch, so a
/// test can check where the scheduler put them by looking at per-tile
/// committed cycles.
struct ObjectWorkload {
    objects: u64,
    tasks_per_object: u64,
}

const OBJ_BASE: u64 = 0x9_0000;

impl SwarmApp for ObjectWorkload {
    fn name(&self) -> &str {
        "object-workload"
    }
    fn initial_tasks(&self) -> Vec<InitialTask> {
        let mut tasks = Vec::new();
        for o in 0..self.objects {
            for i in 0..self.tasks_per_object {
                tasks.push(InitialTask::new(0, i, Hint::value(o), vec![o]));
            }
        }
        tasks
    }
    fn run_task(&self, _fid: u16, _ts: u64, args: &[u64], ctx: &mut TaskCtx<'_>) {
        let o = args[0];
        let addr = OBJ_BASE + o * 64;
        let v = ctx.read(addr);
        ctx.compute(50);
        ctx.write(addr, v + 1);
    }
    fn validate(&self, mem: &swarm_repro::mem::SimMemory) -> Result<(), String> {
        for o in 0..self.objects {
            if mem.load(OBJ_BASE + o * 64) != self.tasks_per_object {
                return Err(format!("object {o} has the wrong count"));
            }
        }
        Ok(())
    }
}

fn run_objects(scheduler: Scheduler, objects: u64, tasks_per_object: u64) -> RunStats {
    let mut engine = Sim::builder()
        .cores(16)
        .app(ObjectWorkload { objects, tasks_per_object })
        .scheduler(scheduler)
        .build()
        .expect("a valid simulation description");
    engine.run().expect("object workload must validate")
}

#[test]
fn hints_localize_same_object_tasks_to_few_tiles() {
    // With 2 hot objects and hint-based mapping, at most 2 tiles should do
    // essentially all the committed work; Random spreads it over all 4.
    let hints = run_objects(Scheduler::Hints, 2, 32);
    let random = run_objects(Scheduler::Random, 2, 32);
    let busy_tiles =
        |stats: &RunStats| stats.committed_cycles_per_tile.iter().filter(|&&c| c > 0).count();
    assert!(busy_tiles(&hints) <= 2, "hints used {} tiles for 2 objects", busy_tiles(&hints));
    assert!(busy_tiles(&random) >= 3, "random only used {} tiles", busy_tiles(&random));
}

#[test]
fn hints_eliminate_aborts_that_random_suffers_on_hot_objects() {
    let hints = run_objects(Scheduler::Hints, 4, 24);
    let random = run_objects(Scheduler::Random, 4, 24);
    assert!(random.tasks_aborted > 0, "random should conflict on hot objects");
    assert!(
        hints.tasks_aborted * 2 <= random.tasks_aborted,
        "same-hint serialization should cut aborts at least in half ({} vs {})",
        hints.tasks_aborted,
        random.tasks_aborted
    );
}

#[test]
fn stealing_keeps_cores_fed_on_an_imbalanced_spawn_tree() {
    // All initial work lands on one tile (hint-less, enqueued from `main`),
    // so without stealing most tiles idle; the Stealing scheduler must spread
    // it and finish sooner than a pinned-to-one-tile schedule would.
    struct SkewedSpawner;
    impl SwarmApp for SkewedSpawner {
        fn name(&self) -> &str {
            "skewed-spawner"
        }
        fn initial_tasks(&self) -> Vec<InitialTask> {
            vec![InitialTask::new(0, 0, Hint::value(0), vec![])]
        }
        fn run_task(&self, fid: u16, ts: u64, _args: &[u64], ctx: &mut TaskCtx<'_>) {
            if fid == 0 {
                for i in 0..120u64 {
                    ctx.enqueue(1, ts + 1 + i, Hint::Same, vec![i]);
                }
            } else {
                ctx.compute(400);
            }
        }
        fn num_task_fns(&self) -> usize {
            2
        }
    }
    let run_with = |scheduler: Scheduler| {
        let mut engine = Sim::builder()
            .cores(16)
            .app(SkewedSpawner)
            .scheduler(scheduler)
            .build()
            .expect("a valid simulation description");
        engine.run().expect("spawner must run")
    };
    let stealing = run_with(Scheduler::Stealing);
    let hints = run_with(Scheduler::Hints);
    // SAMEHINT children all inherit hint 0, so Hints piles them on one tile;
    // Stealing spreads them and must finish substantially faster.
    assert!(
        stealing.runtime_cycles * 2 < hints.runtime_cycles,
        "stealing ({}) should easily beat a single hot tile ({})",
        stealing.runtime_cycles,
        hints.runtime_cycles
    );
}

#[test]
fn hostile_hint_aliasing_degrades_hints_far_below_stealing() {
    // The adversarial generator the synthetic `hostile` family registers as
    // a benchmark: every task carries the *same* hint over disjoint data.
    // Spatial hints collapse all of it onto one tile and same-hint
    // serialization runs it one task at a time, while Stealing spreads the
    // (conflict-free) band across all 16 cores — the worst case of the
    // paper's hint trade-off, locked in as a shape assertion like the
    // maxflow one below.
    use swarm_repro::apps::synth::{Hostile, HostileWorkload};
    let run_with = |scheduler: Scheduler| {
        let mut engine = Sim::builder()
            .cores(16)
            .app(Hostile::new(HostileWorkload::hint_alias(96, 150, 17)))
            .scheduler(scheduler)
            .build()
            .expect("a valid simulation description");
        engine.run().expect("hostile aliasing must still validate")
    };
    let stealing = run_with(Scheduler::Stealing);
    let hints = run_with(Scheduler::Hints);
    assert_eq!(stealing.tasks_aborted, 0, "the aliased tasks touch disjoint lines");
    assert!(
        stealing.runtime_cycles * 2 < hints.runtime_cycles,
        "stealing ({}) should finish far ahead of one-tile serialized hints ({})",
        stealing.runtime_cycles,
        hints.runtime_cycles
    );
}

#[test]
fn load_balancer_corrects_zipfian_key_skew_on_kvstore() {
    // The kvstore workload exists precisely for this regime: Zipfian key
    // popularity concentrates hint load on a few tiles, so LBHints must
    // reconfigure and even out per-tile committed cycles relative to the
    // static hint hash.
    use swarm_repro::apps::kvstore::{KvWorkload, Kvstore};
    let run_with = |scheduler: Scheduler| {
        let mut cfg = SystemConfig::with_cores(16);
        cfg.lb_epoch = 2_000;
        let workload = KvWorkload::zipfian(64, 1200, 17);
        let mut engine = Sim::builder()
            .config(cfg)
            .app(Kvstore::new(workload))
            .scheduler(scheduler)
            .build()
            .expect("a valid simulation description");
        engine.run().expect("kvstore must validate")
    };
    let hints = run_with(Scheduler::Hints);
    let lb = run_with(Scheduler::LbHints);
    assert!(lb.lb_reconfigs > 0, "the load balancer never reconfigured on a Zipfian workload");
    assert!(
        lb.load_imbalance() < hints.load_imbalance(),
        "LBHints imbalance ({:.3}) should beat static Hints ({:.3}) on skewed keys",
        lb.load_imbalance(),
        hints.load_imbalance()
    );
}

#[test]
fn stealing_outruns_hints_on_maxflow_where_vertex_lines_are_shared() {
    // maxflow's distinctive stress: eight vertices share each excess-word
    // cache line, so line hints serialize whole neighborhoods of discharge
    // tasks on one tile, and a work-stealing schedule finishes well ahead.
    // (Hints still aborts less and moves less data — see
    // tests/end_to_end.rs — which is exactly the trade-off this workload
    // was added to surface.)
    let run_with = |scheduler: Scheduler| {
        let mut engine = Sim::builder()
            .cores(16)
            .app_boxed(AppSpec::coarse(BenchmarkId::Maxflow).build(InputScale::Tiny, 99))
            .scheduler(scheduler)
            .build()
            .expect("a valid simulation description");
        engine.run().expect("maxflow must validate")
    };
    let stealing = run_with(Scheduler::Stealing);
    let hints = run_with(Scheduler::Hints);
    assert!(
        stealing.runtime_cycles * 2 < hints.runtime_cycles,
        "stealing ({}) should clearly outrun line-serialized hints ({}) on maxflow",
        stealing.runtime_cycles,
        hints.runtime_cycles
    );
}

#[test]
fn lbhints_spreads_hot_buckets_over_time() {
    // Two hot objects under LBHints: even if both initially hash to the same
    // tile, reconfigurations may separate them; in all cases the run must
    // stay valid and reconfigurations must have been attempted.
    let mut engine = Sim::builder()
        .cores(16)
        .app(ObjectWorkload { objects: 6, tasks_per_object: 48 })
        .scheduler(Scheduler::LbHints)
        .build()
        .expect("a valid simulation description");
    let stats = engine.run().expect("lbhints run must validate");
    assert!(stats.gvt_updates > 0);
    assert!(stats.tasks_committed == 6 * 48);
}

#[test]
fn stealing_wakes_cost_a_constant_number_of_events_per_task() {
    // Under Stealing every wake is a stealing opportunity for every idle
    // core. One sweep event per wake covers them all: at 256 cores with the
    // contention NoC, bfs takes 2.2 and kmeans 3.2 events per executed task,
    // where one dispatch-attempt event per non-busy core took 249 and 142.
    for app in [BenchmarkId::Bfs, BenchmarkId::Kmeans] {
        let mut cfg = SystemConfig::with_cores(256);
        cfg.noc.model = swarm_repro::types::NocModel::Contention;
        let mut engine = Sim::builder()
            .config(cfg)
            .app_boxed(AppSpec::coarse(app).build(InputScale::Tiny, 1))
            .scheduler(Scheduler::Stealing)
            .build()
            .expect("a valid simulation description");
        let stats = engine.run().expect("must validate");
        let executed = stats.tasks_committed + stats.tasks_aborted;
        let per_task = engine.events_processed() as f64 / executed as f64;
        assert!(per_task <= 8.0, "{app:?}: {per_task:.2} wheel events per executed task");
    }
}
