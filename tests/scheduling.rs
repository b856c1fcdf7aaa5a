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
                    ctx.enqueue(1, ts + 1 + i, Hint::Same, &[i]);
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

/// Deterministic work counters of every app × scheduler at tiny scale, seed
/// 1, 16 cores, analytic NoC: `(app, scheduler, events processed, tasks
/// committed, tasks aborted, GVT updates)`. Wall-clock timings hide an
/// algorithmic regression in machine noise; these counts move exactly
/// when the work the engine does moves. A deliberate behaviour change
/// re-pins the table from the assertion's output.
const WORK_COUNTERS: &[(&str, &str, u64, u64, u64, u64)] = &[
    ("bfs", "Random", 1397, 192, 251, 36),
    ("bfs", "Stealing", 1080, 192, 331, 37),
    ("bfs", "Hints", 1335, 192, 236, 38),
    ("bfs", "LBHints", 1431, 192, 213, 37),
    ("sssp", "Random", 1488, 227, 307, 35),
    ("sssp", "Stealing", 1106, 227, 345, 31),
    ("sssp", "Hints", 1570, 227, 287, 36),
    ("sssp", "LBHints", 1618, 226, 283, 36),
    ("astar", "Random", 1867, 295, 564, 51),
    ("astar", "Stealing", 1695, 296, 586, 46),
    ("astar", "Hints", 2278, 296, 583, 58),
    ("astar", "LBHints", 2458, 297, 705, 60),
    ("color", "Random", 1235, 150, 507, 33),
    ("color", "Stealing", 1408, 150, 621, 37),
    ("color", "Hints", 2078, 150, 899, 50),
    ("color", "LBHints", 2127, 150, 925, 52),
    ("des", "Random", 1309, 669, 249, 34),
    ("des", "Stealing", 1383, 669, 273, 36),
    ("des", "Hints", 1082, 669, 37, 31),
    ("des", "LBHints", 1255, 669, 28, 33),
    ("nocsim", "Random", 496, 192, 100, 12),
    ("nocsim", "Stealing", 492, 192, 85, 11),
    ("nocsim", "Hints", 534, 192, 68, 11),
    ("nocsim", "LBHints", 525, 192, 77, 12),
    ("silo", "Random", 2571, 1356, 538, 63),
    ("silo", "Stealing", 1925, 1356, 278, 55),
    ("silo", "Hints", 2481, 1356, 489, 60),
    ("silo", "LBHints", 2527, 1356, 537, 61),
    ("genome", "Random", 1163, 708, 101, 27),
    ("genome", "Stealing", 1141, 708, 40, 25),
    ("genome", "Hints", 1162, 708, 89, 26),
    ("genome", "LBHints", 1043, 708, 31, 25),
    ("kmeans", "Random", 3066, 405, 1225, 134),
    ("kmeans", "Stealing", 3177, 405, 1257, 146),
    ("kmeans", "Hints", 2156, 405, 594, 124),
    ("kmeans", "LBHints", 3049, 405, 914, 143),
    ("maxflow", "Random", 3177, 429, 1279, 62),
    ("maxflow", "Stealing", 500, 429, 0, 26),
    ("maxflow", "Hints", 1636, 429, 147, 93),
    ("maxflow", "LBHints", 1711, 429, 161, 95),
    ("triangle", "Random", 891, 443, 169, 31),
    ("triangle", "Stealing", 915, 443, 261, 32),
    ("triangle", "Hints", 658, 443, 0, 29),
    ("triangle", "LBHints", 630, 443, 0, 26),
    ("kvstore", "Random", 1484, 250, 579, 25),
    ("kvstore", "Stealing", 1475, 250, 629, 26),
    ("kvstore", "Hints", 1104, 250, 289, 35),
    ("kvstore", "LBHints", 1311, 250, 288, 36),
    ("stream", "Random", 3101, 173, 1123, 67),
    ("stream", "Stealing", 2357, 172, 1087, 59),
    ("stream", "Hints", 1752, 172, 346, 54),
    ("stream", "LBHints", 2230, 173, 353, 56),
    ("pipeline", "Random", 435, 120, 127, 8),
    ("pipeline", "Stealing", 494, 120, 144, 8),
    ("pipeline", "Hints", 393, 120, 19, 9),
    ("pipeline", "LBHints", 444, 120, 21, 9),
    ("hostile", "Random", 104, 48, 0, 8),
    ("hostile", "Stealing", 54, 48, 0, 5),
    ("hostile", "Hints", 262, 48, 0, 68),
    ("hostile", "LBHints", 262, 48, 0, 68),
];

#[test]
fn work_counters_match_the_golden_table() {
    let mut actual = Vec::new();
    for app in BenchmarkId::ALL {
        for scheduler in Scheduler::ALL {
            let mut engine = Sim::builder()
                .cores(16)
                .app_boxed(AppSpec::coarse(app).build(InputScale::Tiny, 1))
                .scheduler(scheduler)
                .build()
                .expect("a valid simulation description");
            let stats = engine.run().expect("must validate");
            actual.push((
                app.name(),
                scheduler.name(),
                engine.events_processed(),
                stats.tasks_committed,
                stats.tasks_aborted,
                stats.gvt_updates,
            ));
        }
    }
    let table: String = actual.iter().map(|row| format!("    {row:?},\n")).collect();
    assert!(actual == WORK_COUNTERS, "work counters moved; the run gave:\n{table}");
}
