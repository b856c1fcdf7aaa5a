//! Per-layer measurement from outside the program: decorators over the
//! public `SwarmApp`, `MapperFactory`/`TaskMapper` and `SimObserver` traits,
//! and a traced point runner that times `AppSpec::build`,
//! `SimBuilder::build` and `Engine::run` around them.
//!
//! The memory model, `LineTable` conflict checks and the NoC link walk get
//! no span of their own: they run inside `SwarmApp::run_task` (speculative
//! reads and writes) and inside the engine, so they show in
//! `apps.run_task_s` and `sim.engine_self_s`, and through the exact counts.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use spatial_hints::Scheduler;
use swarm_bench::{run_point_result, RunRequest};
use swarm_mem::SimMemory;
use swarm_noc::TrafficClass;
use swarm_sim::{
    observer::LinkOccupancyEvent, InitialTask, MapperFactory, NetworkEvent, RunStats, Sim,
    SimBuilder, SimObserver, SwarmApp, TaskCtx, TaskMapper,
};
use swarm_types::{Hint, NocModel, SystemConfig, TaskFnId, TileId, Timestamp};

use crate::trace::{now_ns, Agg, Tracer};
use crate::{Metric, Outcome};

/// Hot-hook aggregates of one point, shared by its decorators.
#[derive(Default)]
struct Hooks {
    run_task: Cell<Agg>,
    map_task: Cell<Agg>,
    steal: Cell<Agg>,
    lb_epoch: Cell<Agg>,
    on_commit: Cell<Agg>,
    validate: Cell<Option<(u64, u64)>>,
}

fn timed<T>(cell: &Cell<Agg>, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    let mut agg = cell.get();
    agg.add(start.elapsed().as_nanos() as u64);
    cell.set(agg);
    out
}

/// Times `run_task` (and with it the speculative memory accesses, cache
/// model and conflict checks it calls) and `validate`.
struct TimedApp {
    inner: Box<dyn SwarmApp>,
    hooks: Rc<Hooks>,
}

impl SwarmApp for TimedApp {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn init_memory(&self, mem: &mut SimMemory) {
        self.inner.init_memory(mem);
    }
    fn initial_tasks(&self) -> Vec<InitialTask> {
        self.inner.initial_tasks()
    }
    fn run_task(&self, fid: TaskFnId, ts: Timestamp, args: &[u64], ctx: &mut TaskCtx<'_>) {
        timed(&self.hooks.run_task, || self.inner.run_task(fid, ts, args, ctx));
    }
    fn num_task_fns(&self) -> usize {
        self.inner.num_task_fns()
    }
    fn validate(&self, mem: &SimMemory) -> Result<(), String> {
        let start = now_ns();
        let result = self.inner.validate(mem);
        self.hooks.validate.set(Some((start, now_ns())));
        result
    }
}

/// Times the scheduler hooks the engine calls.
struct TimedMapper {
    inner: Box<dyn TaskMapper>,
    hooks: Rc<Hooks>,
}

impl TaskMapper for TimedMapper {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn map_task(&mut self, hint: Hint, creator: Option<TileId>, num_tiles: usize) -> TileId {
        let inner = &mut self.inner;
        timed(&self.hooks.map_task, || inner.map_task(hint, creator, num_tiles))
    }
    fn bucket_of(&self, hint: Hint) -> Option<u16> {
        self.inner.bucket_of(hint)
    }
    fn serialize_same_hint(&self) -> bool {
        self.inner.serialize_same_hint()
    }
    fn steals(&self) -> bool {
        self.inner.steals()
    }
    fn steal_victim(&mut self, thief: TileId, idle_per_tile: &[usize]) -> Option<TileId> {
        let inner = &mut self.inner;
        timed(&self.hooks.steal, || inner.steal_victim(thief, idle_per_tile))
    }
    fn on_commit(&mut self, tile: TileId, bucket: Option<u16>, cycles: u64) {
        let inner = &mut self.inner;
        timed(&self.hooks.on_commit, || inner.on_commit(tile, bucket, cycles));
    }
    fn on_lb_epoch(&mut self, now: u64, idle_per_tile: &[usize]) -> bool {
        let inner = &mut self.inner;
        timed(&self.hooks.lb_epoch, || inner.on_lb_epoch(now, idle_per_tile))
    }
}

/// Builds the scheduler's own mapper, wrapped in a [`TimedMapper`].
struct TimedFactory {
    scheduler: Scheduler,
    hooks: Rc<Hooks>,
}

impl MapperFactory for TimedFactory {
    fn build_mapper(&self, cfg: &SystemConfig) -> Box<dyn TaskMapper> {
        Box::new(TimedMapper { inner: self.scheduler.build(cfg), hooks: Rc::clone(&self.hooks) })
    }
}

/// Exact NoC counts from the observer event stream.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NocCounts {
    /// Messages sent.
    pub messages: u64,
    /// Mesh hops summed over messages.
    pub hops: u64,
    /// Flits summed over messages.
    pub flits: u64,
    /// Flits per traffic class, indexed by `TrafficClass::index`.
    pub class_flits: [u64; 4],
    /// Cycles messages queued behind others (contention model only).
    pub queue_cycles: u64,
    /// Link traversals walked (contention model only).
    pub link_traversals: u64,
}

impl SimObserver for NocCounts {
    fn on_network_message(&mut self, event: &NetworkEvent) {
        self.messages += 1;
        self.hops += event.hops;
        self.flits += event.flits;
        self.class_flits[event.class.index()] += event.flits;
        self.queue_cycles += event.queue_cycles;
    }
    fn on_link_occupancy(&mut self, _event: &LinkOccupancyEvent) {
        self.link_traversals += 1;
    }
}

/// Exact counts summed over every traced point.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Points simulated.
    pub points: u64,
    /// Simulated cycles, summed over points.
    pub runtime_cycles: u64,
    /// Committed tasks.
    pub committed: u64,
    /// Aborted task executions.
    pub aborted: u64,
    /// Tasks spilled to memory.
    pub spills: u64,
    /// GVT updates.
    pub gvt_updates: u64,
    /// Load-balancer reconfigurations.
    pub lb_reconfigs: u64,
    /// NoC counts.
    pub noc: NocCounts,
}

impl Counts {
    fn add(&mut self, stats: &RunStats, noc: &NocCounts) {
        self.points += 1;
        self.runtime_cycles += stats.runtime_cycles;
        self.committed += stats.tasks_committed;
        self.aborted += stats.tasks_aborted;
        self.spills += stats.tasks_spilled;
        self.gvt_updates += stats.gvt_updates;
        self.lb_reconfigs += stats.lb_reconfigs;
        self.noc.messages += noc.messages;
        self.noc.hops += noc.hops;
        self.noc.flits += noc.flits;
        for (total, class) in self.noc.class_flits.iter_mut().zip(noc.class_flits) {
            *total += class;
        }
        self.noc.queue_cycles += noc.queue_cycles;
        self.noc.link_traversals += noc.link_traversals;
    }
}

/// The machine description the harness uses for `request`: plain
/// `.cores(n)` under the analytic model, a full `SystemConfig` under
/// contention (the builder rejects combining the two). Mirrors
/// `swarm_bench::run_point_result`.
pub fn machine(request: &RunRequest) -> SimBuilder {
    let machine = Sim::builder();
    match request.noc {
        NocModel::Analytic => machine.cores(request.cores),
        NocModel::Contention => {
            let mut cfg = SystemConfig::with_cores(request.cores);
            cfg.noc.model = NocModel::Contention;
            machine.config(cfg)
        }
    }
}

/// Run `request` with every decorator attached, recording its spans under
/// `parent` and adding its exact counts to `counts`.
///
/// # Errors
///
/// Returns a description of a build error, simulation error or panic.
pub fn run_traced(
    request: RunRequest,
    profiled: bool,
    tracer: &mut Tracer,
    counts: &mut Counts,
    parent: Option<usize>,
) -> Result<RunStats, String> {
    assert!(request.fault.is_none(), "benchmark workloads inject no faults");
    let id = point_id(&request);
    let point = tracer.open("point", &id, parent);
    let hooks = Rc::new(Hooks::default());
    let noc = Rc::new(RefCell::new(NocCounts::default()));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let span = tracer.open("apps.build", &id, Some(point));
        let app = request.spec.build(request.scale, request.seed);
        tracer.close(span);
        let builder = machine(&request)
            .app(TimedApp { inner: app, hooks: Rc::clone(&hooks) })
            .scheduler(TimedFactory { scheduler: request.scheduler, hooks: Rc::clone(&hooks) })
            .profiling(profiled)
            .observer(Rc::clone(&noc));
        let span = tracer.open("sim.build", &id, Some(point));
        let built = builder.build();
        tracer.close(span);
        let mut engine = built.map_err(|e| format!("{id}: invalid point: {e}"))?;
        let run = tracer.open("sim.run", &id, Some(point));
        let stats = engine.run();
        tracer.close(run);
        if let Some((start, end)) = hooks.validate.get() {
            tracer.record("apps.validate", &id, Some(run), start, end);
        }
        tracer.aggregate(run, "apps.run_task", hooks.run_task.get());
        tracer.aggregate(run, "core.map_task", hooks.map_task.get());
        tracer.aggregate(run, "core.steal", hooks.steal.get());
        tracer.aggregate(run, "core.lb_epoch", hooks.lb_epoch.get());
        tracer.aggregate(run, "core.on_commit", hooks.on_commit.get());
        stats.map_err(|e| format!("{id}: {e}"))
    }));
    tracer.close(point);
    let stats = result.unwrap_or_else(|_| Err(format!("{id}: panicked")))?;
    counts.add(&stats, &noc.borrow());
    Ok(stats)
}

/// Run `request` untraced through the harness's one-call entry point.
///
/// # Errors
///
/// Returns the harness's description of the failure.
pub fn run_plain(request: RunRequest, profiled: bool) -> Result<RunStats, String> {
    run_point_result(request, profiled).map_err(|e| e.to_string())
}

/// Run `request` untraced and traced, record on `out` whether the two
/// agree (folding the traced stats into its digest), and return both host
/// times.
pub fn run_twin(
    request: RunRequest,
    profiled: bool,
    tracer: &mut Tracer,
    counts: &mut Counts,
    parent: Option<usize>,
    out: &mut Outcome,
) -> TwinTimes {
    let start = Instant::now();
    let plain = run_plain(request, profiled);
    let plain_s = crate::secs(start);
    let start = Instant::now();
    let traced = run_traced(request, profiled, tracer, counts, parent);
    let traced_s = crate::secs(start);
    let error = match (&plain, &traced) {
        (Ok(a), Ok(b)) if a == b => None,
        (Ok(_), Ok(_)) => {
            Some(format!("{}: traced RunStats differ from untraced", point_id(&request)))
        }
        (Err(e), _) | (_, Err(e)) => Some(e.clone()),
    };
    out.check(error);
    if let Ok(stats) = &traced {
        out.digest.feed_debug(stats);
    }
    TwinTimes { plain_s, traced_s }
}

/// Host seconds of one point run untraced and traced.
#[derive(Debug, Default, Clone, Copy)]
pub struct TwinTimes {
    /// Untraced run.
    pub plain_s: f64,
    /// Traced run.
    pub traced_s: f64,
}

/// Short id of a point for spans and diagnostics.
pub fn point_id(r: &RunRequest) -> String {
    format!(
        "{}/{}/{}c/{:?}/{}/{:?}",
        r.spec.name(),
        r.scheduler.short_label(),
        r.cores,
        r.scale,
        r.seed,
        r.noc
    )
}

/// Every per-layer metric the app, sim, core and noc layers report, from
/// the spans and counts of the traced points.
pub fn layer_metrics(tracer: &Tracer, counts: &Counts) -> Vec<Metric> {
    let mut out = Outcome::default();
    let s = |ns: u64| ns as f64 / 1e9;
    let run_task = tracer.agg("apps.run_task");
    out.time("apps.build_s", s(tracer.total_ns("apps.build")), "s");
    out.time("apps.validate_s", s(tracer.total_ns("apps.validate")), "s");
    out.time("apps.run_task_s", s(run_task.ns), "s");
    out.count("apps.run_task_calls", run_task.calls as f64, "count");
    let run_ns = tracer.total_ns("sim.run");
    out.time("sim.build_s", s(tracer.total_ns("sim.build")), "s");
    out.time("sim.run_s", s(run_ns), "s");
    out.time("sim.engine_self_s", s(tracer.self_ns("sim.run")), "s");
    out.time("sim.ns_per_task", run_ns as f64 / run_task.calls.max(1) as f64, "ns");
    out.count("sim.runtime_cycles", counts.runtime_cycles as f64, "cycles");
    out.count("sim.tasks_committed", counts.committed as f64, "count");
    out.count("sim.tasks_aborted", counts.aborted as f64, "count");
    let executed = (counts.committed + counts.aborted).max(1);
    out.count("sim.commit_ratio", counts.committed as f64 / executed as f64, "fraction");
    out.count("sim.spills", counts.spills as f64, "count");
    out.count("sim.gvt_updates", counts.gvt_updates as f64, "count");
    out.count("sim.lb_reconfigs", counts.lb_reconfigs as f64, "count");
    for (hook, calls, time) in [
        ("core.map_task", "core.map_task_calls", "core.map_task_s"),
        ("core.steal", "core.steal_calls", "core.steal_s"),
        ("core.lb_epoch", "core.lb_epoch_calls", "core.lb_epoch_s"),
    ] {
        let agg = tracer.agg(hook);
        out.count(calls, agg.calls as f64, "count");
        out.time(time, s(agg.ns), "s");
    }
    out.time("core.on_commit_s", s(tracer.agg("core.on_commit").ns), "s");
    let noc = &counts.noc;
    out.count("noc.messages", noc.messages as f64, "count");
    out.count("noc.hops", noc.hops as f64, "count");
    out.count("noc.flits", noc.flits as f64, "count");
    for class in TrafficClass::ALL {
        let name = format!("noc.flits.{}", class.label());
        out.count(&name, noc.class_flits[class.index()] as f64, "count");
    }
    out.count("noc.queue_cycles", noc.queue_cycles as f64, "cycles");
    out.count("noc.link_traversals", noc.link_traversals as f64, "count");
    out.metrics
}
