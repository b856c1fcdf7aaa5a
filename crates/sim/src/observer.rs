//! Observer hooks: a typed event stream out of the simulation engine.
//!
//! Every measurable thing the engine does — dispatching a task from a task
//! queue, committing or aborting an execution, sending a NoC message,
//! spilling tasks to memory, idling a core — is announced to a set of
//! [`SimObserver`]s *as it happens*. The statistics the paper's figures are
//! built from ([`RunStats`]) are not special-cased inside the engine: they
//! are accumulated by the always-attached built-in statistics observer.
//! Custom metrics (e.g. per-link NoC contention counters, abort chain
//! lengths, queue-depth traces) attach through
//! [`SimBuilder::observer`](crate::SimBuilder::observer) without touching
//! the engine at all.
//!
//! Observers run synchronously on the simulation thread in attach order,
//! always after the built-in statistics observer. They see events in
//! simulation order, which is deterministic.
//!
//! # Example: counting commits without touching the engine
//!
//! ```
//! use std::cell::RefCell;
//! use std::rc::Rc;
//!
//! use swarm_sim::{
//!     CommitEvent, InitialTask, RoundRobinMapper, Sim, SimObserver, SwarmApp, TaskCtx,
//! };
//! use swarm_types::Hint;
//!
//! struct Independent;
//! impl SwarmApp for Independent {
//!     fn name(&self) -> &str {
//!         "independent"
//!     }
//!     fn initial_tasks(&self) -> Vec<InitialTask> {
//!         (0..10).map(|i| InitialTask::new(0, i, Hint::value(i), vec![i])).collect()
//!     }
//!     fn run_task(&self, _fid: u16, _ts: u64, args: &[u64], ctx: &mut TaskCtx<'_>) {
//!         ctx.write(0x1000 + args[0] * 64, 1);
//!     }
//! }
//!
//! #[derive(Default)]
//! struct CommitCounter {
//!     commits: u64,
//! }
//! impl SimObserver for CommitCounter {
//!     fn on_commit(&mut self, _event: &CommitEvent<'_>) {
//!         self.commits += 1;
//!     }
//! }
//!
//! let counter = Rc::new(RefCell::new(CommitCounter::default()));
//! let mut engine = Sim::builder()
//!     .app(Independent)
//!     .mapper(Box::new(RoundRobinMapper::new()))
//!     .observer(Rc::clone(&counter))
//!     .build()
//!     .expect("a complete simulation description");
//! let stats = engine.run().unwrap();
//! assert_eq!(counter.borrow().commits, stats.tasks_committed);
//! ```

use std::fmt;

use swarm_noc::TrafficClass;
use swarm_types::{Addr, CoreId, Hint, TaskId, TileId, Timestamp};

use crate::stats::{CommittedTaskAccesses, RunStats};

/// A task was dispatched (dequeued) from its tile's task queue onto a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DequeueEvent {
    /// The dispatched task.
    pub task: TaskId,
    /// The task's timestamp.
    pub ts: Timestamp,
    /// The task's (resolved) spatial hint.
    pub hint: Hint,
    /// The tile whose task queue held the task.
    pub tile: TileId,
    /// The core the task was dispatched to.
    pub core: CoreId,
    /// Simulation time of the dispatch.
    pub now: u64,
}

/// A finished task committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitEvent<'a> {
    /// The committing task.
    pub task: TaskId,
    /// The task's timestamp.
    pub ts: Timestamp,
    /// The task's (resolved) spatial hint.
    pub hint: Hint,
    /// The tile the task ran on.
    pub tile: TileId,
    /// The load-balancer bucket of the task's hint, if the scheduler
    /// profiles buckets.
    pub bucket: Option<u16>,
    /// Execution cycles now accounted as committed work.
    pub cycles: u64,
    /// Number of task arguments.
    pub num_args: usize,
    /// The word-granular access trace of the committed execution —
    /// `Some` only when profiling is enabled (each entry is
    /// `(byte address, is_write)`).
    pub accesses: Option<&'a [(Addr, bool)]>,
}

/// A task was aborted (and will re-execute or be discarded).
///
/// One event fires per member of an abort cascade, and each doomed
/// execution is announced exactly once — a running task that an earlier
/// cascade already aborted (still draining on its core) is not
/// re-announced when a later cascade reaches it. Members that never
/// started executing (they were still idle or spilled) carry
/// `executed == false` and zero cycles; they are not counted as aborted
/// executions in [`RunStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbortEvent {
    /// The aborted task.
    pub task: TaskId,
    /// The task's timestamp.
    pub ts: Timestamp,
    /// The tile the task was queued or running on.
    pub tile: TileId,
    /// The tile whose access (or resource pressure) triggered the abort.
    pub aborter_tile: TileId,
    /// Execution cycles discarded (zero if the task never ran).
    pub cycles: u64,
    /// Whether the task had actually executed (speculative work was wasted).
    pub executed: bool,
}

/// A message crossed the on-chip network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkEvent {
    /// What kind of payload the message carried.
    pub class: TrafficClass,
    /// Number of mesh hops traversed.
    pub hops: u64,
    /// Number of link flits occupied.
    pub flits: u64,
    /// Cycles the message spent queued behind earlier messages along its
    /// route. Always zero under [`swarm_types::NocModel::Analytic`]; under
    /// `Contention` it is the sum of the per-link waits.
    pub queue_cycles: u64,
}

/// A message traversed one directed mesh link under
/// [`swarm_types::NocModel::Contention`] (one event per hop of the route).
///
/// Never fired in analytic mode, and — like dequeue events — only
/// materialised when a custom observer is attached, since the built-in
/// statistics come from the link counters directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkOccupancyEvent {
    /// The directed link id (see [`swarm_noc::Mesh::route_links`]).
    pub link: u32,
    /// What kind of payload the message carried.
    pub class: TrafficClass,
    /// Number of link flits occupied.
    pub flits: u64,
    /// Cycle the message arrived at the link.
    pub enter: u64,
    /// Cycle the message cleared the link (service plus any queueing).
    pub depart: u64,
    /// Cycles spent waiting for earlier messages on this link.
    pub queue_cycles: u64,
}

/// Which way tasks moved between a tile's task queue and memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillDirection {
    /// Tasks were spilled from the task queue to memory.
    Spilled,
    /// Tasks were refilled from memory into the task queue.
    Refilled,
}

/// Tasks moved between a tile's hardware task queue and the memory-backed
/// spill buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpillEvent {
    /// The tile whose task queue spilled or refilled.
    pub tile: TileId,
    /// How many tasks moved.
    pub tasks: u64,
    /// Cycles charged for the transfer.
    pub cycles: u64,
    /// Whether tasks left ([`SpillDirection::Spilled`]) or re-entered
    /// ([`SpillDirection::Refilled`]) the hardware queue.
    pub direction: SpillDirection,
}

/// Why a core was not executing tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitKind {
    /// No dispatchable task was available.
    Empty,
    /// The tile's commit queue was full.
    Stalled,
}

/// A core finished a period of idling or stalling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreWaitEvent {
    /// The waiting core.
    pub core: CoreId,
    /// Why the core was waiting.
    pub kind: WaitKind,
    /// How many cycles the wait lasted.
    pub cycles: u64,
}

/// A planned fault was executed by the engine (see [`crate::fault`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultInjectedEvent {
    /// Index of the fault within its [`crate::FaultPlan`].
    pub index: usize,
    /// The fault that was injected.
    pub fault: crate::fault::FaultEvent,
    /// Simulation cycle at which it fired.
    pub cycle: u64,
}

/// Hooks into the simulation's event stream.
///
/// All methods default to no-ops, so an observer implements only the events
/// it cares about. Observers must be deterministic if the simulation's
/// results are compared across runs (the built-in statistics observer is).
///
/// Attach observers through [`SimBuilder::observer`](crate::SimBuilder::observer).
/// To keep a handle
/// on the observer after the engine consumes it, attach an
/// `Rc<RefCell<T>>` — the blanket implementation below forwards every hook.
pub trait SimObserver {
    /// A task was dispatched from a task queue onto a core.
    fn on_dequeue(&mut self, _event: &DequeueEvent) {}

    /// A finished task committed.
    fn on_commit(&mut self, _event: &CommitEvent<'_>) {}

    /// A task was aborted.
    fn on_abort(&mut self, _event: &AbortEvent) {}

    /// A message crossed the on-chip network.
    fn on_network_message(&mut self, _event: &NetworkEvent) {}

    /// A message traversed one directed mesh link (contention mode only;
    /// fires per hop, so implement it only when per-link detail is needed).
    fn on_link_occupancy(&mut self, _event: &LinkOccupancyEvent) {}

    /// Tasks were spilled to (or refilled from) memory.
    fn on_spill(&mut self, _event: &SpillEvent) {}

    /// A core finished an idle or stalled period.
    fn on_core_wait(&mut self, _event: &CoreWaitEvent) {}

    /// A global-virtual-time update ran at simulation time `now`.
    fn on_gvt_update(&mut self, _now: u64) {}

    /// The load balancer reconfigured its hint-to-tile mapping at `now`.
    fn on_lb_reconfig(&mut self, _now: u64) {}

    /// A planned fault was injected (see [`crate::SimBuilder::fault_plan`]),
    /// letting observers correlate faults with downstream aborts, spills and
    /// timing shifts.
    fn on_fault_injected(&mut self, _event: &FaultInjectedEvent) {}

    /// The run completed; `stats` is the final statistics object.
    fn on_run_end(&mut self, _stats: &RunStats) {}
}

/// Forwarding implementation so callers can attach `Rc<RefCell<T>>` and keep
/// the other handle to read their observer back after the run.
impl<T: SimObserver> SimObserver for std::rc::Rc<std::cell::RefCell<T>> {
    fn on_dequeue(&mut self, event: &DequeueEvent) {
        self.borrow_mut().on_dequeue(event);
    }
    fn on_commit(&mut self, event: &CommitEvent<'_>) {
        self.borrow_mut().on_commit(event);
    }
    fn on_abort(&mut self, event: &AbortEvent) {
        self.borrow_mut().on_abort(event);
    }
    fn on_network_message(&mut self, event: &NetworkEvent) {
        self.borrow_mut().on_network_message(event);
    }
    fn on_link_occupancy(&mut self, event: &LinkOccupancyEvent) {
        self.borrow_mut().on_link_occupancy(event);
    }
    fn on_spill(&mut self, event: &SpillEvent) {
        self.borrow_mut().on_spill(event);
    }
    fn on_core_wait(&mut self, event: &CoreWaitEvent) {
        self.borrow_mut().on_core_wait(event);
    }
    fn on_gvt_update(&mut self, now: u64) {
        self.borrow_mut().on_gvt_update(now);
    }
    fn on_lb_reconfig(&mut self, now: u64) {
        self.borrow_mut().on_lb_reconfig(now);
    }
    fn on_fault_injected(&mut self, event: &FaultInjectedEvent) {
        self.borrow_mut().on_fault_injected(event);
    }
    fn on_run_end(&mut self, stats: &RunStats) {
        self.borrow_mut().on_run_end(stats);
    }
}

/// The built-in observer: accumulates every statistic reported in
/// [`RunStats`] from the event stream alone, straight into the record it
/// returns.
///
/// This is the reference consumer of the observer interface — if a number
/// appears in a figure, it was derived from events any custom observer also
/// sees.
#[derive(Debug, Clone, Default)]
pub(crate) struct StatsObserver {
    run: RunStats,
}

impl StatsObserver {
    /// A statistics observer for a machine with `num_tiles` tiles.
    pub(crate) fn new(num_tiles: usize) -> Self {
        let run = RunStats { committed_cycles_per_tile: vec![0; num_tiles], ..RunStats::default() };
        StatsObserver { run }
    }

    /// Complete and hand over the accumulated [`RunStats`], leaving the
    /// observer empty: call it once, when the run ends. `link_stats` is the
    /// end-of-run link-contention snapshot (`None` in analytic mode).
    pub(crate) fn take_run_stats(
        &mut self,
        scheduler: String,
        app: String,
        cores: usize,
        runtime_cycles: u64,
        link_stats: Option<swarm_noc::LinkStats>,
    ) -> RunStats {
        RunStats {
            scheduler,
            app,
            cores,
            runtime_cycles,
            link_stats,
            ..std::mem::take(&mut self.run)
        }
    }
}

impl SimObserver for StatsObserver {
    fn on_commit(&mut self, event: &CommitEvent<'_>) {
        let run = &mut self.run;
        run.tasks_committed += 1;
        run.breakdown.committed += event.cycles;
        run.committed_cycles_per_tile[event.tile.index()] += event.cycles;
        if let Some(accesses) = event.accesses {
            run.committed_accesses.push(CommittedTaskAccesses {
                hint: event.hint,
                num_args: event.num_args,
                accesses: accesses.to_vec(),
            });
        }
    }

    fn on_abort(&mut self, event: &AbortEvent) {
        if event.executed {
            self.run.tasks_aborted += 1;
            self.run.breakdown.aborted += event.cycles;
        }
    }

    fn on_network_message(&mut self, event: &NetworkEvent) {
        self.run.traffic.record(event.class, event.hops, event.flits);
        self.run.noc_queue_cycles += event.queue_cycles;
    }

    fn on_spill(&mut self, event: &SpillEvent) {
        self.run.breakdown.spill += event.cycles;
        if event.direction == SpillDirection::Spilled {
            self.run.tasks_spilled += event.tasks;
        }
    }

    fn on_core_wait(&mut self, event: &CoreWaitEvent) {
        match event.kind {
            WaitKind::Empty => self.run.breakdown.empty += event.cycles,
            WaitKind::Stalled => self.run.breakdown.stall += event.cycles,
        }
    }

    fn on_gvt_update(&mut self, _now: u64) {
        self.run.gvt_updates += 1;
    }

    fn on_lb_reconfig(&mut self, _now: u64) {
        self.run.lb_reconfigs += 1;
    }
}

/// The engine's fan-out point: the built-in [`StatsObserver`] plus any
/// attached custom observers, notified in that order.
pub(crate) struct ObserverHub {
    stats: StatsObserver,
    extra: Vec<Box<dyn SimObserver>>,
}

impl fmt::Debug for ObserverHub {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObserverHub")
            .field("stats", &self.stats)
            .field("extra_observers", &self.extra.len())
            .finish()
    }
}

macro_rules! fan_out {
    ($hub:expr, $method:ident, $event:expr) => {{
        let event = $event;
        $hub.stats.$method(event);
        for observer in &mut $hub.extra {
            observer.$method(event);
        }
    }};
}

impl ObserverHub {
    /// A hub for a machine with `num_tiles` tiles, with only the built-in
    /// statistics observer attached.
    pub(crate) fn new(num_tiles: usize) -> Self {
        ObserverHub { stats: StatsObserver::new(num_tiles), extra: Vec::new() }
    }

    /// Attach a custom observer (notified after the built-in one).
    pub(crate) fn attach(&mut self, observer: Box<dyn SimObserver>) {
        self.extra.push(observer);
    }

    pub(crate) fn stats_mut(&mut self) -> &mut StatsObserver {
        &mut self.stats
    }

    /// Whether a custom observer is attached. Three kinds of event are
    /// invisible to the built-in statistics observer, so the engine builds
    /// them only when this holds:
    ///
    /// * dequeues, which it ignores (building one is a per-dispatch cost);
    /// * zero-cycle core waits (a core re-dispatching in the cycle it went
    ///   idle), since it only *sums* wait cycles;
    /// * per-link occupancy, since the built-in statistics come from the
    ///   link counters directly.
    #[inline]
    pub(crate) fn has_custom(&self) -> bool {
        !self.extra.is_empty()
    }

    #[inline]
    pub(crate) fn dequeue(&mut self, event: &DequeueEvent) {
        fan_out!(self, on_dequeue, event);
    }

    #[inline]
    pub(crate) fn commit(&mut self, event: &CommitEvent<'_>) {
        fan_out!(self, on_commit, event);
    }

    #[inline]
    pub(crate) fn abort(&mut self, event: &AbortEvent) {
        fan_out!(self, on_abort, event);
    }

    #[inline]
    pub(crate) fn network(&mut self, event: &NetworkEvent) {
        fan_out!(self, on_network_message, event);
    }

    #[inline]
    pub(crate) fn link_occupancy(&mut self, event: &LinkOccupancyEvent) {
        fan_out!(self, on_link_occupancy, event);
    }

    #[inline]
    pub(crate) fn spill(&mut self, event: &SpillEvent) {
        fan_out!(self, on_spill, event);
    }

    #[inline]
    pub(crate) fn core_wait(&mut self, event: &CoreWaitEvent) {
        fan_out!(self, on_core_wait, event);
    }

    #[inline]
    pub(crate) fn fault_injected(&mut self, event: &FaultInjectedEvent) {
        fan_out!(self, on_fault_injected, event);
    }

    #[inline]
    pub(crate) fn gvt_update(&mut self, now: u64) {
        self.stats.on_gvt_update(now);
        for observer in &mut self.extra {
            observer.on_gvt_update(now);
        }
    }

    #[inline]
    pub(crate) fn lb_reconfig(&mut self, now: u64) {
        self.stats.on_lb_reconfig(now);
        for observer in &mut self.extra {
            observer.on_lb_reconfig(now);
        }
    }

    pub(crate) fn run_end(&mut self, stats: &RunStats) {
        self.stats.on_run_end(stats);
        for observer in &mut self.extra {
            observer.on_run_end(stats);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_observer_accumulates_from_events() {
        let mut stats = StatsObserver::new(2);
        stats.on_commit(&CommitEvent {
            task: TaskId(0),
            ts: 0,
            hint: Hint::value(1),
            tile: TileId(1),
            bucket: None,
            cycles: 40,
            num_args: 1,
            accesses: None,
        });
        stats.on_abort(&AbortEvent {
            task: TaskId(1),
            ts: 0,
            tile: TileId(0),
            aborter_tile: TileId(1),
            cycles: 25,
            executed: true,
        });
        // Never-executed cascade members do not count as aborted executions.
        stats.on_abort(&AbortEvent {
            task: TaskId(2),
            ts: 0,
            tile: TileId(0),
            aborter_tile: TileId(1),
            cycles: 0,
            executed: false,
        });
        stats.on_network_message(&NetworkEvent {
            class: TrafficClass::Task,
            hops: 3,
            flits: 2,
            queue_cycles: 5,
        });
        stats.on_spill(&SpillEvent {
            tile: TileId(0),
            tasks: 4,
            cycles: 20,
            direction: SpillDirection::Spilled,
        });
        stats.on_spill(&SpillEvent {
            tile: TileId(0),
            tasks: 4,
            cycles: 20,
            direction: SpillDirection::Refilled,
        });
        stats.on_core_wait(&CoreWaitEvent { core: CoreId(0), kind: WaitKind::Empty, cycles: 7 });
        stats.on_gvt_update(100);

        let run = stats.take_run_stats("m".into(), "a".into(), 2, 123, None);
        assert_eq!(run.tasks_committed, 1);
        assert_eq!(run.tasks_aborted, 1);
        assert_eq!(run.tasks_spilled, 4);
        assert_eq!(run.breakdown.committed, 40);
        assert_eq!(run.breakdown.aborted, 25);
        assert_eq!(run.breakdown.spill, 40);
        assert_eq!(run.breakdown.empty, 7);
        assert_eq!(run.committed_cycles_per_tile, [0, 40]);
        assert_eq!(run.traffic.total(), 6);
        assert_eq!(run.gvt_updates, 1);
        assert_eq!(run.runtime_cycles, 123);
        assert_eq!(run.noc_queue_cycles, 5);
        assert!(run.link_stats.is_none());
    }

    #[test]
    fn profiled_commits_record_access_traces() {
        let mut stats = StatsObserver::new(1);
        let trace = [(0x40u64, true), (0x48u64, false)];
        stats.on_commit(&CommitEvent {
            task: TaskId(0),
            ts: 3,
            hint: Hint::value(9),
            tile: TileId(0),
            bucket: Some(2),
            cycles: 10,
            num_args: 2,
            accesses: Some(&trace),
        });
        let run = stats.take_run_stats("m".into(), "a".into(), 1, 1, None);
        assert_eq!(run.committed_accesses.len(), 1);
        assert_eq!(run.committed_accesses[0].accesses, trace.to_vec());
        assert_eq!(run.committed_accesses[0].num_args, 2);
    }
}
