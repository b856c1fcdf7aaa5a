//! Mutable simulation state: tiles, cores, speculative task records, the
//! line-access table used for conflict detection, and all statistics
//! accumulators.
//!
//! The state object knows how to perform the *mechanisms* of the Swarm
//! substrate — enqueue with spilling, conflict detection, abort cascades with
//! rollback, commits — while the [`crate::engine::Engine`] drives *when* they
//! happen (event ordering, dispatch policy, GVT epochs).
//!
//! Task records live in a [`TaskArena`] (struct-of-arrays hot fields plus a
//! free-listed body pool), and every conflict/abort path works out of
//! persistent scratch buffers on this struct instead of allocating per
//! conflict, so a steady-state simulation step performs no heap allocation.

use swarm_mem::{AccessKind, CacheModel, HitLevel, SimMemory, UndoEntry};
use swarm_noc::{FanIn, Hop, LinkNet, Mesh, TrafficClass, LINE_FLITS};
use swarm_types::config::{
    CONFLICT_CHECK_COST, CONFLICT_COMPARE_COST, CONTROL_FLITS, SPILL_COST_PER_TASK,
};
use swarm_types::{Addr, CoreId, LineAddr, NocModel, SystemConfig, TaskId, TileId};

use crate::arena::TaskArena;
use crate::fault::FaultRuntime;
use crate::key_list::KeyList;
use crate::line_table::LineTable;
use crate::observer::{
    AbortEvent, CommitEvent, LinkOccupancyEvent, NetworkEvent, ObserverHub, SpillDirection,
    SpillEvent,
};
use crate::task::{OrderKey, TaskDescriptor, TaskStatus};

/// What a core is doing right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CoreState {
    /// No dispatchable task was available.
    Idle {
        /// Cycle at which the core became idle.
        since: u64,
    },
    /// Blocked because the tile's commit queue is full.
    Stalled {
        /// Cycle at which the core stalled.
        since: u64,
    },
    /// Executing a task.
    Busy {
        /// The running task.
        task: TaskId,
    },
}

/// Per-tile task unit state: the task queue (idle + running + finished
/// entries), the commit queue (finished entries), and the spill buffer.
#[derive(Debug, Clone, Default)]
pub(crate) struct TileState {
    /// Dispatchable tasks, ordered by commit key.
    pub(crate) idle: KeyList,
    /// Tasks currently running on this tile's cores.
    pub(crate) running: Vec<TaskId>,
    /// Finished tasks holding commit-queue entries, ordered by commit key.
    pub(crate) finished: KeyList,
    /// Tasks spilled to memory by the coalescer, ordered by commit key.
    pub(crate) spilled: KeyList,
}

impl TileState {
    /// Number of occupied task-queue entries.
    pub(crate) fn task_queue_occupancy(&self) -> usize {
        self.idle.len() + self.running.len() + self.finished.len()
    }

    /// Number of occupied (or reserved) commit-queue entries.
    pub(crate) fn commit_queue_occupancy(&self) -> usize {
        self.running.len() + self.finished.len()
    }
}

/// The running body's previous speculative access, remembered so that a
/// repeat of it skips the line-table probe and victim scan. Exact because a
/// body's accesses run back to back: between two of them only that body's
/// own conflict aborts touch the line table, and those only remove entries.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LastLineAccess {
    line: LineAddr,
    /// Whether the body wrote `line` in its current run of accesses to it:
    /// that write's conflict check aborted every later-key reader too.
    wrote: bool,
    /// The conflict-check cost of the line's accessor list after the
    /// access's aborts; `None` when it aborted someone and must be re-read.
    check_cost: Option<u64>,
}

/// The complete mutable state of one simulation.
#[derive(Debug)]
pub(crate) struct SimState {
    /// System configuration.
    pub(crate) cfg: SystemConfig,
    /// Simulated shared memory.
    pub(crate) mem: SimMemory,
    /// Cache hierarchy model.
    pub(crate) caches: CacheModel,
    /// Network model.
    pub(crate) mesh: Mesh,
    /// Per-link contention state: `Some` only under
    /// [`NocModel::Contention`]; `None` keeps the analytic fast path intact.
    pub(crate) links: Option<LinkNet>,
    /// The per-epoch GVT exchange's link-major schedule and scratch (see
    /// [`FanIn`]): `Some` exactly when `links` is.
    gvt_fan_in: Option<FanIn>,
    /// The engine's current cycle, mirrored here at every event so state
    /// methods can time the messages they send without threading a clock
    /// parameter through every mechanism.
    pub(crate) now_cycle: u64,
    /// Speculative access table: line -> uncommitted readers/writers. An
    /// open-addressed flat table (see [`crate::line_table`]): it is consulted
    /// on every speculative access, and first SipHash, then the `HashMap`
    /// control-byte machinery, dominated its cost.
    pub(crate) line_table: LineTable,
    /// All task records: hot scalars in struct-of-arrays form, heavy bodies
    /// in free-listed slots reclaimed on commit/discard.
    pub(crate) tasks: TaskArena,
    /// Per-tile task unit state. Change a tile's idle list only through the
    /// state's own `idle_insert`/`idle_remove`, which keep
    /// [`SimState::idle_task_count`] in step.
    pub(crate) tiles: Vec<TileState>,
    /// Idle tasks across all tiles (the sum of every `tiles[t].idle.len()`),
    /// so a thief learns in O(1) that there is nothing to steal.
    idle_tasks: usize,
    /// Per-core state.
    pub(crate) cores: Vec<CoreState>,
    /// Number of tasks that are neither committed nor discarded; the run
    /// terminates when this reaches zero.
    pub(crate) remaining_tasks: u64,
    /// Whether to record per-task access traces for committed tasks.
    pub(crate) profiling: bool,
    /// The event fan-out point: the built-in statistics observer plus any
    /// custom [`crate::SimObserver`]s. All statistics accumulation happens
    /// here — the state only *announces* commits, aborts, dequeues, network
    /// messages, spills and waits.
    pub(crate) observers: ObserverHub,
    /// Tiles that received new dispatchable work or freed commit slots since
    /// the engine last drained this list.
    pub(crate) wake_tiles: Vec<TileId>,
    /// Live fault switches (see [`crate::fault`]). All disabled unless a
    /// fault plan flipped one mid-run, so fault-free runs are unaffected.
    pub(crate) faults: FaultRuntime,
    /// The running body's previous access (see [`LastLineAccess`]); `None`
    /// before its first. [`crate::TaskCtx::new`] resets it.
    pub(crate) last_access: Option<LastLineAccess>,

    // Scratch buffers reused across conflict/abort events so the hot paths
    // never allocate. Each is taken (`std::mem::take`), used, cleared and
    // restored by exactly one non-reentrant method.
    /// [`SimState::access_line`]: conflicting later-key tasks to abort.
    scratch_victims: Vec<TaskId>,
    /// [`SimState::abort_task`]: the computed abort set, in discovery order.
    scratch_abort_set: Vec<TaskId>,
    /// [`SimState::abort_task`]: DFS worklist for the abort closure.
    scratch_abort_stack: Vec<TaskId>,
    /// [`SimState::abort_task`]: per-member discard decision.
    scratch_abort_discard: Vec<bool>,
    /// [`SimState::abort_task`]: combined undo log of the abort set.
    scratch_undo: Vec<UndoEntry>,
    /// [`SimState::send_message`]: link ids of the route being walked.
    scratch_route: Vec<u32>,
}

impl SimState {
    /// Build the initial state for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`SystemConfig::validate`])
    /// or if a tile's commit queue is not larger than its core count.
    pub(crate) fn new(cfg: SystemConfig) -> Self {
        cfg.validate().expect("invalid system configuration");
        assert!(
            cfg.commit_queue_per_tile() > cfg.cores_per_tile as usize,
            "commit queue must be larger than the number of cores per tile"
        );
        let num_tiles = cfg.num_tiles();
        let num_cores = cfg.num_cores();
        let mesh = Mesh::new(cfg.tiles_x, cfg.tiles_y);
        let contention = cfg.noc.model == NocModel::Contention;
        let links = contention.then(|| LinkNet::new(&cfg.noc, mesh.num_links()));
        let gvt_fan_in = contention.then(|| FanIn::new(&mesh));
        SimState {
            mem: SimMemory::new(),
            caches: CacheModel::new(&cfg.cache, num_tiles, cfg.cores_per_tile),
            mesh,
            links,
            gvt_fan_in,
            now_cycle: 0,
            line_table: LineTable::new(),
            tasks: TaskArena::new(),
            tiles: vec![TileState::default(); num_tiles],
            idle_tasks: 0,
            cores: vec![CoreState::Idle { since: 0 }; num_cores],
            remaining_tasks: 0,
            last_access: None,
            profiling: false,
            observers: ObserverHub::new(num_tiles),
            wake_tiles: Vec::new(),
            faults: FaultRuntime::default(),
            scratch_victims: Vec::new(),
            scratch_abort_set: Vec::new(),
            scratch_abort_stack: Vec::new(),
            scratch_abort_discard: Vec::new(),
            scratch_undo: Vec::new(),
            scratch_route: Vec::new(),
            cfg,
        }
    }

    /// Announce one on-chip network message to every observer (the built-in
    /// statistics observer accumulates it into the traffic breakdown).
    ///
    /// This is the abstract accounting path: no link is walked and no
    /// queueing delay accrues, so it is reserved for traffic with no
    /// physical route (e.g. the hop-count-1 rollback abstraction). Messages
    /// between two real tiles go through [`SimState::send_message`], which
    /// models contention when enabled.
    #[inline]
    pub(crate) fn record_traffic(&mut self, class: TrafficClass, hops: u64, flits: u64) {
        self.deliver(class, &[], hops, flits, self.now_cycle);
    }

    /// Deliver one message from `from` to `to`: walk its dimension-ordered
    /// route through the link FIFOs under [`NocModel::Contention`] (a no-op
    /// under `Analytic`), announce it to the observers with its queueing
    /// delay, and honor an armed `DuplicateMessage` fault by walking and
    /// announcing the message a second time (under contention the duplicate
    /// also occupies the links again).
    ///
    /// `event_hops` is the hop count recorded in the traffic statistics —
    /// some messages account round trips or off-chip legs, so it can exceed
    /// the route length. `enter` is the cycle the message leaves `from`.
    /// Returns the queueing delay of the (first) delivery in cycles, always
    /// zero under `Analytic`; callers decide whether that delay lands on a
    /// latency-critical path or only occupies the links.
    pub(crate) fn send_message(
        &mut self,
        class: TrafficClass,
        from: TileId,
        to: TileId,
        event_hops: u64,
        flits: u64,
        enter: u64,
    ) -> u64 {
        if self.links.is_none() || from == to {
            return self.deliver(class, &[], event_hops, flits, enter);
        }
        let mut route = std::mem::take(&mut self.scratch_route);
        debug_assert!(route.is_empty());
        self.mesh.route_links(from, to, |l| route.push(l));
        let queued = self.deliver(class, &route, event_hops, flits, enter);
        route.clear();
        self.scratch_route = route;
        queued
    }

    /// The per-epoch GVT exchange: every tile, in tile order, sends the
    /// arbiter (tile 0) an update along its X-Y route, all leaving at cycle
    /// `enter`. Under [`NocModel::Contention`] the routes are walked
    /// link-major (see [`FanIn`]), which leaves every link as walking them
    /// message by message would; observers then see each message's
    /// per-link occupancy events, replayed from the recorded hops, and its
    /// network event in the order a message-by-message walk emits them.
    pub(crate) fn exchange_gvt(&mut self, enter: u64) {
        let flits = 2 * CONTROL_FLITS;
        // The arbiter's own update crosses no link. It is the exchange's
        // first message, so it is the one an armed `DuplicateMessage` copies.
        self.deliver(TrafficClass::Gvt, &[], 0, flits, enter);
        let replay = self.observers.has_custom();
        let fan_in = match (self.links.as_mut(), self.gvt_fan_in.as_mut()) {
            (Some(links), Some(fan_in)) => {
                links.walk_fan_in(fan_in, TrafficClass::Gvt, flits, enter, replay);
                Some(&*fan_in)
            }
            _ => None,
        };
        for t in 1..self.cfg.num_tiles() {
            let tile = TileId(t as u32);
            let queue_cycles = match fan_in {
                Some(fan_in) => {
                    if replay {
                        for hop in fan_in.route_hops(tile) {
                            let event = occupancy_event(hop, TrafficClass::Gvt, flits);
                            self.observers.link_occupancy(&event);
                        }
                    }
                    fan_in.queued()[t]
                }
                None => 0,
            };
            let hops = self.mesh.hops(tile, TileId(0));
            self.observers.network(&NetworkEvent {
                class: TrafficClass::Gvt,
                hops,
                flits,
                queue_cycles,
            });
        }
    }

    /// Walk `route` and announce the message (see
    /// [`SimState::send_message`]); the one place a message is delivered.
    fn deliver(
        &mut self,
        class: TrafficClass,
        route: &[u32],
        event_hops: u64,
        flits: u64,
        enter: u64,
    ) -> u64 {
        let queue_cycles = self.walk_route(class, route, flits, enter);
        self.observers.network(&NetworkEvent { class, hops: event_hops, flits, queue_cycles });
        if self.faults.duplicate_next {
            self.faults.duplicate_next = false;
            let dup = self.walk_route(class, route, flits, enter);
            self.observers.network(&NetworkEvent {
                class,
                hops: event_hops,
                flits,
                queue_cycles: dup,
            });
        }
        queue_cycles
    }

    /// Walk `flits` of `class` over `route` through the link FIFOs, entering
    /// the first link at cycle `enter`, and return the total queueing delay.
    /// Per-link occupancy events are built only when a custom observer
    /// listens. Returns zero under [`NocModel::Analytic`].
    #[inline]
    fn walk_route(&mut self, class: TrafficClass, route: &[u32], flits: u64, enter: u64) -> u64 {
        let Some(links) = self.links.as_mut() else { return 0 };
        if !self.observers.has_custom() {
            return links.walk(route, class, flits, enter, |_| {});
        }
        let observers = &mut self.observers;
        links.walk(route, class, flits, enter, |hop| {
            observers.link_occupancy(&occupancy_event(&hop, class, flits));
        })
    }

    /// The tile a core belongs to.
    #[inline]
    pub(crate) fn tile_of_core(&self, core: CoreId) -> TileId {
        self.caches.tile_of(core)
    }

    /// Mark a running task as finished: move it to the commit queue. (The
    /// engine removes it from the tile's running list, so [`SimState::gvt`]
    /// stops counting it as unfinished from that point on.)
    pub(crate) fn mark_finished(&mut self, task: TaskId) {
        let tile = self.tasks.tile(task);
        let key = self.tasks.key(task);
        self.tasks.set_status(task, TaskStatus::Finished);
        self.tiles[tile.index()].finished.insert(key);
    }

    /// Fill `out` with the number of idle (dispatchable) tasks per tile.
    pub(crate) fn idle_per_tile_into(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend(self.tiles.iter().map(|t| t.idle.len()));
    }

    /// Number of idle (dispatchable) tasks across all tiles, in O(1).
    pub(crate) fn idle_task_count(&self) -> usize {
        self.idle_tasks
    }

    /// Insert `key` into `tile`'s idle list, keeping the idle-task count in
    /// step.
    fn idle_insert(&mut self, tile: TileId, key: OrderKey) {
        if self.tiles[tile.index()].idle.insert(key) {
            self.idle_tasks += 1;
        }
    }

    /// Remove `key` from `tile`'s idle list, keeping the idle-task count in
    /// step.
    pub(crate) fn idle_remove(&mut self, tile: TileId, key: &OrderKey) {
        if self.tiles[tile.index()].idle.remove(key) {
            self.idle_tasks -= 1;
        }
    }

    /// The global virtual time: the commit key of the earliest unfinished
    /// task. `None` means every remaining task has finished executing, so
    /// all of them may commit.
    ///
    /// Computed by direct scan: every unfinished task lives in exactly one
    /// per-tile structure (idle and spilled are sorted key lists with O(1)
    /// minimums; running is at most one task per core), so the minimum falls
    /// out of a few dozen comparisons — no auxiliary priority queue to keep
    /// in sync with status changes.
    pub(crate) fn gvt(&self) -> Option<OrderKey> {
        let mut min: Option<OrderKey> = None;
        for tile in &self.tiles {
            for k in
                [tile.idle.first().copied(), tile.spilled.first().copied()].into_iter().flatten()
            {
                if min.is_none_or(|m| k < m) {
                    min = Some(k);
                }
            }
            for &t in &tile.running {
                let k = self.tasks.key(t);
                if min.is_none_or(|m| k < m) {
                    min = Some(k);
                }
            }
        }
        min
    }

    fn note_wake(&mut self, tile: TileId) {
        if !self.wake_tiles.contains(&tile) {
            self.wake_tiles.push(tile);
        }
    }

    // ------------------------------------------------------------------
    // Task creation, spilling and refilling
    // ------------------------------------------------------------------

    /// Register a new task and place it in its destination tile's task
    /// queue, spilling older idle tasks if the queue is full. Returns the
    /// new task's id.
    pub(crate) fn add_task(&mut self, desc: TaskDescriptor) -> TaskId {
        let tile = desc.tile;
        let ts = desc.ts;
        let id = self.tasks.add(desc);
        let key = (ts, id);
        self.remaining_tasks += 1;

        let cap = self.faults.effective_task_queue_cap(tile, self.cfg.task_queue_per_tile());
        if self.tiles[tile.index()].task_queue_occupancy() >= cap {
            self.spill_from_tile(tile);
        }
        self.idle_insert(tile, key);
        self.note_wake(tile);
        id
    }

    /// Spill a batch of the latest-key idle tasks of `tile` to memory,
    /// freeing task-queue entries (Section II-B "spills").
    pub(crate) fn spill_from_tile(&mut self, tile: TileId) {
        let batch = self.cfg.queues.spill_batch.max(1);
        let mut spilled = 0;
        while spilled < batch {
            let Some(&key) = self.tiles[tile.index()].idle.last() else { break };
            // Never spill the earliest idle task of the tile: the GVT may be
            // waiting on it, and spilling it could deadlock the commit
            // protocol.
            if self.tiles[tile.index()].idle.len() <= 1 {
                break;
            }
            self.idle_remove(tile, &key);
            self.tiles[tile.index()].spilled.insert(key);
            self.tasks.set_status(key.1, TaskStatus::Spilled);
            spilled += 1;
        }
        if spilled > 0 {
            self.spill_traffic(tile, spilled as u64, SpillDirection::Spilled);
        }
    }

    /// Account one spill or refill of `tasks` tasks between `tile` and the
    /// spill buffers in memory: the observers' [`SpillEvent`], then the
    /// line-sized memory messages to and from tile 0.
    fn spill_traffic(&mut self, tile: TileId, tasks: u64, direction: SpillDirection) {
        let cycles = tasks * SPILL_COST_PER_TASK;
        self.observers.spill(&SpillEvent { tile, tasks, cycles, direction });
        let hops = self.mesh.hops(tile, TileId(0)).max(1);
        let flits = LINE_FLITS * tasks;
        let at = self.now_cycle;
        self.send_message(TrafficClass::Memory, tile, TileId(0), hops, flits, at);
    }

    /// Refill a batch of the earliest-key spilled tasks of `tile` back into
    /// its task queue. Returns how many were refilled.
    pub(crate) fn refill_tile(&mut self, tile: TileId) -> usize {
        let batch = self.cfg.queues.spill_batch.max(1);
        let cap = self.faults.effective_task_queue_cap(tile, self.cfg.task_queue_per_tile());
        let mut refilled = 0;
        while refilled < batch {
            if self.tiles[tile.index()].task_queue_occupancy() >= cap {
                break;
            }
            let Some(&key) = self.tiles[tile.index()].spilled.first() else { break };
            self.tiles[tile.index()].spilled.remove(&key);
            self.idle_insert(tile, key);
            self.tasks.set_status(key.1, TaskStatus::Idle);
            refilled += 1;
        }
        if refilled > 0 {
            self.spill_traffic(tile, refilled as u64, SpillDirection::Refilled);
            self.note_wake(tile);
        }
        refilled
    }

    /// Pull one specific spilled task back into its tile's task queue (used
    /// by the commit protocol when the globally earliest unfinished task
    /// sits in a spill buffer: it must become dispatchable or the GVT can
    /// never advance past it).
    pub(crate) fn unspill_task(&mut self, task: TaskId) {
        if self.tasks.status(task) != TaskStatus::Spilled {
            return;
        }
        let tile = self.tasks.tile(task);
        let key = self.tasks.key(task);
        self.tiles[tile.index()].spilled.remove(&key);
        self.idle_insert(tile, key);
        self.tasks.set_status(task, TaskStatus::Idle);
        self.spill_traffic(tile, 1, SpillDirection::Refilled);
        self.note_wake(tile);
    }

    /// Move the earliest idle task of `victim` to `thief` (idealized work
    /// stealing: no latency, no traffic). Returns the stolen task, if any.
    /// A task still in flight to `victim` under [`NocModel::Contention`]
    /// (delivery cycle in the future) cannot be stolen before it arrives.
    pub(crate) fn steal_task(&mut self, thief: TileId, victim: TileId) -> Option<TaskId> {
        if thief == victim {
            return None;
        }
        let &key = self.tiles[victim.index()].idle.first()?;
        if self.tasks.ready_at(key.1) > self.now_cycle {
            return None;
        }
        self.idle_remove(victim, &key);
        self.idle_insert(thief, key);
        self.tasks.set_tile(key.1, thief);
        Some(key.1)
    }

    // ------------------------------------------------------------------
    // Memory accesses with eager conflict detection
    // ------------------------------------------------------------------

    /// Perform a speculative read of the word at `addr` on behalf of `task`
    /// running on `core`, `elapsed` cycles into the task's execution (so
    /// contention-mode messages enter the network at the right virtual
    /// time). Returns `(value, latency_cycles)`.
    pub(crate) fn speculative_read(
        &mut self,
        task: TaskId,
        core: CoreId,
        addr: Addr,
        elapsed: u64,
    ) -> (u64, u64) {
        let latency = self.access_line(task, core, addr, AccessKind::Read, elapsed);
        (self.mem.load(addr), latency)
    }

    /// Perform a speculative write of `value` to `addr` on behalf of `task`,
    /// `elapsed` cycles into the task's execution. Returns the latency in
    /// cycles. The previous value is recorded in the task's undo log by the
    /// caller (the task context owns the log until the execution is
    /// integrated).
    pub(crate) fn speculative_write(
        &mut self,
        task: TaskId,
        core: CoreId,
        addr: Addr,
        value: u64,
        elapsed: u64,
    ) -> (swarm_mem::UndoEntry, u64) {
        let latency = self.access_line(task, core, addr, AccessKind::Write, elapsed);
        let undo = self.mem.store_logged(addr, value);
        (undo, latency)
    }

    /// Conflict-check and charge one line access; aborts conflicting
    /// later-key tasks eagerly. Returns the access latency. Under
    /// [`NocModel::Contention`] the access's off-tile messages enter the
    /// network at `now_cycle + elapsed` and any queueing delay on the data
    /// transfer is added to the returned latency.
    fn access_line(
        &mut self,
        task: TaskId,
        core: CoreId,
        addr: Addr,
        kind: AccessKind,
        elapsed: u64,
    ) -> u64 {
        let line = LineAddr::containing(addr);
        let tile = self.tile_of_core(core);

        // A repeat read of the running body's previous line, or a repeat
        // write once the body has written it, finds no conflict: the
        // previous access already aborted every later-key task it could
        // conflict with, and nothing else touched the line table since.
        // Only the check cost remains to charge.
        let check_cost = match self.last_access {
            Some(last) if last.line == line && (kind == AccessKind::Read || last.wrote) => {
                let cost = last.check_cost.unwrap_or_else(|| self.check_cost(line));
                self.last_access = Some(LastLineAccess { check_cost: Some(cost), ..last });
                cost
            }
            _ => {
                let (cost, aborted) = self.check_conflicts(task, tile, line, kind);
                self.last_access = Some(LastLineAccess {
                    line,
                    wrote: kind == AccessKind::Write,
                    // Aborts shrank the line's accessor list: re-read it on
                    // a repeat.
                    check_cost: (!aborted).then_some(cost),
                });
                cost
            }
        };

        // Charge the cache/NoC cost of the access itself.
        let outcome = self.caches.access(core, line, kind);
        let mut latency = outcome.base_latency + check_cost;
        // An active DelayedMessage fault slows every off-tile transfer this
        // tile issues (zero unless armed, so the fault-free path is exact).
        let delay = self.faults.extra_remote_latency(tile);
        // Cycle at which the access's messages leave the tile. Earlier
        // accesses in the same task body already folded their own queueing
        // delays into `elapsed`, so contention naturally compounds.
        let at = self.now_cycle + elapsed;
        match outcome.level {
            HitLevel::L1 | HitLevel::L2 => {}
            HitLevel::RemoteL2 { owner } => {
                let home = self.caches.home_tile(line);
                latency +=
                    2 * self.mesh.latency(tile, owner) + self.mesh.latency(tile, home) + delay;
                let owner_hops = self.mesh.hops(tile, owner);
                // The line transfer is on the access's critical path: its
                // queueing delay lands in the latency. The directory control
                // message only occupies links.
                latency += self.send_message(
                    TrafficClass::Memory,
                    tile,
                    owner,
                    owner_hops,
                    LINE_FLITS,
                    at,
                );
                let home_hops = self.mesh.hops(tile, home);
                self.send_message(TrafficClass::Memory, tile, home, home_hops, CONTROL_FLITS, at);
            }
            HitLevel::L3 { home } => {
                latency += 2 * self.mesh.latency(tile, home) + delay;
                let hops = self.mesh.hops(tile, home);
                latency +=
                    self.send_message(TrafficClass::Memory, tile, home, hops, LINE_FLITS, at);
            }
            HitLevel::Memory { home } => {
                latency += 2 * self.mesh.latency(tile, home) + delay;
                let hops = self.mesh.hops(tile, home) * 2 + 2;
                latency +=
                    self.send_message(TrafficClass::Memory, tile, home, hops, LINE_FLITS, at);
            }
        }
        for inv in outcome.invalidated {
            let hops = self.mesh.hops(tile, inv);
            self.send_message(TrafficClass::Memory, tile, inv, hops, CONTROL_FLITS, at);
        }
        latency
    }

    /// Eager conflict detection for `task`'s access to `line` from `tile`:
    /// any uncommitted, later-key task that has accessed the line in a
    /// conflicting way must abort (its accesses would otherwise appear out
    /// of timestamp order). Returns the check's cycle cost, charged for the
    /// accessor list as found, and whether anything was aborted.
    fn check_conflicts(
        &mut self,
        task: TaskId,
        tile: TileId,
        line: LineAddr,
        kind: AccessKind,
    ) -> (u64, bool) {
        let my_key = self.tasks.key(task);
        // The victim list is a persistent scratch buffer: conflicts are
        // frequent under contention and a fresh Vec per access was
        // measurable.
        let mut victims = std::mem::take(&mut self.scratch_victims);
        debug_assert!(victims.is_empty());
        let mut check_cost = 0;
        if let Some(acc) = self.line_table.get(line) {
            check_cost = accessor_cost(acc.readers.len() + acc.writers.len());
            for &wk in &acc.writers {
                if wk.1 != task && wk > my_key {
                    victims.push(wk.1);
                }
            }
            if kind == AccessKind::Write {
                for &rk in &acc.readers {
                    if rk.1 != task && rk > my_key && !victims.contains(&rk.1) {
                        victims.push(rk.1);
                    }
                }
            }
        }
        let mut aborted = false;
        for &v in &victims {
            // The victim may already have been aborted transitively.
            if !self.tasks.key_is_live_for_abort(v) {
                continue;
            }
            self.abort_task(v, tile);
            aborted = true;
        }
        victims.clear();
        self.scratch_victims = victims;
        (check_cost, aborted)
    }

    /// The conflict-check cost of an access to `line` as the line table
    /// stands now.
    fn check_cost(&self, line: LineAddr) -> u64 {
        self.line_table
            .get(line)
            .map_or(0, |acc| accessor_cost(acc.readers.len() + acc.writers.len()))
    }

    /// Register a completed execution's read/write sets in the line table so
    /// later accesses by other tasks can detect conflicts against it.
    pub(crate) fn register_access_sets(&mut self, task: TaskId) {
        let key = self.tasks.key(task);
        let body = self.tasks.body(task);
        self.line_table.register(key, &body.read_set, &body.write_set);
    }

    fn unregister_access_sets(&mut self, task: TaskId) {
        let body = self.tasks.body(task);
        self.line_table.unregister(task, &body.read_set, &body.write_set);
    }

    // ------------------------------------------------------------------
    // Aborts
    // ------------------------------------------------------------------

    /// Abort `victim` and everything that transitively depends on it: its
    /// descendants (children will be re-created when the task re-runs) and
    /// every uncommitted later-key task that read or wrote data `victim`
    /// wrote (conservative data-dependence closure).
    ///
    /// Works entirely out of persistent scratch buffers; a cascade of any
    /// size allocates only if it outgrows every previous cascade. Not
    /// reentrant (an abort cannot trigger another abort — the cascade
    /// already computes the full closure).
    pub(crate) fn abort_task(&mut self, victim: TaskId, aborter_tile: TileId) {
        // 1. Compute the abort set (closure over children and dependents).
        let mut set = std::mem::take(&mut self.scratch_abort_set);
        let mut stack = std::mem::take(&mut self.scratch_abort_stack);
        debug_assert!(set.is_empty() && stack.is_empty());
        stack.push(victim);
        while let Some(t) = stack.pop() {
            if set.contains(&t) {
                continue;
            }
            if self.tasks.status(t).is_terminal() {
                continue;
            }
            set.push(t);
            let my_key = self.tasks.key(t);
            let body = self.tasks.body(t);
            // Children of the current execution.
            for &c in &body.children {
                stack.push(c);
            }
            // Data-dependent tasks: later-key readers/writers of lines this
            // task wrote.
            for &line in &body.write_set {
                if let Some(acc) = self.line_table.get(line) {
                    for &ok in acc.readers.iter().chain(acc.writers.iter()) {
                        if ok.1 != t && ok > my_key {
                            stack.push(ok.1);
                        }
                    }
                }
            }
        }

        // 2. Decide which members are discarded (their parent is also being
        //    aborted, so the parent's re-execution will re-create them).
        let mut discard = std::mem::take(&mut self.scratch_abort_discard);
        debug_assert!(discard.is_empty());
        for &t in &set {
            discard.push(self.tasks.body(t).parent.map(|p| set.contains(&p)).unwrap_or(false));
        }

        // 3. Roll back all undo entries of the set, newest store first.
        let mut undo = std::mem::take(&mut self.scratch_undo);
        debug_assert!(undo.is_empty());
        for &t in &set {
            undo.extend_from_slice(&self.tasks.body(t).undo);
        }
        let rollback_entries = undo.len() as u64;
        self.mem.rollback_all(&mut undo);
        undo.clear();
        self.scratch_undo = undo;

        // 4. Update per-task state.
        for i in 0..set.len() {
            let t = set[i];
            self.unregister_access_sets(t);
            let tile = self.tasks.tile(t);
            let status = self.tasks.status(t);
            let key = self.tasks.key(t);
            let executed = matches!(status, TaskStatus::Running | TaskStatus::Finished);
            // Announce each doomed task once: a Doomed member (still
            // draining on its core) was announced by the cascade that
            // doomed it, so a second cascade reaching it is not a new abort.
            if !status.is_terminal() && !matches!(status, TaskStatus::Doomed { .. }) {
                let cycles = if executed { self.tasks.body(t).exec_cycles } else { 0 };
                let ts = self.tasks.ts(t);
                self.observers.abort(&AbortEvent {
                    task: t,
                    ts,
                    tile,
                    aborter_tile,
                    cycles,
                    executed,
                });
            }
            if executed {
                // Abort message to the victim's tile (occupies links under
                // contention; the cascade itself is not delayed by it).
                let hops = self.mesh.hops(aborter_tile, tile);
                let at = self.now_cycle;
                self.send_message(TrafficClass::Abort, aborter_tile, tile, hops, CONTROL_FLITS, at);
            }
            match status {
                TaskStatus::Idle => {
                    self.idle_remove(tile, &key);
                }
                TaskStatus::Spilled => {
                    self.tiles[tile.index()].spilled.remove(&key);
                }
                TaskStatus::Finished => {
                    self.tiles[tile.index()].finished.remove(&key);
                    // A commit-queue slot was freed; stalled cores may now
                    // dispatch.
                    self.note_wake(tile);
                }
                TaskStatus::Running => {
                    // The core keeps executing the doomed task until its
                    // scheduled finish; the engine requeues or discards it
                    // then.
                    self.tasks.set_status(t, TaskStatus::Doomed { discard: discard[i] });
                    self.tasks.body_mut(t).reset_execution();
                    continue;
                }
                TaskStatus::Doomed { discard: earlier } => {
                    // A discard decision is sticky: once a parent abort
                    // dooms the task it must never be requeued.
                    let discard = earlier || discard[i];
                    self.tasks.set_status(t, TaskStatus::Doomed { discard });
                    continue;
                }
                TaskStatus::Committed | TaskStatus::Discarded => continue,
            }
            // Non-running members are settled immediately.
            self.requeue_or_discard(t, discard[i]);
        }

        set.clear();
        discard.clear();
        self.scratch_abort_set = set;
        self.scratch_abort_stack = stack;
        self.scratch_abort_discard = discard;

        // 5. Rollback memory traffic.
        if rollback_entries > 0 {
            let flits = rollback_entries * CONTROL_FLITS;
            self.record_traffic(TrafficClass::Abort, 1, flits);
        }
    }

    /// Reset an aborted task's execution, then discard it (its parent's
    /// re-execution re-creates it) or requeue it idle on its tile. A doomed
    /// running task comes here once its core releases it.
    pub(crate) fn requeue_or_discard(&mut self, task: TaskId, discard: bool) {
        self.tasks.body_mut(task).reset_execution();
        if discard {
            self.tasks.set_status(task, TaskStatus::Discarded);
            self.remaining_tasks -= 1;
            self.tasks.free_body(task);
        } else {
            let tile = self.tasks.tile(task);
            self.tasks.set_status(task, TaskStatus::Idle);
            self.idle_insert(tile, self.tasks.key(task));
            self.note_wake(tile);
        }
    }

    // ------------------------------------------------------------------
    // Commits
    // ------------------------------------------------------------------

    /// Commit a finished task: free its commit-queue entry, retire its
    /// speculative state (reclaiming its arena body slot) and account its
    /// cycles. Returns `(tile, bucket, exec_cycles)` so the engine can
    /// inform the mapper.
    pub(crate) fn commit_task(&mut self, task: TaskId) -> (TileId, Option<u16>, u64) {
        debug_assert_eq!(
            self.tasks.status(task),
            TaskStatus::Finished,
            "only finished tasks commit"
        );
        let tile = self.tasks.tile(task);
        let key = self.tasks.key(task);
        let ts = self.tasks.ts(task);
        let (cycles, bucket, hint, num_args) = {
            let body = self.tasks.body(task);
            (body.exec_cycles, body.bucket, body.hint, body.args.len())
        };
        self.unregister_access_sets(task);
        self.tiles[tile.index()].finished.remove(&key);
        self.remaining_tasks -= 1;
        // Take the trace out of the body so the event can borrow it while
        // the observers borrow the rest of the state; its (cleared) buffer
        // goes back afterwards so the slot recycles the capacity. Unprofiled
        // runs record no trace, and taking an empty one allocates nothing.
        let mut trace = std::mem::take(&mut self.tasks.body_mut(task).access_trace);
        let accesses = self.profiling.then_some(trace.as_slice());
        self.observers.commit(&CommitEvent {
            task,
            ts,
            hint,
            tile,
            bucket,
            cycles,
            num_args,
            accesses,
        });
        trace.clear();
        self.tasks.body_mut(task).access_trace = trace;
        self.tasks.set_status(task, TaskStatus::Committed);
        // Reclaim the body slot: the task's speculative state is final.
        self.tasks.free_body(task);
        self.note_wake(tile);
        (tile, bucket, cycles)
    }

    /// Whether `task` may commit ahead of earlier-created tasks with the same
    /// timestamp: its parent must have committed and no uncommitted
    /// earlier-key task may have touched its data in a conflicting way.
    pub(crate) fn can_commit_relaxed(&self, task: TaskId) -> bool {
        if self.tasks.status(task) != TaskStatus::Finished {
            return false;
        }
        let body = self.tasks.body(task);
        if let Some(parent) = body.parent {
            // Statuses outlive arena bodies, so this works even for parents
            // that committed (and had their body slot reclaimed) long ago.
            if self.tasks.status(parent) != TaskStatus::Committed {
                return false;
            }
        }
        let my_key = self.tasks.key(task);
        // No earlier uncommitted writer of anything I read or wrote, and no
        // earlier uncommitted reader of anything I wrote.
        for &line in body.read_set.iter().chain(body.write_set.iter()) {
            if let Some(acc) = self.line_table.get(line) {
                for &wk in &acc.writers {
                    if wk.1 != task && wk < my_key {
                        return false;
                    }
                }
            }
        }
        for &line in &body.write_set {
            if let Some(acc) = self.line_table.get(line) {
                for &rk in &acc.readers {
                    if rk.1 != task && rk < my_key {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// The conflict-check cost of comparing against `compared` accessors.
fn accessor_cost(compared: usize) -> u64 {
    CONFLICT_CHECK_COST + compared as u64 * CONFLICT_COMPARE_COST
}

/// The observer event for one link a `flits`-flit message of `class`
/// crossed.
fn occupancy_event(hop: &Hop, class: TrafficClass, flits: u64) -> LinkOccupancyEvent {
    LinkOccupancyEvent {
        link: hop.link,
        class,
        flits,
        enter: hop.enter,
        depart: hop.depart,
        queue_cycles: hop.queue_cycles,
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;
    use crate::observer::SimObserver;
    use crate::task::TaskArgs;
    use swarm_types::Hint;

    /// Every network and link-occupancy event, in emission order, and for
    /// each network event the occupancy events emitted since the previous
    /// one.
    #[derive(Default)]
    struct Tape {
        messages: Vec<NetworkEvent>,
        hops: Vec<LinkOccupancyEvent>,
        hops_before: Vec<u64>,
        since: u64,
    }

    impl SimObserver for Tape {
        fn on_network_message(&mut self, event: &NetworkEvent) {
            self.messages.push(*event);
            self.hops_before.push(std::mem::take(&mut self.since));
        }
        fn on_link_occupancy(&mut self, event: &LinkOccupancyEvent) {
            self.hops.push(*event);
            self.since += 1;
        }
    }

    /// One GVT exchange at cycle 40 on a 256-core (8x8-tile) contention
    /// machine whose links already carry traffic, with the duplicate fault
    /// armed or not: the events it emitted and the final link counters.
    fn exchange(duplicate: bool) -> (Tape, swarm_noc::LinkStats) {
        let mut cfg = SystemConfig::with_cores(256);
        cfg.noc.model = NocModel::Contention;
        let mut state = SimState::new(cfg);
        let tape = Rc::new(RefCell::new(Tape::default()));
        state.observers.attach(Box::new(Rc::clone(&tape)));
        for from in [9, 18, 63] {
            state.send_message(TrafficClass::Memory, TileId(from), TileId(0), 1, 5, 30);
        }
        let before = tape.borrow().messages.len();
        state.faults.duplicate_next = duplicate;
        state.exchange_gvt(40);
        assert!(!state.faults.duplicate_next, "the exchange consumes an armed duplicate");
        let links = state.links.as_ref().expect("contention machine").snapshot();
        drop(state);
        let mut tape = Rc::try_unwrap(tape).ok().expect("the state is gone").into_inner();
        tape.messages.drain(..before);
        tape.hops_before.drain(..before);
        tape.hops.retain(|h| h.class == TrafficClass::Gvt);
        (tape, links)
    }

    #[test]
    fn an_armed_duplicate_copies_the_arbiters_own_gvt_update_and_no_link() {
        let (plain, plain_links) = exchange(false);
        let (dup, dup_links) = exchange(true);
        assert_eq!(plain.messages.len(), 64);
        assert_eq!(dup.messages.len(), 65);
        let arbiter = NetworkEvent { class: TrafficClass::Gvt, hops: 0, flits: 2, queue_cycles: 0 };
        assert_eq!(dup.messages[..2], [arbiter, arbiter]);
        assert_eq!(dup.messages[1..], plain.messages[..]);
        assert!(plain.messages.iter().any(|m| m.queue_cycles > 0), "the exchange queued");
        // The 63 other routes cross 448 links, replayed for the observer
        // message by message either way: each update follows its own hops.
        // The links end up identical.
        assert_eq!(plain.hops.len(), 448);
        for tape in [&plain, &dup] {
            let hops: Vec<u64> = tape.messages.iter().map(|m| m.hops).collect();
            assert_eq!(tape.hops_before, hops);
        }
        assert_eq!(dup.hops, plain.hops);
        assert_eq!(dup_links, plain_links);
    }

    /// Every abort event, in emission order.
    #[derive(Default)]
    struct Aborts(Vec<AbortEvent>);

    impl SimObserver for Aborts {
        fn on_abort(&mut self, event: &AbortEvent) {
            self.0.push(*event);
        }
    }

    /// The word the running child wrote speculatively.
    const CHILD_WORD: Addr = 0x40;

    /// A 16-core machine whose tile 0 holds a finished parent (ts 1, 40
    /// cycles) and its child running on a core (ts 2, 70 cycles in, having
    /// written [`CHILD_WORD`]), recording every abort event.
    fn finished_parent_and_running_child() -> (SimState, Rc<RefCell<Aborts>>, TaskId, TaskId) {
        let mut state = SimState::new(SystemConfig::with_cores(16));
        let aborts = Rc::new(RefCell::new(Aborts::default()));
        state.observers.attach(Box::new(Rc::clone(&aborts)));
        let tile = TileId(0);
        let add = |state: &mut SimState, ts, parent| {
            let id = state.add_task(TaskDescriptor {
                fid: 0,
                ts,
                hint: Hint::None,
                hint_hash: None,
                bucket: None,
                args: TaskArgs::default(),
                parent,
                tile,
            });
            let key = state.tasks.key(id);
            state.idle_remove(tile, &key);
            id
        };
        let parent = add(&mut state, 1, None);
        state.tasks.body_mut(parent).exec_cycles = 40;
        state.mark_finished(parent);
        let child = add(&mut state, 2, Some(parent));
        state.tasks.body_mut(parent).children.push(child);
        state.tiles[tile.index()].running.push(child);
        state.tasks.set_status(child, TaskStatus::Running);
        let undo = state.mem.store_logged(CHILD_WORD, 7);
        let body = state.tasks.body_mut(child);
        body.exec_cycles = 70;
        body.write_set.push(LineAddr::containing(CHILD_WORD));
        body.undo.push(undo);
        state.register_access_sets(child);
        (state, aborts, parent, child)
    }

    /// A running task hit by two cascades, one of which also aborts its
    /// parent, in either order: announced once, as the executed run it was;
    /// discarded because one cascade said so; settled exactly once, when its
    /// core's `Finish` releases it.
    #[test]
    fn a_doomed_run_is_announced_once_and_settled_once_at_its_finish() {
        for parent_first in [false, true] {
            let (mut state, aborts, parent, child) = finished_parent_and_running_child();
            let cascades = if parent_first { [parent, child] } else { [child, parent] };
            let mut parent_aborted = false;
            for victim in cascades {
                state.abort_task(victim, TileId(1));
                parent_aborted |= victim == parent;
                let doomed = TaskStatus::Doomed { discard: parent_aborted };
                assert_eq!(state.tasks.status(child), doomed);
                assert!(!state.tasks.key_is_live_for_abort(child));
                // Still draining on its core, and the run still counts it.
                assert_eq!(state.tiles[0].running, [child]);
                assert_eq!(state.remaining_tasks, 2);
            }
            assert_eq!(state.mem.load(CHILD_WORD), 0, "the child's write was rolled back");
            assert!(state.line_table.is_empty(), "no doomed or requeued access set stays");
            let announced: Vec<_> =
                aborts.borrow().0.iter().map(|a| (a.task, a.executed, a.cycles)).collect();
            let (parent_event, child_event) = ((parent, true, 40), (child, true, 70));
            let expected = if parent_first {
                [parent_event, child_event]
            } else {
                [child_event, parent_event]
            };
            assert_eq!(announced, expected);

            // The core's `Finish`, as the engine handles it.
            state.tiles[0].running.clear();
            let TaskStatus::Doomed { discard } = state.tasks.status(child) else {
                panic!("the child is doomed until its finish");
            };
            state.requeue_or_discard(child, discard);
            assert_eq!(state.tasks.status(child), TaskStatus::Discarded);
            assert_eq!(state.remaining_tasks, 1, "only the requeued parent remains");
            assert_eq!(state.tiles[0].idle.iter().copied().collect::<Vec<_>>(), [(1, parent)]);
            assert_eq!(aborts.borrow().0.len(), 2, "settling announces nothing");
        }
    }
}
