//! The discrete-event simulation engine.
//!
//! The engine owns the simulation state, the application and the scheduler
//! ([`TaskMapper`]), and drives the Swarm execution model:
//!
//! * cores dequeue the earliest-timestamp dispatchable task from their tile's
//!   task unit (optionally skipping tasks whose hashed hint matches a running
//!   task — the same-hint serialization of Section III-B);
//! * task bodies run speculatively against the simulated memory with eager
//!   conflict detection and undo-log rollback;
//! * children are enqueued to the tile chosen by the mapper when their parent
//!   finishes;
//! * a periodic GVT update commits every finished task that precedes the
//!   earliest unfinished task, plus independent equal-timestamp tasks (the
//!   order Swarm picks among equal timestamps, which unordered programs rely
//!   on);
//! * a periodic load-balancer epoch lets hint-based mappers remap buckets.
//!
//! Pending events live in a [`TimingWheel`] keyed by cycle: events pop in
//! ascending `(cycle, schedule order)` — the explicit ordering contract is
//! documented on [`TimingWheel::schedule`], so the `Event` type needs no
//! `Ord` of its own. The hot loop allocates nothing in steady state: task
//! records come from the state's free-listed arena, and a running body
//! records its accesses, undo log and requested children straight into its
//! own arena body, whose buffers keep their capacity across the slot's
//! tenants.

use swarm_mem::SimMemory;
use swarm_noc::{flits_for_bytes, TrafficClass};
use swarm_types::config::GVT_EPOCH;
use swarm_types::{CoreId, Hint, SimError, SimResult, SystemConfig, TaskId, TileId, Timestamp};

use crate::app::{SwarmApp, TaskCtx};
use crate::event_queue::TimingWheel;
use crate::fault::{FaultKind, FaultPlan};
use crate::mapper::TaskMapper;
use crate::observer::{CoreWaitEvent, DequeueEvent, FaultInjectedEvent, SimObserver, WaitKind};
use crate::state::{CoreState, SimState};
use crate::stats::RunStats;
use crate::task::{OrderKey, TaskArgs, TaskDescriptor, TaskStatus};

/// Safety limit on executed task bodies (including aborted re-executions);
/// exceeding it aborts the run with [`SimError::TaskLimitExceeded`].
pub const DEFAULT_TASK_LIMIT: u64 = 50_000_000;

/// An engine event. Ordering between events is entirely the
/// [`TimingWheel`]'s `(cycle, schedule order)` contract; the type itself is
/// deliberately unordered (the seed's `(cycle, seq, Event)` heap tuple could
/// fall through to a derived `Ord` on `Event`, which was never meaningful).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// A core finished executing its current task.
    Finish(CoreId),
    /// A core should (re)attempt to dispatch a task.
    TryDispatch(CoreId),
    /// Under a work-stealing mapper, every core of the mask at this index
    /// in [`Engine::sweep_masks`] (the cores that were not busy when the
    /// wake was processed) re-attempts dispatch, in core-index order.
    Sweep(u32),
    /// Periodic global-virtual-time update (commits).
    Gvt,
    /// Periodic load-balancer reconfiguration opportunity.
    LbEpoch,
    /// Execute the fault-plan event at this index (see [`FaultPlan`]).
    Fault(u32),
}

/// The simulation engine. Construct one per run through the validated
/// [`crate::SimBuilder`], the only public way to build an engine.
pub struct Engine {
    state: SimState,
    app: Box<dyn SwarmApp>,
    mapper: Box<dyn TaskMapper>,
    events: TimingWheel<Event>,
    now: u64,
    executed_bodies: u64,
    /// Queued `Finish`/`TryDispatch` events, with a `Sweep` counting once
    /// per core in its mask. When this hits zero with tasks remaining and a
    /// GVT tick commits nothing, no future event can change the state: the
    /// run is deadlocked (see [`SimError::Deadlock`]).
    pending_core_events: u64,
    /// Events popped from the event queue so far.
    events_processed: u64,
    /// Core bitmasks (64 cores per word) of the queued `Sweep` events,
    /// indexed by the event's payload; slots listed in `sweep_free` are
    /// spare and all-zero, so sweeps allocate nothing once the pool is warm.
    sweep_masks: Vec<Vec<u64>>,
    /// Indices of the spare slots in `sweep_masks`.
    sweep_free: Vec<u32>,
    /// The fault plan to execute, if any (see [`crate::fault`]). `None`
    /// leaves every fault hook a constant-false branch.
    fault_plan: Option<FaultPlan>,
    /// Wall-clock anchor for the `max_wall_ms` budget; captured at
    /// [`Engine::run`] entry only when that budget is configured.
    wall_start: Option<std::time::Instant>,
    /// Scratch for per-tile idle counts handed to the mapper.
    idle_scratch: Vec<usize>,
    /// Scratch for the GVT commit walk (keys of committable tasks).
    commit_scratch: Vec<OrderKey>,
    /// Scratch that swaps with the state's wake list while processing it.
    wake_scratch: Vec<TileId>,
}

impl Engine {
    /// Create an engine for `cfg` running `app` under `mapper`.
    /// [`crate::SimBuilder::build`] validates `cfg` before calling this.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub(crate) fn new(
        cfg: SystemConfig,
        app: Box<dyn SwarmApp>,
        mapper: Box<dyn TaskMapper>,
    ) -> Self {
        Engine {
            state: SimState::new(cfg),
            app,
            mapper,
            events: TimingWheel::new(),
            now: 0,
            executed_bodies: 0,
            pending_core_events: 0,
            events_processed: 0,
            sweep_masks: Vec::new(),
            sweep_free: Vec::new(),
            fault_plan: None,
            wall_start: None,
            idle_scratch: Vec::new(),
            commit_scratch: Vec::new(),
            wake_scratch: Vec::new(),
        }
    }

    /// Attach a custom [`SimObserver`]; it is notified after the built-in
    /// statistics observer, in attach order.
    pub(crate) fn add_observer(&mut self, observer: Box<dyn SimObserver>) -> &mut Self {
        self.state.observers.attach(observer);
        self
    }

    /// Enable collection of per-committed-task access traces (needed for the
    /// access classification of Fig. 3 / Fig. 6).
    pub(crate) fn enable_profiling(&mut self) -> &mut Self {
        self.state.profiling = true;
        self
    }

    /// Execute [`FaultKind::LostTaskWake`]: plant a task that is registered
    /// as remaining work but has no task-queue entry and no pending wake. A
    /// healthy engine cannot reach this state (every enqueue wakes its
    /// tile), so the run must end in [`SimError::Deadlock`] once all healthy
    /// work drains, counting the planted task in `remaining`.
    fn plant_lost_task(&mut self, ts: Timestamp) {
        // Drop only the wake this add produces (if any): pre-existing wakes
        // belong to healthy work and must survive a mid-run injection.
        let wakes_before = self.state.wake_tiles.len();
        let desc = TaskDescriptor {
            fid: 0,
            ts,
            hint: Hint::None,
            hint_hash: None,
            bucket: None,
            args: TaskArgs::default(),
            parent: None,
            tile: TileId(0),
        };
        let lost = self.state.add_task(desc);
        let key = self.state.tasks.key(lost);
        self.state.idle_remove(TileId(0), &key);
        self.state.wake_tiles.truncate(wakes_before);
    }

    /// Attach a deterministic [`FaultPlan`]; its events are scheduled into
    /// the event queue when [`Engine::run`] starts.
    pub(crate) fn set_fault_plan(&mut self, plan: FaultPlan) -> &mut Self {
        self.fault_plan = (!plan.is_empty()).then_some(plan);
        self
    }

    /// Read-only access to the simulation state.
    pub(crate) fn state(&self) -> &SimState {
        &self.state
    }

    /// The simulated shared memory: after [`Engine::run`], the committed
    /// final state the application validated.
    pub fn memory(&self) -> &SimMemory {
        &self.state.mem
    }

    /// Number of events popped from the event queue so far: a deterministic
    /// count of the engine's scheduling work (a `Sweep` over many cores
    /// counts once).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Schedule a core event (`Finish`/`TryDispatch`), tracking the count of
    /// outstanding ones for deadlock detection.
    fn schedule_core(&mut self, at: u64, event: Event) {
        debug_assert!(matches!(event, Event::Finish(_) | Event::TryDispatch(_)));
        self.pending_core_events += 1;
        self.events.schedule(at, event);
    }

    /// Run the application to completion and return the run statistics.
    ///
    /// # Errors
    ///
    /// Returns an error if the executed-task safety limit is exceeded, if a
    /// child task regresses its parent's timestamp, if the simulation
    /// deadlocks (tasks remain but no event can make progress — see
    /// [`SimError::Deadlock`]), or if the final memory state fails the
    /// application's validation.
    pub fn run(&mut self) -> SimResult<RunStats> {
        // Sequential setup: let the application lay out its initial data.
        self.app.init_memory(&mut self.state.mem);
        // Enqueue the initial tasks (the program's `main`).
        let initial = self.app.initial_tasks();
        for t in initial {
            self.enqueue_task(t.fid, t.ts, t.hint, t.args.as_slice().into(), None)?;
        }
        self.process_wakes();
        let lb_epoch = self.state.cfg.lb_epoch;
        self.events.schedule(GVT_EPOCH, Event::Gvt);
        self.events.schedule(lb_epoch, Event::LbEpoch);
        // Schedule every planned fault at its exact cycle; same-cycle plan
        // entries fire in plan order (the wheel's FIFO slot contract).
        if let Some(plan) = &self.fault_plan {
            for (i, fault) in plan.events().iter().enumerate() {
                self.events.schedule(fault.at_cycle, Event::Fault(i as u32));
            }
        }
        self.wall_start = (self.state.cfg.max_wall_ms > 0).then(std::time::Instant::now);

        while self.state.remaining_tasks > 0 {
            let Some((at, event)) = self.events.pop() else {
                // Tasks remain but the event queue drained: nothing can ever
                // make progress again. (Normally unreachable: the GVT event
                // reschedules itself while tasks remain, and reports the
                // deadlock itself when the system quiesces.)
                return Err(self.deadlock_error());
            };
            self.events_processed += 1;
            self.now = at.max(self.now);
            // Mirror the clock into the state so mechanisms triggered by
            // this event can timestamp the messages they send.
            self.state.now_cycle = self.now;
            match event {
                Event::Finish(core) => {
                    self.pending_core_events -= 1;
                    self.handle_finish(core)?;
                }
                Event::TryDispatch(core) => {
                    self.pending_core_events -= 1;
                    self.handle_try_dispatch(core)?;
                }
                Event::Sweep(slot) => self.handle_sweep(slot)?,
                Event::Gvt => self.handle_gvt()?,
                Event::LbEpoch => self.handle_lb_epoch(),
                Event::Fault(index) => self.handle_fault(index as usize),
            }
            self.check_task_limit()?;
        }

        let runtime = self.now;
        // Close out idle/stall accounting for cores that never woke again.
        for i in 0..self.state.cores.len() {
            let (kind, since) = match self.state.cores[i] {
                CoreState::Idle { since } => (WaitKind::Empty, since),
                CoreState::Stalled { since } => (WaitKind::Stalled, since),
                CoreState::Busy { .. } => continue,
            };
            self.state.observers.core_wait(&CoreWaitEvent {
                core: CoreId(i as u32),
                kind,
                cycles: runtime.saturating_sub(since),
            });
        }

        self.app.validate(&self.state.mem).map_err(SimError::ValidationFailed)?;

        Ok(self.collect_stats(runtime))
    }

    fn collect_stats(&mut self, runtime: u64) -> RunStats {
        let scheduler = self.mapper.name().to_string();
        let app = self.app.name().to_string();
        let cores = self.state.cfg.num_cores();
        let link_stats = self.state.links.as_ref().map(|l| l.snapshot());
        let stats = self
            .state
            .observers
            .stats_mut()
            .take_run_stats(scheduler, app, cores, runtime, link_stats);
        self.state.observers.run_end(&stats);
        stats
    }

    // ------------------------------------------------------------------
    // Fault execution and failure diagnostics
    // ------------------------------------------------------------------

    /// Execute the plan's `index`-th fault at the current cycle. One-shot
    /// faults act immediately; persistent ones flip a switch in the state's
    /// [`crate::fault::FaultRuntime`] that the affected paths consult.
    fn handle_fault(&mut self, index: usize) {
        let fault = self.fault_plan.as_ref().expect("fault event without a plan").events()[index];
        self.state.observers.fault_injected(&FaultInjectedEvent { index, fault, cycle: self.now });
        match fault.kind {
            FaultKind::LostTaskWake { ts } => self.plant_lost_task(ts),
            FaultKind::DelayedMessage { tile, extra_cycles } => {
                self.state.faults.delayed = Some((tile, extra_cycles));
            }
            FaultKind::DuplicateMessage => self.state.faults.duplicate_next = true,
            FaultKind::QueueSqueeze { tile, capacity } => {
                self.state.faults.squeeze = Some((tile, capacity));
            }
            FaultKind::StuckCore { core } => self.state.faults.stuck = Some(core),
            FaultKind::AbortStorm => self.abort_storm(),
            FaultKind::CorruptHint { xor } => self.state.faults.hint_xor = Some(xor),
        }
        self.process_wakes();
    }

    /// Abort every live speculative task once, walking tiles in index order
    /// so the storm is deterministic. Each abort runs the normal cascade;
    /// requeued tasks re-execute, so the run still completes.
    fn abort_storm(&mut self) {
        let mut victims: Vec<TaskId> = Vec::new();
        for tile in &self.state.tiles {
            victims.extend(tile.running.iter().copied());
            victims.extend(tile.finished.iter().map(|&(_, id)| id));
        }
        for victim in victims {
            // Earlier storm aborts may already have cascaded into this one.
            if self.state.tasks.key_is_live_for_abort(victim) {
                let tile = self.state.tasks.tile(victim);
                self.state.abort_task(victim, tile);
            }
        }
    }

    /// Build the enriched deadlock diagnosis: scan the arena for the
    /// outstanding task with the minimum `(ts, id)` order key. The arena
    /// scan (rather than [`SimState::gvt`]) is deliberate — a lost task
    /// sits in no per-tile structure, so only the arena still sees it.
    fn deadlock_error(&self) -> SimError {
        let mut min: Option<OrderKey> = None;
        for i in 0..self.state.tasks.len() {
            let id = TaskId(i as u64);
            if !self.state.tasks.status(id).is_terminal() {
                let key = self.state.tasks.key(id);
                if min.is_none_or(|m| key < m) {
                    min = Some(key);
                }
            }
        }
        let (min_ts, stuck_task) = min.unwrap_or((0, TaskId(0)));
        SimError::Deadlock { remaining: self.state.remaining_tasks, min_ts, stuck_task }
    }

    fn check_task_limit(&self) -> SimResult<()> {
        if self.executed_bodies > DEFAULT_TASK_LIMIT {
            return Err(SimError::TaskLimitExceeded(DEFAULT_TASK_LIMIT));
        }
        Ok(())
    }

    /// Cheap per-GVT-epoch budget watchdogs (see `SystemConfig::max_cycles`
    /// and `SystemConfig::max_wall_ms`).
    fn check_budgets(&self) -> SimResult<()> {
        let last_gvt = || self.state.gvt().map_or(self.now, |(ts, _)| ts);
        let max_cycles = self.state.cfg.max_cycles;
        if max_cycles > 0 && self.now > max_cycles {
            return Err(SimError::CycleBudgetExceeded {
                budget: max_cycles,
                cycle: self.now,
                remaining: self.state.remaining_tasks,
                last_gvt: last_gvt(),
            });
        }
        let max_wall_ms = self.state.cfg.max_wall_ms;
        if max_wall_ms > 0 {
            if let Some(start) = self.wall_start {
                let elapsed_ms = start.elapsed().as_millis() as u64;
                if elapsed_ms > max_wall_ms {
                    return Err(SimError::WallClockBudgetExceeded {
                        budget_ms: max_wall_ms,
                        elapsed_ms,
                        cycle: self.now,
                        remaining: self.state.remaining_tasks,
                        last_gvt: last_gvt(),
                    });
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Task creation
    // ------------------------------------------------------------------

    fn enqueue_task(
        &mut self,
        fid: u16,
        ts: Timestamp,
        hint: Hint,
        args: TaskArgs,
        parent: Option<TaskId>,
    ) -> SimResult<TaskId> {
        let (parent_hint, parent_ts, parent_tile) = match parent {
            Some(p) => (
                Some(self.state.tasks.body(p).hint),
                Some(self.state.tasks.ts(p)),
                Some(self.state.tasks.tile(p)),
            ),
            None => (None, None, None),
        };
        if let Some(pts) = parent_ts {
            if ts < pts {
                return Err(SimError::TimestampRegression { parent: pts, child: ts });
            }
        }
        let resolved = match (self.state.faults.hint_xor, hint.resolve(parent_hint)) {
            // An active CorruptHint fault flips bits in every concrete hint
            // value; placement degrades, correctness must not.
            (Some(xor), Hint::Value(v)) => Hint::Value(v ^ xor),
            (_, resolved) => resolved,
        };
        let num_tiles = self.state.cfg.num_tiles();
        let tile = match (resolved, parent_tile) {
            // SAMEHINT with no usable parent hint stays on the parent's tile,
            // preserving parent-child locality as the paper prescribes.
            (Hint::None, Some(pt)) if hint == Hint::Same => pt,
            _ => self.mapper.map_task(resolved, parent_tile, num_tiles),
        };
        let bucket = self.mapper.bucket_of(resolved);
        let desc = TaskDescriptor {
            fid,
            ts,
            hint: resolved,
            hint_hash: resolved.hash16(),
            bucket,
            args,
            parent,
            tile,
        };
        let id = self.state.add_task(desc);
        if let Some(p) = parent {
            self.state.tasks.body_mut(p).children.push(id);
        }
        // Task descriptors sent to a remote tile consume network bandwidth.
        if let Some(src) = parent_tile {
            if src != tile {
                let hops = self.state.mesh.hops(src, tile);
                let flits = flits_for_bytes(34);
                let wait =
                    self.state.send_message(TrafficClass::Task, src, tile, hops, flits, self.now);
                if self.state.links.is_some() {
                    // Under contention the child is not dispatchable until
                    // its descriptor physically arrives: mesh latency,
                    // queueing delay, and any armed message-delay fault all
                    // push the delivery out.
                    let latency = self.state.mesh.latency(src, tile)
                        + wait
                        + self.state.faults.extra_remote_latency(src);
                    if latency > 0 {
                        let ready_at = self.now + latency;
                        self.state.tasks.set_ready_at(id, ready_at);
                        // The add_task wake fires now, while the task is not
                        // yet dispatchable; schedule a second attempt for the
                        // destination tile's cores at the delivery cycle.
                        let first = tile.index() as u32 * self.state.cfg.cores_per_tile;
                        for c in first..first + self.state.cfg.cores_per_tile {
                            self.schedule_core(ready_at, Event::TryDispatch(CoreId(c)));
                        }
                    }
                }
            }
        }
        Ok(id)
    }

    // ------------------------------------------------------------------
    // Dispatch
    // ------------------------------------------------------------------

    fn account_core_transition(&mut self, core: CoreId, new_state: CoreState) {
        let old = self.state.cores[core.index()];
        let wait = match old {
            CoreState::Idle { since } => Some((WaitKind::Empty, since)),
            CoreState::Stalled { since } => Some((WaitKind::Stalled, since)),
            CoreState::Busy { .. } => None,
        };
        if let Some((kind, since)) = wait {
            let cycles = self.now.saturating_sub(since);
            if cycles > 0 || self.state.observers.has_custom() {
                self.state.observers.core_wait(&CoreWaitEvent { core, kind, cycles });
            }
        }
        self.state.cores[core.index()] = new_state;
    }

    fn process_wakes(&mut self) {
        if self.state.wake_tiles.is_empty() {
            return;
        }
        // Swap the woken-tile list into engine scratch (leaving the state an
        // empty list with retained capacity) so scheduling below can borrow
        // the engine mutably.
        std::mem::swap(&mut self.wake_scratch, &mut self.state.wake_tiles);
        // Under a work-stealing scheduler, new work anywhere is a stealing
        // opportunity for every out-of-work tile, so wake all non-busy cores
        // with one sweep; otherwise only the tiles that received work or
        // freed queue slots need to re-attempt dispatch.
        if self.mapper.steals() {
            self.schedule_sweep();
        } else {
            for i in 0..self.wake_scratch.len() {
                let tile = self.wake_scratch[i];
                let first = tile.index() as u32 * self.state.cfg.cores_per_tile;
                for c in first..first + self.state.cfg.cores_per_tile {
                    let core = CoreId(c);
                    if !matches!(self.state.cores[core.index()], CoreState::Busy { .. }) {
                        self.schedule_core(self.now, Event::TryDispatch(core));
                    }
                }
            }
        }
        self.wake_scratch.clear();
    }

    /// Schedule one `Sweep` at the current cycle over every core that is not
    /// busy now. It stands in for one `TryDispatch` per such core scheduled
    /// back to back: those would sit next to each other in one wheel slot,
    /// so nothing could run between them, and [`Engine::handle_sweep`] runs
    /// the same attempts in the same order.
    fn schedule_sweep(&mut self) {
        let slot = match self.sweep_free.pop() {
            Some(slot) => slot,
            None => {
                let words = self.state.cores.len().div_ceil(64);
                self.sweep_masks.push(vec![0; words]);
                (self.sweep_masks.len() - 1) as u32
            }
        };
        let mask = &mut self.sweep_masks[slot as usize];
        let mut cores = 0;
        for (c, state) in self.state.cores.iter().enumerate() {
            if !matches!(state, CoreState::Busy { .. }) {
                mask[c / 64] |= 1 << (c % 64);
                cores += 1;
            }
        }
        if cores == 0 {
            self.sweep_free.push(slot);
            return;
        }
        self.pending_core_events += cores;
        self.events.schedule(self.now, Event::Sweep(slot));
    }

    /// Run a `Sweep`: a dispatch attempt for each core of its mask, in
    /// core-index order, with the task-limit check the main loop makes
    /// after every event.
    fn handle_sweep(&mut self, slot: u32) -> SimResult<()> {
        let mut mask = std::mem::take(&mut self.sweep_masks[slot as usize]);
        self.pending_core_events -= mask.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
        for (w, word) in mask.iter_mut().enumerate() {
            while *word != 0 {
                let core = CoreId((w * 64) as u32 + word.trailing_zeros());
                *word &= *word - 1;
                self.handle_try_dispatch(core)?;
                self.check_task_limit()?;
            }
        }
        self.sweep_masks[slot as usize] = mask;
        self.sweep_free.push(slot);
        Ok(())
    }

    /// Pick the next dispatchable task for `tile` respecting same-hint
    /// serialization: the earliest-key idle task whose hashed hint does not
    /// match an earlier-key task currently running on the tile.
    fn select_candidate(&self, tile: TileId) -> Option<TaskId> {
        let serialize = self.mapper.serialize_same_hint();
        let tile_state = &self.state.tiles[tile.index()];
        for &(ts, id) in tile_state.idle.iter() {
            // Tasks still in flight to this tile (contention-mode delivery)
            // are not dispatchable yet; a wake is already scheduled for
            // their arrival cycle. Always 0 > now == false under Analytic.
            if self.state.tasks.ready_at(id) > self.now {
                continue;
            }
            if !serialize {
                return Some(id);
            }
            let hash = self.state.tasks.hint_hash(id);
            let conflicting = hash.is_some()
                && tile_state.running.iter().any(|&r| {
                    self.state.tasks.status(r) == TaskStatus::Running
                        && self.state.tasks.hint_hash(r) == hash
                        && self.state.tasks.key(r) < (ts, id)
                });
            if !conflicting {
                return Some(id);
            }
        }
        None
    }

    fn handle_try_dispatch(&mut self, core: CoreId) -> SimResult<()> {
        if matches!(self.state.cores[core.index()], CoreState::Busy { .. }) {
            return Ok(());
        }
        // A stuck core never dequeues again; if no other core can absorb
        // its work the deadlock detector reports the starvation.
        if self.state.faults.is_stuck(core) {
            return Ok(());
        }
        let tile = self.state.tile_of_core(core);

        // A futile stealing attempt: no tile holds an idle task and this one
        // has nothing to refill, so the full path below would find no
        // victim and no candidate. Make the same idle transition and skip
        // the per-tile scans.
        if self.state.idle_task_count() == 0
            && self.mapper.steals()
            && self.state.tiles[tile.index()].spilled.is_empty()
        {
            self.account_core_transition(core, CoreState::Idle { since: self.now });
            return Ok(());
        }

        // Refill spilled tasks if the queue ran dry, or if a spilled task
        // now precedes everything left in the queue (it must run before the
        // GVT can pass it).
        {
            let tile_state = &self.state.tiles[tile.index()];
            let spilled_first = tile_state.spilled.first().copied();
            let idle_first = tile_state.idle.first().copied();
            let should_refill = match (spilled_first, idle_first) {
                (Some(_), None) => true,
                (Some(s), Some(i)) => s < i,
                (None, _) => false,
            };
            if should_refill {
                self.state.refill_tile(tile);
            }
        }

        // Work stealing (idealized): grab the earliest task of the victim.
        // With no idle task anywhere there is no victim (the
        // `TaskMapper::steal_victim` contract), so the mapper is not asked.
        if self.state.tiles[tile.index()].idle.is_empty()
            && self.state.idle_task_count() > 0
            && self.mapper.steals()
        {
            self.state.idle_per_tile_into(&mut self.idle_scratch);
            if let Some(victim) = self.mapper.steal_victim(tile, &self.idle_scratch) {
                self.state.steal_task(tile, victim);
            }
        }

        let Some(candidate) = self.select_candidate(tile) else {
            self.account_core_transition(core, CoreState::Idle { since: self.now });
            return Ok(());
        };

        // A dispatch reserves a commit-queue entry; if the commit queue is
        // full, either abort the latest finished task (if the candidate
        // precedes it) or stall the core.
        let commit_cap = self.state.cfg.commit_queue_per_tile();
        if self.state.tiles[tile.index()].commit_queue_occupancy() >= commit_cap {
            let candidate_key = self.state.tasks.key(candidate);
            let latest_finished = self.state.tiles[tile.index()].finished.last().copied();
            match latest_finished {
                Some(last_key) if candidate_key < last_key => {
                    self.state.abort_task(last_key.1, tile);
                    self.process_wakes();
                    // The resource abort's cascade may have touched the
                    // candidate itself (e.g. discarded it because its parent
                    // aborted); restart the dispatch decision from scratch.
                    if self.state.tasks.status(candidate) != TaskStatus::Idle {
                        return self.handle_try_dispatch(core);
                    }
                }
                _ => {
                    self.account_core_transition(core, CoreState::Stalled { since: self.now });
                    return Ok(());
                }
            }
        }

        // Dispatch: remove from the idle queue and execute the body.
        let key = self.state.tasks.key(candidate);
        self.state.idle_remove(tile, &key);
        self.state.tiles[tile.index()].running.push(candidate);
        self.account_core_transition(core, CoreState::Busy { task: candidate });
        // The built-in statistics observer ignores dequeues, so the event is
        // only materialised when a custom observer is listening.
        if self.state.observers.has_custom() {
            let (ts, hint) =
                (self.state.tasks.ts(candidate), self.state.tasks.body(candidate).hint);
            self.state.observers.dequeue(&DequeueEvent {
                task: candidate,
                ts,
                hint,
                tile,
                core,
                now: self.now,
            });
        }

        let exec_cycles = self.execute_body(candidate, core).max(1);
        self.executed_bodies += 1;
        let finish_at = self.now + exec_cycles;
        self.state.tasks.body_mut(candidate).exec_cycles = exec_cycles;
        self.state.tasks.set_status(candidate, TaskStatus::Running);
        // The task is not registered now: the abort that sent an earlier
        // execution back to the idle queue unregistered it (the line table's
        // register-once invariant, checked in debug builds).
        self.state.register_access_sets(candidate);
        self.schedule_core(finish_at, Event::Finish(core));
        self.process_wakes();
        Ok(())
    }

    /// Run `task`'s body on `core`, recording into its arena body; returns
    /// the execution's cycles.
    fn execute_body(&mut self, task: TaskId, core: CoreId) -> u64 {
        // Borrow the argument buffer out of the task's body for the duration
        // of the call instead of cloning it (the body cannot observe its own
        // argument list through the context).
        let (fid, ts) = (self.state.tasks.body(task).fid, self.state.tasks.ts(task));
        let args = std::mem::take(&mut self.state.tasks.body_mut(task).args);
        let mut ctx = TaskCtx::new(&mut self.state, task, core, ts);
        self.app.run_task(fid, ts, &args, &mut ctx);
        let cycles = ctx.finish();
        self.state.tasks.body_mut(task).args = args;
        cycles
    }

    // ------------------------------------------------------------------
    // Finish
    // ------------------------------------------------------------------

    fn handle_finish(&mut self, core: CoreId) -> SimResult<()> {
        let CoreState::Busy { task } = self.state.cores[core.index()] else {
            return Ok(());
        };
        let tile = self.state.tile_of_core(core);
        self.state.tiles[tile.index()].running.retain(|&t| t != task);

        if let TaskStatus::Doomed { discard } = self.state.tasks.status(task) {
            // The execution was doomed while in flight, which dropped the
            // children it asked for: requeue (or discard) the task itself.
            self.state.requeue_or_discard(task, discard);
        } else {
            self.state.mark_finished(task);
            // Children become visible to the system when their parent's
            // execution completes. The list leaves the body while
            // `enqueue_task` records each new child id in it.
            let mut spawned = std::mem::take(&mut self.state.tasks.body_mut(task).spawned);
            for child in spawned.drain(..) {
                self.enqueue_task(child.fid, child.ts, child.hint, child.args, Some(task))?;
            }
            self.state.tasks.body_mut(task).spawned = spawned;
        }

        self.state.cores[core.index()] = CoreState::Idle { since: self.now };
        self.process_wakes();
        self.handle_try_dispatch(core)
    }

    // ------------------------------------------------------------------
    // Commits (GVT) and load balancing
    // ------------------------------------------------------------------

    fn handle_gvt(&mut self) -> SimResult<()> {
        self.check_budgets()?;
        self.state.observers.gvt_update(self.now);
        // Each tile exchanges a GVT update with the arbiter (tile 0).
        self.state.exchange_gvt(self.now);

        let frontier = self.state.gvt();
        // If the earliest unfinished task was spilled to memory, no commit
        // can pass it and no dispatch will naturally refill it (its tile may
        // have plenty of later idle tasks); pull it back in so the system
        // keeps making forward progress.
        if let Some((_, id)) = frontier {
            if self.state.tasks.status(id) == TaskStatus::Spilled {
                self.state.unspill_task(id);
            }
        }
        // Collect committable keys into scratch; sorting `(ts, id)` keys
        // directly is the same order the seed got from sorting ids by
        // `record.key()` (keys are unique), without touching the arena.
        let mut keys = std::mem::take(&mut self.commit_scratch);
        debug_assert!(keys.is_empty());
        for tile in 0..self.state.cfg.num_tiles() {
            for &(ts, id) in self.state.tiles[tile].finished.iter() {
                // The per-tile lists are sorted, so the first key at or past
                // the frontier ends that tile's committable prefix.
                if let Some(f) = frontier {
                    if (ts, id) >= f {
                        break;
                    }
                }
                keys.push((ts, id));
            }
        }
        // Commit in key order so parents commit before their children.
        keys.sort_unstable();
        for &(_, id) in &keys {
            let (tile, bucket, cycles) = self.state.commit_task(id);
            self.mapper.on_commit(tile, bucket, cycles);
        }
        keys.clear();

        // Relaxed commit of independent equal-timestamp tasks (unordered
        // programs): finished tasks at the frontier timestamp whose parent
        // has committed and whose data no earlier uncommitted task touches.
        // The frontier still stands: the commits above retired only
        // finished tasks, and unspilling kept the spilled task's key.
        debug_assert_eq!(frontier, self.state.gvt());
        if let Some((front_ts, _)) = frontier {
            for tile in 0..self.state.cfg.num_tiles() {
                for &(ts, id) in self.state.tiles[tile].finished.iter() {
                    // Sorted list: keys past the frontier timestamp can
                    // never be relaxed-committable, stop scanning.
                    if ts > front_ts {
                        break;
                    }
                    if ts == front_ts && self.state.can_commit_relaxed(id) {
                        keys.push((ts, id));
                    }
                }
            }
            keys.sort_unstable();
            // No re-check needed: earlier relaxed commits may have
            // changed the line table, but only by *removing* earlier
            // accessors, which can only make more tasks eligible.
            for &(_, id) in &keys {
                let (tile, bucket, cycles) = self.state.commit_task(id);
                self.mapper.on_commit(tile, bucket, cycles);
            }
            keys.clear();
        }
        self.commit_scratch = keys;

        self.process_wakes();
        if self.state.remaining_tasks > 0 {
            // Deadlock check: every busy core has a Finish event pending and
            // every wake produced by the commits above scheduled a
            // TryDispatch, so if no core event is outstanding now, this tick
            // changed nothing and neither will any future GVT/LB tick — the
            // system can never progress. Report it instead of spinning on
            // periodic events forever.
            if self.pending_core_events == 0 {
                return Err(self.deadlock_error());
            }
            self.events.schedule(self.now + GVT_EPOCH, Event::Gvt);
        }
        Ok(())
    }

    fn handle_lb_epoch(&mut self) {
        self.state.idle_per_tile_into(&mut self.idle_scratch);
        if self.mapper.on_lb_epoch(self.now, &self.idle_scratch) {
            self.state.observers.lb_reconfig(self.now);
        }
        if self.state.remaining_tasks > 0 {
            self.events.schedule(self.now + self.state.cfg.lb_epoch, Event::LbEpoch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::PinnedMapper;
    use crate::task::InitialTask;

    /// One task that writes one word and never enqueues a successor.
    struct OneShot;

    impl SwarmApp for OneShot {
        fn name(&self) -> &str {
            "one-shot"
        }
        fn initial_tasks(&self) -> Vec<InitialTask> {
            vec![InitialTask::new(0, 0, Hint::None, vec![])]
        }
        fn run_task(&self, _fid: u16, _ts: u64, _args: &[u64], ctx: &mut TaskCtx<'_>) {
            ctx.write(0x1000, 1);
        }
    }

    #[test]
    fn lost_task_reports_deadlock_instead_of_spinning() {
        // The app's own task runs and commits, but a lost-wake fault at
        // cycle 0 plants a second task that is never made dispatchable (it
        // is registered as remaining work without a task-queue entry or a
        // wake — the class of bug the deadlock detector exists for). The
        // seed engine spun on GVT events forever here; it must now return a
        // typed error naming the outstanding work.
        use crate::fault::{FaultEvent, FaultPlan};
        let mut engine =
            Engine::new(SystemConfig::single_core(), Box::new(OneShot), Box::new(PinnedMapper));
        engine.set_fault_plan(FaultPlan::from(FaultEvent {
            at_cycle: 0,
            kind: FaultKind::LostTaskWake { ts: 99 },
        }));

        let err = engine.run().expect_err("a lost task must be detected, not spun on");
        // The diagnosis names the wedged work: the planted task (id 1, after
        // the app's one initial task) at its timestamp.
        let SimError::Deadlock { remaining, min_ts, stuck_task } = err else {
            panic!("expected a deadlock, got {err}");
        };
        assert_eq!(remaining, 1);
        assert_eq!(min_ts, 99);
        assert_eq!(stuck_task, TaskId(1));
    }

    #[test]
    fn healthy_run_does_not_trip_the_deadlock_detector() {
        let mut engine =
            Engine::new(SystemConfig::single_core(), Box::new(OneShot), Box::new(PinnedMapper));
        let stats = engine.run().expect("one task runs to completion");
        assert_eq!(stats.tasks_committed, 1);
    }

    /// A livelocked program: every task enqueues a successor forever.
    struct Endless;

    impl SwarmApp for Endless {
        fn name(&self) -> &str {
            "endless"
        }
        fn initial_tasks(&self) -> Vec<InitialTask> {
            vec![InitialTask::new(0, 0, Hint::None, vec![])]
        }
        fn run_task(&self, _fid: u16, ts: u64, _args: &[u64], ctx: &mut TaskCtx<'_>) {
            ctx.write(0x1000, ts);
            ctx.enqueue(0, ts + 1, Hint::None, &[]);
        }
    }

    #[test]
    fn livelocked_app_hits_the_cycle_budget_deterministically() {
        let run = || {
            let mut cfg = SystemConfig::single_core();
            cfg.max_cycles = 10_000;
            let mut engine = Engine::new(cfg, Box::new(Endless), Box::new(PinnedMapper));
            engine.run().expect_err("an endless chain must trip the cycle budget")
        };
        let first = run();
        let SimError::CycleBudgetExceeded { budget, cycle, remaining, .. } = first.clone() else {
            panic!("expected a cycle-budget error, got {first}");
        };
        assert_eq!(budget, 10_000);
        assert!(cycle > 10_000, "detected past the budget, got {cycle}");
        assert!(remaining > 0);
        // The watchdog fires at a GVT epoch, so the whole diagnosis —
        // including the trip cycle — is reproducible.
        assert_eq!(first, run());
    }

    #[test]
    fn livelocked_app_hits_the_wall_clock_budget() {
        let mut cfg = SystemConfig::single_core();
        cfg.max_wall_ms = 1;
        let mut engine = Engine::new(cfg, Box::new(Endless), Box::new(PinnedMapper));
        let err = engine.run().expect_err("an endless chain must trip the wall-clock budget");
        assert!(
            matches!(err, SimError::WallClockBudgetExceeded { budget_ms: 1, .. }),
            "expected a wall-clock budget error, got {err}"
        );
    }

    #[test]
    fn budgets_do_not_trip_on_healthy_runs() {
        let mut cfg = SystemConfig::single_core();
        cfg.max_cycles = 1_000_000;
        cfg.max_wall_ms = 60_000;
        let mut engine = Engine::new(cfg, Box::new(OneShot), Box::new(PinnedMapper));
        let stats = engine.run().expect("well under both budgets");
        assert_eq!(stats.tasks_committed, 1);
    }

    /// The line every [`ReadWriteReread`] task touches.
    const RWR_LINE: u64 = 0x4000;

    /// A root (ts 0, tile 0) that computes for a while and then enqueues
    /// `first` (ts 1, tile 0); meanwhile `later` (ts 2, tile 1) reads the
    /// line and finishes. `first` then reads, writes and re-reads the line,
    /// logging each access's latency: its write must abort `later`.
    struct ReadWriteReread {
        latencies: std::rc::Rc<std::cell::RefCell<Vec<u64>>>,
    }

    impl SwarmApp for ReadWriteReread {
        fn name(&self) -> &str {
            "read-write-reread"
        }
        fn initial_tasks(&self) -> Vec<InitialTask> {
            vec![
                InitialTask::new(0, 0, Hint::value(0), vec![]),
                InitialTask::new(2, 2, Hint::value(1), vec![]),
            ]
        }
        fn run_task(&self, fid: u16, _ts: u64, _args: &[u64], ctx: &mut TaskCtx<'_>) {
            match fid {
                0 => {
                    ctx.compute(5_000);
                    ctx.enqueue(1, 1, Hint::value(0), &[]);
                }
                1 => {
                    let mut log = self.latencies.borrow_mut();
                    let mut last = ctx.cycles();
                    let mut lap = |ctx: &TaskCtx<'_>| {
                        log.push(ctx.cycles() - last);
                        last = ctx.cycles();
                    };
                    let v = ctx.read(RWR_LINE);
                    lap(ctx);
                    ctx.write(RWR_LINE + 8, v + 1);
                    lap(ctx);
                    ctx.read(RWR_LINE + 16);
                    lap(ctx);
                }
                _ => {
                    ctx.read(RWR_LINE);
                }
            }
        }
        fn num_task_fns(&self) -> usize {
            3
        }
    }

    /// Places `Hint::Value(v)` tasks on tile `v`.
    struct ByValue;

    impl TaskMapper for ByValue {
        fn name(&self) -> &str {
            "by-value"
        }
        fn map_task(&mut self, hint: Hint, _creator: Option<TileId>, num_tiles: usize) -> TileId {
            match hint {
                Hint::Value(v) => TileId((v % num_tiles as u64) as u32),
                _ => TileId(0),
            }
        }
    }

    /// A body that reads, writes and re-reads one word's line sees the
    /// latencies and abort a build without the repeat-access shortcuts
    /// produced (the figures below were recorded from one): a remote-L2
    /// read that pays one accessor comparison, an L1 write that pays the
    /// same comparison and aborts the later reader, and an L1 re-read whose
    /// check finds the line table empty again.
    #[test]
    fn read_write_reread_of_one_line_keeps_its_latencies_and_abort() {
        let latencies = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let app = ReadWriteReread { latencies: std::rc::Rc::clone(&latencies) };
        let mut engine = Engine::new(SystemConfig::with_cores(2), Box::new(app), Box::new(ByValue));
        let stats = engine.run().expect("the three tasks commit");
        assert_eq!(stats.tasks_committed, 3);
        assert_eq!(stats.tasks_aborted, 1, "the write aborts the later reader once");
        assert_eq!(*latencies.borrow(), [34, 8, 2]);
        assert_eq!(stats.runtime_cycles, 5200);
    }

    /// The line the [`DoomedParent`] parent reads and its earlier rival
    /// writes.
    const DOOM_LINE: u64 = 0x8000;

    /// Tile 0 runs a root (ts 0) that computes and then enqueues a writer
    /// (ts 1). Tile 1 meanwhile runs a long parent (ts 5) that reads the
    /// writer's line and asks for two children (ts 6 and 7). The writer
    /// dispatches while the parent is still running, so its write dooms the
    /// parent mid-flight; the parent's re-execution asks for the same two
    /// children again.
    struct DoomedParent;

    impl SwarmApp for DoomedParent {
        fn name(&self) -> &str {
            "doomed-parent"
        }
        fn initial_tasks(&self) -> Vec<InitialTask> {
            vec![
                InitialTask::new(0, 0, Hint::value(0), vec![]),
                InitialTask::new(2, 5, Hint::value(1), vec![]),
            ]
        }
        fn run_task(&self, fid: u16, ts: u64, _args: &[u64], ctx: &mut TaskCtx<'_>) {
            match fid {
                0 => {
                    ctx.compute(1_000);
                    ctx.enqueue(1, 1, Hint::value(0), &[]);
                }
                1 => ctx.write(DOOM_LINE, ts),
                2 => {
                    ctx.read(DOOM_LINE);
                    ctx.compute(10_000);
                    ctx.enqueue(3, 6, Hint::value(1), &[]);
                    ctx.enqueue(3, 7, Hint::value(1), &[]);
                }
                _ => ctx.compute(10),
            }
        }
        fn num_task_fns(&self) -> usize {
            4
        }
    }

    /// Records the timestamp of every commit and every abort.
    #[derive(Default)]
    struct CommitsAndAborts {
        commits: Vec<Timestamp>,
        aborts: Vec<crate::observer::AbortEvent>,
    }

    impl SimObserver for CommitsAndAborts {
        fn on_commit(&mut self, event: &crate::observer::CommitEvent<'_>) {
            self.commits.push(event.ts);
        }
        fn on_abort(&mut self, event: &crate::observer::AbortEvent) {
            self.aborts.push(*event);
        }
    }

    #[test]
    fn a_parent_doomed_while_running_creates_only_its_re_executions_children() {
        let log = std::rc::Rc::new(std::cell::RefCell::new(CommitsAndAborts::default()));
        let mut engine =
            Engine::new(SystemConfig::with_cores(2), Box::new(DoomedParent), Box::new(ByValue));
        engine.add_observer(Box::new(std::rc::Rc::clone(&log)));
        let stats = engine.run().expect("every task commits");
        let log = log.borrow();
        // The parent was doomed once, mid-flight: it had executed its whole
        // body (over 10,000 cycles) and was still on its core.
        assert_eq!(log.aborts.len(), 1, "{:?}", log.aborts);
        let abort = log.aborts[0];
        assert_eq!((abort.ts, abort.executed), (5, true));
        assert!(abort.cycles > 10_000, "{abort:?}");
        // The doomed execution's two children were never created: each
        // child timestamp commits exactly once, from the re-execution.
        assert_eq!(log.commits, [0, 1, 5, 6, 7]);
        assert_eq!(stats.tasks_committed, 5);
        assert_eq!(stats.tasks_aborted, 1);
    }

    #[test]
    fn empty_fault_plan_is_a_no_op() {
        use crate::fault::FaultPlan;
        let mut engine =
            Engine::new(SystemConfig::single_core(), Box::new(OneShot), Box::new(PinnedMapper));
        engine.set_fault_plan(FaultPlan::new());
        let stats = engine.run().expect("an empty plan injects nothing");
        assert_eq!(stats.tasks_committed, 1);
    }
}
