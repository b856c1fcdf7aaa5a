//! Free-listed task-record arena with a struct-of-arrays split of the hot
//! per-task fields.
//!
//! The seed kept one `Vec<TaskRecord>` indexed by [`TaskId`], where every
//! record carried its descriptor, speculative sets and undo log inline
//! (~200 bytes) and lived forever — the hot scans (candidate selection,
//! abort cascades, commit walks) pointer-chased whole records to read a
//! timestamp or a status byte, and a long run's memory grew with *total*
//! tasks, not *live* tasks.
//!
//! [`TaskArena`] splits a task in two:
//!
//! * **Hot scalars** (`ts`, `tile`, `status`, `hint_hash`, `ready_at`)
//!   live in one packed record per task, in a flat array indexed by id.
//!   They are exactly what the dispatch/abort/commit scans touch — and
//!   those scans read several of them per visited task, so packing them
//!   costs one cache line per task instead of one per field. Records are
//!   kept for the whole run — ids are handed out monotonically and never
//!   recycled, because `(ts, id)` is the architectural commit order.
//! * **The body** ([`TaskBody`]: arguments, read/write sets, undo log,
//!   children, trace) lives in a free-listed slot pool. A slot is
//!   reclaimed when its task commits or is discarded, and its `Vec`
//!   capacities are retained, so in steady state task creation and
//!   retirement allocate nothing and live memory is bounded by the number
//!   of in-flight tasks.

use swarm_mem::UndoEntry;
use swarm_types::{Addr, Hint, LineAddr, TaskFnId, TaskId, TileId, Timestamp};

use crate::task::{OrderKey, TaskArgs, TaskDescriptor, TaskStatus};

/// Body-slot index marking "body reclaimed" (task committed or discarded).
const NO_BODY: u32 = u32::MAX;

/// The cold majority of a task's state: everything the per-cycle scans do
/// *not* touch. Stored in a free-listed arena slot; reclaimed (with `Vec`
/// capacities kept for the next task in the slot) on commit or discard.
#[derive(Debug, Clone, Default)]
pub(crate) struct TaskBody {
    /// Task function to run.
    pub(crate) fid: TaskFnId,
    /// Spatial hint, with `SAMEHINT` already resolved against the parent.
    pub(crate) hint: Hint,
    /// Load-balancer bucket (only set when the active mapper uses buckets).
    pub(crate) bucket: Option<u16>,
    /// Parent task, if any (initial tasks have none).
    pub(crate) parent: Option<TaskId>,
    /// Task arguments.
    pub(crate) args: TaskArgs,
    /// Cache lines read by the current execution.
    pub(crate) read_set: Vec<LineAddr>,
    /// Cache lines written by the current execution.
    pub(crate) write_set: Vec<LineAddr>,
    /// Undo-log entries of the current execution (already applied).
    pub(crate) undo: Vec<UndoEntry>,
    /// Children created by the current execution.
    pub(crate) children: Vec<TaskId>,
    /// Word-granular accesses (addr, is_write) recorded when profiling on.
    pub(crate) access_trace: Vec<(Addr, bool)>,
    /// Cycles consumed by the current execution.
    pub(crate) exec_cycles: u64,
}

impl TaskBody {
    /// Clear all speculative state accumulated by the current execution
    /// (called once its undo entries have been rolled back by an abort).
    /// Keeps every buffer's capacity.
    pub(crate) fn reset_execution(&mut self) {
        self.read_set.clear();
        self.write_set.clear();
        self.undo.clear();
        self.children.clear();
        self.access_trace.clear();
        self.exec_cycles = 0;
    }
}

/// The hot per-task scalars, packed into one record so that touching any of
/// a task's fields pulls the rest of them into cache with it. The scans that
/// motivated the original field-per-array split (status sweeps, key
/// comparisons) read *several* of these per visited task, so parallel arrays
/// cost one potential cache miss per field; packed, a task costs one.
#[derive(Debug, Clone)]
struct TaskMeta {
    ts: Timestamp,
    status: TaskStatus,
    tile: TileId,
    hint_hash: Option<u16>,
    /// Body slot; [`NO_BODY`] once reclaimed.
    body_of: u32,
    /// Earliest cycle at which the task may be dispatched or stolen: its
    /// delivery time at the destination tile under
    /// [`swarm_types::NocModel::Contention`]. Always 0 under the analytic
    /// model, so readiness checks compare against 0 and never bite there.
    ready_at: u64,
}

// Two records per 64-byte cache line: the hot scans read one per visited
// task.
const _: () = assert!(std::mem::size_of::<TaskMeta>() <= 32);

/// All task records of one simulation. See the module docs for the
/// hot/cold split and free-list layout.
#[derive(Debug, Default)]
pub(crate) struct TaskArena {
    /// Hot scalars, indexed by `TaskId.0` (never recycled).
    meta: Vec<TaskMeta>,
    /// Body slots; freed slots keep their `Vec` capacities for reuse.
    bodies: Vec<TaskBody>,
    /// Reclaimed body slots available for the next task.
    free: Vec<u32>,
}

impl TaskArena {
    /// An empty arena.
    pub(crate) fn new() -> Self {
        TaskArena::default()
    }

    /// Number of tasks ever created.
    pub(crate) fn len(&self) -> usize {
        self.meta.len()
    }

    /// Register a new task with status [`TaskStatus::Idle`], reusing a
    /// reclaimed body slot when one is free. Returns the new id.
    pub(crate) fn add(&mut self, desc: TaskDescriptor) -> TaskId {
        let id = TaskId(self.meta.len() as u64);
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.bodies.push(TaskBody::default());
                (self.bodies.len() - 1) as u32
            }
        };
        let body = &mut self.bodies[slot as usize];
        debug_assert!(body.read_set.is_empty() && body.undo.is_empty(), "reclaimed slot is clean");
        body.fid = desc.fid;
        body.hint = desc.hint;
        body.bucket = desc.bucket;
        body.parent = desc.parent;
        body.args = desc.args;
        body.exec_cycles = 0;
        self.meta.push(TaskMeta {
            ts: desc.ts,
            status: TaskStatus::Idle,
            tile: desc.tile,
            hint_hash: desc.hint_hash,
            body_of: slot,
            ready_at: 0,
        });
        id
    }

    /// The task's program-order timestamp.
    #[inline]
    pub(crate) fn ts(&self, id: TaskId) -> Timestamp {
        self.meta[id.0 as usize].ts
    }

    /// The task's commit-order key `(ts, id)`.
    #[inline]
    pub(crate) fn key(&self, id: TaskId) -> OrderKey {
        (self.meta[id.0 as usize].ts, id)
    }

    /// The tile whose task unit currently holds the task.
    #[inline]
    pub(crate) fn tile(&self, id: TaskId) -> TileId {
        self.meta[id.0 as usize].tile
    }

    /// Move the task to another tile (work stealing).
    #[inline]
    pub(crate) fn set_tile(&mut self, id: TaskId, tile: TileId) {
        self.meta[id.0 as usize].tile = tile;
    }

    /// The task's lifecycle status. Valid for every task ever created,
    /// including committed and discarded ones.
    #[inline]
    pub(crate) fn status(&self, id: TaskId) -> TaskStatus {
        self.meta[id.0 as usize].status
    }

    /// Set the task's lifecycle status.
    #[inline]
    pub(crate) fn set_status(&mut self, id: TaskId, status: TaskStatus) {
        self.meta[id.0 as usize].status = status;
    }

    /// The 16-bit hashed hint used by dispatch same-hint serialization.
    #[inline]
    pub(crate) fn hint_hash(&self, id: TaskId) -> Option<u16> {
        self.meta[id.0 as usize].hint_hash
    }

    /// Earliest cycle at which the task may be dispatched or stolen (its
    /// network delivery time; 0 unless contention delayed it).
    #[inline]
    pub(crate) fn ready_at(&self, id: TaskId) -> u64 {
        self.meta[id.0 as usize].ready_at
    }

    /// Record the task's delivery time at its destination tile.
    #[inline]
    pub(crate) fn set_ready_at(&mut self, id: TaskId, at: u64) {
        self.meta[id.0 as usize].ready_at = at;
    }

    /// Whether an abort request against this task still makes sense: it is
    /// neither retired nor already doomed.
    #[inline]
    pub(crate) fn key_is_live_for_abort(&self, id: TaskId) -> bool {
        let status = self.status(id);
        !status.is_terminal() && !matches!(status, TaskStatus::Doomed { .. })
    }

    /// The task's body. Panics if the body was reclaimed (the task
    /// committed or was discarded) — no engine path touches a retired
    /// task's body.
    #[inline]
    pub(crate) fn body(&self, id: TaskId) -> &TaskBody {
        let slot = self.meta[id.0 as usize].body_of;
        debug_assert_ne!(slot, NO_BODY, "body of retired task {id:?} accessed");
        &self.bodies[slot as usize]
    }

    /// Mutable access to the task's body. Panics if reclaimed.
    #[inline]
    pub(crate) fn body_mut(&mut self, id: TaskId) -> &mut TaskBody {
        let slot = self.meta[id.0 as usize].body_of;
        debug_assert_ne!(slot, NO_BODY, "body of retired task {id:?} accessed");
        &mut self.bodies[slot as usize]
    }

    /// Reclaim the task's body slot (on commit or discard): clear its
    /// buffers, keep their capacities, and make the slot available to the
    /// next [`TaskArena::add`].
    pub(crate) fn free_body(&mut self, id: TaskId) {
        let slot = std::mem::replace(&mut self.meta[id.0 as usize].body_of, NO_BODY);
        debug_assert_ne!(slot, NO_BODY, "body of {id:?} freed twice");
        let body = &mut self.bodies[slot as usize];
        body.args = TaskArgs::default();
        body.reset_execution();
        self.free.push(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn live_bodies(arena: &TaskArena) -> usize {
        arena.bodies.len() - arena.free.len()
    }

    fn desc(ts: Timestamp) -> TaskDescriptor {
        TaskDescriptor {
            fid: 0,
            ts,
            hint: Hint::None,
            hint_hash: None,
            bucket: None,
            args: TaskArgs::from(&[1, 2, 3][..]),
            parent: None,
            tile: TileId(0),
        }
    }

    #[test]
    fn ids_are_monotonic_and_hot_fields_readable() {
        let mut arena = TaskArena::new();
        let a = arena.add(desc(7));
        let b = arena.add(desc(3));
        assert_eq!(a, TaskId(0));
        assert_eq!(b, TaskId(1));
        assert_eq!(arena.ts(a), 7);
        assert_eq!(arena.key(b), (3, b));
        assert_eq!(arena.status(a), TaskStatus::Idle);
        assert_eq!(*arena.body(a).args, [1, 2, 3]);
        assert_eq!(arena.len(), 2);
        assert_eq!(live_bodies(&arena), 2);
    }

    #[test]
    fn freed_slots_are_recycled_clean_with_capacity() {
        let mut arena = TaskArena::new();
        let a = arena.add(desc(1));
        arena.body_mut(a).read_set.extend([LineAddr(1), LineAddr(2)]);
        arena.body_mut(a).undo.push(UndoEntry { addr: 8, old_value: 0, seq: 0 });
        let cap_before = arena.body(a).read_set.capacity();
        arena.set_status(a, TaskStatus::Committed);
        arena.free_body(a);
        assert_eq!(live_bodies(&arena), 0);
        // Status outlives the body.
        assert_eq!(arena.status(a), TaskStatus::Committed);

        let b = arena.add(desc(2));
        assert_eq!(live_bodies(&arena), 1);
        let body = arena.body(b);
        assert!(body.read_set.is_empty() && body.undo.is_empty());
        assert!(body.read_set.capacity() >= cap_before);
    }

    #[test]
    fn reset_execution_clears_speculative_state() {
        let mut arena = TaskArena::new();
        let a = arena.add(desc(1));
        let body = arena.body_mut(a);
        body.read_set.push(LineAddr(1));
        body.write_set.push(LineAddr(2));
        body.children.push(TaskId(9));
        body.exec_cycles = 100;
        body.reset_execution();
        assert!(body.read_set.is_empty());
        assert!(body.write_set.is_empty());
        assert!(body.children.is_empty());
        assert_eq!(body.exec_cycles, 0);
    }
}
