//! Task descriptors and lifecycle states.
//!
//! The per-task speculative state itself (read/write sets, undo log,
//! children, timing) lives in the free-listed [`crate::arena::TaskArena`];
//! this module holds the value types that describe a task at enqueue time
//! and its lifecycle status.

use swarm_types::{CoreId, Hint, TaskFnId, TaskId, TileId, Timestamp};

/// The commit-order key of a task: tasks appear to execute in `(timestamp,
/// creation id)` order. Children always have larger ids than their parents,
/// so a parent always precedes its children in this order.
pub type OrderKey = (Timestamp, TaskId);

/// A task as handed to the hardware at enqueue time: the contents of a
/// task-queue entry, before an id is assigned by the
/// [`crate::arena::TaskArena`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskDescriptor {
    /// Task function to run.
    pub fid: TaskFnId,
    /// Program-order timestamp.
    pub ts: Timestamp,
    /// Spatial hint, with `SAMEHINT` already resolved against the parent.
    pub hint: Hint,
    /// 16-bit hashed hint used by the dispatch serialization logic.
    pub hint_hash: Option<u16>,
    /// Load-balancer bucket (only set when the active mapper uses buckets).
    pub bucket: Option<u16>,
    /// Task arguments.
    pub args: TaskArgs,
    /// Parent task, if any (initial tasks have none).
    pub parent: Option<TaskId>,
    /// Tile whose task unit will hold this task.
    pub tile: TileId,
}

/// Where a task currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskStatus {
    /// In a tile's task queue, waiting to be dispatched.
    Idle,
    /// Executing (speculatively) on a core.
    Running {
        /// Core executing the task.
        core: CoreId,
        /// Cycle at which the execution completes.
        finish_at: u64,
    },
    /// Finished execution; holds a commit-queue entry awaiting the GVT.
    Finished,
    /// Committed; architectural state is final.
    Committed,
    /// Spilled to memory by the coalescer; will be refilled later.
    Spilled,
    /// Removed entirely (its parent aborted, so it will be re-created by the
    /// parent's re-execution, or the run ended).
    Discarded,
}

impl TaskStatus {
    /// Whether the task still occupies a task-queue entry in its tile.
    pub fn holds_task_queue_entry(self) -> bool {
        matches!(self, TaskStatus::Idle | TaskStatus::Running { .. } | TaskStatus::Finished)
    }

    /// Whether the task is finished with its current execution attempt.
    pub fn is_terminal(self) -> bool {
        matches!(self, TaskStatus::Committed | TaskStatus::Discarded)
    }
}

/// A task created by the application before the simulation starts
/// (the `swarm::enqueue` calls made from `main`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InitialTask {
    /// Task function.
    pub fid: TaskFnId,
    /// Timestamp.
    pub ts: Timestamp,
    /// Spatial hint.
    pub hint: Hint,
    /// Arguments.
    pub args: Vec<u64>,
}

impl InitialTask {
    /// Convenience constructor.
    pub fn new(fid: TaskFnId, ts: Timestamp, hint: Hint, args: Vec<u64>) -> Self {
        InitialTask { fid, ts, hint, args }
    }
}

/// A child task requested by a running task body, before it has been
/// assigned an id and a destination tile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingChild {
    /// Task function.
    pub fid: TaskFnId,
    /// Timestamp (must be >= the parent's).
    pub ts: Timestamp,
    /// Hint as given by the program (may be `SAMEHINT`).
    pub hint: Hint,
    /// Arguments.
    pub args: TaskArgs,
}

/// Number of task arguments held inline (the paper passes up to three in
/// registers; additional ones spill to memory).
const INLINE_ARGS: usize = 3;

/// A task's argument words: up to three are stored inline, so creating a
/// task with at most three arguments allocates nothing; more spill to the
/// heap. Dereferences to the argument slice.
#[derive(Clone, Default)]
pub struct TaskArgs(ArgWords);

#[derive(Clone)]
enum ArgWords {
    Inline { len: u8, words: [u64; INLINE_ARGS] },
    Spilled(Vec<u64>),
}

impl Default for ArgWords {
    fn default() -> Self {
        ArgWords::Inline { len: 0, words: [0; INLINE_ARGS] }
    }
}

impl From<&[u64]> for TaskArgs {
    fn from(args: &[u64]) -> Self {
        if args.len() <= INLINE_ARGS {
            let mut words = [0; INLINE_ARGS];
            words[..args.len()].copy_from_slice(args);
            TaskArgs(ArgWords::Inline { len: args.len() as u8, words })
        } else {
            TaskArgs(ArgWords::Spilled(args.to_vec()))
        }
    }
}

impl std::ops::Deref for TaskArgs {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        match &self.0 {
            ArgWords::Inline { len, words } => &words[..usize::from(*len)],
            ArgWords::Spilled(args) => args,
        }
    }
}

impl PartialEq for TaskArgs {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for TaskArgs {}

impl std::fmt::Debug for TaskArgs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_key_sorts_by_timestamp_then_id() {
        let key = |ts, id| -> OrderKey { (ts, TaskId(id)) };
        assert!(key(1, 5) < key(2, 1));
        assert!(key(3, 1) < key(3, 2));
    }

    #[test]
    fn args_up_to_three_words_stay_inline_and_more_spill() {
        for n in 0..6u64 {
            let words: Vec<u64> = (1..=n).collect();
            let args = TaskArgs::from(words.as_slice());
            assert_eq!(&*args, words.as_slice());
            assert_eq!(matches!(args.0, ArgWords::Inline { .. }), n <= 3, "{n} words");
        }
        assert!(TaskArgs::default().is_empty());
    }

    #[test]
    fn status_queue_occupancy() {
        assert!(TaskStatus::Idle.holds_task_queue_entry());
        assert!(TaskStatus::Finished.holds_task_queue_entry());
        assert!(!TaskStatus::Spilled.holds_task_queue_entry());
        assert!(!TaskStatus::Committed.holds_task_queue_entry());
        assert!(TaskStatus::Committed.is_terminal());
        assert!(TaskStatus::Discarded.is_terminal());
        assert!(!TaskStatus::Idle.is_terminal());
    }
}
