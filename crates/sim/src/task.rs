//! Task descriptors and lifecycle states.
//!
//! The per-task speculative state itself (read/write sets, undo log,
//! children, timing) lives in the free-listed [`crate::arena::TaskArena`];
//! this module holds the value types that describe a task at enqueue time
//! and its lifecycle status.

use swarm_types::{Hint, TaskFnId, TaskId, TileId, Timestamp};

/// The commit-order key of a task: tasks appear to execute in `(timestamp,
/// creation id)` order. Children always have larger ids than their parents,
/// so a parent always precedes its children in this order.
pub(crate) type OrderKey = (Timestamp, TaskId);

/// A task as handed to the hardware at enqueue time: the contents of a
/// task-queue entry, before an id is assigned by the
/// [`crate::arena::TaskArena`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TaskDescriptor {
    /// Task function to run.
    pub(crate) fid: TaskFnId,
    /// Program-order timestamp.
    pub(crate) ts: Timestamp,
    /// Spatial hint, with `SAMEHINT` already resolved against the parent.
    pub(crate) hint: Hint,
    /// 16-bit hashed hint used by the dispatch serialization logic.
    pub(crate) hint_hash: Option<u16>,
    /// Load-balancer bucket (only set when the active mapper uses buckets).
    pub(crate) bucket: Option<u16>,
    /// Task arguments.
    pub(crate) args: TaskArgs,
    /// Parent task, if any (initial tasks have none).
    pub(crate) parent: Option<TaskId>,
    /// Tile whose task unit will hold this task.
    pub(crate) tile: TileId,
}

/// Where a task currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TaskStatus {
    /// In a tile's task queue, waiting to be dispatched.
    Idle,
    /// Executing (speculatively) on a core.
    Running,
    /// Aborted while running: the core drains the doomed execution until
    /// its scheduled finish, which then requeues the task or, if `discard`,
    /// discards it. A later cascade reaching the task can only set
    /// `discard`, never clear it.
    Doomed {
        /// Whether a cascade that also aborted the task's parent reached it
        /// (the parent's re-execution re-creates it).
        discard: bool,
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
    /// Whether the task is finished with its current execution attempt.
    pub(crate) fn is_terminal(self) -> bool {
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
pub(crate) struct PendingChild {
    /// Task function.
    pub(crate) fid: TaskFnId,
    /// Timestamp (must be >= the parent's).
    pub(crate) ts: Timestamp,
    /// Hint as given by the program (may be `SAMEHINT`).
    pub(crate) hint: Hint,
    /// Arguments.
    pub(crate) args: TaskArgs,
}

/// Number of task arguments held inline (the paper passes up to three in
/// registers; additional ones spill to memory).
const INLINE_ARGS: usize = 3;

/// A task's argument words: up to three are stored inline, so creating a
/// task with at most three arguments allocates nothing; more spill to the
/// heap. Dereferences to the argument slice.
#[derive(Clone, Default)]
pub(crate) struct TaskArgs(ArgWords);

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
    fn only_committed_and_discarded_are_terminal() {
        assert!(TaskStatus::Committed.is_terminal());
        assert!(TaskStatus::Discarded.is_terminal());
        assert!(!TaskStatus::Idle.is_terminal());
        assert!(!TaskStatus::Doomed { discard: true }.is_terminal());
    }
}
