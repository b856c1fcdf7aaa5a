//! The application-facing Swarm programming interface.
//!
//! Applications are collections of *task functions*. Each task receives its
//! timestamp and arguments and runs against a [`TaskCtx`], which provides
//! speculative loads/stores to the simulated shared memory and the
//! `swarm::enqueue` primitive for creating child tasks with spatial hints
//! (Listing 1 and 2 of the paper map directly onto this API).

use swarm_mem::{SimMemory, UndoEntry};
use swarm_types::config::{TASK_BASE_COST, TASK_MGMT_COST};
use swarm_types::{Addr, CoreId, Hint, LineAddr, TaskFnId, TaskId, Timestamp};

use crate::state::SimState;
use crate::task::{InitialTask, PendingChild};

/// A speculative parallel program runnable on the simulator.
///
/// Implementations hold their *read-only* data (graph topology, circuit
/// netlist, table schemas, ...) in ordinary Rust structures; all *mutable
/// shared state* must live in the simulated memory and be accessed through
/// the [`TaskCtx`], so that conflict detection and rollback see it.
pub trait SwarmApp {
    /// Application name (used in reports, e.g. `"sssp-fine"`).
    fn name(&self) -> &str;

    /// Initialise the simulated shared memory before the parallel region
    /// starts (the sequential setup the paper fast-forwards over). Writes
    /// made here are not speculative and are not counted in any statistic.
    fn init_memory(&self, _mem: &mut SimMemory) {}

    /// The tasks enqueued before `swarm::run()` is called.
    fn initial_tasks(&self) -> Vec<InitialTask>;

    /// Run one task. `fid` selects the task function; `ts` and `args` are the
    /// values passed at enqueue time.
    fn run_task(&self, fid: TaskFnId, ts: Timestamp, args: &[u64], ctx: &mut TaskCtx<'_>);

    /// Number of distinct task functions (the "Task Funcs" column of
    /// Table I).
    fn num_task_fns(&self) -> usize {
        1
    }

    /// Check the final committed memory state against a serial reference
    /// execution.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch found.
    fn validate(&self, _mem: &SimMemory) -> Result<(), String> {
        Ok(())
    }
}

/// Execution context handed to a running task.
///
/// All methods charge simulated cycles to the running task; the sum becomes
/// the task's execution latency.
pub struct TaskCtx<'a> {
    state: &'a mut SimState,
    task: TaskId,
    core: CoreId,
    ts: Timestamp,
    cycles: u64,
    // The task's own arena-body buffers, taken out of its slot while the
    // body runs. The line lists are plain vecs, deduplicated once at finish:
    // a task's footprint is a handful of lines, so push + sort + dedup beats
    // per-access hashing, and the sorted result is deterministic regardless
    // of access order.
    read_lines: Vec<LineAddr>,
    write_lines: Vec<LineAddr>,
    undo: Vec<UndoEntry>,
    trace: Vec<(Addr, bool)>,
    spawned: Vec<PendingChild>,
}

/// Record the line holding `addr`, unless it is the line just recorded (the
/// list is deduplicated at finish anyway; this keeps runs of accesses to one
/// line from growing it).
#[inline]
fn push_line(lines: &mut Vec<LineAddr>, addr: Addr) {
    let line = LineAddr::containing(addr);
    if lines.last() != Some(&line) {
        lines.push(line);
    }
}

impl<'a> TaskCtx<'a> {
    /// Create a context for `task` running on `core`. Charges the base task
    /// overhead (dequeue + task body setup) immediately.
    ///
    /// The context records straight into the task's own arena body: it takes
    /// the body's (empty) read/write sets, undo log, trace and spawned-child
    /// list out of the slot, and [`TaskCtx::finish`] puts them back. The
    /// slot keeps their capacity across its tenants, so a steady-state
    /// dispatch allocates nothing.
    pub(crate) fn new(state: &'a mut SimState, task: TaskId, core: CoreId, ts: Timestamp) -> Self {
        let body = state.tasks.body_mut(task);
        debug_assert!(body.read_set.is_empty() && body.write_set.is_empty());
        debug_assert!(body.undo.is_empty() && body.access_trace.is_empty());
        debug_assert!(body.spawned.is_empty());
        let read_lines = std::mem::take(&mut body.read_set);
        let write_lines = std::mem::take(&mut body.write_set);
        let undo = std::mem::take(&mut body.undo);
        let trace = std::mem::take(&mut body.access_trace);
        let spawned = std::mem::take(&mut body.spawned);
        // The previous body's last access says nothing about this one's.
        state.last_access = None;
        TaskCtx {
            state,
            task,
            core,
            ts,
            cycles: TASK_BASE_COST + TASK_MGMT_COST,
            read_lines,
            write_lines,
            undo,
            trace,
            spawned,
        }
    }

    /// This task's timestamp.
    pub fn timestamp(&self) -> Timestamp {
        self.ts
    }

    /// Speculatively read the 64-bit word at `addr`.
    pub fn read(&mut self, addr: Addr) -> u64 {
        let (value, latency) = self.state.speculative_read(self.task, self.core, addr, self.cycles);
        self.cycles += latency;
        push_line(&mut self.read_lines, addr);
        if self.state.profiling {
            self.trace.push((addr, false));
        }
        value
    }

    /// Speculatively write `value` to the 64-bit word at `addr`.
    pub fn write(&mut self, addr: Addr, value: u64) {
        let (undo, latency) =
            self.state.speculative_write(self.task, self.core, addr, value, self.cycles);
        self.cycles += latency;
        push_line(&mut self.write_lines, addr);
        self.undo.push(undo);
        if self.state.profiling {
            self.trace.push((addr, true));
        }
    }

    /// Read-modify-write convenience: `read` then `write(f(old))`, returning
    /// the old value.
    pub fn update(&mut self, addr: Addr, f: impl FnOnce(u64) -> u64) -> u64 {
        let old = self.read(addr);
        self.write(addr, f(old));
        old
    }

    /// Charge `cycles` of pure computation to this task.
    pub fn compute(&mut self, cycles: u64) {
        self.cycles += cycles;
    }

    /// Enqueue a child task (`swarm::enqueue(taskFn, timestamp, hint,
    /// args...)` in the paper's API). Up to three arguments are stored
    /// inline, like the paper's register-passed arguments, so such a
    /// child costs no allocation.
    ///
    /// # Panics
    ///
    /// Panics if `ts` is lower than this task's timestamp: Swarm only allows
    /// children with equal or later timestamps.
    pub fn enqueue(&mut self, fid: TaskFnId, ts: Timestamp, hint: Hint, args: &[u64]) {
        assert!(ts >= self.ts, "child timestamp {ts} is lower than parent timestamp {}", self.ts);
        self.cycles += TASK_MGMT_COST;
        self.spawned.push(PendingChild { fid, ts, hint, args: args.into() });
    }

    /// Cycles charged so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Charge the finish overhead and hand the recorded buffers back to the
    /// task's body. Returns the execution's cycles.
    pub(crate) fn finish(mut self) -> u64 {
        self.cycles += TASK_MGMT_COST;
        // Sort + dedup the line lists: their order feeds line_table
        // registration and abort-cascade traversal, so it must not depend on
        // the order the task body happened to touch memory in.
        self.read_lines.sort_unstable();
        self.read_lines.dedup();
        self.write_lines.sort_unstable();
        self.write_lines.dedup();
        let body = self.state.tasks.body_mut(self.task);
        body.read_set = self.read_lines;
        body.write_set = self.write_lines;
        body.undo = self.undo;
        body.access_trace = self.trace;
        body.spawned = self.spawned;
        self.cycles
    }
}
