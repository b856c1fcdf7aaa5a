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

/// Result of executing one task body, handed back to the engine for
/// integration into the task's speculative record.
#[derive(Debug)]
pub(crate) struct ExecutionOutcome {
    /// Cycles consumed by the execution (memory, compute and task-management
    /// overheads).
    pub cycles: u64,
    /// Distinct cache lines read.
    pub read_lines: Vec<LineAddr>,
    /// Distinct cache lines written.
    pub write_lines: Vec<LineAddr>,
    /// Undo-log entries for every store performed (already applied).
    pub undo: Vec<UndoEntry>,
    /// Word-granular access trace (profiling only).
    pub trace: Vec<(Addr, bool)>,
    /// Children requested via [`TaskCtx::enqueue`].
    pub children: Vec<PendingChild>,
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
    // Plain vecs, deduplicated once at outcome time: a task's footprint is a
    // handful of lines, so push + sort + dedup beats per-access hashing, and
    // the sorted result is deterministic regardless of access order.
    read_lines: Vec<LineAddr>,
    write_lines: Vec<LineAddr>,
    undo: Vec<UndoEntry>,
    trace: Vec<(Addr, bool)>,
    children: Vec<PendingChild>,
}

/// Record the line holding `addr`, unless it is the line just recorded (the
/// list is deduplicated at outcome time anyway; this keeps runs of accesses
/// to one line from growing it).
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
    /// The access-tracking containers are borrowed from the state's
    /// recycled buffers (one execution is in flight at a time) and the
    /// children list from a pool (one children buffer stays in flight per
    /// busy core until its `Finish` event), so a steady-state dispatch
    /// allocates nothing; [`TaskCtx::into_outcome`] and the engine return
    /// them once the outcome is integrated.
    pub(crate) fn new(state: &'a mut SimState, task: TaskId, core: CoreId, ts: Timestamp) -> Self {
        let base = TASK_BASE_COST + TASK_MGMT_COST;
        let read_lines = std::mem::take(&mut state.ctx_read_buf);
        let write_lines = std::mem::take(&mut state.ctx_write_buf);
        let undo = std::mem::take(&mut state.ctx_undo);
        let trace = std::mem::take(&mut state.ctx_trace);
        let children = state.ctx_children_pool.pop().unwrap_or_default();
        // The previous body's last access says nothing about this one's.
        state.last_access = None;
        debug_assert!(read_lines.is_empty() && write_lines.is_empty());
        debug_assert!(undo.is_empty() && trace.is_empty() && children.is_empty());
        TaskCtx {
            state,
            task,
            core,
            ts,
            cycles: base,
            read_lines,
            write_lines,
            undo,
            trace,
            children,
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
        self.children.push(PendingChild { fid, ts, hint, args: args.into() });
    }

    /// Cycles charged so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Tear the context down into an [`ExecutionOutcome`], charging the
    /// finish overhead.
    pub(crate) fn into_outcome(mut self) -> ExecutionOutcome {
        self.cycles += TASK_MGMT_COST;
        let TaskCtx { cycles, mut read_lines, mut write_lines, undo, trace, children, .. } = self;
        // Sort + dedup the line lists: their order feeds line_table
        // registration and abort-cascade traversal, so it must not depend on
        // the order the task body happened to touch memory in.
        read_lines.sort_unstable();
        read_lines.dedup();
        write_lines.sort_unstable();
        write_lines.dedup();
        ExecutionOutcome { cycles, read_lines, write_lines, undo, trace, children }
    }
}
