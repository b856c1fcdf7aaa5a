//! Locks the "zero heap allocation in the steady-state hot loop" guarantee
//! for the engine: once its structures are warm (arena slots, recycled
//! execution buffers, the timing wheel's node pool, per-tile key lists,
//! line table, the stealing sweep masks),
//! executing more tasks must not touch the allocator.
//!
//! The engine has no public stepping API — a run goes to completion — so
//! the invariant is pinned differentially: two identical workloads that
//! differ only in chain length must allocate (almost) the same number of
//! times. Everything the engine allocates per *step* is warm-up
//! (construction plus first-use growth, which both runs share); the only
//! growth allowed from running 7x longer is the O(log n) capacity-doubling
//! of the persistent per-task metadata arrays (status / key / timestamp,
//! which are indexed by task id and so scale with tasks *ever created*,
//! not tasks in flight). A handful of doublings across a 7x task-count
//! increase is the signature of amortised `Vec` growth; anything linear in
//! the extra ~1.8k–14k tasks blows through the bound immediately.
//!
//! A byte counter beside the allocation counter also bounds what building
//! a 256-core engine costs before its run starts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use swarm_sim::{InitialTask, RoundRobinMapper, RunStats, Sim, SwarmApp, TaskCtx, TaskMapper};
use swarm_types::{Hint, NocModel, SystemConfig, TileId};

struct CountingAllocator;

// Per-thread counters so the libtest harness (and other tests running on
// their own threads) cannot bump the counts mid-measurement. The const
// initializers keep the first per-thread access allocation-free, and
// `Cell<u64>` has no destructor to register.
thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocation (or reallocation) of `size` bytes.
fn count(size: usize) {
    ALLOCATIONS.with(|count| count.set(count.get() + 1));
    BYTES.with(|bytes| bytes.set(bytes.get() + size as u64));
}

// SAFETY: delegates every operation to `System` unchanged; the counters are
// plain thread-local cells with no other side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn measured(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Bytes requested from the allocator while `f` runs (a reallocation
/// counts its whole new size), and `f`'s result.
fn measured_bytes<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = BYTES.with(Cell::get);
    let result = f();
    (result, BYTES.with(Cell::get) - before)
}

/// `roots` ordered chains of `chain + 1` tasks, argument-free (the chain
/// position is recovered from the timestamp), each touching one line per
/// chain and enqueuing its successor. The same shape as the
/// `engine_cycles_per_sec` benchmark workload, minus the per-child argument
/// vector, so each extra link exercises the dispatch / execute / conflict
/// check / finish / commit machinery and nothing else.
struct SilentChains {
    roots: u64,
    chain: u64,
}

impl SwarmApp for SilentChains {
    fn name(&self) -> &str {
        "silent_chains"
    }

    fn initial_tasks(&self) -> Vec<InitialTask> {
        (0..self.roots).map(|i| InitialTask::new(i as u16, 0, Hint::value(i), vec![])).collect()
    }

    fn run_task(&self, fid: u16, ts: u64, _args: &[u64], ctx: &mut TaskCtx<'_>) {
        ctx.update(0x10_0000 + u64::from(fid) * 64, |v| v.wrapping_add(1));
        if ts < self.chain {
            ctx.enqueue(fid, ts + 1, Hint::value(u64::from(fid)), &[]);
        }
    }

    fn num_task_fns(&self) -> usize {
        self.roots as usize
    }
}

/// Allocation count of one complete run over `chain + 1` tasks per root.
fn allocs_for(roots: u64, chain: u64) -> u64 {
    allocs_of_run(SilentChains { roots, chain })
}

/// Allocation count of one complete 16-core run of `app`.
fn allocs_of_run(app: impl SwarmApp + 'static) -> u64 {
    measured(|| {
        let mut engine = Sim::builder()
            .app(app)
            .mapper(Box::new(RoundRobinMapper::new()))
            .cores(16)
            .build()
            .expect("workload builds");
        engine.run().expect("workload runs");
    })
}

/// [`SilentChains`] whose every link passes its successor three argument
/// words (the most the paper passes in registers) and checks the ones it
/// received: the arguments must ride inline, not in a per-task allocation.
struct ThreeArgChains {
    roots: u64,
    chain: u64,
}

impl SwarmApp for ThreeArgChains {
    fn name(&self) -> &str {
        "three_arg_chains"
    }

    fn initial_tasks(&self) -> Vec<InitialTask> {
        (0..self.roots)
            .map(|i| InitialTask::new(i as u16, 0, Hint::value(i), vec![i, 0, 0]))
            .collect()
    }

    fn run_task(&self, fid: u16, ts: u64, args: &[u64], ctx: &mut TaskCtx<'_>) {
        assert_eq!(args, [u64::from(fid), ts, ts * 3]);
        ctx.update(0x10_0000 + u64::from(fid) * 64, |v| v.wrapping_add(args[1]));
        if ts < self.chain {
            let next = ts + 1;
            ctx.enqueue(fid, next, Hint::value(u64::from(fid)), &[u64::from(fid), next, next * 3]);
        }
    }

    fn num_task_fns(&self) -> usize {
        self.roots as usize
    }
}

/// Ceiling on the bytes one 256-core engine build may allocate. The
/// machine itself (caches, directory, mesh, queues for 64 tiles) needs
/// under 200 KB; anything sized per wheel slot times per core, such as
/// pre-sizing the 1,024 ring slots for a whole-machine wake burst, costs
/// megabytes.
const BUILD_256_BYTES: u64 = 512 * 1024;

#[test]
fn building_a_256_core_engine_allocates_under_512_kib() {
    let build = || {
        Sim::builder()
            .app(SilentChains { roots: 1, chain: 1 })
            .mapper(Box::new(RoundRobinMapper::new()))
            .cores(256)
            .build()
            .expect("256-core engine builds")
    };
    // First build warms up thread-locals and lazy runtime state.
    drop(build());
    let (_engine, bytes) = measured_bytes(build);
    assert!(
        bytes < BUILD_256_BYTES,
        "a 256-core engine build allocated {bytes} bytes, over {BUILD_256_BYTES}"
    );
}

/// Allowance for the per-task metadata arrays doubling a few times between
/// the short and the long run (see module docs). Each doubling reallocates
/// a fixed handful of arrays, so the allowance is a small constant; the
/// long runs create 1792–14336 *more tasks* than the short ones, so any
/// per-task (or per-event) leak exceeds this within the first few steps.
const DOUBLING_ALLOWANCE: u64 = 48;

#[test]
fn longer_single_chain_allocates_no_more_than_short_one() {
    // First run warms up thread-locals and lazy runtime state.
    allocs_for(1, 64);
    let short = allocs_for(1, 256);
    let long = allocs_for(1, 2048);
    assert!(
        long >= short && long - short <= DOUBLING_ALLOWANCE,
        "7x more steady-state engine steps must add at most a few \
         metadata-array doublings, got {short} -> {long}"
    );
}

#[test]
fn longer_parallel_chains_allocate_no_more_than_short_ones() {
    allocs_for(8, 64);
    let short = allocs_for(8, 256);
    let long = allocs_for(8, 2048);
    assert!(
        long >= short && long - short <= DOUBLING_ALLOWANCE,
        "7x more steady-state engine steps must add at most a few \
         metadata-array doublings, got {short} -> {long}"
    );
}

#[test]
fn three_argument_children_allocate_nothing_per_task() {
    let run = |chain| allocs_of_run(ThreeArgChains { roots: 8, chain });
    run(64);
    let short = run(256);
    let long = run(2048);
    assert!(
        long >= short && long - short <= DOUBLING_ALLOWANCE,
        "children with three arguments must not allocate per task, got {short} -> {long}"
    );
}

/// One complete 256-core (8x8-tile) run of [`SilentChains`] under the
/// contention NoC: its allocation count and statistics. Round-robin
/// placement sends every enqueue across the mesh, so messages fill the
/// link rings, and every GVT epoch walks the exchange's fan-in.
fn contention_run(chain: u64) -> (u64, RunStats) {
    let mut stats = None;
    let allocs = measured(|| {
        let mut cfg = SystemConfig::with_cores(256);
        cfg.noc.model = NocModel::Contention;
        let mut engine = Sim::builder()
            .config(cfg)
            .app(SilentChains { roots: 8, chain })
            .mapper(Box::new(RoundRobinMapper::new()))
            .build()
            .expect("contention workload builds");
        stats = Some(engine.run().expect("contention workload runs"));
    });
    (allocs, stats.expect("run completed"))
}

#[test]
fn longer_contention_chains_on_256_cores_allocate_no_more_than_short_ones() {
    contention_run(64);
    let (short, short_stats) = contention_run(256);
    let (long, long_stats) = contention_run(2048);
    // The long run must cross many more GVT epochs and queue on the links
    // for the differential to cover the rings and the exchange.
    assert!(
        long_stats.gvt_updates >= 4 * short_stats.gvt_updates && short_stats.noc_queue_cycles > 0,
        "GVT updates {} -> {}, queueing cycles {}",
        short_stats.gvt_updates,
        long_stats.gvt_updates,
        short_stats.noc_queue_cycles
    );
    assert!(
        long >= short && long - short <= DOUBLING_ALLOWANCE,
        "7x more contention steps and GVT exchanges must add at most a few \
         metadata-array doublings, got {short} -> {long}"
    );
}

/// The hostile counterpart to [`SilentChains`]: a driver chain whose every
/// link re-injects a full spill storm — a `WAVE`-wide burst of wave tasks
/// (wider than the whole starved task queue, so most of the burst spills),
/// each spawning `LEAVES` argument-free children into a later band of the
/// same step. Idle later-band children dispatch while earlier spilled wave
/// tasks wait for queue headroom, and because every task updates the same
/// shared counter each out-of-commit-order execution surfaces as a rollback
/// when the earlier task is finally unspilled (the mechanism
/// `tests/fuzz.rs` at the workspace root pins deterministically). Each step
/// drains before the next driver fires, so the steady state is *repeated*
/// spill/refill/abort churn with a bounded in-flight population: the
/// zero-allocation guarantee must survive the recovery machinery (spill
/// buffers, undo-log replay, abort cascades), not just the happy path the
/// chains above pin.
struct ChurnChains {
    chain: u64,
}

const CHURN_SHARED: u64 = 0x20_0000;
const WAVE: u64 = 16;
const LEAVES: u64 = 4;
const STEP: u64 = 256;
const CHILD_OFF: u64 = 64;

impl SwarmApp for ChurnChains {
    fn name(&self) -> &str {
        "churn_chains"
    }

    fn initial_tasks(&self) -> Vec<InitialTask> {
        vec![InitialTask::new(0, 0, Hint::value(0), vec![])]
    }

    fn run_task(&self, fid: u16, ts: u64, _args: &[u64], ctx: &mut TaskCtx<'_>) {
        ctx.update(CHURN_SHARED, |v| v.wrapping_add(1));
        match fid {
            0 => {
                // Driver for step `k`: burst the wave, then chain.
                let k = ts / STEP;
                for w in 0..WAVE {
                    ctx.enqueue(1, ts + 1 + w, Hint::value(w), &[]);
                }
                if k + 1 < self.chain {
                    ctx.enqueue(0, ts + STEP, Hint::value(0), &[]);
                }
            }
            _ => {
                // Wave task `w` of its step: children into the step's
                // later band (still before the next driver). Leaves
                // (fid 2) only bump the shared counter.
                if fid == 1 {
                    let base = ts - (ts % STEP);
                    let w = ts - base - 1;
                    for c in 0..LEAVES {
                        ctx.enqueue(2, base + CHILD_OFF + w * LEAVES + c, Hint::value(c), &[]);
                    }
                }
            }
        }
    }

    fn num_task_fns(&self) -> usize {
        3
    }
}

/// A single core with a 10-entry task queue that spills one task at a time:
/// each driver step injects `LEAVES + 1` tasks, so the queue overflows every
/// step and (with `spill_batch = 1`) stays pinned at capacity, which blocks
/// refills and forces out-of-commit-order execution (see `tests/fuzz.rs` at
/// the workspace root for the mechanism).
fn churn_run(chain: u64) -> (u64, RunStats) {
    let mut stats = None;
    let allocs = measured(|| {
        let mut cfg = SystemConfig::single_core();
        cfg.queues.task_queue_per_core = 10;
        cfg.queues.commit_queue_per_core = 4;
        cfg.queues.spill_batch = 1;
        let mut engine = Sim::builder()
            .config(cfg)
            .app(ChurnChains { chain })
            .mapper(Box::new(RoundRobinMapper::new()))
            .build()
            .expect("churn workload builds");
        stats = Some(engine.run().expect("churn workload runs"));
    });
    (allocs, stats.expect("run completed"))
}

#[test]
fn hostile_spill_and_abort_churn_allocates_no_more_than_a_short_run() {
    churn_run(16);
    let (short, short_stats) = churn_run(64);
    let (long, long_stats) = churn_run(512);
    // The churn has to be real in both runs for the differential to mean
    // anything: sustained spills, and rollbacks that scale with run length.
    assert!(
        short_stats.tasks_spilled > 0 && short_stats.tasks_aborted > 0,
        "the short run must already spill ({}) and abort ({})",
        short_stats.tasks_spilled,
        short_stats.tasks_aborted
    );
    assert!(
        long_stats.tasks_spilled > short_stats.tasks_spilled
            && long_stats.tasks_aborted > short_stats.tasks_aborted,
        "the long run must churn more (spilled {} -> {}, aborted {} -> {})",
        short_stats.tasks_spilled,
        long_stats.tasks_spilled,
        short_stats.tasks_aborted,
        long_stats.tasks_aborted
    );
    assert!(
        long >= short && long - short <= DOUBLING_ALLOWANCE,
        "8x more spill/abort churn must add at most a few metadata-array \
         doublings, got {short} -> {long}"
    );
}

/// Sanity companion for the churn differential: the storm stays a *legal*
/// program (the engine's result, the shared counter, must equal the total
/// task count despite every rollback and replay).
#[test]
fn churn_storm_still_commits_every_task_exactly_once() {
    let chain = 48u64;
    let (_, stats) = churn_run(chain);
    assert_eq!(stats.tasks_committed, chain * (1 + WAVE + WAVE * LEAVES));
}

/// The idealized work-stealing policy of the paper's Stealing scheduler
/// (enqueue on the creating tile, steal the earliest task of the tile with
/// the most idle tasks), restated here because the paper's schedulers live
/// in a crate above this one. Initial tasks go round-robin.
#[derive(Default)]
struct LocalStealer {
    next: u32,
}

impl TaskMapper for LocalStealer {
    fn name(&self) -> &str {
        "local-stealer"
    }

    fn map_task(&mut self, _hint: Hint, creator: Option<TileId>, num_tiles: usize) -> TileId {
        creator.unwrap_or_else(|| {
            self.next += 1;
            TileId((self.next - 1) % num_tiles as u32)
        })
    }

    fn steals(&self) -> bool {
        true
    }

    fn steal_victim(&mut self, thief: TileId, idle_per_tile: &[usize]) -> Option<TileId> {
        let (victim, &count) =
            idle_per_tile.iter().enumerate().max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))?;
        (count > 0 && victim != thief.index()).then_some(TileId(victim as u32))
    }
}

/// A chain whose every link also drops `FAN` leaf tasks on its own tile.
/// Under a stealing mapper the leaves pile up on the chain's tile while the
/// other tiles run dry, so idle cores steal them, and every wake sweeps the
/// whole machine.
struct FanChain {
    chain: u64,
}

const FAN: u64 = 8;
/// Timestamp distance between links; the leaves of a link fill the gap.
const LINK: u64 = 16;

impl SwarmApp for FanChain {
    fn name(&self) -> &str {
        "fan_chain"
    }

    fn initial_tasks(&self) -> Vec<InitialTask> {
        vec![InitialTask::new(0, 0, Hint::value(0), vec![])]
    }

    fn run_task(&self, fid: u16, ts: u64, _args: &[u64], ctx: &mut TaskCtx<'_>) {
        // The link (fid 0) and each of its leaves (fid 1) bump their own line.
        let line = u64::from(fid) * LINK + ts % LINK;
        ctx.update(0x30_0000 + line * 64, |v| v.wrapping_add(1));
        if fid == 0 && ts / LINK < self.chain {
            ctx.enqueue(0, ts + LINK, Hint::value(0), &[]);
            for leaf in 0..FAN {
                ctx.enqueue(1, ts + 1 + leaf, Hint::value(0), &[]);
            }
        }
    }

    fn num_task_fns(&self) -> usize {
        2
    }
}

/// Allocation count and statistics of one stealing run on 64 tiles.
fn stealing_run(chain: u64) -> (u64, RunStats) {
    let mut stats = None;
    let allocs = measured(|| {
        let mut engine = Sim::builder()
            .app(FanChain { chain })
            .mapper(Box::new(LocalStealer::default()))
            .cores(256)
            .build()
            .expect("stealing workload builds");
        stats = Some(engine.run().expect("stealing workload runs"));
    });
    (allocs, stats.expect("run completed"))
}

#[test]
fn stealing_sweeps_on_64_tiles_allocate_no_more_than_a_short_run() {
    stealing_run(64);
    let (short, short_stats) = stealing_run(256);
    let (long, long_stats) = stealing_run(2048);
    assert_eq!(short_stats.committed_cycles_per_tile.len(), 64);
    // The chain runs on one tile; committed work on other tiles means its
    // leaves were stolen.
    let busy_tiles = long_stats.committed_cycles_per_tile.iter().filter(|&&c| c > 0).count();
    assert!(busy_tiles > 1, "leaves must be stolen, only {busy_tiles} tile did work");
    assert_eq!(long_stats.tasks_committed, 1 + 2048 * (1 + FAN));
    assert!(
        long >= short && long - short <= DOUBLING_ALLOWANCE,
        "8x more stealing sweeps must add at most a few metadata-array doublings, \
         got {short} -> {long}"
    );
}
