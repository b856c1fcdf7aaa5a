//! Locks the "zero heap allocation on the steady-state hot path" guarantee:
//! once the structures are warm, cache read hits, LRU touches/inserts and
//! SimMemory loads/stores must not touch the allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use swarm_mem::{AccessKind, CacheModel, LruSet, SimMemory};
use swarm_types::{CacheConfig, CoreId, LineAddr};

struct CountingAllocator;

// Per-thread counter so that the libtest harness (and other tests running on
// their own threads) cannot bump the count mid-measurement. The const
// initializer keeps the first per-thread access allocation-free, and
// `Cell<u64>` has no destructor to register.
thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates every operation to `System` unchanged; the counter is a
// plain thread-local cell with no other side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
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

#[test]
fn steady_state_cache_read_hits_allocate_nothing() {
    let mut caches = CacheModel::new(&CacheConfig::default(), 4, 4);
    let lines: Vec<LineAddr> = (0..32).map(LineAddr).collect();
    // Warm up: fill L1s and create the directory entries.
    for _ in 0..2 {
        for &line in &lines {
            caches.access(CoreId(0), line, AccessKind::Read);
        }
    }
    let allocs = measured(|| {
        for _ in 0..1_000 {
            for &line in &lines {
                let outcome = caches.access(CoreId(0), line, AccessKind::Read);
                assert_eq!(outcome.invalidated.count(), 0);
            }
        }
    });
    assert_eq!(allocs, 0, "steady-state read hits must not allocate");
}

#[test]
fn steady_state_single_sharer_writes_allocate_nothing() {
    let mut caches = CacheModel::new(&CacheConfig::default(), 4, 4);
    let lines: Vec<LineAddr> = (0..32).map(LineAddr).collect();
    for &line in &lines {
        caches.access(CoreId(0), line, AccessKind::Write);
    }
    let allocs = measured(|| {
        for _ in 0..1_000 {
            for &line in &lines {
                caches.access(CoreId(0), line, AccessKind::Write);
            }
        }
    });
    assert_eq!(allocs, 0, "repeat writes by the owner must not allocate");
}

#[test]
fn warm_lru_churn_allocates_nothing() {
    let mut lru = LruSet::new(64);
    for key in 0..256u64 {
        lru.insert(key);
    }
    let allocs = measured(|| {
        for round in 0..1_000u64 {
            for key in 0..256 {
                // Insert with eviction, touch, and remove/reinsert churn.
                lru.insert(key);
                lru.touch((key + round) % 256);
            }
        }
    });
    assert_eq!(allocs, 0, "a warmed-up LruSet must never allocate");
}

#[test]
fn warm_memory_load_store_allocates_nothing() {
    let mut mem = SimMemory::new();
    for i in 0..512u64 {
        mem.store(i * 8, i);
    }
    let allocs = measured(|| {
        for round in 0..1_000u64 {
            for i in 0..512 {
                let value = mem.load(i * 8);
                mem.store(i * 8, value.wrapping_add(round));
            }
        }
    });
    assert_eq!(allocs, 0, "stores to warmed pages must not allocate");
}
