//! A hierarchical timing-wheel event queue for the engine hot loop.
//!
//! The engine used to keep its pending events in a
//! `BinaryHeap<Reverse<(cycle, seq, Event)>>`: every push and pop paid a
//! `log n` chain of 24-byte tuple comparisons, and the tie-breaking `seq`
//! had to be materialised in every element. [`TimingWheel`] replaces it
//! with a calendar queue keyed by cycle:
//!
//! * events within [`WHEEL_SLOTS`] cycles of the current cursor live in a
//!   ring of per-cycle FIFO lists, with an occupancy bitmap so the next
//!   non-empty slot is a couple of `trailing_zeros` scans away;
//! * events further out (in this simulator essentially only the
//!   load-balancer epoch) wait in a `BTreeMap` of such lists keyed by
//!   cycle, spliced into the ring when the cursor's window reaches them.
//!
//! All lists thread through one node pool whose popped nodes go on a free
//! list: it grows to the high-water mark of queued events, then recycles.
//!
//! # Ordering contract
//!
//! [`TimingWheel::pop`] returns events in ascending `(cycle, insertion
//! order)`: earlier cycles first, and events scheduled for the same cycle
//! in exactly the order [`TimingWheel::schedule`] was called — the same
//! total order the seed's `(cycle, seq)` heap produced, with the sequence
//! number now implied by list order instead of stored per event.
//! Scheduling in the past (`at` below the cycle of the last popped event)
//! is a contract violation and panics.
//!
//! `tests/properties.rs` in the workspace root cross-checks this structure
//! against the seed `BinaryHeap` implementation under randomized
//! schedule/pop interleavings, including same-cycle FIFO order, far-future
//! (overflow + ring wraparound) schedules and drains to empty.

use std::collections::BTreeMap;

/// Ring size in cycles (and slots: one slot per cycle). Finish and GVT
/// events are scheduled at most a few hundred cycles out, so in steady
/// state everything but the load-balancer epoch stays in the ring.
pub const WHEEL_SLOTS: usize = 1024;
const SLOT_MASK: u64 = WHEEL_SLOTS as u64 - 1;
const WORDS: usize = WHEEL_SLOTS / 64;

/// The null node index: end of a list, or an empty list.
const NIL: u32 = u32::MAX;

/// A FIFO list of pool nodes: the events of one cycle, in schedule order.
#[derive(Debug, Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

const EMPTY: List = List { head: NIL, tail: NIL };

/// A pool node: one queued event (or, on the free list, a spare).
#[derive(Debug, Clone, Copy)]
struct Node<T> {
    item: T,
    next: u32,
}

/// A calendar-queue / timing-wheel priority queue of `(cycle, T)` events.
///
/// See the module docs for the ordering contract and the ring/overflow
/// split. `T` is `Copy` because the engine's events are a tiny enum; the
/// queue never clones anything larger than that.
#[derive(Debug)]
pub struct TimingWheel<T: Copy> {
    /// One list per cycle of the window `cursor..cursor + WHEEL_SLOTS`.
    ring: Vec<List>,
    /// Occupancy bitmap over `ring` (bit i == slot i has unpopped items).
    occupied: [u64; WORDS],
    /// Cycle of the most recent pop; every queued event is at or after it.
    cursor: u64,
    /// Events at cycles `>= cursor + WHEEL_SLOTS`; spliced into the ring
    /// as the cursor window reaches them.
    overflow: BTreeMap<u64, List>,
    /// Node storage shared by every list, plus the free list.
    nodes: Vec<Node<T>>,
    /// Head of the free list threaded through `nodes`.
    free: u32,
    len: usize,
}

impl<T: Copy> TimingWheel<T> {
    /// An empty queue with its cursor at cycle 0.
    pub fn new() -> Self {
        TimingWheel {
            ring: vec![EMPTY; WHEEL_SLOTS],
            occupied: [0; WORDS],
            cursor: 0,
            overflow: BTreeMap::new(),
            nodes: Vec::new(),
            free: NIL,
            len: 0,
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queue `item` at cycle `at`.
    ///
    /// Events at equal cycles are popped in schedule order (FIFO), so the
    /// caller needs no tie-breaking key of its own.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies in the past, i.e. below the cycle of the most
    /// recently popped event.
    #[inline]
    pub fn schedule(&mut self, at: u64, item: T) {
        assert!(at >= self.cursor, "event scheduled in the past ({at} < {})", self.cursor);
        let node = self.alloc(item);
        let list = if at - self.cursor < WHEEL_SLOTS as u64 {
            let idx = (at & SLOT_MASK) as usize;
            self.occupied[idx / 64] |= 1 << (idx % 64);
            &mut self.ring[idx]
        } else {
            self.overflow.entry(at).or_insert(EMPTY)
        };
        if list.tail == NIL {
            list.head = node;
        } else {
            self.nodes[list.tail as usize].next = node;
        }
        list.tail = node;
        self.len += 1;
    }

    /// Remove and return the earliest event as `(cycle, item)`; ties are
    /// broken by schedule order. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        if self.len == 0 {
            return None;
        }
        // With the ring empty, jump to the earliest overflow cycle.
        let at = self
            .next_ring_cycle()
            .unwrap_or_else(|| *self.overflow.keys().next().expect("len > 0 with an empty ring"));
        if at != self.cursor {
            self.cursor = at;
            self.migrate_overflow();
        }
        let idx = (at & SLOT_MASK) as usize;
        let list = &mut self.ring[idx];
        let head = list.head;
        let Node { item, next } = self.nodes[head as usize];
        list.head = next;
        if next == NIL {
            list.tail = NIL;
            self.occupied[idx / 64] &= !(1 << (idx % 64));
        }
        self.nodes[head as usize].next = self.free;
        self.free = head;
        self.len -= 1;
        Some((at, item))
    }

    /// A pool node holding `item`: the most recently freed one, or a new
    /// one at the end of the pool.
    fn alloc(&mut self, item: T) -> u32 {
        let node = Node { item, next: NIL };
        if self.free == NIL {
            // The pool grows one node at a time, so this stops it at NIL,
            // before an index could truncate.
            assert!(self.nodes.len() < NIL as usize, "more than u32::MAX - 1 queued events");
            self.nodes.push(node);
            return (self.nodes.len() - 1) as u32;
        }
        let idx = self.free;
        self.free = self.nodes[idx as usize].next;
        self.nodes[idx as usize] = node;
        idx
    }

    /// Cycle of the earliest ring event at or after the cursor, if any.
    fn next_ring_cycle(&self) -> Option<u64> {
        let start = (self.cursor & SLOT_MASK) as usize;
        let mut word = start / 64;
        // Mask off slots before the cursor in its own word; they belong to
        // the far end of the window and are found on the wrapped pass.
        let mut bits = self.occupied[word] & (u64::MAX << (start % 64));
        for _ in 0..=WORDS {
            if bits != 0 {
                let slot = word * 64 + bits.trailing_zeros() as usize;
                let dist = (slot + WHEEL_SLOTS - start) as u64 & SLOT_MASK;
                return Some(self.cursor + dist);
            }
            word = (word + 1) % WORDS;
            bits = self.occupied[word];
        }
        None
    }

    /// Splice every overflow cycle now inside the cursor's window into the
    /// ring. Runs on cursor advance, before any same-cycle `schedule`
    /// call, so the target slots are empty and FIFO order is preserved
    /// (overflow entries always predate ring entries of the same cycle).
    fn migrate_overflow(&mut self) {
        let horizon = self.cursor + WHEEL_SLOTS as u64;
        while let Some(entry) = self.overflow.first_entry() {
            if *entry.key() >= horizon {
                break;
            }
            let (at, list) = entry.remove_entry();
            let idx = (at & SLOT_MASK) as usize;
            debug_assert!(self.ring[idx].head == NIL, "migration target slot must be empty");
            self.ring[idx] = list;
            self.occupied[idx / 64] |= 1 << (idx % 64);
        }
    }
}

impl<T: Copy> Default for TimingWheel<T> {
    fn default() -> Self {
        TimingWheel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T: Copy> TimingWheel<T> {
        /// Nodes ever allocated: the high-water mark of queued events.
        fn pool_len(&self) -> usize {
            self.nodes.len()
        }
    }

    #[test]
    fn pops_in_cycle_then_fifo_order() {
        let mut q = TimingWheel::new();
        q.schedule(5, 'a');
        q.schedule(3, 'b');
        q.schedule(5, 'c');
        q.schedule(3, 'd');
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some((3, 'b')));
        assert_eq!(q.pop(), Some((3, 'd')));
        assert_eq!(q.pop(), Some((5, 'a')));
        assert_eq!(q.pop(), Some((5, 'c')));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn same_cycle_schedules_during_drain_stay_fifo() {
        let mut q = TimingWheel::new();
        q.schedule(7, 1);
        q.schedule(7, 2);
        assert_eq!(q.pop(), Some((7, 1)));
        // Scheduling at the cursor cycle while its slot drains appends
        // after the remaining events of that cycle.
        q.schedule(7, 3);
        assert_eq!(q.pop(), Some((7, 2)));
        assert_eq!(q.pop(), Some((7, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn far_future_events_round_trip_through_overflow() {
        let mut q = TimingWheel::new();
        let far = 10 * WHEEL_SLOTS as u64 + 17;
        q.schedule(far, 'x');
        q.schedule(2, 'n');
        q.schedule(far, 'y');
        assert_eq!(q.pop(), Some((2, 'n')));
        assert_eq!(q.pop(), Some((far, 'x')));
        assert_eq!(q.pop(), Some((far, 'y')));
        assert_eq!(q.pop(), None);
        // After the jump, near scheduling still works (ring wrapped).
        q.schedule(far + WHEEL_SLOTS as u64 - 1, 'z');
        assert_eq!(q.pop(), Some((far + WHEEL_SLOTS as u64 - 1, 'z')));
    }

    #[test]
    fn overflow_entries_precede_ring_entries_of_same_cycle() {
        let mut q = TimingWheel::new();
        let t = WHEEL_SLOTS as u64 + 50;
        q.schedule(t, 1); // beyond horizon: overflow
        q.schedule(60, 0);
        assert_eq!(q.pop(), Some((60, 0)));
        // Cursor advanced to 60; t is now inside the window, so this lands
        // in the ring, after the migrated overflow entry.
        q.schedule(t, 2);
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 2)));
    }

    #[test]
    fn drained_bursts_recycle_the_node_pool() {
        const K: u64 = 40;
        let mut q = TimingWheel::new();
        for burst in 0..50u64 {
            // Bursts spread over the ring and the overflow map; each one
            // drains to empty before the next begins.
            let base = burst * 3 * WHEEL_SLOTS as u64;
            for i in 0..K {
                q.schedule(base + (i * 97) % (2 * WHEEL_SLOTS as u64), i);
            }
            let mut last = base;
            for _ in 0..K {
                let (at, _) = q.pop().expect("burst event queued");
                assert!(at >= last);
                last = at;
            }
            assert!(q.is_empty());
            assert_eq!(q.pool_len(), K as usize, "burst {burst} grew the pool");
        }
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_before_the_cursor_panics() {
        let mut q = TimingWheel::new();
        q.schedule(10, ());
        q.pop();
        q.schedule(9, ());
    }
}
