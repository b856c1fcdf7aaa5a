//! The speculative line-access table: cache line -> uncommitted readers and
//! writers.
//!
//! This table is consulted on every speculative access (conflict detection)
//! and updated on every task registration, abort and commit, so it sits on
//! the simulator's hottest path. It used to be a `FastHashMap<LineAddr,
//! LineAccessors>`; it is now the same flat, linearly probed
//! [`OpenTable`] core the memory system uses, with the
//! non-`Copy` accessor lists parked in a free-listed slab so that removing a
//! line keeps its `Vec` capacities for the next line that lands in the slot
//! (steady-state registration allocates nothing).
//!
//! # Register once
//!
//! A task's key is on a line's readers (writers) list exactly while the task
//! is registered and the line is in its read (write) set: a task registers
//! its deduplicated sets once per execution ([`LineTable::register`]) and is
//! unregistered at commit or abort ([`LineTable::unregister`]) before it can
//! register again. So registration appends without scanning for the key,
//! retirement visits each accessor entry once, and each list keeps its
//! registration order (which feeds the abort cascade's victim order).
//!
//! `tests/properties.rs` in the workspace root cross-checks this structure
//! against a `HashMap` reference model under randomized register/unregister
//! interleavings.

use swarm_mem::{OpenTable, Probe};
use swarm_types::{LineAddr, TaskId};

use crate::task::OrderKey;

/// Readers and writers currently registered for a cache line.
///
/// Entries carry the accessor's full commit-order key `(ts, id)`, not just
/// its id: conflict checks compare keys on every speculative access, and
/// looking the timestamp up in the task arena per entry was a random read
/// into an ever-growing array (a near-guaranteed cache miss) on the hottest
/// loop of the simulator. A task's key never changes, so the copy here can
/// never go stale.
#[derive(Debug, Clone, Default)]
pub struct LineAccessors {
    /// Commit-order keys of uncommitted tasks that read the line.
    pub readers: Vec<OrderKey>,
    /// Commit-order keys of uncommitted tasks that wrote the line.
    pub writers: Vec<OrderKey>,
}

impl LineAccessors {
    /// Whether no task is registered on the line.
    pub fn is_empty(&self) -> bool {
        self.readers.is_empty() && self.writers.is_empty()
    }
}

/// Slot index marking "no slab entry" in the open-addressed index.
const NO_SLOT: u32 = u32::MAX;

/// Open-addressed map from [`LineAddr`] to [`LineAccessors`].
///
/// Line addresses are byte addresses divided by the line size, so no real
/// key ever reaches the `u64::MAX` empty-slot sentinel of the underlying
/// table.
#[derive(Debug)]
pub struct LineTable {
    /// line -> slab slot.
    index: OpenTable<u32>,
    /// Accessor lists; freed slots keep their capacity and are reused.
    slots: Vec<LineAccessors>,
    /// Freed slab slots available for reuse.
    free: Vec<u32>,
    /// Number of lines currently present.
    len: usize,
}

impl LineTable {
    /// Create an empty table.
    pub fn new() -> Self {
        LineTable {
            index: OpenTable::new(64, NO_SLOT),
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of lines with at least one registered accessor entry.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no line is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The accessors of `line`, if present.
    #[inline]
    pub fn get(&self, line: LineAddr) -> Option<&LineAccessors> {
        match self.index.probe(line.0) {
            Probe::Found(pos) => Some(&self.slots[self.index.val_at(pos) as usize]),
            Probe::Vacant(_) => None,
        }
    }

    /// The accessors of `line`, inserting an empty entry if absent (the
    /// `entry(line).or_default()` of the former `HashMap`).
    #[inline]
    fn entry_or_default(&mut self, line: LineAddr) -> &mut LineAccessors {
        let slot = match self.index.probe(line.0) {
            Probe::Found(pos) => self.index.val_at(pos),
            Probe::Vacant(mut pos) => {
                // Grow only when actually inserting (a hit must stay
                // allocation-free), keeping occupancy below half the slots
                // so probe chains stay short.
                if (self.len + 1) * 2 > self.index.slots() {
                    self.index.grow(NO_SLOT);
                    pos = match self.index.probe(line.0) {
                        Probe::Vacant(p) => p,
                        Probe::Found(_) => unreachable!("key cannot appear during growth"),
                    };
                }
                let slot = match self.free.pop() {
                    Some(s) => s,
                    None => {
                        self.slots.push(LineAccessors::default());
                        (self.slots.len() - 1) as u32
                    }
                };
                self.index.occupy(pos, line.0, slot);
                self.len += 1;
                slot
            }
        };
        &mut self.slots[slot as usize]
    }

    /// Drop the line at index position `pos`. Its accessor lists are
    /// cleared but their capacity is kept for reuse by the next inserted
    /// line.
    fn free_at(&mut self, pos: usize) {
        let slot = self.index.val_at(pos);
        self.index.remove_at(pos);
        let acc = &mut self.slots[slot as usize];
        acc.readers.clear();
        acc.writers.clear();
        self.free.push(slot);
        self.len -= 1;
    }

    /// Register `key` as a reader of every line of `reads` and a writer of
    /// every line of `writes`. Each set must be free of duplicates and the
    /// task must not be registered already (see the module docs).
    pub fn register(&mut self, key: OrderKey, reads: &[LineAddr], writes: &[LineAddr]) {
        for &line in reads {
            let readers = &mut self.entry_or_default(line).readers;
            debug_assert!(!readers.contains(&key), "{key:?} already reads {line:?}");
            readers.push(key);
        }
        for &line in writes {
            let writers = &mut self.entry_or_default(line).writers;
            debug_assert!(!writers.contains(&key), "{key:?} already writes {line:?}");
            writers.push(key);
        }
    }

    /// Retire task `id`: take it off the readers of each line of `reads` and
    /// the writers of each line of `writes`, keeping the other entries in
    /// order, and drop lines left without accessors. Lines `id` is not
    /// registered on are left as they are.
    pub fn unregister(&mut self, id: TaskId, reads: &[LineAddr], writes: &[LineAddr]) {
        for &line in reads {
            self.remove_accessor(line, id, false);
        }
        for &line in writes {
            self.remove_accessor(line, id, true);
        }
    }

    #[inline]
    fn remove_accessor(&mut self, line: LineAddr, id: TaskId, writer: bool) {
        let Probe::Found(pos) = self.index.probe(line.0) else { return };
        let acc = &mut self.slots[self.index.val_at(pos) as usize];
        let keys = if writer { &mut acc.writers } else { &mut acc.readers };
        if let Some(i) = keys.iter().position(|k| k.1 == id) {
            keys.remove(i);
            if acc.is_empty() {
                self.free_at(pos);
            }
        }
    }
}

impl Default for LineTable {
    fn default() -> Self {
        LineTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_unregister_round_trip() {
        let mut t = LineTable::new();
        assert!(t.is_empty());
        let (a, b) = (LineAddr(42), LineAddr(43));
        assert!(t.get(a).is_none());
        t.register((0, TaskId(7)), &[a], &[b]);
        t.register((1, TaskId(8)), &[], &[a]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(a).unwrap().readers, vec![(0, TaskId(7))]);
        assert_eq!(t.get(a).unwrap().writers, vec![(1, TaskId(8))]);
        t.unregister(TaskId(7), &[a], &[b]);
        assert!(t.get(b).is_none(), "a line left without accessors is dropped");
        assert!(t.get(a).unwrap().readers.is_empty());
        t.unregister(TaskId(8), &[], &[a]);
        assert!(t.get(a).is_none());
        assert!(t.is_empty());
        // Unregistering from an absent line is a no-op.
        t.unregister(TaskId(8), &[], &[a]);
        assert!(t.is_empty());
    }

    #[test]
    fn freed_slots_are_reused_without_stale_contents() {
        let mut t = LineTable::new();
        t.register((0, TaskId(1)), &[LineAddr(1)], &[]);
        t.unregister(TaskId(1), &[LineAddr(1)], &[]);
        // The reused slot must come back holding only the new accessor.
        t.register((0, TaskId(2)), &[], &[LineAddr(2)]);
        let acc = t.get(LineAddr(2)).unwrap();
        assert!(acc.readers.is_empty());
        assert_eq!(acc.writers, vec![(0, TaskId(2))]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut t = LineTable::new();
        for line in 0..500u64 {
            t.register((line, TaskId(line)), &[], &[LineAddr(line)]);
        }
        assert_eq!(t.len(), 500);
        for line in 0..500u64 {
            assert_eq!(t.get(LineAddr(line)).unwrap().writers, vec![(line, TaskId(line))]);
        }
    }
}
