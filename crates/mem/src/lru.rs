//! Fixed-capacity least-recently-used structures that model finite cache
//! capacities.
//!
//! [`LruList`] is the recency list alone: callers address entries by the
//! slot [`LruList::push_front`] returned, so a caller that already stores
//! each key's slot (the cache directory does, for the L3) promotes and
//! removes without any lookup. [`LruSet`] is the same list plus an
//! open-addressed key index, for callers that only know the key (the L1s
//! and L2s).

use crate::table::{OpenTable, Probe};

/// Sentinel key value; `u64::MAX` is rejected by [`LruSet::insert`] because
/// it is the open-addressed index's empty-slot marker.
const NONE: u64 = u64::MAX;

/// Sentinel slab slot ("no node"). The cache directory stores it as "not in
/// the L3" in place of a slot.
pub(crate) const NIL: u32 = u32::MAX;

/// One slab node of the intrusive recency list.
#[derive(Debug, Clone, Copy)]
struct Node {
    key: u64,
    prev: u32,
    next: u32,
}

/// A fixed-capacity recency list of `u64` keys, addressed by slot.
///
/// Nodes live in a flat slab and link to each other by index; every
/// operation is O(1) and, once the slab has warmed up to capacity, never
/// allocates. The list does not know which keys it holds — pushing a key
/// already present makes a duplicate — so callers track membership
/// themselves (a [`LruSet`] through its index, the cache directory through
/// the slot it records per line).
#[derive(Debug, Clone)]
pub struct LruList {
    capacity: usize,
    /// Slab of list nodes; never holds more than `capacity` live nodes.
    nodes: Vec<Node>,
    /// Slab slots freed by `remove`, reused before the slab grows.
    free: Vec<u32>,
    head: u32, // most recently used
    tail: u32, // least recently used
    len: usize,
}

impl LruList {
    /// Create a list holding at most `capacity` keys.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU capacity must be positive");
        LruList { capacity, nodes: Vec::new(), free: Vec::new(), head: NIL, tail: NIL, len: 0 }
    }

    /// Number of keys currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum number of keys.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The key held in `slot`.
    #[inline]
    pub fn key(&self, slot: u32) -> u64 {
        self.nodes[slot as usize].key
    }

    /// Splice `slot` out of the recency list.
    #[inline]
    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Link `slot` in as the most-recently-used node.
    #[inline]
    fn link_front(&mut self, slot: u32) {
        let old_head = self.head;
        self.nodes[slot as usize].prev = NIL;
        self.nodes[slot as usize].next = old_head;
        if old_head != NIL {
            self.nodes[old_head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    /// Make the live `slot` the most recently used.
    #[inline]
    pub fn promote(&mut self, slot: u32) {
        if self.head != slot {
            self.unlink(slot);
            self.link_front(slot);
        }
    }

    /// Add `key` as the most recently used and return its slot, plus the
    /// least-recently-used key if the list was full and had to evict it
    /// (its slot is the one reused for `key`).
    pub fn push_front(&mut self, key: u64) -> (u32, Option<u64>) {
        if self.len == self.capacity {
            let victim = self.tail;
            let victim_key = self.nodes[victim as usize].key;
            self.unlink(victim);
            self.nodes[victim as usize].key = key;
            self.link_front(victim);
            return (victim, Some(victim_key));
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize].key = key;
                slot
            }
            None => {
                self.nodes.push(Node { key, prev: NIL, next: NIL });
                (self.nodes.len() - 1) as u32
            }
        };
        self.link_front(slot);
        self.len += 1;
        (slot, None)
    }

    /// Remove the live `slot` from the list.
    pub fn remove(&mut self, slot: u32) {
        self.unlink(slot);
        self.free.push(slot);
        self.len -= 1;
    }
}

/// A fixed-capacity set of `u64` keys with least-recently-used eviction:
/// an [`LruList`] plus an open-addressed `OpenTable` index from key to
/// slot, probed with a single cheap hash.
///
/// The cache model uses one `LruSet` per L1 and per L2 to decide whether a
/// line is present, so `touch_or_insert` is among the hottest operations in
/// the simulator. Every operation is O(1), performs one probe sequence, and
/// — once warmed up to capacity — never allocates.
#[derive(Debug, Clone)]
pub struct LruSet {
    list: LruList,
    /// Open-addressed index: key -> list slot.
    index: OpenTable<u32>,
}

impl LruSet {
    /// Create an LRU set holding at most `capacity` keys.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        let list = LruList::new(capacity);
        // The index is sized by *occupancy*, not capacity, and doubles as
        // the set fills (like a `HashMap`): a mostly-empty cache with a huge
        // capacity must not pay for (or cache-miss across) a huge table.
        // Growth stops at ~2x capacity, so the load factor stays <= 0.5.
        let table_len = (capacity * 2).next_power_of_two().clamp(4, 16);
        LruSet { list, index: OpenTable::new(table_len, NIL) }
    }

    /// Number of keys currently held.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Maximum number of keys.
    pub fn capacity(&self) -> usize {
        self.list.capacity()
    }

    /// Whether `key` is present (does not update recency).
    pub fn contains(&self, key: u64) -> bool {
        matches!(self.index.probe(key), Probe::Found(_))
    }

    /// Mark `key` as most recently used if present; returns whether it was.
    pub fn touch(&mut self, key: u64) -> bool {
        match self.index.probe(key) {
            Probe::Found(pos) => {
                self.list.promote(self.index.val_at(pos));
                true
            }
            Probe::Vacant(_) => false,
        }
    }

    /// Insert `key` as most recently used. Returns the evicted key, if the
    /// set was full and a (different) key had to be removed.
    ///
    /// # Panics
    ///
    /// Panics if `key == u64::MAX`, which is reserved as the internal index
    /// sentinel. (Keys model cache-line addresses, which never reach it.)
    pub fn insert(&mut self, key: u64) -> Option<u64> {
        assert_ne!(key, NONE, "u64::MAX is reserved as the LruSet sentinel");
        // One probe resolves both cases: it either finds `key` (promote) or
        // ends at the empty position where `key` belongs.
        match self.index.probe(key) {
            Probe::Found(pos) => {
                self.list.promote(self.index.val_at(pos));
                None
            }
            Probe::Vacant(pos) => self.insert_at(pos, key),
        }
    }

    /// Promote `key` if present, insert it as most recently used otherwise;
    /// returns whether it was present. A single probe serves both outcomes,
    /// unlike a `touch` miss followed by a separate `insert`, which probes
    /// the index twice — this is the cache model's hot path.
    ///
    /// # Panics
    ///
    /// Panics if `key == u64::MAX` (the index sentinel), like `insert`.
    pub fn touch_or_insert(&mut self, key: u64) -> bool {
        assert_ne!(key, NONE, "u64::MAX is reserved as the LruSet sentinel");
        match self.index.probe(key) {
            Probe::Found(pos) => {
                self.list.promote(self.index.val_at(pos));
                true
            }
            Probe::Vacant(pos) => {
                self.insert_at(pos, key);
                false
            }
        }
    }

    /// Insert `key`, known absent, at vacant index position `pos`; returns
    /// the evicted key if the set was full.
    fn insert_at(&mut self, mut pos: usize, key: u64) -> Option<u64> {
        // Keep the load factor <= 0.5. The check only runs when a key is
        // actually inserted, so promote-hits never grow; eviction caps the
        // occupancy at `capacity`, so the table never grows past ~2x
        // capacity (a transient `capacity + 1` entries is harmless).
        if (self.list.len() + 1).min(self.list.capacity()) * 2 > self.index.slots() {
            self.index.grow(NIL);
            pos = match self.index.probe(key) {
                Probe::Vacant(pos) => pos,
                Probe::Found(_) => unreachable!("key cannot appear during growth"),
            };
        }
        let (slot, evicted) = self.list.push_front(key);
        // Index the new key before unindexing the victim: removal
        // backward-shifts entries, which would invalidate `pos`.
        self.index.occupy(pos, key, slot);
        if let Some(victim) = evicted {
            match self.index.probe(victim) {
                Probe::Found(victim_pos) => self.index.remove_at(victim_pos),
                Probe::Vacant(_) => unreachable!("an evicted key must be indexed"),
            }
        }
        evicted
    }

    /// Remove `key` if present; returns whether it was present.
    pub fn remove(&mut self, key: u64) -> bool {
        match self.index.probe(key) {
            Probe::Found(pos) => {
                self.list.remove(self.index.val_at(pos));
                self.index.remove_at(pos);
                true
            }
            Probe::Vacant(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut lru = LruSet::new(2);
        assert!(lru.is_empty());
        assert_eq!(lru.insert(1), None);
        assert_eq!(lru.insert(2), None);
        assert!(lru.contains(1));
        assert!(lru.contains(2));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn eviction_removes_least_recently_used() {
        let mut lru = LruSet::new(2);
        lru.insert(1);
        lru.insert(2);
        // Touch 1 so that 2 becomes the LRU victim.
        assert!(lru.touch(1));
        assert_eq!(lru.insert(3), Some(2));
        assert!(lru.contains(1));
        assert!(!lru.contains(2));
        assert!(lru.contains(3));
    }

    #[test]
    fn reinserting_existing_key_does_not_evict() {
        let mut lru = LruSet::new(2);
        lru.insert(1);
        lru.insert(2);
        assert_eq!(lru.insert(2), None);
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn remove_frees_space() {
        let mut lru = LruSet::new(1);
        lru.insert(5);
        assert!(lru.remove(5));
        assert!(!lru.remove(5));
        assert_eq!(lru.insert(6), None);
        assert!(lru.contains(6));
    }

    #[test]
    fn capacity_one_always_holds_last_key() {
        let mut lru = LruSet::new(1);
        for k in 0..100 {
            lru.insert(k);
            assert!(lru.contains(k));
            assert_eq!(lru.len(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = LruSet::new(0);
    }

    #[test]
    fn keys_adjacent_to_the_sentinel_work() {
        let mut lru = LruSet::new(2);
        assert_eq!(lru.insert(u64::MAX - 1), None);
        assert_eq!(lru.insert(u64::MAX - 2), None);
        assert_eq!(lru.insert(0), Some(u64::MAX - 1));
        assert!(lru.contains(u64::MAX - 2));
        assert!(lru.remove(u64::MAX - 2));
    }

    #[test]
    #[should_panic(expected = "reserved as the LruSet sentinel")]
    fn sentinel_key_is_rejected() {
        let mut lru = LruSet::new(2);
        lru.insert(u64::MAX);
    }

    #[test]
    fn touch_missing_key_returns_false() {
        let mut lru = LruSet::new(4);
        assert!(!lru.touch(42));
    }

    #[test]
    fn stress_never_exceeds_capacity() {
        let mut lru = LruSet::new(8);
        for k in 0..1000u64 {
            lru.insert(k % 37);
            assert!(lru.len() <= 8);
        }
    }

    #[test]
    fn evictions_come_out_in_recency_order() {
        let mut lru = LruSet::new(4);
        for k in [10, 11, 12, 13] {
            assert_eq!(lru.insert(k), None);
        }
        // Recency (most to least): 13 12 11 10. Promote 11, then overflow.
        assert!(lru.touch(11));
        assert_eq!(lru.insert(14), Some(10));
        assert_eq!(lru.insert(15), Some(12));
        assert_eq!(lru.insert(16), Some(13));
        assert_eq!(lru.insert(17), Some(11));
    }

    #[test]
    fn remove_head_middle_and_tail_keep_links_consistent() {
        for victim in [1u64, 2, 3] {
            let mut lru = LruSet::new(3);
            lru.insert(1); // tail
            lru.insert(2); // middle
            lru.insert(3); // head
            assert!(lru.remove(victim));
            assert_eq!(lru.len(), 2);
            // The survivors must still evict in recency order (1 is the
            // least recently used, then 2, then 3).
            let mut survivors = [1, 2, 3].into_iter().filter(|&k| k != victim);
            assert_eq!(lru.insert(100), None); // refills the freed slot
            assert_eq!(lru.insert(101), Some(survivors.next().unwrap()));
            assert_eq!(lru.insert(102), Some(survivors.next().unwrap()));
        }
    }

    /// Cross-check against a naive `Vec`-based LRU over a deterministic
    /// pseudo-random workload of inserts, touches, and removes.
    #[test]
    fn matches_reference_model_under_random_workload() {
        struct RefLru {
            capacity: usize,
            keys: Vec<u64>, // front = most recently used
        }
        impl RefLru {
            fn insert(&mut self, key: u64) -> Option<u64> {
                if let Some(pos) = self.keys.iter().position(|&k| k == key) {
                    self.keys.remove(pos);
                    self.keys.insert(0, key);
                    return None;
                }
                let evicted = if self.keys.len() >= self.capacity { self.keys.pop() } else { None };
                self.keys.insert(0, key);
                evicted
            }
            fn touch(&mut self, key: u64) -> bool {
                match self.keys.iter().position(|&k| k == key) {
                    Some(pos) => {
                        self.keys.remove(pos);
                        self.keys.insert(0, key);
                        true
                    }
                    None => false,
                }
            }
            fn remove(&mut self, key: u64) -> bool {
                match self.keys.iter().position(|&k| k == key) {
                    Some(pos) => {
                        self.keys.remove(pos);
                        true
                    }
                    None => false,
                }
            }
        }

        let mut lru = LruSet::new(16);
        let mut reference = RefLru { capacity: 16, keys: Vec::new() };
        let mut state = 0x3DF4_A7E1u64; // xorshift64
        for step in 0..20_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let key = state % 48; // enough aliasing to exercise every path
            match state >> 61 {
                0..=4 => {
                    assert_eq!(lru.insert(key), reference.insert(key), "insert at step {step}")
                }
                5 | 6 => assert_eq!(lru.touch(key), reference.touch(key), "touch at step {step}"),
                _ => assert_eq!(lru.remove(key), reference.remove(key), "remove at step {step}"),
            }
            assert_eq!(lru.len(), reference.keys.len(), "len diverged at step {step}");
            assert!(lru.len() <= 16);
            for &k in &reference.keys {
                assert!(lru.contains(k), "key {k} missing at step {step}");
            }
        }
    }
}
