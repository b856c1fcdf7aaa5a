//! A sorted-vector ordered set of [`OrderKey`]s for the per-tile task
//! queues.
//!
//! The tile sets (idle, finished, spilled) were `BTreeSet<OrderKey>`: every
//! task paid several pointer-chasing tree operations per lifecycle step, and
//! on the paper's machines the sets are *small* (bounded by the task-queue
//! and commit-queue capacities, tens of entries). [`KeyList`] stores the
//! keys in a sorted `Vec` with a `head` offset:
//!
//! * lookups are a binary search over a contiguous slice;
//! * removing the minimum — the overwhelmingly common removal, performed by
//!   every dispatch, commit and refill — just bumps `head` (O(1), with
//!   amortized compaction);
//! * inserting a key larger than the current maximum — the common insert,
//!   since task keys mostly arrive in creation order — is a push.
//!
//! The API mirrors the `BTreeSet` subset the simulator used (`first`,
//! `last`, `insert`, `remove`, `iter`, `len`), with identical set semantics
//! (duplicate inserts and misses are no-ops), so the two are drop-in
//! interchangeable.

use crate::task::OrderKey;

/// A sorted set of commit-order keys. See the module docs for the layout.
#[derive(Debug, Clone, Default)]
pub(crate) struct KeyList {
    /// `keys[head..]` is sorted ascending and duplicate-free.
    keys: Vec<OrderKey>,
    /// Number of already-removed slots at the front of `keys`.
    head: usize,
}

impl KeyList {
    /// Number of keys in the set.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.keys.len() - self.head
    }

    /// Whether the set is empty.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.keys.len() == self.head
    }

    /// The smallest key, if any.
    #[inline]
    pub(crate) fn first(&self) -> Option<&OrderKey> {
        self.keys.get(self.head)
    }

    /// The largest key, if any.
    #[inline]
    pub(crate) fn last(&self) -> Option<&OrderKey> {
        if self.is_empty() {
            None
        } else {
            self.keys.last()
        }
    }

    /// Iterate the keys in ascending order.
    #[inline]
    pub(crate) fn iter(&self) -> std::slice::Iter<'_, OrderKey> {
        self.keys[self.head..].iter()
    }

    /// Insert `key`; returns whether it was newly added (set semantics: a
    /// duplicate insert is a no-op).
    pub(crate) fn insert(&mut self, key: OrderKey) -> bool {
        if self.is_empty() {
            self.keys.clear();
            self.head = 0;
            self.keys.push(key);
            return true;
        }
        let last = *self.keys.last().expect("non-empty");
        if key > last {
            self.keys.push(key);
            return true;
        }
        let first = self.keys[self.head];
        if key < first {
            // Reuse a vacated front slot when one exists.
            if self.head > 0 {
                self.head -= 1;
                self.keys[self.head] = key;
            } else {
                self.keys.insert(0, key);
            }
            return true;
        }
        match self.keys[self.head..].binary_search(&key) {
            Ok(_) => false,
            Err(pos) => {
                self.keys.insert(self.head + pos, key);
                true
            }
        }
    }

    /// Remove `key`; returns whether it was present.
    pub(crate) fn remove(&mut self, key: &OrderKey) -> bool {
        let Ok(pos) = self.keys[self.head..].binary_search(key) else {
            return false;
        };
        if pos == 0 {
            // Removing the minimum: the dispatch/commit/refill fast path.
            self.head += 1;
            if self.head == self.keys.len() {
                self.keys.clear();
                self.head = 0;
            } else if self.head >= 32 && self.head >= self.keys.len() - self.head {
                // Amortized compaction: at most one shift per removed slot.
                self.keys.drain(..self.head);
                self.head = 0;
            }
        } else {
            self.keys.remove(self.head + pos);
        }
        true
    }
}

impl<'a> IntoIterator for &'a KeyList {
    type Item = &'a OrderKey;
    type IntoIter = std::slice::Iter<'a, OrderKey>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swarm_types::TaskId;

    fn k(ts: u64, id: u64) -> OrderKey {
        (ts, TaskId(id))
    }

    #[test]
    fn insert_remove_first_last_match_btreeset_semantics() {
        let mut list = KeyList::default();
        assert!(list.is_empty() && list.first().is_none() && list.last().is_none());
        for key in [k(5, 1), k(1, 2), k(3, 3), k(1, 1), k(9, 0)] {
            list.insert(key);
        }
        assert!(!list.insert(k(3, 3)), "duplicate insert is a no-op");
        assert_eq!(list.len(), 5);
        assert_eq!(list.first(), Some(&k(1, 1)));
        assert_eq!(list.last(), Some(&k(9, 0)));
        let in_order: Vec<_> = list.iter().copied().collect();
        assert_eq!(in_order, vec![k(1, 1), k(1, 2), k(3, 3), k(5, 1), k(9, 0)]);

        assert!(list.remove(&k(3, 3)));
        assert!(!list.remove(&k(3, 3)), "second remove misses");
        assert!(list.remove(&k(1, 1)), "min removal");
        assert_eq!(list.first(), Some(&k(1, 2)));
        assert_eq!(list.len(), 3);
        assert_eq!(list.iter().copied().collect::<Vec<_>>(), [k(1, 2), k(5, 1), k(9, 0)]);
    }

    #[test]
    fn head_slots_are_reused_and_compacted() {
        let mut list = KeyList::default();
        for i in 0..100u64 {
            list.insert(k(i, i));
        }
        // Drain from the front (the dispatch pattern).
        for i in 0..99u64 {
            assert!(list.remove(&k(i, i)));
            assert_eq!(list.len() as u64, 99 - i);
        }
        assert_eq!(list.first(), Some(&k(99, 99)));
        // A below-minimum insert reuses a vacated front slot.
        list.insert(k(0, 0));
        assert_eq!(list.first(), Some(&k(0, 0)));
        assert_eq!(list.len(), 2);
        // Empty-out resets the head entirely.
        assert!(list.remove(&k(0, 0)) && list.remove(&k(99, 99)));
        assert!(list.is_empty());
        list.insert(k(7, 7));
        assert_eq!(list.iter().copied().collect::<Vec<_>>(), vec![k(7, 7)]);
    }

    #[test]
    fn randomized_against_btreeset_reference() {
        use std::collections::BTreeSet;
        // Deterministic xorshift; no external RNG needed here.
        let mut x = 0x243f_6a88_85a3_08d3u64;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut list = KeyList::default();
        let mut reference = BTreeSet::new();
        for _ in 0..4000 {
            let key = k(step() % 50, step() % 8);
            if step() % 3 == 0 {
                assert_eq!(list.remove(&key), reference.remove(&key));
            } else {
                assert_eq!(list.insert(key), reference.insert(key));
            }
            assert_eq!(list.len(), reference.len());
            assert_eq!(list.first(), reference.first());
            assert_eq!(list.last(), reference.last());
        }
        assert!(list.iter().copied().eq(reference.iter().copied()));
    }
}
