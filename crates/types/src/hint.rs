//! The spatial hint abstraction (Section III of the paper).
//!
//! A hint is an abstract 64-bit integer given at task-creation time that
//! denotes the data the task is likely to access. Two special values exist:
//! `NOHINT` (the programmer does not know what the task will access) and
//! `SAMEHINT` (use the parent task's hint, exploiting parent-child locality).

use serde::{Deserialize, Serialize};

use crate::hashing::{hash_to_bucket, hash_to_range, hash_to_u16};
use crate::ids::TileId;

/// Default number of bits used to index load-balancer buckets (Section VI
/// uses a 10-bit hint-to-bucket hash, i.e. 1024 buckets at 64 tiles).
pub const HINT_BUCKET_BITS: u32 = 10;

/// A spatial hint attached to a task at creation time.
///
/// # Example
///
/// ```
/// use swarm_types::Hint;
///
/// let h = Hint::value(0xF00);
/// assert_eq!(h.raw(), Some(0xF00));
/// assert_eq!(Hint::None.raw(), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Hint {
    /// A concrete 64-bit integer identifying the data likely to be accessed
    /// (an address, an object id, a `(table, key)` pair, ...).
    Value(u64),
    /// `NOHINT`: the data accessed is unknown at creation time. The task is
    /// sent to a random tile.
    #[default]
    None,
    /// `SAMEHINT`: inherit the parent task's hint (and therefore its tile).
    Same,
}

impl Hint {
    /// Convenience constructor for [`Hint::Value`].
    pub fn value(v: u64) -> Self {
        Hint::Value(v)
    }

    /// Hint derived from the cache line containing byte address `addr`
    /// (the "cache-line address" pattern used by the graph benchmarks).
    pub fn cache_line(addr: u64) -> Self {
        Hint::Value(addr / crate::ids::CACHE_LINE_BYTES)
    }

    /// Hint built from an object id within a named space, e.g.
    /// `(table id, primary key)` in `silo`. The spaces are kept disjoint by
    /// mixing the space id into the upper bits.
    pub fn object(space: u32, id: u64) -> Self {
        Hint::Value(((space as u64) << 48) ^ id)
    }

    /// The raw integer value, if this is a concrete hint.
    pub fn raw(self) -> Option<u64> {
        match self {
            Hint::Value(v) => Some(v),
            Hint::None | Hint::Same => None,
        }
    }

    /// Resolve `SAMEHINT` against the parent's hint. `NOHINT` and concrete
    /// hints are returned unchanged; `SAMEHINT` with no parent hint becomes
    /// `NOHINT`.
    pub fn resolve(self, parent: Option<Hint>) -> Hint {
        match self {
            Hint::Same => match parent {
                Some(Hint::Value(v)) => Hint::Value(v),
                Some(Hint::Same) | Some(Hint::None) | None => Hint::None,
            },
            other => other,
        }
    }

    /// The destination tile for this hint under the static hash mapping of
    /// Section III-B (no load balancer). Returns `None` for `NOHINT` and
    /// `SAMEHINT`, which the scheduler resolves differently (random tile and
    /// parent tile respectively).
    ///
    /// # Panics
    ///
    /// Panics if `num_tiles` is zero.
    pub fn to_tile(self, num_tiles: usize) -> Option<TileId> {
        self.raw().map(|v| TileId(hash_to_range(v, num_tiles) as u32))
    }

    /// The 16-bit hashed hint carried in task descriptors and compared by the
    /// dispatch logic to serialize same-hint tasks. `NOHINT`/`SAMEHINT` tasks
    /// have no hash and are never serialized against others.
    pub fn hash16(self) -> Option<u16> {
        self.raw().map(hash_to_u16)
    }

    /// The load-balancer bucket for this hint (Section VI).
    ///
    /// # Panics
    ///
    /// Panics if `num_buckets` is zero.
    pub fn bucket(self, num_buckets: usize) -> Option<u16> {
        self.raw().map(|v| hash_to_bucket(v, num_buckets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_line_hints_group_same_line() {
        assert_eq!(Hint::cache_line(0), Hint::cache_line(63));
        assert_ne!(Hint::cache_line(0), Hint::cache_line(64));
    }

    #[test]
    fn object_hints_separate_spaces() {
        assert_ne!(Hint::object(0, 5), Hint::object(1, 5));
        assert_eq!(Hint::object(2, 5), Hint::object(2, 5));
    }

    #[test]
    fn resolve_same_hint_takes_parent_value() {
        assert_eq!(Hint::Same.resolve(Some(Hint::value(9))), Hint::value(9));
        assert_eq!(Hint::Same.resolve(Some(Hint::None)), Hint::None);
        assert_eq!(Hint::Same.resolve(None), Hint::None);
        assert_eq!(Hint::value(3).resolve(Some(Hint::value(9))), Hint::value(3));
        assert_eq!(Hint::None.resolve(Some(Hint::value(9))), Hint::None);
    }

    #[test]
    fn same_hint_to_tile_is_none() {
        assert_eq!(Hint::Same.to_tile(64), None);
        assert_eq!(Hint::None.to_tile(64), None);
        assert!(Hint::value(77).to_tile(64).is_some());
    }

    #[test]
    fn equal_hints_map_to_equal_tiles_and_hashes() {
        let a = Hint::value(123456);
        let b = Hint::value(123456);
        assert_eq!(a.to_tile(64), b.to_tile(64));
        assert_eq!(a.hash16(), b.hash16());
        assert_eq!(a.bucket(1024), b.bucket(1024));
    }

    #[test]
    fn default_hint_is_nohint() {
        assert_eq!(Hint::default(), Hint::None);
    }

    #[test]
    fn abstract_hints_have_no_hash_or_bucket() {
        for h in [Hint::None, Hint::Same] {
            assert_eq!(h.raw(), None);
            assert_eq!(h.hash16(), None);
            assert_eq!(h.bucket(1024), None);
        }
    }

    #[test]
    fn tiles_stay_in_bounds_for_all_tile_counts() {
        for num_tiles in [1, 2, 3, 16, 64, 256] {
            for v in 0..500u64 {
                let tile = Hint::value(v).to_tile(num_tiles).expect("value hint maps");
                assert!((tile.0 as usize) < num_tiles);
            }
        }
    }

    #[test]
    fn buckets_cover_the_default_bucket_space() {
        let num_buckets = 1usize << HINT_BUCKET_BITS;
        let seen: std::collections::HashSet<u16> =
            (0..50_000u64).filter_map(|v| Hint::value(v).bucket(num_buckets)).collect();
        assert!(seen.len() > num_buckets * 9 / 10, "only {} of {num_buckets} hit", seen.len());
    }

    #[test]
    fn object_hints_distinguish_spaces_across_many_ids() {
        for id in 0..1000u64 {
            assert_ne!(Hint::object(1, id), Hint::object(2, id));
            assert_eq!(Hint::object(1, id).resolve(None), Hint::object(1, id));
        }
    }

    #[test]
    fn resolve_is_idempotent() {
        for h in [Hint::value(7), Hint::None, Hint::Same] {
            let once = h.resolve(Some(Hint::value(3)));
            assert_eq!(once.resolve(Some(Hint::value(3))), once);
        }
    }
}
