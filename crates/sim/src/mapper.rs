//! The scheduler interface: where does a new task go, and how is dispatch
//! constrained?
//!
//! The simulator is scheduler-agnostic: it calls into a [`TaskMapper`] when a
//! task is created (spatial mapping), when a tile runs dry (stealing), when a
//! task commits (load profiling) and periodically (load balancing). The
//! paper's four schedulers (Random, Stealing, Hints, LBHints) are implemented
//! in the `spatial-hints` crate; this module only defines the interface plus
//! a trivial round-robin mapper used by the simulator's own unit tests.

use swarm_types::{Hint, TileId};

/// Scheduler hook invoked by the simulator.
///
/// Implementations must be deterministic given their construction parameters
/// (seeded RNGs are fine) so that simulations are exactly reproducible.
pub trait TaskMapper {
    /// Human-readable scheduler name (used in reports).
    fn name(&self) -> &str;

    /// Choose the destination tile for a newly created task.
    ///
    /// `hint` is already resolved (`SAMEHINT` has been replaced by the
    /// parent's hint). `creator_tile` is `None` for initial tasks enqueued
    /// from `main`.
    fn map_task(&mut self, hint: Hint, creator_tile: Option<TileId>, num_tiles: usize) -> TileId;

    /// The load-balancer bucket of a hint, if this mapper profiles buckets.
    fn bucket_of(&self, _hint: Hint) -> Option<u16> {
        None
    }

    /// Whether the tile dispatch logic should avoid co-scheduling two tasks
    /// with the same hashed hint (Section III-B "serializing conflicting
    /// tasks").
    fn serialize_same_hint(&self) -> bool {
        false
    }

    /// Whether out-of-work tiles steal tasks from other tiles.
    fn steals(&self) -> bool {
        false
    }

    /// Pick a victim tile for `thief` to steal from, given the number of
    /// idle (dispatchable) tasks in every tile. Returning `None` means no
    /// profitable victim exists.
    ///
    /// The engine calls this only when some tile holds an idle task: a
    /// core finding no idle task anywhere goes idle without asking. That
    /// shortcut is exact only because an implementation returns `None` on
    /// an all-zero slice (nothing to steal) — every implementation must.
    fn steal_victim(&mut self, _thief: TileId, _idle_per_tile: &[usize]) -> Option<TileId> {
        None
    }

    /// Notification that a task mapped to `bucket` committed after running
    /// for `cycles` on `tile` (the LBHints load signal).
    fn on_commit(&mut self, _tile: TileId, _bucket: Option<u16>, _cycles: u64) {}

    /// Periodic load-balancing hook, given the current number of idle tasks
    /// in every tile (the signal used by the inferior idle-count variant of
    /// §VI-A). Returns `true` if the hint-to-tile mapping changed (counted as
    /// a reconfiguration in the run statistics).
    fn on_lb_epoch(&mut self, _now: u64, _idle_per_tile: &[usize]) -> bool {
        false
    }
}

/// A trivial mapper that assigns tasks to tiles round-robin, ignoring hints.
/// Only used by unit tests inside this crate; the paper's schedulers live in
/// the `spatial-hints` crate.
#[derive(Debug, Default)]
pub struct RoundRobinMapper {
    next: u32,
}

impl RoundRobinMapper {
    /// Create a round-robin mapper starting at tile 0.
    pub fn new() -> Self {
        RoundRobinMapper { next: 0 }
    }
}

impl TaskMapper for RoundRobinMapper {
    fn name(&self) -> &str {
        "round-robin"
    }

    fn map_task(&mut self, _hint: Hint, _creator: Option<TileId>, num_tiles: usize) -> TileId {
        let tile = TileId(self.next % num_tiles as u32);
        self.next = self.next.wrapping_add(1);
        tile
    }
}

/// A mapper that sends every task to tile 0; useful for single-tile tests.
#[derive(Debug, Default)]
pub struct PinnedMapper;

impl TaskMapper for PinnedMapper {
    fn name(&self) -> &str {
        "pinned"
    }

    fn map_task(&mut self, _hint: Hint, _creator: Option<TileId>, _num_tiles: usize) -> TileId {
        TileId(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_cycles_over_tiles() {
        let mut m = RoundRobinMapper::new();
        let tiles: Vec<u32> = (0..8).map(|_| m.map_task(Hint::None, None, 4).0).collect();
        assert_eq!(tiles, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn default_hooks_are_inert() {
        let mut m = RoundRobinMapper::new();
        assert!(!m.serialize_same_hint());
        assert!(!m.steals());
        assert_eq!(m.bucket_of(Hint::value(3)), None);
        assert_eq!(m.steal_victim(TileId(0), &[1, 2]), None);
        // The `steal_victim` contract the engine's no-idle-task shortcut
        // relies on.
        assert_eq!(m.steal_victim(TileId(3), &[0; 64]), None);
        assert!(!m.on_lb_epoch(0, &[1, 2]));
    }

    #[test]
    fn pinned_mapper_always_tile_zero() {
        let mut m = PinnedMapper;
        for _ in 0..5 {
            assert_eq!(m.map_task(Hint::value(99), Some(TileId(3)), 16), TileId(0));
        }
        assert_eq!(m.name(), "pinned");
    }
}
