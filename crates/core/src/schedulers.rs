//! The Random, Stealing and Hints schedulers (Sections II-C and III).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use swarm_sim::TaskMapper;
use swarm_types::{Hint, TileId};

/// Swarm's default scheduler: every new task is sent to a uniformly random
/// tile. Load balances well but ignores locality entirely.
#[derive(Debug)]
pub struct RandomMapper {
    rng: SmallRng,
}

impl RandomMapper {
    /// Create a random mapper with a fixed seed (deterministic runs).
    pub fn new(seed: u64) -> Self {
        RandomMapper { rng: SmallRng::seed_from_u64(seed ^ 0x52414e44) }
    }
}

impl TaskMapper for RandomMapper {
    fn name(&self) -> &str {
        "Random"
    }

    fn map_task(&mut self, _hint: Hint, _creator: Option<TileId>, num_tiles: usize) -> TileId {
        TileId(self.rng.gen_range(0..num_tiles as u32))
    }
}

/// An idealized work-stealing scheduler (the strongest non-speculative
/// baseline the paper compares against): new tasks are enqueued to the
/// creating tile; a tile that runs out of tasks instantaneously steals the
/// earliest-timestamp task from the tile with the most idle tasks.
#[derive(Debug)]
pub struct StealingMapper {
    rng: SmallRng,
}

impl StealingMapper {
    /// Create a stealing mapper with a fixed seed (used only to place
    /// initial tasks, which have no creating tile).
    pub fn new(seed: u64) -> Self {
        StealingMapper { rng: SmallRng::seed_from_u64(seed ^ 0x535445414c) }
    }
}

impl TaskMapper for StealingMapper {
    fn name(&self) -> &str {
        "Stealing"
    }

    fn map_task(&mut self, _hint: Hint, creator: Option<TileId>, num_tiles: usize) -> TileId {
        match creator {
            Some(tile) => tile,
            None => TileId(self.rng.gen_range(0..num_tiles as u32)),
        }
    }

    fn steals(&self) -> bool {
        true
    }

    fn steal_victim(&mut self, thief: TileId, idle_per_tile: &[usize]) -> Option<TileId> {
        let (victim, &count) =
            idle_per_tile.iter().enumerate().max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))?;
        if count == 0 || victim == thief.index() {
            None
        } else {
            Some(TileId(victim as u32))
        }
    }
}

/// The spatial-hints scheduler (Section III): a task with a concrete hint is
/// sent to `hash(hint) mod tiles`; `NOHINT` tasks go to a random tile;
/// `SAMEHINT` tasks inherit their parent's hint before reaching the mapper.
/// Tiles also serialize tasks with equal hashed hints at dispatch.
#[derive(Debug)]
pub struct HintMapper {
    rng: SmallRng,
}

impl HintMapper {
    /// Create a hint mapper with a fixed seed for `NOHINT` placement.
    pub fn new(seed: u64) -> Self {
        HintMapper { rng: SmallRng::seed_from_u64(seed ^ 0x48494e54) }
    }
}

impl TaskMapper for HintMapper {
    fn name(&self) -> &str {
        "Hints"
    }

    fn map_task(&mut self, hint: Hint, creator: Option<TileId>, num_tiles: usize) -> TileId {
        match hint.to_tile(num_tiles) {
            Some(tile) => tile,
            None => match creator {
                // NOHINT from a running task: random tile for load balance.
                Some(_) | None => TileId(self.rng.gen_range(0..num_tiles as u32)),
            },
        }
    }

    fn serialize_same_hint(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn random_mapper_spreads_tasks_over_all_tiles() {
        let mut m = RandomMapper::new(1);
        let mut seen = HashSet::new();
        for _ in 0..1000 {
            let t = m.map_task(Hint::None, None, 16);
            assert!(t.index() < 16);
            seen.insert(t);
        }
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn random_mapper_is_deterministic_per_seed() {
        let mut a = RandomMapper::new(7);
        let mut b = RandomMapper::new(7);
        for _ in 0..100 {
            assert_eq!(a.map_task(Hint::None, None, 64), b.map_task(Hint::None, None, 64));
        }
    }

    #[test]
    fn stealing_mapper_enqueues_locally() {
        let mut m = StealingMapper::new(1);
        assert_eq!(m.map_task(Hint::value(5), Some(TileId(3)), 16), TileId(3));
        assert!(m.steals());
    }

    #[test]
    fn stealing_victim_is_most_loaded_nonempty_tile() {
        let mut m = StealingMapper::new(1);
        assert_eq!(m.steal_victim(TileId(0), &[0, 3, 7, 2]), Some(TileId(2)));
        assert_eq!(m.steal_victim(TileId(2), &[0, 0, 9, 0]), None, "thief is the only loaded tile");
        // The engine skips the victim search when no tile holds an idle
        // task; that is exact only because the search finds nothing then.
        for thief in 0..64 {
            assert_eq!(m.steal_victim(TileId(thief), &[0; 64]), None);
        }
    }

    #[test]
    fn hint_mapper_sends_equal_hints_to_equal_tiles() {
        let mut m = HintMapper::new(1);
        let a = m.map_task(Hint::value(42), Some(TileId(0)), 16);
        let b = m.map_task(Hint::value(42), Some(TileId(9)), 16);
        assert_eq!(a, b);
        assert!(m.serialize_same_hint());
    }

    #[test]
    fn hint_mapper_spreads_distinct_hints() {
        let mut m = HintMapper::new(1);
        let tiles: HashSet<TileId> =
            (0..2000u64).map(|h| m.map_task(Hint::value(h), None, 16)).collect();
        assert_eq!(tiles.len(), 16);
    }

    #[test]
    fn hint_mapper_randomizes_nohint() {
        let mut m = HintMapper::new(1);
        let tiles: HashSet<TileId> =
            (0..200).map(|_| m.map_task(Hint::None, Some(TileId(0)), 16)).collect();
        assert!(tiles.len() > 4, "NOHINT should not stick to one tile");
    }
}
