//! Data-centric load balancing (Section VI).
//!
//! Instead of hashing a hint directly to a tile, the load balancer hashes it
//! to one of `16 × tiles` *buckets* and looks the bucket up in a
//! reconfigurable *tile map*. Each tile profiles the committed cycles of the
//! buckets mapped to it; periodically a reconfiguration step greedily donates
//! buckets from overloaded tiles to underloaded ones, moving at most a
//! fraction *f* of each tile's surplus/deficit to avoid oscillation.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use swarm_sim::TaskMapper;
use swarm_types::config::{LB_CORRECTION_PCT, POLICY_SEED};
use swarm_types::{hash_to_bucket, Hint, SystemConfig, TileId};

/// The reconfigurable bucket-to-tile indirection table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileMap {
    map: Vec<TileId>,
    num_tiles: usize,
}

impl TileMap {
    /// Create a tile map of `num_buckets` buckets spread uniformly over
    /// `num_tiles` tiles (the initial configuration in the paper).
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero or if there are fewer buckets than
    /// tiles.
    pub fn new(num_buckets: usize, num_tiles: usize) -> Self {
        assert!(num_tiles > 0, "need at least one tile");
        assert!(num_buckets >= num_tiles, "need at least one bucket per tile");
        let per_tile = num_buckets / num_tiles;
        let map =
            (0..num_buckets).map(|b| TileId(((b / per_tile).min(num_tiles - 1)) as u32)).collect();
        TileMap { map, num_tiles }
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.map.len()
    }

    /// Number of tiles.
    pub fn num_tiles(&self) -> usize {
        self.num_tiles
    }

    /// The tile a bucket currently maps to.
    pub fn tile_of(&self, bucket: u16) -> TileId {
        self.map[bucket as usize % self.map.len()]
    }

    /// Remap `bucket` to `tile`.
    ///
    /// # Panics
    ///
    /// Panics if `tile` is out of range.
    pub fn remap(&mut self, bucket: u16, tile: TileId) {
        assert!(tile.index() < self.num_tiles, "tile out of range");
        let idx = bucket as usize % self.map.len();
        self.map[idx] = tile;
    }

    /// Buckets currently mapped to `tile`.
    pub fn buckets_of(&self, tile: TileId) -> Vec<u16> {
        self.map.iter().enumerate().filter(|(_, &t)| t == tile).map(|(b, _)| b as u16).collect()
    }

    /// Greedy rebalancing step shared by both load-balancer variants: given
    /// a per-bucket weight (its contribution to load) move buckets from
    /// overloaded to underloaded tiles, correcting at most `correction_pct`
    /// percent of each tile's surplus or deficit. Returns `true` if any
    /// bucket moved.
    pub fn rebalance(&mut self, bucket_weight: &[u64], correction_pct: u8) -> bool {
        assert_eq!(bucket_weight.len(), self.map.len(), "one weight per bucket");
        let f = f64::from(correction_pct.min(100)) / 100.0;
        let num_tiles = self.num_tiles;
        let mut tile_load = vec![0u64; num_tiles];
        for (b, &w) in bucket_weight.iter().enumerate() {
            tile_load[self.map[b].index()] += w;
        }
        let total: u64 = tile_load.iter().sum();
        if total == 0 {
            return false;
        }
        let avg = total as f64 / num_tiles as f64;
        let mut load: Vec<f64> = tile_load.iter().map(|&l| l as f64).collect();

        // Budget each overloaded tile may give away this epoch (the damping
        // factor f of Section VI: a tile only corrects a fraction of its
        // surplus per reconfiguration, to avoid oscillations).
        let mut give: Vec<f64> = load.iter().map(|&l| ((l - avg) * f).max(0.0)).collect();
        let mut take: Vec<f64> = load.iter().map(|&l| ((avg - l) * f).max(0.0)).collect();

        // Visit overloaded tiles from most to least loaded.
        let mut order: Vec<usize> = (0..num_tiles).collect();
        order.sort_by_key(|&t| std::cmp::Reverse(tile_load[t]));

        let mut changed = false;
        for &src in &order {
            if give[src] <= 0.0 {
                continue;
            }
            // This tile's buckets, heaviest first, so large hot buckets move
            // before dribbles of cold ones.
            let mut buckets = self.buckets_of(TileId(src as u32));
            buckets.sort_by_key(|&b| std::cmp::Reverse(bucket_weight[b as usize]));
            for b in buckets {
                let w = bucket_weight[b as usize] as f64;
                if w <= 0.0 || w > give[src] {
                    continue;
                }
                // Send it to the tile with the largest remaining deficit, as
                // long as the move strictly reduces the gap between the two
                // tiles (prevents ping-ponging a single monster bucket).
                let dst = (0..num_tiles)
                    .filter(|&t| t != src && load[t] + w < load[src])
                    .max_by(|&a, &bt| take[a].total_cmp(&take[bt]));
                let Some(dst) = dst else { continue };
                self.remap(b, TileId(dst as u32));
                give[src] -= w;
                take[dst] -= w;
                load[src] -= w;
                load[dst] += w;
                changed = true;
                if give[src] <= 0.0 {
                    break;
                }
            }
        }
        changed
    }
}

/// The paper's hint-based load balancer: hints hash into buckets, buckets
/// map to tiles through a [`TileMap`], and each load-balance epoch
/// rebalances the map by a per-bucket load signal. LBHints uses committed
/// cycles; the Section VI-A ablation, IdleLB, uses idle task counts.
#[derive(Debug)]
pub struct LbHintMapper {
    tile_map: TileMap,
    signal: LoadSignal,
    /// Per-bucket load gathered since the last epoch: committed cycles, or
    /// enqueued tasks.
    bucket_load: Vec<u64>,
    rng: SmallRng,
}

/// What an [`LbHintMapper`] balances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoadSignal {
    /// Committed cycles per bucket (LBHints, the paper's design).
    CommittedCycles,
    /// Enqueues per bucket, weighted by the idle task count of the
    /// bucket's tile. The paper shows this performs significantly worse:
    /// balancing queued tasks does not balance useful work.
    IdleCount,
}

impl LbHintMapper {
    /// Create an LBHints mapper for the machine described by `cfg`.
    pub fn new(cfg: &SystemConfig) -> Self {
        Self::with_signal(cfg, LoadSignal::CommittedCycles)
    }

    /// Create the idle-count ablation (IdleLB) for the machine described by
    /// `cfg`.
    pub(crate) fn idle_count(cfg: &SystemConfig) -> Self {
        Self::with_signal(cfg, LoadSignal::IdleCount)
    }

    fn with_signal(cfg: &SystemConfig, signal: LoadSignal) -> Self {
        let buckets = cfg.num_buckets().max(cfg.num_tiles());
        let rng_salt = match signal {
            LoadSignal::CommittedCycles => 0x4c42_4849,
            LoadSignal::IdleCount => 0x4944_4c45,
        };
        LbHintMapper {
            tile_map: TileMap::new(buckets, cfg.num_tiles()),
            signal,
            bucket_load: vec![0; buckets],
            rng: SmallRng::seed_from_u64(POLICY_SEED ^ rng_salt),
        }
    }

    /// The current bucket-to-tile mapping (for inspection and tests).
    pub fn tile_map(&self) -> &TileMap {
        &self.tile_map
    }
}

impl TaskMapper for LbHintMapper {
    fn name(&self) -> &str {
        match self.signal {
            LoadSignal::CommittedCycles => "LBHints",
            LoadSignal::IdleCount => "IdleLB",
        }
    }

    fn map_task(&mut self, hint: Hint, _creator: Option<TileId>, num_tiles: usize) -> TileId {
        match self.bucket_of(hint) {
            Some(bucket) => {
                if self.signal == LoadSignal::IdleCount {
                    let idx = bucket as usize % self.bucket_load.len();
                    self.bucket_load[idx] += 1;
                }
                self.tile_map.tile_of(bucket)
            }
            None => TileId(self.rng.gen_range(0..num_tiles as u32)),
        }
    }

    fn bucket_of(&self, hint: Hint) -> Option<u16> {
        hint.raw().map(|v| hash_to_bucket(v, self.tile_map.num_buckets()))
    }

    fn serialize_same_hint(&self) -> bool {
        true
    }

    fn on_commit(&mut self, _tile: TileId, bucket: Option<u16>, cycles: u64) {
        if let (LoadSignal::CommittedCycles, Some(b)) = (self.signal, bucket) {
            let idx = b as usize % self.bucket_load.len();
            self.bucket_load[idx] += cycles;
        }
    }

    fn on_lb_epoch(&mut self, _now: u64, idle_per_tile: &[usize]) -> bool {
        let changed = match self.signal {
            LoadSignal::CommittedCycles => {
                self.tile_map.rebalance(&self.bucket_load, LB_CORRECTION_PCT)
            }
            // No tile holds an idle task: nothing to balance.
            LoadSignal::IdleCount if idle_per_tile.iter().all(|&c| c == 0) => false,
            LoadSignal::IdleCount => {
                // A tile's idle-task count is its load: weight each bucket
                // by its enqueues times the idleness of its current tile, so
                // tiles with long queues donate buckets to short ones.
                let weights: Vec<u64> = self
                    .bucket_load
                    .iter()
                    .enumerate()
                    .map(|(b, &e)| {
                        let tile = self.tile_map.tile_of(b as u16).index();
                        e * (1 + idle_per_tile.get(tile).copied().unwrap_or(0) as u64)
                    })
                    .collect();
                self.tile_map.rebalance(&weights, LB_CORRECTION_PCT)
            }
        };
        self.bucket_load.iter_mut().for_each(|c| *c = 0);
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_map_initially_uniform() {
        let map = TileMap::new(64, 4);
        for t in 0..4u32 {
            assert_eq!(map.buckets_of(TileId(t)).len(), 16);
        }
        assert_eq!(map.tile_of(0), TileId(0));
        assert_eq!(map.tile_of(63), TileId(3));
    }

    #[test]
    fn remap_moves_single_bucket() {
        let mut map = TileMap::new(16, 4);
        map.remap(0, TileId(3));
        assert_eq!(map.tile_of(0), TileId(3));
        assert_eq!(map.buckets_of(TileId(3)).len(), 5);
        assert_eq!(map.buckets_of(TileId(0)).len(), 3);
    }

    #[test]
    fn rebalance_moves_load_from_hot_tile() {
        let mut map = TileMap::new(16, 4);
        // All the load is in tile 0's buckets.
        let mut weights = vec![0u64; 16];
        weights[..4].fill(1000);
        let changed = map.rebalance(&weights, 80);
        assert!(changed);
        let tile0_load: u64 = map.buckets_of(TileId(0)).iter().map(|&b| weights[b as usize]).sum();
        assert!(tile0_load < 4000, "tile 0 should have donated load, still has {tile0_load}");
    }

    #[test]
    fn rebalance_is_damped_by_correction_factor() {
        let mut map_full = TileMap::new(16, 2);
        let mut map_damped = TileMap::new(16, 2);
        let mut weights = vec![0u64; 16];
        weights[..8].fill(100);
        map_full.rebalance(&weights, 100);
        map_damped.rebalance(&weights, 40);
        let moved_full = 8 - map_full.buckets_of(TileId(0)).iter().filter(|&&b| b < 8).count();
        let moved_damped = 8 - map_damped.buckets_of(TileId(0)).iter().filter(|&&b| b < 8).count();
        assert!(moved_full >= moved_damped);
    }

    #[test]
    fn rebalance_with_no_load_does_nothing() {
        let mut map = TileMap::new(16, 4);
        let before = map.clone();
        assert!(!map.rebalance(&[0; 16], 80));
        assert_eq!(map, before);
    }

    #[test]
    fn lbhints_routes_through_tile_map_and_rebalances() {
        let cfg = SystemConfig::with_cores(16);
        let mut m = LbHintMapper::new(&cfg);

        // Find two hints in *different* buckets that initially map to the
        // *same* tile, so the rebalancer has something it can split.
        let first = Hint::value(0);
        let first_bucket = m.bucket_of(first).unwrap();
        let first_tile = m.map_task(first, None, cfg.num_tiles());
        let second = (1..10_000u64)
            .map(Hint::value)
            .find(|&h| {
                m.bucket_of(h) != Some(first_bucket)
                    && m.tile_map().tile_of(m.bucket_of(h).unwrap()) == first_tile
            })
            .expect("some other bucket maps to the same tile");
        let second_bucket = m.bucket_of(second).unwrap();

        // Both buckets are hot; every other bucket is idle.
        m.on_commit(first_tile, Some(first_bucket), 1_000_000);
        m.on_commit(first_tile, Some(second_bucket), 1_000_000);
        let changed = m.on_lb_epoch(0, &vec![0; cfg.num_tiles()]);
        assert!(changed);
        let a = m.map_task(first, None, cfg.num_tiles());
        let b = m.map_task(second, None, cfg.num_tiles());
        assert_ne!(a, b, "the two hot buckets should end up on different tiles");
    }

    #[test]
    fn lbhints_same_hint_same_tile_between_reconfigs() {
        let cfg = SystemConfig::with_cores(16);
        let mut m = LbHintMapper::new(&cfg);
        let a = m.map_task(Hint::value(9), Some(TileId(0)), cfg.num_tiles());
        let b = m.map_task(Hint::value(9), Some(TileId(2)), cfg.num_tiles());
        assert_eq!(a, b);
    }

    #[test]
    fn idle_lb_reacts_to_idle_imbalance() {
        let cfg = SystemConfig::with_cores(16);
        let mut m = LbHintMapper::idle_count(&cfg);
        // Enqueue many tasks whose buckets map to tile 0.
        let tiles = cfg.num_tiles();
        for h in 0..200u64 {
            let _ = m.map_task(Hint::value(h), None, tiles);
        }
        let mut idle = vec![0usize; tiles];
        idle[0] = 100;
        // Not guaranteed to move anything (depends on bucket placement), but
        // must not panic and must clear its counters.
        let _ = m.on_lb_epoch(0, &idle);
        let _ = m.on_lb_epoch(0, &idle);
    }

    #[test]
    #[should_panic(expected = "one weight per bucket")]
    fn rebalance_rejects_wrong_weight_length() {
        let mut map = TileMap::new(16, 4);
        let _ = map.rebalance(&[1, 2, 3], 80);
    }
}
