//! Property-based tests on the core invariants of the speculative substrate
//! and the spatial-hints mechanisms, using randomly generated task graphs
//! and load distributions.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use swarm_repro::apps::kvstore::Zipfian;
use swarm_repro::hints::TileMap;
use swarm_repro::mem::{AccessKind, CacheModel, LruList, LruSet, SimMemory};
use swarm_repro::prelude::*;
use swarm_repro::sim::{InitialTask, LineTable, TimingWheel, WHEEL_SLOTS};
use swarm_types::{CacheConfig, CoreId, LineAddr, TaskId, TileId};

/// The seed (PR 1) `HashMap`-based memory-system structures, kept verbatim as
/// reference models: the flat/open-addressed rewrites must be observationally
/// identical, and these cross-checks pin that under randomized workloads.
mod seed_reference {
    use std::collections::HashMap;

    use swarm_types::config::{L1_LATENCY, L2_LATENCY, L3_LATENCY, MEM_LATENCY};
    use swarm_types::{CacheConfig, CoreId, LineAddr, TileId};

    const NONE: u64 = u64::MAX;

    /// The seed `LruSet`: a doubly-linked list threaded through a `HashMap`.
    #[derive(Debug, Clone)]
    pub struct SeedLruSet {
        capacity: usize,
        links: HashMap<u64, (u64, u64)>,
        head: u64,
        tail: u64,
    }

    impl SeedLruSet {
        pub fn new(capacity: usize) -> Self {
            assert!(capacity > 0, "LruSet capacity must be positive");
            SeedLruSet { capacity, links: HashMap::new(), head: NONE, tail: NONE }
        }

        pub fn len(&self) -> usize {
            self.links.len()
        }

        pub fn contains(&self, key: u64) -> bool {
            self.links.contains_key(&key)
        }

        fn unlink(&mut self, key: u64) {
            let (prev, next) = self.links[&key];
            if prev != NONE {
                self.links.get_mut(&prev).expect("prev must exist").1 = next;
            } else {
                self.head = next;
            }
            if next != NONE {
                self.links.get_mut(&next).expect("next must exist").0 = prev;
            } else {
                self.tail = prev;
            }
        }

        fn push_front(&mut self, key: u64) {
            let old_head = self.head;
            self.links.insert(key, (NONE, old_head));
            if old_head != NONE {
                self.links.get_mut(&old_head).expect("head must exist").0 = key;
            }
            self.head = key;
            if self.tail == NONE {
                self.tail = key;
            }
        }

        pub fn touch(&mut self, key: u64) -> bool {
            if !self.links.contains_key(&key) {
                return false;
            }
            if self.head == key {
                return true;
            }
            self.unlink(key);
            self.push_front(key);
            true
        }

        pub fn insert(&mut self, key: u64) -> Option<u64> {
            assert_ne!(key, NONE);
            if self.touch(key) {
                return None;
            }
            let mut evicted = None;
            if self.links.len() >= self.capacity {
                let victim = self.tail;
                self.unlink(victim);
                self.links.remove(&victim);
                evicted = Some(victim);
            }
            self.push_front(key);
            evicted
        }

        pub fn remove(&mut self, key: u64) -> bool {
            if !self.links.contains_key(&key) {
                return false;
            }
            self.unlink(key);
            self.links.remove(&key);
            true
        }
    }

    #[derive(Debug, Clone, Default)]
    struct LineDir {
        sharers: u64,
        owner: Option<TileId>,
        in_l3: bool,
    }

    /// The seed cache model: `SeedLruSet` arrays plus a `HashMap` directory.
    /// Beyond 64 tiles (the seed's sharer-mask limit) it applies the
    /// coarse-vector rule of `swarm_mem`'s directory: a sharer bit stands
    /// for its alias group `{b, b + 64, ...}`, walked bit by bit, each
    /// group in ascending order; at <= 64 tiles that is the seed's walk.
    #[derive(Debug, Clone)]
    pub struct SeedCacheModel {
        cores_per_tile: u32,
        num_tiles: usize,
        l1: Vec<SeedLruSet>,
        l2: Vec<SeedLruSet>,
        l3: Vec<SeedLruSet>,
        dir: HashMap<LineAddr, LineDir>,
        pub hits: (u64, u64, u64, u64, u64),
    }

    /// What the seed `access` reported, field for field.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SeedOutcome {
        pub level: swarm_repro::mem::HitLevel,
        pub base_latency: u64,
        pub invalidated: Vec<TileId>,
        pub remote: bool,
    }

    impl SeedCacheModel {
        pub fn new(cfg: &CacheConfig, num_tiles: usize, cores_per_tile: u32) -> Self {
            let num_cores = num_tiles * cores_per_tile as usize;
            SeedCacheModel {
                l1: (0..num_cores).map(|_| SeedLruSet::new(cfg.l1_lines.max(1))).collect(),
                l2: (0..num_tiles).map(|_| SeedLruSet::new(cfg.l2_lines.max(1))).collect(),
                l3: (0..num_tiles).map(|_| SeedLruSet::new(cfg.l3_lines_per_tile.max(1))).collect(),
                dir: HashMap::new(),
                cores_per_tile,
                num_tiles,
                hits: (0, 0, 0, 0, 0),
            }
        }

        fn sharer_bit(tile: TileId) -> u64 {
            1u64 << (tile.index() as u64 % 64)
        }

        fn sharer_tiles(&self, mask: u64, exclude: TileId) -> Vec<TileId> {
            (0..self.num_tiles.min(64))
                .filter(|&b| (mask >> b) & 1 == 1)
                .flat_map(|b| (b..self.num_tiles).step_by(64))
                .filter(|&t| t != exclude.index())
                .map(|t| TileId(t as u32))
                .collect()
        }

        fn dir_first_other_sharer(&self, mask: u64, exclude: TileId) -> Option<TileId> {
            self.sharer_tiles(mask, exclude).first().copied()
        }

        pub fn access(&mut self, core: CoreId, line: LineAddr, write: bool) -> SeedOutcome {
            use swarm_repro::mem::HitLevel;
            let tile = core.tile(self.cores_per_tile);
            let key = line.0;

            let l1_hit = self.l1[core.index()].touch(key);
            let l2_hit = l1_hit || self.l2[tile.index()].touch(key);

            let dir_snapshot = self.dir.get(&line).cloned().unwrap_or_default();
            let home = TileId(swarm_types::hash_to_range(line.0, self.num_tiles) as u32);

            let (level, base_latency, remote) = if l1_hit {
                self.hits.0 += 1;
                (HitLevel::L1, L1_LATENCY, false)
            } else if l2_hit {
                self.hits.1 += 1;
                (HitLevel::L2, L1_LATENCY + L2_LATENCY, false)
            } else {
                let remote_holder = dir_snapshot
                    .owner
                    .filter(|o| *o != tile)
                    .or_else(|| self.dir_first_other_sharer(dir_snapshot.sharers, tile));
                if let Some(owner) = remote_holder {
                    self.hits.2 += 1;
                    (HitLevel::RemoteL2 { owner }, L1_LATENCY + L2_LATENCY * 2 + L3_LATENCY, true)
                } else if dir_snapshot.in_l3 && self.l3[home.index()].contains(key) {
                    self.hits.3 += 1;
                    (HitLevel::L3 { home }, L1_LATENCY + L2_LATENCY + L3_LATENCY, true)
                } else {
                    self.hits.4 += 1;
                    (
                        HitLevel::Memory { home },
                        L1_LATENCY + L2_LATENCY + L3_LATENCY + MEM_LATENCY,
                        true,
                    )
                }
            };

            let mut invalidated = Vec::new();
            if write {
                let others = self.sharer_tiles(dir_snapshot.sharers, tile);
                for other in &others {
                    self.l2[other.index()].remove(key);
                    let first_core = other.index() * self.cores_per_tile as usize;
                    for c in first_core..first_core + self.cores_per_tile as usize {
                        self.l1[c].remove(key);
                    }
                }
                invalidated = others;
            }

            let dir = self.dir.entry(line).or_default();
            if write {
                dir.sharers = Self::sharer_bit(tile);
                dir.owner = Some(tile);
            } else {
                dir.sharers |= Self::sharer_bit(tile);
                if dir.owner != Some(tile) {
                    dir.owner = None;
                }
            }
            dir.in_l3 = true;
            self.l3[home.index()].insert(key);
            self.l2[tile.index()].insert(key);
            self.l1[core.index()].insert(key);

            SeedOutcome { level, base_latency, invalidated, remote }
        }

        pub fn flush_line(&mut self, line: LineAddr) {
            let key = line.0;
            for l1 in &mut self.l1 {
                l1.remove(key);
            }
            for l2 in &mut self.l2 {
                l2.remove(key);
            }
            for l3 in &mut self.l3 {
                l3.remove(key);
            }
            self.dir.remove(&line);
        }
    }

    /// The seed engine's event queue: a min-heap over `(cycle, seq, item)`
    /// where `seq` is a global schedule counter, so equal-cycle events pop
    /// in schedule (FIFO) order. `TimingWheel` must reproduce this total
    /// order exactly.
    pub struct SeedEventQueue<T> {
        heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64, T)>>,
        seq: u64,
    }

    impl<T: Ord + Copy> SeedEventQueue<T> {
        pub fn new() -> Self {
            SeedEventQueue { heap: std::collections::BinaryHeap::new(), seq: 0 }
        }

        pub fn len(&self) -> usize {
            self.heap.len()
        }

        pub fn schedule(&mut self, at: u64, item: T) {
            self.heap.push(std::cmp::Reverse((at, self.seq, item)));
            self.seq += 1;
        }

        pub fn pop(&mut self) -> Option<(u64, T)> {
            self.heap.pop().map(|std::cmp::Reverse((at, _, item))| (at, item))
        }
    }

    use std::collections::VecDeque;

    use swarm_repro::noc::{LinkCounters, LinkStats, TrafficClass, LINK_QUEUE_DEPTH};
    use swarm_types::NocConfig;

    /// The seed's per-link contention state: parallel per-link vectors and
    /// an unbounded `VecDeque` backlog per link, walked one `traverse` per
    /// hop, with the occupancy statistic clamped at `LINK_QUEUE_DEPTH`. The
    /// packed `LinkNet`, whose fixed rings store only that many departures,
    /// must reproduce every departure and counter of it.
    #[derive(Debug, Clone)]
    pub struct SeedLinkNet {
        flits_per_cycle: u64,
        /// Cycle at which each link finishes serving everything accepted so far.
        busy_until: Vec<u64>,
        /// Departure cycles of the messages still in flight on each link, in
        /// FIFO (= ascending) order; drained lazily to measure the backlog a new
        /// arrival queues behind. Capacity is retained across messages, so the
        /// steady state allocates nothing.
        in_flight: Vec<VecDeque<u64>>,
        counters: Vec<LinkCounters>,
        class_queue_cycles: [u64; TrafficClass::ALL.len()],
    }

    impl SeedLinkNet {
        pub fn new(cfg: &NocConfig, num_links: usize) -> Self {
            assert!(cfg.link_flits_per_cycle > 0, "link_flits_per_cycle must be positive");
            SeedLinkNet {
                flits_per_cycle: cfg.link_flits_per_cycle,
                busy_until: vec![0; num_links],
                in_flight: vec![VecDeque::new(); num_links],
                counters: vec![LinkCounters::default(); num_links],
                class_queue_cycles: [0; TrafficClass::ALL.len()],
            }
        }

        pub fn traverse(&mut self, link: u32, class: TrafficClass, flits: u64, enter: u64) -> u64 {
            let i = link as usize;
            let busy = self.busy_until[i];
            let wait = busy.saturating_sub(enter);
            let service = flits.div_ceil(self.flits_per_cycle).max(1);
            let depart = enter.max(busy) + service;
            self.busy_until[i] = depart;

            let queue = &mut self.in_flight[i];
            while queue.front().is_some_and(|&d| d <= enter) {
                queue.pop_front();
            }
            let occupancy = (queue.len() as u64).min(LINK_QUEUE_DEPTH as u64);
            queue.push_back(depart);

            let c = &mut self.counters[i];
            c.messages += 1;
            c.flits += flits;
            c.queue_cycles += wait;
            c.occupancy_sum += occupancy;
            c.max_occupancy = c.max_occupancy.max(occupancy);
            self.class_queue_cycles[class.index()] += wait;
            depart
        }

        pub fn snapshot(&self) -> LinkStats {
            LinkStats { links: self.counters.clone(), class_queue_cycles: self.class_queue_cycles }
        }
    }
}

/// A randomly generated "ledger" program: a set of add operations over a
/// small number of cells, with random timestamps and hints. Whatever the
/// schedule, the committed state must equal the serial (timestamp-ordered)
/// sum per cell.
#[derive(Debug, Clone)]
struct Ledger {
    ops: Vec<(u64, u64, u64)>, // (timestamp, cell, amount)
    cells: u64,
}

const LEDGER_BASE: u64 = 0x40_000;

impl SwarmApp for Ledger {
    fn name(&self) -> &str {
        "prop-ledger"
    }
    fn initial_tasks(&self) -> Vec<InitialTask> {
        self.ops
            .iter()
            .map(|&(ts, cell, amount)| {
                InitialTask::new(0, ts, Hint::value(cell), vec![cell, amount])
            })
            .collect()
    }
    fn run_task(&self, _fid: u16, _ts: u64, args: &[u64], ctx: &mut TaskCtx<'_>) {
        let cell = args[0];
        let amount = args[1];
        let addr = LEDGER_BASE + cell * 64;
        let value = ctx.read(addr);
        ctx.write(addr, value + amount);
    }
    fn validate(&self, mem: &SimMemory) -> Result<(), String> {
        for cell in 0..self.cells {
            let expected: u64 =
                self.ops.iter().filter(|&&(_, c, _)| c == cell).map(|&(_, _, a)| a).sum();
            let got = mem.load(LEDGER_BASE + cell * 64);
            if got != expected {
                return Err(format!("cell {cell}: got {got}, expected {expected}"));
            }
        }
        Ok(())
    }
}

fn ledger_strategy() -> impl Strategy<Value = Ledger> {
    (2u64..6, 1usize..60).prop_flat_map(|(cells, n_ops)| {
        proptest::collection::vec((0u64..20, 0..cells, 1u64..100), n_ops)
            .prop_map(move |ops| Ledger { ops, cells })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Serializability: any random conflicting program commits a state equal
    /// to its serial timestamp-order execution, under every scheduler.
    #[test]
    fn random_ledgers_are_serializable(ledger in ledger_strategy(), scheduler_idx in 0usize..4) {
        let scheduler = Scheduler::ALL[scheduler_idx];
        let mut engine = Sim::builder()
            .config(SystemConfig::with_cores(16))
            .app(ledger.clone())
            .scheduler(scheduler)
            .build()
            .expect("a valid simulation description");
        let stats = engine.run().expect("ledger must serialize");
        prop_assert_eq!(stats.tasks_committed as usize, ledger.ops.len());
    }

    /// The undo log restores memory exactly for arbitrary write sequences.
    #[test]
    fn rollback_restores_arbitrary_write_sequences(
        initial in proptest::collection::vec((0u64..64, 0u64..1000), 0..32),
        speculative in proptest::collection::vec((0u64..64, 0u64..1000), 1..32),
    ) {
        let mut mem = SimMemory::new();
        for &(addr, value) in &initial {
            mem.store(addr * 8, value);
        }
        let snapshot: Vec<(u64, u64)> = (0..64).map(|a| (a * 8, mem.load(a * 8))).collect();
        let mut undo = Vec::new();
        for &(addr, value) in &speculative {
            undo.push(mem.store_logged(addr * 8, value));
        }
        mem.rollback_all(&mut undo);
        for (addr, value) in snapshot {
            prop_assert_eq!(mem.load(addr), value);
        }
    }

    /// The LRU set never exceeds its capacity and always contains the most
    /// recently inserted key.
    #[test]
    fn lru_set_respects_capacity(
        capacity in 1usize..32,
        keys in proptest::collection::vec(0u64..100, 1..200),
    ) {
        let mut lru = LruSet::new(capacity);
        for &k in &keys {
            lru.insert(k);
            prop_assert!(lru.len() <= capacity);
            prop_assert!(lru.contains(k));
        }
    }

    /// Rebalancing the tile map never loses or duplicates buckets and never
    /// increases the load spread (max - min weighted tile load).
    #[test]
    fn tile_map_rebalance_preserves_buckets_and_reduces_spread(
        weights in proptest::collection::vec(0u64..10_000, 64),
        correction in 1u8..=100,
    ) {
        let num_tiles = 8;
        let mut map = TileMap::new(64, num_tiles);
        let load = |map: &TileMap| -> Vec<u64> {
            (0..num_tiles).map(|t| {
                map.buckets_of(TileId(t as u32)).iter().map(|&b| weights[b as usize]).sum()
            }).collect()
        };
        let before = load(&map);
        let spread_before = before.iter().max().unwrap() - before.iter().min().unwrap();
        map.rebalance(&weights, correction);
        // Every bucket still maps to exactly one valid tile.
        let mut seen = 0usize;
        for t in 0..num_tiles {
            seen += map.buckets_of(TileId(t as u32)).len();
        }
        prop_assert_eq!(seen, 64);
        let after = load(&map);
        let spread_after = after.iter().max().unwrap() - after.iter().min().unwrap();
        prop_assert!(spread_after <= spread_before,
            "rebalance made the spread worse: {} -> {}", spread_before, spread_after);
    }

    /// `LruList` addressed through slots the caller keeps (as the cache
    /// directory keeps each L3 line's slot) evicts exactly what `LruSet`
    /// evicts, in the same order, under random insert / touch / remove
    /// interleavings.
    #[test]
    fn lru_list_evicts_like_lru_set(
        capacity in 1usize..24,
        ops in proptest::collection::vec((0u64..48, 0u8..8), 1..400),
    ) {
        use std::collections::HashMap;
        let mut set = LruSet::new(capacity);
        let mut list = LruList::new(capacity);
        let mut slots: HashMap<u64, u32> = HashMap::new();
        for (step, &(key, op)) in ops.iter().enumerate() {
            match op {
                0..=4 => {
                    let evicted = match slots.get(&key) {
                        Some(&slot) => {
                            list.promote(slot);
                            None
                        }
                        None => {
                            let (slot, evicted) = list.push_front(key);
                            if let Some(victim) = evicted {
                                prop_assert_eq!(slots.remove(&victim), Some(slot));
                            }
                            slots.insert(key, slot);
                            evicted
                        }
                    };
                    prop_assert_eq!(set.insert(key), evicted, "insert({}) at step {}", key, step);
                }
                5 | 6 => {
                    let present = slots.get(&key).map(|&slot| list.promote(slot)).is_some();
                    prop_assert_eq!(set.touch(key), present, "touch({}) at step {}", key, step);
                }
                _ => {
                    let present = slots.remove(&key).map(|slot| list.remove(slot)).is_some();
                    prop_assert_eq!(set.remove(key), present, "remove({}) at step {}", key, step);
                }
            }
            prop_assert_eq!(list.len(), set.len(), "len diverged at step {}", step);
            for (&k, &slot) in &slots {
                prop_assert_eq!(list.key(slot), k, "slot of {} diverged at step {}", k, step);
            }
        }
    }

    /// The slab-backed `LruSet` is observationally identical to the seed
    /// `HashMap`-threaded implementation under random insert / touch /
    /// remove interleavings, including eviction victims and order.
    #[test]
    fn lru_set_matches_seed_hashmap_reference(
        capacity in 1usize..24,
        ops in proptest::collection::vec((0u64..48, 0u8..8), 1..400),
    ) {
        let mut new_impl = LruSet::new(capacity);
        let mut seed = seed_reference::SeedLruSet::new(capacity);
        for (step, &(key, op)) in ops.iter().enumerate() {
            match op {
                // Bias towards inserts: they exercise eviction, the only
                // place the two recency structures can silently diverge.
                0..=4 => prop_assert_eq!(
                    new_impl.insert(key),
                    seed.insert(key),
                    "insert({}) diverged at step {}", key, step
                ),
                5 | 6 => prop_assert_eq!(
                    new_impl.touch(key),
                    seed.touch(key),
                    "touch({}) diverged at step {}", key, step
                ),
                _ => prop_assert_eq!(
                    new_impl.remove(key),
                    seed.remove(key),
                    "remove({}) diverged at step {}", key, step
                ),
            }
            prop_assert_eq!(new_impl.len(), seed.len(), "len diverged at step {}", step);
            prop_assert_eq!(
                new_impl.contains(key),
                seed.contains(key),
                "contains({}) diverged at step {}", key, step
            );
        }
    }

    /// The open-addressed directory + flat caches are observationally
    /// identical to the seed `HashMap` cache model under random read /
    /// write / flush interleavings: same hit levels, latencies,
    /// invalidation lists (order included) and hit counters. A third of
    /// the accesses repeat the previous access's core and line (reads
    /// after writes and writes after reads included), which the model
    /// serves without probing its caches; the 128-tile mesh runs the
    /// alias-group walk and the L1-holder superset beyond 64 cores.
    #[test]
    fn cache_model_matches_seed_hashmap_reference(
        machine_idx in 0usize..6,
        ops in proptest::collection::vec((any::<u32>(), 0u64..40, 0u8..12), 1..300),
    ) {
        let machines = [(1usize, 1u32), (4, 1), (4, 4), (16, 2), (16, 4), (128, 1)];
        let (num_tiles, cores_per_tile) = machines[machine_idx];
        // Tiny capacities so the random workload constantly evicts.
        let cfg = CacheConfig { l1_lines: 2, l2_lines: 4, l3_lines_per_tile: 8 };
        let num_cores = num_tiles * cores_per_tile as usize;
        let mut new_impl = CacheModel::new(&cfg, num_tiles, cores_per_tile);
        let mut seed = seed_reference::SeedCacheModel::new(&cfg, num_tiles, cores_per_tile);
        let mut previous = (CoreId(0), LineAddr(0));
        for (step, &(core_sel, line, op)) in ops.iter().enumerate() {
            let (core, line) = if op >= 8 {
                previous
            } else if num_cores > 64 {
                // Cores {0..3, 64..67} on a few lines: aliased L1-holder
                // bits and alias-group sharers meet constantly.
                (CoreId(core_sel % 4 + 64 * (core_sel / 4 % 2)), LineAddr(line % 8))
            } else {
                (CoreId(core_sel % num_cores as u32), LineAddr(line))
            };
            previous = (core, line);
            if op == 7 {
                new_impl.flush_line(line);
                seed.flush_line(line);
                continue;
            }
            // 0..=3 read, 4..=6 write; repeats alternate by parity.
            let write = if op >= 8 { op % 2 == 1 } else { op >= 4 };
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            let got = new_impl.access(core, line, kind);
            let want = seed.access(core, line, write);
            prop_assert_eq!(got.level, want.level, "hit level diverged at step {}", step);
            prop_assert_eq!(
                got.base_latency, want.base_latency,
                "latency diverged at step {}", step
            );
            prop_assert_eq!(got.remote, want.remote, "remote flag diverged at step {}", step);
            prop_assert_eq!(
                got.invalidated.collect::<Vec<_>>(),
                want.invalidated,
                "invalidations diverged at step {}", step
            );
        }
        prop_assert_eq!(new_impl.hit_counters(), seed.hits, "hit counters diverged");
    }

    /// The Zipfian sampler is a pure function of its seed: equal seeds give
    /// equal rank sequences, for any distribution size.
    #[test]
    fn zipfian_is_seeded_deterministic(seed in any::<u64>(), num_ranks in 1usize..200) {
        let zipf = Zipfian::new(num_ranks);
        let mut a = SmallRng::seed_from_u64(seed);
        let mut b = SmallRng::seed_from_u64(seed);
        for draw in 0..200 {
            let (ra, rb) = (zipf.sample(&mut a), zipf.sample(&mut b));
            prop_assert_eq!(ra, rb, "draw {} diverged", draw);
            prop_assert!(ra < num_ranks as u64, "rank {} out of range", ra);
        }
    }

    /// Empirical rank frequencies track the harmonic law `p(r) ∝ 1/(r+1)`
    /// within a generous sampling tolerance, for any seed.
    #[test]
    fn zipfian_rank_frequencies_follow_the_harmonic_law(seed in any::<u64>()) {
        const RANKS: usize = 32;
        const SAMPLES: u64 = 30_000;
        let zipf = Zipfian::new(RANKS);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut freq = [0u64; RANKS];
        for _ in 0..SAMPLES {
            freq[zipf.sample(&mut rng) as usize] += 1;
        }
        let harmonic: f64 = (1..=RANKS).map(|r| 1.0 / r as f64).sum();
        for (r, &got) in freq.iter().enumerate() {
            let expected = SAMPLES as f64 / ((r + 1) as f64 * harmonic);
            let tolerance = expected * 0.25 + 30.0; // ~6 sigma at 30k draws
            prop_assert!(
                (got as f64 - expected).abs() < tolerance,
                "rank {} drawn {} times, expected {:.0} ± {:.0}",
                r, got, expected, tolerance
            );
        }
    }

    /// At large sample counts every rank is drawn at least once — the tail
    /// is thin but never silently truncated.
    #[test]
    fn zipfian_covers_the_full_rank_range(seed in any::<u64>()) {
        const RANKS: usize = 48;
        let zipf = Zipfian::new(RANKS);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut seen = [false; RANKS];
        for _ in 0..30_000 {
            seen[zipf.sample(&mut rng) as usize] = true;
        }
        let missing: Vec<usize> =
            seen.iter().enumerate().filter(|(_, &s)| !s).map(|(r, _)| r).collect();
        prop_assert!(missing.is_empty(), "ranks never drawn: {:?}", missing);
    }

    /// `LineTable::register`/`unregister` (append without a `contains` scan,
    /// remove each entry once) keep exactly the per-line reader and writer
    /// lists, in order, of the former `contains`/`retain` bookkeeping under
    /// random execute / commit / abort interleavings: overlapping sets across
    /// tasks, lines both read and written by one task, tasks re-registering
    /// after an abort, and aborts of tasks that never registered.
    #[test]
    fn line_table_register_unregister_match_contains_retain_reference(
        ops in proptest::collection::vec((0u64..10, 0u8..4, any::<u16>(), any::<u16>()), 1..300),
    ) {
        use std::collections::HashMap;
        type Key = (u64, TaskId);
        const LINES: u64 = 16;
        let lines_of = |mask: u16| -> Vec<LineAddr> {
            (0..LINES).filter(|l| mask >> l & 1 == 1).map(LineAddr).collect()
        };
        let mut table = LineTable::new();
        let mut reference: HashMap<u64, (Vec<Key>, Vec<Key>)> = HashMap::new();
        let ref_register = |reference: &mut HashMap<u64, (Vec<Key>, Vec<Key>)>,
                            key: Key,
                            reads: &[LineAddr],
                            writes: &[LineAddr]| {
            for line in reads {
                let entry = reference.entry(line.0).or_default();
                if !entry.0.contains(&key) {
                    entry.0.push(key);
                }
            }
            for line in writes {
                let entry = reference.entry(line.0).or_default();
                if !entry.1.contains(&key) {
                    entry.1.push(key);
                }
            }
        };
        let ref_unregister = |reference: &mut HashMap<u64, (Vec<Key>, Vec<Key>)>,
                              task: TaskId,
                              reads: &[LineAddr],
                              writes: &[LineAddr]| {
            for line in reads.iter().chain(writes) {
                if let Some(entry) = reference.get_mut(&line.0) {
                    entry.0.retain(|&k| k.1 != task);
                    entry.1.retain(|&k| k.1 != task);
                    if entry.0.is_empty() && entry.1.is_empty() {
                        reference.remove(&line.0);
                    }
                }
            }
        };
        // The sets each task is registered with, if it is.
        let mut registered: HashMap<u64, (Vec<LineAddr>, Vec<LineAddr>)> = HashMap::new();
        for (step, &(task_raw, op, read_mask, write_mask)) in ops.iter().enumerate() {
            let task = TaskId(task_raw);
            // A task's key never changes; small timestamps force ties.
            let key: Key = (task_raw % 3, task);
            let (reads, writes) = (lines_of(read_mask), lines_of(write_mask));
            match (op, registered.remove(&task_raw)) {
                // Execute: a registered task is aborted first, then
                // re-registers with its new sets.
                (0 | 1, old) => {
                    if let Some((r, w)) = old {
                        table.unregister(task, &r, &w);
                        ref_unregister(&mut reference, task, &r, &w);
                    }
                    table.register(key, &reads, &writes);
                    ref_register(&mut reference, key, &reads, &writes);
                    registered.insert(task_raw, (reads, writes));
                }
                // Commit or abort a registered task.
                (_, Some((r, w))) => {
                    table.unregister(task, &r, &w);
                    ref_unregister(&mut reference, task, &r, &w);
                }
                // Abort a task that never registered these sets (it was
                // still idle, or its sets were already retired).
                (_, None) => {
                    table.unregister(task, &reads, &writes);
                    ref_unregister(&mut reference, task, &reads, &writes);
                }
            }
            for line in 0..LINES {
                let got = table.get(LineAddr(line)).map(|a| (a.readers.clone(), a.writers.clone()));
                prop_assert_eq!(
                    got,
                    reference.get(&line).cloned(),
                    "accessors of line {} diverged at step {}", line, step
                );
            }
            prop_assert_eq!(table.len(), reference.len(), "len diverged at step {}", step);
        }
        for (task_raw, (r, w)) in registered {
            table.unregister(TaskId(task_raw), &r, &w);
        }
        prop_assert!(table.is_empty(), "{} lines left after retiring every task", table.len());
    }

    /// The timing-wheel event queue reproduces the seed `BinaryHeap`'s
    /// total order exactly — ascending cycle, FIFO within a cycle — under
    /// randomized schedule/pop interleavings that stress all three of its
    /// regimes: same-cycle bursts, in-ring scheduling, and far-future
    /// events that round-trip through the overflow map and wrap the ring.
    /// Occasional drains to empty mid-sequence make later schedules reuse
    /// the node free list, both from empty and from a partly-full queue.
    #[test]
    fn timing_wheel_matches_seed_binary_heap(
        ops in proptest::collection::vec((0u8..25, 0u64..8 * WHEEL_SLOTS as u64), 1..500),
    ) {
        let mut wheel = TimingWheel::new();
        let mut seed = seed_reference::SeedEventQueue::new();
        let mut now = 0u64;
        let mut next_item = 0u32;
        for (step, &(mode, raw)) in ops.iter().enumerate() {
            // Mode 24 (one op in 25) drains; the rest split evenly six ways.
            if mode == 24 {
                while let Some((at, item)) = seed.pop() {
                    now = at;
                    prop_assert_eq!(wheel.pop(), Some((at, item)), "drain diverged at step {}", step);
                }
                prop_assert_eq!(wheel.pop(), None, "wheel not empty after drain at step {}", step);
                prop_assert!(wheel.is_empty());
                continue;
            }
            let mode = mode % 6;
            if mode == 0 {
                let want = seed.pop();
                if let Some((at, _)) = want {
                    now = at;
                }
                prop_assert_eq!(wheel.pop(), want, "pop diverged at step {}", step);
                prop_assert_eq!(wheel.len(), seed.len());
            } else {
                let at = match mode {
                    // Same-cycle / near-cycle bursts: FIFO tie-breaking.
                    1 | 2 => now + raw % 8,
                    // Within the ring window.
                    3 | 4 => now + raw % WHEEL_SLOTS as u64,
                    // Far future: overflow map, then ring wraparound on
                    // migration.
                    _ => now + raw,
                };
                wheel.schedule(at, next_item);
                seed.schedule(at, next_item);
                next_item += 1;
            }
        }
        // Drain both completely: the tail order must agree too.
        loop {
            let want = seed.pop();
            prop_assert_eq!(wheel.pop(), want, "drain diverged");
            if want.is_none() {
                break;
            }
        }
        prop_assert!(wheel.is_empty());
    }

    /// Hints map deterministically: the same hint always reaches the same
    /// tile and bucket, and every tile is reachable.
    #[test]
    fn hint_mapping_is_deterministic_and_covers_tiles(hints in proptest::collection::vec(any::<u64>(), 1..500)) {
        let cfg = SystemConfig::with_cores(16);
        let mut a = Scheduler::Hints.build(&cfg);
        let mut b = Scheduler::Hints.build(&cfg);
        for &h in &hints {
            let hint = Hint::value(h);
            prop_assert_eq!(
                a.map_task(hint, None, cfg.num_tiles()),
                b.map_task(hint, None, cfg.num_tiles())
            );
        }
    }

    /// The mesh routing walk matches a plain div/mod X-then-Y reference
    /// hop for hop at every width — non-power-of-two widths take the
    /// divide path of `Mesh::split`, power-of-two widths the shift/mask
    /// fast path, and both must produce the identical dimension-ordered
    /// link sequence — and its length always equals `Mesh::hops`.
    #[test]
    fn mesh_route_matches_divide_reference_hop_for_hop(
        width in 1u32..10,
        height in 1u32..10,
        from_seed in any::<u32>(),
        to_seed in any::<u32>(),
    ) {
        use swarm_repro::noc::{Mesh, LINKS_PER_TILE};
        let mesh = Mesh::new(width, height);
        let tiles = width * height;
        let from = TileId(from_seed % tiles);
        let to = TileId(to_seed % tiles);
        // Reference walk: X then Y, coordinates split with plain div/mod.
        let mut expect = Vec::new();
        let (mut x, mut y) = (from.0 % width, from.0 / width);
        let (tx, ty) = (to.0 % width, to.0 / width);
        while x != tx {
            let dir = if x < tx { 0 } else { 1 };
            expect.push((y * width + x) * LINKS_PER_TILE as u32 + dir);
            if x < tx { x += 1 } else { x -= 1 }
        }
        while y != ty {
            let dir = if y < ty { 2 } else { 3 };
            expect.push((y * width + x) * LINKS_PER_TILE as u32 + dir);
            if y < ty { y += 1 } else { y -= 1 }
        }
        let mut got = Vec::new();
        mesh.route_links(from, to, |l| got.push(l));
        prop_assert_eq!(&got, &expect, "width {} height {} {:?}->{:?}", width, height, from, to);
        prop_assert_eq!(got.len() as u64, mesh.hops(from, to));
        for &link in &got {
            prop_assert!((link as usize) < mesh.num_links());
            let (src, _) = mesh.link_endpoints(link);
            prop_assert!(src.index() < mesh.num_tiles());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The packed `LinkNet`, whose fixed rings store at most
    /// `LINK_QUEUE_DEPTH` departures per link, matches the seed's
    /// unbounded-`VecDeque` model departure for departure. Messages walk
    /// random multi-link routes over a few links: now and then a message is
    /// sent as a same-cycle burst of 20 copies, which fills its first
    /// link's ring past the depth and hits the occupancy clamp, and idle
    /// gaps drain backlogs part way, so arrivals land in the middle of
    /// stored backlogs. Arrival cycles jump backwards as well as forwards,
    /// flit counts vary, and the link width covers the narrow and wide
    /// cases. The final counter snapshots must be equal too.
    #[test]
    fn link_net_matches_seed_unbounded_backlog(
        width_idx in 0usize..3,
        msgs in proptest::collection::vec(
            ((0u64..8, 0usize..4, 1u64..13), (0u64..48, 1usize..5, any::<u32>(), 0u64..8)),
            1..300,
        ),
    ) {
        use swarm_repro::noc::{LinkNet, TrafficClass, LINK_QUEUE_DEPTH};
        const NUM_LINKS: u32 = 6;
        let cfg = swarm_types::NocConfig {
            link_flits_per_cycle: [1, 2, 4][width_idx],
            ..swarm_types::NocConfig::default()
        };
        let mut net = LinkNet::new(&cfg, NUM_LINKS as usize);
        let mut seed = seed_reference::SeedLinkNet::new(&cfg, NUM_LINKS as usize);
        let mut now = 0u64;
        let mut route = Vec::new();
        let mut burst_links = Vec::new();
        for (step, &((advance, class_idx, flits), (jitter, hops, route_bits, burst))) in
            msgs.iter().enumerate()
        {
            // Mostly the clock creeps forward slower than the links drain;
            // now and then it jumps ahead by up to ~190 cycles.
            now += if advance == 7 { 4 * jitter } else { advance };
            let enter = if advance % 2 == 0 { now.saturating_sub(jitter) } else { now + jitter };
            let class = TrafficClass::ALL[class_idx];
            route.clear();
            route.extend((0..hops).map(|k| (route_bits >> (4 * k)) % NUM_LINKS));
            let copies = if burst == 7 { 20 } else { 1 };
            // A route that comes back to its first link restarts that
            // link's backlog, so only bursts whose first link is not
            // revisited must hit the clamp.
            if copies > 1 && !route[1..].contains(&route[0]) {
                burst_links.push(route[0]);
            }

            for _ in 0..copies {
                let mut got = Vec::new();
                let queued = net.walk(&route, class, flits, enter, |hop| got.push(hop));
                let service = flits.div_ceil(cfg.link_flits_per_cycle).max(1);
                let mut at = enter;
                let mut want_queued = 0;
                prop_assert_eq!(got.len(), route.len());
                for (k, &link) in route.iter().enumerate() {
                    let depart = seed.traverse(link, class, flits, at);
                    prop_assert_eq!(got[k].link, link);
                    prop_assert_eq!(got[k].enter, at, "step {} hop {}", step, k);
                    prop_assert_eq!(got[k].depart, depart, "step {} hop {}", step, k);
                    prop_assert_eq!(got[k].queue_cycles, depart - at - service);
                    want_queued += depart - at - service;
                    at = depart;
                }
                prop_assert_eq!(queued, want_queued, "step {}", step);
            }
        }
        let snapshot = net.snapshot();
        // A burst's 17th copy finds the 16 before it still on the link.
        for &link in &burst_links {
            prop_assert_eq!(snapshot.links[link as usize].max_occupancy, LINK_QUEUE_DEPTH as u64);
        }
        prop_assert_eq!(snapshot, seed.snapshot());
    }

    /// The GVT exchange's link-major fan-in walk leaves the links exactly as
    /// walking every tile's X-Y route to tile 0 in tile order does, on
    /// single-tile, single-row, single-column, odd and 8x8 meshes: after
    /// random prior traffic through `LinkNet::walk`, each exchange must give
    /// equal per-tile queueing totals and, message by message, the same
    /// hops, and the final counter snapshots must be equal.
    #[test]
    fn gvt_fan_in_matches_per_tile_route_walks(
        shape in 0usize..5,
        side in 2u32..10,
        width_idx in 0usize..2,
        rounds in proptest::collection::vec(
            (proptest::collection::vec((any::<u32>(), 0u64..64, 1u64..6), 0..60), 0u64..64, 0u64..4),
            1..4,
        ),
    ) {
        use swarm_repro::noc::{FanIn, LinkNet, Mesh, TrafficClass};
        let (w, h) = [(1, 1), (1, side), (side, 1), (3, 5), (8, 8)][shape];
        let cfg = swarm_types::NocConfig {
            link_flits_per_cycle: [1, 2][width_idx],
            ..swarm_types::NocConfig::default()
        };
        let mesh = Mesh::new(w, h);
        let tiles = w * h;
        let mut fan_net = LinkNet::new(&cfg, mesh.num_links());
        let mut route_net = LinkNet::new(&cfg, mesh.num_links());
        let mut fan_in = FanIn::new(&mesh);
        let mut now = 0u64;
        let mut route = Vec::new();
        for (round, (traffic, offset, record)) in rounds.iter().enumerate() {
            for &(ends, advance, flits) in traffic {
                now += advance;
                let (from, to) = (TileId((ends & 0xffff) % tiles), TileId((ends >> 16) % tiles));
                route.clear();
                mesh.route_links(from, to, |l| route.push(l));
                for net in [&mut fan_net, &mut route_net] {
                    net.walk(&route, TrafficClass::Memory, flits, now, |_| {});
                }
            }
            // The exchange leaves inside the prior traffic's window, so its
            // messages queue behind it.
            let enter = now.saturating_sub(*offset);
            let record = *record != 0;
            fan_net.walk_fan_in(&mut fan_in, TrafficClass::Gvt, 2, enter, record);
            for t in 0..tiles {
                let from = TileId(t);
                route.clear();
                mesh.route_links(from, TileId(0), |l| route.push(l));
                let mut hops = Vec::new();
                let queued =
                    route_net.walk(&route, TrafficClass::Gvt, 2, enter, |hop| hops.push(hop));
                prop_assert_eq!(fan_in.queued()[t as usize], queued, "round {} tile {}", round, t);
                if record {
                    prop_assert_eq!(fan_in.route_hops(from), &hops[..], "round {} tile {}", round, t);
                }
            }
            prop_assert_eq!(fan_in.queued().len(), tiles as usize);
        }
        prop_assert_eq!(fan_net.snapshot(), route_net.snapshot());
    }
}
