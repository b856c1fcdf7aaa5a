//! Line-granular model of the tiled cache hierarchy.
//!
//! The modelled machine (Table II of the paper) has per-core L1s, a per-tile
//! shared L2, and a fully-shared static-NUCA L3 with one slice (bank) per
//! tile. Directory state is tracked per line at tile granularity: which tiles
//! hold a copy, and which tile is the (dirty) owner.
//!
//! The model answers one question per access: *where was the line found, and
//! which tiles had to be invalidated?* The simulator combines the answer with
//! the mesh model to charge cycles and network flits, so this crate stays
//! independent of the network topology.
//!
//! This is the hottest code in the simulator (every speculative load/store
//! funnels through [`CacheModel::access`]), so the directory is an
//! open-addressed table keyed by a single [`swarm_types::fast_mix64`] hash,
//! sharer masks are walked with `trailing_zeros`, and a write reports its
//! invalidations as the sharer mask it walked ([`Invalidated`], an iterator
//! over it) rather than a list — a steady-state access performs no heap
//! allocation. Each directory entry also records the line's L3 slot and
//! which L1s may hold it, and a repeat of the previous access probes no
//! cache set at all (see [`CacheModel`]).

use swarm_types::config::{L1_LATENCY, L2_LATENCY, L3_LATENCY, MEM_LATENCY};
use swarm_types::{CacheConfig, CoreId, LineAddr, TileId};

use crate::lru::{LruList, LruSet, NIL};
use crate::table::{OpenTable, Probe};

/// Whether an access reads or writes the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Load.
    Read,
    /// Store (requires exclusive ownership; invalidates other copies).
    Write,
}

/// Where an access was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// Served by the requesting core's L1.
    L1,
    /// Served by the requesting tile's L2.
    L2,
    /// Forwarded from another tile's L2 (cache-to-cache transfer through the
    /// home directory).
    RemoteL2 {
        /// Tile whose L2 supplied the data.
        owner: TileId,
    },
    /// Served by the L3 slice at the line's home tile.
    L3 {
        /// Static-NUCA home tile of the line.
        home: TileId,
    },
    /// Served by main memory (through the home tile's memory controller path).
    Memory {
        /// Static-NUCA home tile of the line.
        home: TileId,
    },
}

/// The tiles a write invalidated, yielded without allocating.
///
/// This is the sharer mask [`CacheModel::access`] walked, not a copy of its
/// result: set bits lowest first, each bit's alias group `{b, b + 64, ...}`
/// (a bit stands for every tile of its group beyond 64 tiles) in ascending
/// order, the writing tile skipped. A read invalidates nothing and reports
/// an empty mask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Invalidated {
    /// Alias-group bits not walked yet.
    bits: u64,
    /// Next tile of the current alias group; `>= num_tiles` when exhausted.
    next: usize,
    exclude: usize,
    num_tiles: usize,
}

impl Invalidated {
    fn new(mask: u64, exclude: TileId, num_tiles: usize) -> Self {
        Invalidated { bits: mask, next: num_tiles, exclude: exclude.index(), num_tiles }
    }
}

impl Iterator for Invalidated {
    type Item = TileId;

    #[inline]
    fn next(&mut self) -> Option<TileId> {
        loop {
            if self.next < self.num_tiles {
                let t = self.next;
                self.next += 64;
                if t != self.exclude {
                    return Some(TileId(t as u32));
                }
            } else if self.bits == 0 {
                return None;
            } else {
                self.next = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
            }
        }
    }
}

/// Result of one access against the cache model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Where the data came from.
    pub level: HitLevel,
    /// Cache-array latency in cycles (network latency not included).
    pub base_latency: u64,
    /// Tiles whose copies had to be invalidated (writes only).
    pub invalidated: Invalidated,
    /// Whether the access left the requesting tile (used for traffic).
    pub remote: bool,
}

/// Per-line directory state.
///
/// # Coarse sharer tracking beyond 64 tiles
///
/// `sharers` has one bit per tile for meshes of up to 64 tiles (the paper's
/// largest machine). On larger meshes, tile `t` maps to bit `t % 64`, so a
/// bit stands for the whole *alias group* `{b, b + 64, b + 128, ...}`: the
/// directory only knows that *some* tile of the group holds a copy. All
/// operations treat a set bit conservatively — writes invalidate every tile
/// of the group, and cache-to-cache forwarding picks the lowest-indexed
/// group member — which keeps coherence decisions correct (no stale copy
/// survives) at the cost of extra invalidation traffic, exactly like a
/// coarse-vector directory.
///
/// # L1 holders: a superset
///
/// `l1_holders` has bit `core % 64` set for every core whose L1 *may* hold
/// the line, so an invalidation probes only those L1s. A bit is set on every
/// fill and cleared only when an invalidation removes the line, and only on
/// machines of at most 64 cores, where a bit is one core. Capacity evictions
/// leave it set, and beyond 64 cores a bit stands for every core of its
/// class and is never cleared; either way the mask stays a superset of the
/// true holders, and probing an L1 that lacks the line changes nothing.
#[derive(Debug, Clone, Copy)]
struct LineDir {
    /// Tiles holding a copy (bit per alias group of tiles; see above).
    sharers: u64,
    /// Cores whose L1 may hold the line (see above).
    l1_holders: u64,
    /// Tile holding the line in modified state ([`NO_OWNER`] if none;
    /// always exact).
    owner: u32,
    /// The line's slot in its home L3 slice's recency list, [`NIL`] while it
    /// is not in the L3, so the per-access L3 promote needs no lookup.
    l3_slot: u32,
}

/// [`LineDir::owner`] of a line no tile holds in modified state.
const NO_OWNER: u32 = u32::MAX;

impl LineDir {
    /// A line no cache has seen.
    const EMPTY: LineDir = LineDir { sharers: 0, l1_holders: 0, owner: NO_OWNER, l3_slot: NIL };

    fn owner(&self) -> Option<TileId> {
        (self.owner != NO_OWNER).then_some(TileId(self.owner))
    }

    /// Record that `tile` read (`Read`) or took exclusive ownership of
    /// (`Write`) the line.
    #[inline]
    fn record(&mut self, kind: AccessKind, tile: TileId) {
        match kind {
            AccessKind::Read => {
                self.sharers |= CacheModel::sharer_bit(tile);
                if self.owner != tile.0 {
                    // A remote read demotes the owner to sharer.
                    self.owner = NO_OWNER;
                }
            }
            AccessKind::Write => {
                self.sharers = CacheModel::sharer_bit(tile);
                self.owner = tile.0;
            }
        }
    }
}

/// Open-addressed directory: line address -> [`LineDir`], on the shared
/// [`OpenTable`] core (load factor <= 0.5). Entries are 24 bytes and stored
/// flat, so a steady-state lookup is one hash, one probe and no pointer
/// chasing — this replaces the seed's `HashMap<LineAddr, LineDir>`, which
/// re-hashed every line with SipHash twice per access.
#[derive(Debug, Clone)]
struct DirTable {
    table: OpenTable<LineDir>,
    len: usize,
}

impl DirTable {
    fn new() -> Self {
        DirTable { table: OpenTable::new(1024, LineDir::EMPTY), len: 0 }
    }

    /// Entry position for `key`, default-inserting it if absent; returns the
    /// position and the value the entry held *before* any insertion (the
    /// snapshot an access reasons about). One probe serves both the snapshot
    /// read and the directory update; the position stays valid as long as no
    /// other entry is inserted or removed.
    #[inline]
    fn entry_snapshot(&mut self, key: u64) -> (usize, LineDir) {
        let pos = match self.table.probe(key) {
            Probe::Found(pos) => return (pos, self.table.val_at(pos)),
            Probe::Vacant(pos) => pos,
        };
        let pos = if (self.len + 1) * 2 > self.table.slots() {
            self.table.grow(LineDir::EMPTY);
            match self.table.probe(key) {
                Probe::Vacant(pos) => pos,
                Probe::Found(_) => unreachable!("key cannot appear during growth"),
            }
        } else {
            pos
        };
        self.table.occupy(pos, key, LineDir::EMPTY);
        self.len += 1;
        (pos, LineDir::EMPTY)
    }

    #[inline]
    fn val_at(&self, pos: usize) -> LineDir {
        self.table.val_at(pos)
    }

    #[inline]
    fn val_at_mut(&mut self, pos: usize) -> &mut LineDir {
        self.table.val_at_mut(pos)
    }

    /// Note that `key` left its L3 slice (an eviction).
    fn clear_l3_slot(&mut self, key: u64) {
        match self.table.probe(key) {
            Probe::Found(pos) => self.table.val_at_mut(pos).l3_slot = NIL,
            Probe::Vacant(_) => unreachable!("a line in the L3 has a directory entry"),
        }
    }

    /// Remove `key`'s entry, returning what it held.
    fn remove(&mut self, key: u64) -> Option<LineDir> {
        match self.table.probe(key) {
            Probe::Found(pos) => {
                let dir = self.table.val_at(pos);
                self.table.remove_at(pos);
                self.len -= 1;
                Some(dir)
            }
            Probe::Vacant(_) => None,
        }
    }
}

/// The previous access, remembered so that a repeat of it skips every probe
/// whose outcome that access already fixed.
#[derive(Debug, Clone, Copy)]
struct LastAccess {
    core: CoreId,
    line: LineAddr,
    /// Directory position of `line`; valid until the next access to another
    /// line (which may insert an entry) or a flush (which removes one).
    dir_pos: usize,
}

/// The cache hierarchy model.
///
/// # Repeat accesses
///
/// An access by the same core to the same line as the access just before
/// it is served without probing any cache set: the previous access left the
/// line most recently used in the core's L1, its tile's L2 and its home L3
/// slice, so the repeat is an L1 hit that changes no recency order. Only
/// the directory entry is updated, through the remembered position — for a
/// write, with the same invalidation walk as any other write.
///
/// # Example
///
/// ```
/// use swarm_mem::{AccessKind, CacheModel, HitLevel};
/// use swarm_types::{CacheConfig, CoreId, LineAddr};
///
/// let mut caches = CacheModel::new(&CacheConfig::default(), 4, 4);
/// let line = LineAddr(10);
/// let first = caches.access(CoreId(0), line, AccessKind::Read);
/// assert!(matches!(first.level, HitLevel::Memory { .. }));
/// let second = caches.access(CoreId(0), line, AccessKind::Read);
/// assert_eq!(second.level, HitLevel::L1);
/// ```
#[derive(Debug, Clone)]
pub struct CacheModel {
    cores_per_tile: u32,
    /// `log2(cores_per_tile)` when it is a power of two (it always is on the
    /// paper's machines): turns the per-access core->tile divide into a shift.
    tile_shift: Option<u32>,
    num_tiles: usize,
    /// Whether every core has an L1-holder bit of its own (at most 64
    /// cores), so an invalidation may clear the bits it walks.
    exact_holders: bool,
    l1: Vec<LruSet>,
    l2: Vec<LruSet>,
    /// One recency list per L3 slice; each resident line's slot lives in its
    /// directory entry, so the L3 needs no key index.
    l3: Vec<LruList>,
    dir: DirTable,
    last: Option<LastAccess>,
    l1_hits: u64,
    l2_hits: u64,
    remote_l2_hits: u64,
    l3_hits: u64,
    mem_accesses: u64,
}

impl CacheModel {
    /// Create a cache model for `num_tiles` tiles of `cores_per_tile` cores.
    ///
    /// # Panics
    ///
    /// Panics if `num_tiles` or `cores_per_tile` is zero.
    pub fn new(cfg: &CacheConfig, num_tiles: usize, cores_per_tile: u32) -> Self {
        assert!(num_tiles > 0, "num_tiles must be positive");
        assert!(cores_per_tile > 0, "cores_per_tile must be positive");
        let num_cores = num_tiles * cores_per_tile as usize;
        CacheModel {
            l1: (0..num_cores).map(|_| LruSet::new(cfg.l1_lines.max(1))).collect(),
            l2: (0..num_tiles).map(|_| LruSet::new(cfg.l2_lines.max(1))).collect(),
            l3: (0..num_tiles).map(|_| LruList::new(cfg.l3_lines_per_tile.max(1))).collect(),
            dir: DirTable::new(),
            last: None,
            tile_shift: cores_per_tile.is_power_of_two().then(|| cores_per_tile.trailing_zeros()),
            cores_per_tile,
            num_tiles,
            exact_holders: num_cores <= 64,
            l1_hits: 0,
            l2_hits: 0,
            remote_l2_hits: 0,
            l3_hits: 0,
            mem_accesses: 0,
        }
    }

    /// Static-NUCA home tile of a line.
    pub fn home_tile(&self, line: LineAddr) -> TileId {
        TileId(swarm_types::hash_to_range(line.0, self.num_tiles) as u32)
    }

    /// The tile `core` belongs to.
    #[inline]
    pub fn tile_of(&self, core: CoreId) -> TileId {
        match self.tile_shift {
            Some(shift) => TileId(core.0 >> shift),
            None => core.tile(self.cores_per_tile),
        }
    }

    fn sharer_bit(tile: TileId) -> u64 {
        1u64 << (tile.index() as u64 % 64)
    }

    fn holder_bit(core: usize) -> u64 {
        1u64 << (core % 64)
    }

    /// Perform one access from `core` to `line` and report where it was
    /// served from and which tiles were invalidated.
    pub fn access(&mut self, core: CoreId, line: LineAddr, kind: AccessKind) -> AccessOutcome {
        let tile = self.tile_of(core);
        if let Some(last) = self.last {
            if last.core == core && last.line == line {
                return self.repeat_access(core, tile, line.0, last.dir_pos, kind);
            }
        }
        let key = line.0;

        // Probe-and-fill in one pass: the line always ends the access resident
        // in the local L1 and L2, and nothing below touches those two sets
        // (the invalidation walk skips the local tile), so inserting the line
        // on a miss here — rather than after the directory update — leaves
        // exactly the same recency order and evictions.
        let l1_hit = self.l1[core.index()].touch_or_insert(key);
        // The seed short-circuited the L2 touch on an L1 hit; keep that
        // order (the L2 recency is then only refreshed by the fill below).
        let l2_touch_hit = !l1_hit && self.l2[tile.index()].touch_or_insert(key);
        let l2_hit = l1_hit || l2_touch_hit;

        // One directory probe yields both the pre-access snapshot and the
        // entry position for the update at the end of the access.
        let (dir_pos, dir_snapshot) = self.dir.entry_snapshot(key);
        // The home tile is derived from the paper's line hash (hash64, not
        // fast_mix64: simulated-architecture decisions must stay
        // bit-identical) and computed exactly once per access.
        let home = TileId(swarm_types::hash_to_range(key, self.num_tiles) as u32);

        // Determine where the data is found.
        let (level, base_latency, remote) = if l1_hit {
            self.l1_hits += 1;
            (HitLevel::L1, L1_LATENCY, false)
        } else if l2_hit {
            self.l2_hits += 1;
            (HitLevel::L2, L1_LATENCY + L2_LATENCY, false)
        } else {
            // Miss in the local tile: consult the (home) directory.
            // Without an owner, the lowest-indexed other sharer forwards (on
            // <= 64-tile meshes alias groups are singletons, so this is exact).
            let remote_holder = dir_snapshot
                .owner()
                .filter(|o| *o != tile)
                .or_else(|| Invalidated::new(dir_snapshot.sharers, tile, self.num_tiles).next());
            if let Some(owner) = remote_holder {
                self.remote_l2_hits += 1;
                (HitLevel::RemoteL2 { owner }, L1_LATENCY + L2_LATENCY * 2 + L3_LATENCY, true)
            } else if dir_snapshot.l3_slot != NIL {
                self.l3_hits += 1;
                (HitLevel::L3 { home }, L1_LATENCY + L2_LATENCY + L3_LATENCY, true)
            } else {
                self.mem_accesses += 1;
                (
                    HitLevel::Memory { home },
                    L1_LATENCY + L2_LATENCY + L3_LATENCY + MEM_LATENCY,
                    true,
                )
            }
        };

        let (invalidated, holders) = self.invalidate_for(kind, key, tile, dir_snapshot);

        // The line ends the access most recently used in its home L3 slice;
        // a fill that evicts another line clears that line's slot.
        let l3_slot = if dir_snapshot.l3_slot != NIL {
            self.l3[home.index()].promote(dir_snapshot.l3_slot);
            dir_snapshot.l3_slot
        } else {
            let (slot, evicted) = self.l3[home.index()].push_front(key);
            if let Some(victim) = evicted {
                self.dir.clear_l3_slot(victim);
            }
            slot
        };

        // Update the directory. `dir_pos` is still valid: nothing was
        // inserted into or removed from the directory since the snapshot
        // probe.
        let dir = self.dir.val_at_mut(dir_pos);
        dir.record(kind, tile);
        dir.l1_holders = holders | Self::holder_bit(core.index());
        dir.l3_slot = l3_slot;
        // The local L1 and L2 were already probed-and-filled above; the only
        // leftover fill is the L2 refresh on an L1 hit, which the combined
        // probe skips (it never reaches the L2 in that case).
        if l1_hit {
            self.l2[tile.index()].insert(key);
        }
        self.last = Some(LastAccess { core, line, dir_pos });

        AccessOutcome { level, base_latency, invalidated, remote }
    }

    /// A repeat of the previous access's core and line: an L1 hit that
    /// leaves every recency order as it is (see the type docs), so only the
    /// directory entry at `dir_pos` changes.
    fn repeat_access(
        &mut self,
        core: CoreId,
        tile: TileId,
        key: u64,
        dir_pos: usize,
        kind: AccessKind,
    ) -> AccessOutcome {
        self.l1_hits += 1;
        let (invalidated, holders) = self.invalidate_for(kind, key, tile, self.dir.val_at(dir_pos));
        let dir = self.dir.val_at_mut(dir_pos);
        dir.record(kind, tile);
        dir.l1_holders = holders | Self::holder_bit(core.index());
        AccessOutcome { level: HitLevel::L1, base_latency: L1_LATENCY, invalidated, remote: false }
    }

    /// The tiles an access of `kind` from `tile` invalidates, given the
    /// line's directory entry `dir`, with their copies already removed:
    /// a write drops the line from every other sharer tile's L2 and from
    /// the L1s of those tiles' cores that may hold it (each sharer-mask bit
    /// covers its whole alias group, see [`LineDir`]). Also returns the L1
    /// holder mask left behind. A read invalidates nothing.
    fn invalidate_for(
        &mut self,
        kind: AccessKind,
        key: u64,
        tile: TileId,
        dir: LineDir,
    ) -> (Invalidated, u64) {
        if kind == AccessKind::Read {
            return (Invalidated::new(0, tile, self.num_tiles), dir.l1_holders);
        }
        let invalidated = Invalidated::new(dir.sharers, tile, self.num_tiles);
        let mut holders = dir.l1_holders;
        let cores_per_tile = self.cores_per_tile as usize;
        for t in invalidated.clone() {
            self.l2[t.index()].remove(key);
            let first_core = t.index() * cores_per_tile;
            for c in first_core..first_core + cores_per_tile {
                let bit = Self::holder_bit(c);
                if holders & bit != 0 {
                    self.l1[c].remove(key);
                    if self.exact_holders {
                        holders &= !bit;
                    }
                }
            }
        }
        (invalidated, holders)
    }

    /// Drop a line from every cache and the directory. Used when the
    /// simulator wants to model explicit flushes in tests.
    pub fn flush_line(&mut self, line: LineAddr) {
        let key = line.0;
        for l1 in &mut self.l1 {
            l1.remove(key);
        }
        for l2 in &mut self.l2 {
            l2.remove(key);
        }
        if let Some(dir) = self.dir.remove(key) {
            if dir.l3_slot != NIL {
                let home = self.home_tile(line);
                self.l3[home.index()].remove(dir.l3_slot);
            }
        }
        // The removal may have moved other entries, the remembered one too.
        self.last = None;
    }

    /// (l1, l2, remote L2, l3, memory) hit counters.
    pub fn hit_counters(&self) -> (u64, u64, u64, u64, u64) {
        (self.l1_hits, self.l2_hits, self.remote_l2_hits, self.l3_hits, self.mem_accesses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CacheModel {
        CacheModel::new(&CacheConfig::default(), 4, 4)
    }

    #[test]
    fn first_access_misses_to_memory_then_hits_l1() {
        let mut m = model();
        let line = LineAddr(77);
        let a = m.access(CoreId(0), line, AccessKind::Read);
        assert!(matches!(a.level, HitLevel::Memory { .. }));
        assert!(a.remote);
        let b = m.access(CoreId(0), line, AccessKind::Read);
        assert_eq!(b.level, HitLevel::L1);
        assert!(!b.remote);
        assert_eq!(b.base_latency, L1_LATENCY);
    }

    #[test]
    fn same_tile_other_core_hits_l2() {
        let mut m = model();
        let line = LineAddr(5);
        m.access(CoreId(0), line, AccessKind::Read);
        let a = m.access(CoreId(1), line, AccessKind::Read);
        assert_eq!(a.level, HitLevel::L2);
    }

    #[test]
    fn other_tile_gets_remote_l2_forward() {
        let mut m = model();
        let line = LineAddr(5);
        m.access(CoreId(0), line, AccessKind::Read); // tile 0
        let a = m.access(CoreId(4), line, AccessKind::Read); // tile 1
        assert_eq!(a.level, HitLevel::RemoteL2 { owner: TileId(0) });
        assert!(a.remote);
    }

    #[test]
    fn write_invalidates_other_sharers() {
        let mut m = model();
        let line = LineAddr(9);
        m.access(CoreId(0), line, AccessKind::Read); // tile 0 shares
        m.access(CoreId(4), line, AccessKind::Read); // tile 1 shares
        let w = m.access(CoreId(8), line, AccessKind::Write); // tile 2 writes
        assert_eq!(w.invalidated.collect::<Vec<_>>(), vec![TileId(0), TileId(1)]);
        // After the invalidation, tile 0 re-reads remotely from tile 2.
        let r = m.access(CoreId(0), line, AccessKind::Read);
        assert_eq!(r.level, HitLevel::RemoteL2 { owner: TileId(2) });
    }

    #[test]
    fn write_then_local_read_hits_l1() {
        let mut m = model();
        let line = LineAddr(13);
        m.access(CoreId(2), line, AccessKind::Write);
        let r = m.access(CoreId(2), line, AccessKind::Read);
        assert_eq!(r.level, HitLevel::L1);
    }

    #[test]
    fn l1_capacity_eviction_falls_back_to_l2() {
        let cfg = CacheConfig { l1_lines: 2, ..Default::default() };
        let mut m = CacheModel::new(&cfg, 1, 1);
        m.access(CoreId(0), LineAddr(1), AccessKind::Read);
        m.access(CoreId(0), LineAddr(2), AccessKind::Read);
        m.access(CoreId(0), LineAddr(3), AccessKind::Read); // evicts line 1 from L1
        let a = m.access(CoreId(0), LineAddr(1), AccessKind::Read);
        assert_eq!(a.level, HitLevel::L2);
    }

    #[test]
    fn flush_line_forces_memory_access() {
        let mut m = model();
        let line = LineAddr(21);
        m.access(CoreId(0), line, AccessKind::Read);
        m.flush_line(line);
        let a = m.access(CoreId(0), line, AccessKind::Read);
        assert!(matches!(a.level, HitLevel::Memory { .. }));
    }

    #[test]
    fn home_tile_is_deterministic_and_in_range() {
        let m = model();
        for l in 0..100 {
            let h = m.home_tile(LineAddr(l));
            assert!(h.index() < 4);
            assert_eq!(h, m.home_tile(LineAddr(l)));
        }
    }

    #[test]
    fn hit_counters_sum_to_access_count() {
        let mut m = model();
        for i in 0..50u64 {
            m.access(CoreId((i % 16) as u32), LineAddr(i % 7), AccessKind::Read);
        }
        let (a, b, c, d, e) = m.hit_counters();
        assert_eq!(a + b + c + d + e, 50);
    }

    /// Regression test for the >64-tile directory bug: on an 8x16 mesh
    /// (128 tiles), tile 70 aliases tile 6 in the sharer mask (70 % 64 == 6).
    /// The seed scanned only tiles 0..64 when collecting sharers, so tile 70
    /// was never invalidated and never found as a forwarder.
    #[test]
    fn tiles_beyond_64_are_invalidated_and_forward() {
        let mut m = CacheModel::new(&CacheConfig::default(), 128, 1);
        let line = LineAddr(1000);

        // Tile 70 reads the line; its alias-group bit (6) is set.
        m.access(CoreId(70), line, AccessKind::Read);

        // A reader on another tile must find a forwarder in the alias group.
        let r = m.access(CoreId(0), line, AccessKind::Read);
        match r.level {
            HitLevel::RemoteL2 { owner } => {
                assert!(
                    owner.index() % 64 == 6,
                    "forwarder {owner} is not in tile 70's alias group"
                )
            }
            other => panic!("expected a remote forward, got {other:?}"),
        }

        // A writer on tile 1 must invalidate the whole alias group, tile 70
        // included (tile 0 read above, so group 0 = {0, 64} is invalidated
        // too), in mask-walk order: bit 0's group, then bit 6's.
        let w = m.access(CoreId(1), line, AccessKind::Write);
        assert_eq!(
            w.invalidated.collect::<Vec<_>>(),
            vec![TileId(0), TileId(64), TileId(6), TileId(70)]
        );

        // Tile 70's copy is gone: its next read must leave the tile.
        let r = m.access(CoreId(70), line, AccessKind::Read);
        assert!(r.remote, "tile 70 still had a local copy after invalidation");
        assert_eq!(r.level, HitLevel::RemoteL2 { owner: TileId(1) });
    }

    /// On <= 64-tile meshes alias groups are singletons, so coarse tracking
    /// degenerates to the exact per-tile behavior.
    #[test]
    fn alias_groups_are_exact_below_64_tiles() {
        let mut m = CacheModel::new(&CacheConfig::default(), 64, 1);
        let line = LineAddr(4242);
        for t in [0u32, 5, 63] {
            m.access(CoreId(t), line, AccessKind::Read);
        }
        let w = m.access(CoreId(7), line, AccessKind::Write);
        assert_eq!(w.invalidated.collect::<Vec<_>>(), vec![TileId(0), TileId(5), TileId(63)]);
    }
}
