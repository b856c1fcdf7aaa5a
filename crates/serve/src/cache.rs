//! Content-addressed result cache.
//!
//! A completed [`PointOutcome`] — the [`RunStats`] or the typed failure —
//! is stored under the [`CanonKey`] of the [`RunPoint`](crate::RunPoint)
//! that produced it. Because every simulation in this reproduction is
//! deterministic, equal keys imply byte-identical outcomes, so a cache hit
//! is indistinguishable from a fresh run — the property the
//! cache-correctness tests pin down.
//!
//! Two tiers:
//!
//! * **memory** — a bounded [`FastHashMap`] holding results and failures
//!   alike; eviction is least-recently *used* (every hit refreshes a
//!   monotonic stamp; the minimum stamp is evicted when over capacity).
//! * **disk** (optional) — one `<canon-key-hex>.json` file per successful
//!   result under the cache directory, written atomically (temp file +
//!   rename). Failures are never written. Disk entries survive server
//!   restarts; a disk hit is promoted back into memory.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use swarm_sim::RunStats;
use swarm_types::{CanonKey, FastHashMap};

use crate::exec::PointOutcome;
use crate::json;
use crate::proto::{CacheReport, CacheSource, Wire};

struct Entry {
    outcome: PointOutcome,
    stamp: u64,
}

/// A bounded in-memory outcome store with an optional on-disk second tier
/// for successful results.
pub struct ResultCache {
    capacity: usize,
    dir: Option<PathBuf>,
    map: FastHashMap<CanonKey, Entry>,
    stamp: u64,
    /// Lookups answered from memory or disk, or by joining a run already in
    /// flight (`hits`), lookups that found nothing (`misses`), and memory
    /// entries evicted to stay under capacity, since startup. `entries` is
    /// filled in by [`ResultCache::report`].
    counters: CacheReport,
}

impl ResultCache {
    /// Create a cache holding at most `capacity` in-memory entries
    /// (clamped to at least 1). When `dir` is given the directory is
    /// created and used as a persistent second tier.
    ///
    /// # Errors
    ///
    /// Fails only if the cache directory cannot be created.
    pub fn new(capacity: usize, dir: Option<PathBuf>) -> io::Result<ResultCache> {
        if let Some(d) = &dir {
            fs::create_dir_all(d)?;
        }
        Ok(ResultCache {
            capacity: capacity.max(1),
            dir,
            map: FastHashMap::default(),
            stamp: 0,
            counters: CacheReport::default(),
        })
    }

    fn bump(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    /// Look up an outcome, counting the lookup. A memory hit refreshes
    /// the entry's recency; a disk hit promotes the entry into memory.
    pub fn lookup(&mut self, key: CanonKey) -> Option<(PointOutcome, CacheSource)> {
        let stamp = self.bump();
        if let Some(entry) = self.map.get_mut(&key) {
            entry.stamp = stamp;
            self.counters.hits += 1;
            return Some((entry.outcome.clone(), CacheSource::Memory));
        }
        if let Some(stats) = self.load_from_disk(key) {
            self.counters.hits += 1;
            self.counters.disk_hits += 1;
            self.put_in_memory(key, Ok(stats.clone()));
            return Some((Ok(stats), CacheSource::Disk));
        }
        self.counters.misses += 1;
        None
    }

    /// Count a lookup answered by a run already in flight: a hit whose
    /// outcome the cache receives when that run completes.
    pub fn count_joined_hit(&mut self) {
        self.counters.hits += 1;
    }

    /// Insert a completed outcome, evicting the least-recently-used memory
    /// entry if over capacity. A successful result is also written through
    /// to disk when configured; a failure stays in memory only.
    pub fn insert(&mut self, key: CanonKey, outcome: PointOutcome) {
        if let (Some(dir), Ok(stats)) = (&self.dir, &outcome) {
            // Disk write errors are deliberately non-fatal: the cache is an
            // accelerator, and a full disk must not fail the simulation
            // whose result we are storing.
            let _ = write_entry(dir, key, stats);
        }
        self.put_in_memory(key, outcome);
    }

    fn put_in_memory(&mut self, key: CanonKey, outcome: PointOutcome) {
        let stamp = self.bump();
        self.map.insert(key, Entry { outcome, stamp });
        while self.map.len() > self.capacity {
            let oldest = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(&k, _)| k)
                .expect("map is over capacity, so it is non-empty");
            self.map.remove(&oldest);
            self.counters.evictions += 1;
        }
    }

    fn load_from_disk(&self, key: CanonKey) -> Option<RunStats> {
        let dir = self.dir.as_ref()?;
        let text = fs::read_to_string(entry_path(dir, key)).ok()?;
        // A corrupt or truncated file is treated as a miss; the point is
        // re-simulated and the entry rewritten.
        let value = json::parse(&text).ok()?;
        RunStats::from_json(&value).ok()
    }

    /// Counters since startup, with the in-memory entries resident now.
    pub fn report(&self) -> CacheReport {
        CacheReport { entries: self.map.len() as u64, ..self.counters }
    }
}

fn entry_path(dir: &Path, key: CanonKey) -> PathBuf {
    dir.join(format!("{}.json", key.hex()))
}

fn write_entry(dir: &Path, key: CanonKey, stats: &RunStats) -> io::Result<()> {
    let final_path = entry_path(dir, key);
    let tmp_path = dir.join(format!("{}.tmp.{}", key.hex(), std::process::id()));
    {
        let mut file = fs::File::create(&tmp_path)?;
        file.write_all(stats.to_json().render().as_bytes())?;
        file.write_all(b"\n")?;
    }
    fs::rename(&tmp_path, &final_path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{FailureKind, PointFailure};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("swarm_serve_cache_{}_{}_{}", std::process::id(), tag, n))
    }

    fn key(n: u64) -> CanonKey {
        CanonKey { hi: n, lo: !n }
    }

    fn stats(tag: &str) -> RunStats {
        RunStats { app: tag.to_string(), tasks_committed: tag.len() as u64, ..RunStats::default() }
    }

    #[test]
    fn memory_hit_and_miss_counting() {
        let mut cache = ResultCache::new(8, None).unwrap();
        assert!(cache.lookup(key(1)).is_none());
        cache.insert(key(1), Ok(stats("a")));
        let (got, source) = cache.lookup(key(1)).unwrap();
        assert_eq!(got, Ok(stats("a")));
        assert_eq!(source, CacheSource::Memory);
        let c = cache.report();
        assert_eq!((c.hits, c.misses, c.disk_hits, c.entries), (1, 1, 0, 1));
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let mut cache = ResultCache::new(2, None).unwrap();
        cache.insert(key(1), Ok(stats("one")));
        cache.insert(key(2), Ok(stats("two")));
        // Touch key 1 so key 2 becomes the oldest.
        assert!(cache.lookup(key(1)).is_some());
        cache.insert(key(3), Ok(stats("three")));
        assert_eq!(cache.report().entries, 2);
        assert_eq!(cache.report().evictions, 1);
        // A memory hit never evicts, so the order of these probes is free.
        assert!(cache.lookup(key(3)).is_some());
        assert!(cache.lookup(key(1)).is_some());
        assert!(cache.lookup(key(2)).is_none(), "LRU entry should be evicted");
        let c = cache.report();
        assert_eq!((c.hits, c.misses, c.evictions), (3, 1, 1));
    }

    #[test]
    fn failures_are_memoized_in_memory_but_never_written_to_disk() {
        let dir = temp_dir("failure");
        let failure = PointFailure { kind: FailureKind::Sim, message: "deadlock".into() };
        let mut cache = ResultCache::new(8, Some(dir.clone())).unwrap();
        cache.insert(key(5), Err(failure.clone()));
        let (got, source) = cache.lookup(key(5)).unwrap();
        assert_eq!((got, source), (Err(failure), CacheSource::Memory));
        assert_eq!(cache.report().entries, 1, "a failure occupies a bounded memory entry");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0, "no failure reaches disk");
        // A restarted cache over the same directory has nothing to serve.
        let mut restarted = ResultCache::new(8, Some(dir.clone())).unwrap();
        assert!(restarted.lookup(key(5)).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_round_trip_and_promotion() {
        let dir = temp_dir("round_trip");
        {
            let mut cache = ResultCache::new(8, Some(dir.clone())).unwrap();
            cache.insert(key(7), Ok(stats("persisted")));
        }
        // A fresh cache instance (empty memory) finds the entry on disk.
        let mut cache = ResultCache::new(8, Some(dir.clone())).unwrap();
        let (got, source) = cache.lookup(key(7)).unwrap();
        assert_eq!(got, Ok(stats("persisted")));
        assert_eq!(source, CacheSource::Disk);
        assert_eq!(cache.report().disk_hits, 1);
        // Promoted: the second lookup is a memory hit.
        let (_, source) = cache.lookup(key(7)).unwrap();
        assert_eq!(source, CacheSource::Memory);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_disk_entry_is_a_miss() {
        let dir = temp_dir("corrupt");
        fs::create_dir_all(&dir).unwrap();
        fs::write(entry_path(&dir, key(9)), "{\"scheduler\":\"Hints\"").unwrap();
        let mut cache = ResultCache::new(8, Some(dir.clone())).unwrap();
        assert!(cache.lookup(key(9)).is_none());
        assert_eq!(cache.report().misses, 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
