//! Content-addressed result cache.
//!
//! A completed [`RunStats`] is stored under the [`CanonKey`] of the
//! [`RunPoint`](crate::RunPoint) that produced it. Because every
//! simulation in this reproduction is deterministic, equal keys imply
//! byte-identical results, so a cache hit is indistinguishable from a
//! fresh run — the property the cache-correctness tests pin down.
//!
//! Two tiers:
//!
//! * **memory** — a bounded [`FastHashMap`]; eviction is least-recently
//!   *used* (every hit refreshes a monotonic stamp; the minimum stamp is
//!   evicted when over capacity).
//! * **disk** (optional) — one `<canon-key-hex>.json` file per entry under
//!   the cache directory, written atomically (temp file + rename). Disk
//!   entries survive server restarts; a disk hit is promoted back into
//!   memory.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use swarm_sim::RunStats;
use swarm_types::{CanonKey, FastHashMap};

use crate::json;
use crate::proto::{stats_from_json, stats_to_json, CacheSource};

/// Monotonic counters describing cache behaviour since startup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups answered from memory or disk.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Subset of `hits` answered from the on-disk store.
    pub disk_hits: u64,
    /// Memory entries evicted to stay under capacity.
    pub evictions: u64,
    /// Results inserted.
    pub inserts: u64,
    /// Inserts whose write-through to the disk tier failed. Internal for
    /// now: no protocol event reports it.
    pub disk_write_errors: u64,
}

struct Entry {
    stats: RunStats,
    stamp: u64,
}

/// A bounded in-memory result store with an optional on-disk second tier.
pub struct ResultCache {
    capacity: usize,
    dir: Option<PathBuf>,
    map: FastHashMap<CanonKey, Entry>,
    stamp: u64,
    counters: CacheCounters,
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
            counters: CacheCounters::default(),
        })
    }

    fn bump(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    /// Look up a result, counting the outcome. A memory hit refreshes the
    /// entry's recency; a disk hit promotes the entry into memory.
    pub fn lookup(&mut self, key: CanonKey) -> Option<(RunStats, CacheSource)> {
        let stamp = self.bump();
        if let Some(entry) = self.map.get_mut(&key) {
            entry.stamp = stamp;
            self.counters.hits += 1;
            return Some((entry.stats.clone(), CacheSource::Memory));
        }
        if let Some(stats) = self.load_from_disk(key) {
            self.counters.hits += 1;
            self.counters.disk_hits += 1;
            self.put_in_memory(key, stats.clone());
            return Some((stats, CacheSource::Disk));
        }
        self.counters.misses += 1;
        None
    }

    /// Memory-only lookup with no counter or recency side effects. Used
    /// when a waiter re-checks a key another client was simulating — the
    /// hit was already tallied when the waiter first resolved the point.
    pub fn peek(&self, key: CanonKey) -> Option<RunStats> {
        self.map.get(&key).map(|e| e.stats.clone())
    }

    /// Insert a completed result, writing through to disk when configured
    /// and evicting the least-recently-used memory entry if over capacity.
    pub fn insert(&mut self, key: CanonKey, stats: RunStats) {
        self.counters.inserts += 1;
        if let Some(dir) = self.dir.clone() {
            // Disk write errors are deliberately non-fatal: the cache is an
            // accelerator, and a full disk must not fail the simulation
            // whose result we are storing. They are counted instead.
            if write_entry(&dir, key, &stats).is_err() {
                self.counters.disk_write_errors += 1;
            }
        }
        self.put_in_memory(key, stats);
    }

    fn put_in_memory(&mut self, key: CanonKey, stats: RunStats) {
        let stamp = self.bump();
        self.map.insert(key, Entry { stats, stamp });
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
        stats_from_json(&value).ok()
    }

    /// Counters since startup.
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }

    /// Number of in-memory entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the in-memory tier is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
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
        file.write_all(stats_to_json(stats).render().as_bytes())?;
        file.write_all(b"\n")?;
    }
    fs::rename(&tmp_path, &final_path)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        cache.insert(key(1), stats("a"));
        let (got, source) = cache.lookup(key(1)).unwrap();
        assert_eq!(got, stats("a"));
        assert_eq!(source, CacheSource::Memory);
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.disk_hits, c.inserts), (1, 1, 0, 1));
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let mut cache = ResultCache::new(2, None).unwrap();
        cache.insert(key(1), stats("one"));
        cache.insert(key(2), stats("two"));
        // Touch key 1 so key 2 becomes the oldest.
        assert!(cache.lookup(key(1)).is_some());
        cache.insert(key(3), stats("three"));
        assert_eq!(cache.len(), 2);
        assert!(cache.peek(key(2)).is_none(), "LRU entry should be evicted");
        assert!(cache.peek(key(1)).is_some());
        assert!(cache.peek(key(3)).is_some());
        assert_eq!(cache.counters().evictions, 1);
    }

    #[test]
    fn disk_write_failures_are_counted_and_non_fatal() {
        let dir = temp_dir("write_error");
        let mut cache = ResultCache::new(8, Some(dir.clone())).unwrap();
        // Replace the cache directory with a regular file: every write-through
        // now fails.
        fs::remove_dir_all(&dir).unwrap();
        fs::write(&dir, b"not a directory").unwrap();
        cache.insert(key(1), stats("a"));
        cache.insert(key(2), stats("b"));
        let c = cache.counters();
        assert_eq!((c.inserts, c.disk_write_errors), (2, 2));
        // The memory tier still serves both results.
        assert_eq!(cache.lookup(key(1)).unwrap(), (stats("a"), CacheSource::Memory));
        assert_eq!(cache.lookup(key(2)).unwrap().0, stats("b"));
        fs::remove_file(&dir).unwrap();
    }

    #[test]
    fn peek_has_no_side_effects() {
        let mut cache = ResultCache::new(8, None).unwrap();
        cache.insert(key(1), stats("a"));
        let before = cache.counters();
        assert!(cache.peek(key(1)).is_some());
        assert!(cache.peek(key(2)).is_none());
        assert_eq!(cache.counters(), before);
    }

    #[test]
    fn disk_round_trip_and_promotion() {
        let dir = temp_dir("round_trip");
        {
            let mut cache = ResultCache::new(8, Some(dir.clone())).unwrap();
            cache.insert(key(7), stats("persisted"));
            assert_eq!(cache.counters().disk_write_errors, 0);
        }
        // A fresh cache instance (empty memory) finds the entry on disk.
        let mut cache = ResultCache::new(8, Some(dir.clone())).unwrap();
        let (got, source) = cache.lookup(key(7)).unwrap();
        assert_eq!(got, stats("persisted"));
        assert_eq!(source, CacheSource::Disk);
        assert_eq!(cache.counters().disk_hits, 1);
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
        assert_eq!(cache.counters().misses, 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
