//! Sharded LRU cache of query results, keyed by canonical
//! `(s, t, [τ_b, τ_e])` queries.
//!
//! The engine's graph is immutable between edge ingestions, so a query's
//! tspG never changes within one graph epoch and memoizing whole
//! [`VugResult`]s is sound. Entries are stored packed: the report as is and
//! the tspG as a bit-packed [`PackedEdgeSet`], several times smaller than
//! its `EdgeSet`. An insert packs the tspG and a hit unpacks it into the
//! identical `EdgeSet`, so callers never see the packed form; the byte
//! bound charges the packed size. The cache is consulted before batch planning
//! and populated after execution; under repeated-query serving traffic a
//! hit skips the entire pipeline. When the graph mutates
//! ([`crate::engine::QueryEngine::ingest`]) the whole cache is flushed via
//! [`ResultCache::clear`] — an epoch-scoped flush is equivalent to
//! epoch-tagged keys here because result keys are dense and short-lived,
//! and it releases the stale entries' memory immediately instead of
//! waiting for LRU pressure.
//!
//! The map is split into independently locked shards (key-hash selected) so
//! that concurrent executor workers and front-end threads do not serialize
//! on one mutex. Each shard maintains its own intrusive LRU list and is
//! bounded both by entry count and by approximate heap bytes; inserting
//! past either bound evicts least-recently-used entries. Hit / miss /
//! insert / evict counters are global atomics, readable at any time via
//! [`ResultCache::stats`] without taking a shard lock.

use crate::engine::QuerySpec;
use crate::vug::{VugReport, VugResult};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use tspg_graph::PackedEdgeSet;

/// Sizing of a [`ResultCache`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum number of cached results across all shards (≥ 1).
    pub max_entries: usize,
    /// Approximate upper bound on cached heap bytes across all shards.
    /// A single result larger than this whole budget is not cached at all;
    /// one merely larger than its shard's share is still admitted (it
    /// simply becomes the only resident entry of its shard).
    pub max_bytes: usize,
    /// Number of independently locked shards (≥ 1; rounded up to 1).
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self { max_entries: 4096, max_bytes: 64 << 20, shards: 8 }
    }
}

impl CacheConfig {
    /// A config with the given entry bound and the default byte/shard
    /// limits.
    pub fn with_max_entries(max_entries: usize) -> Self {
        Self { max_entries: max_entries.max(1), ..Self::default() }
    }
}

/// A snapshot of the cache's counters and current occupancy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Results stored (excluding replaced duplicates).
    pub insertions: u64,
    /// Entries dropped to satisfy the entry or byte bound.
    pub evictions: u64,
    /// Resident entries right now.
    pub entries: usize,
    /// Approximate resident heap bytes right now.
    pub bytes: usize,
}

impl CacheStats {
    /// Snapshot of every counter as `(name, value)` pairs for `key=value`
    /// surfaces (the `tspg-server` `stats` verb). The names carry a
    /// `cache_` prefix — and the lookup counters a `_lookup_` infix — so
    /// they never collide with [`super::BatchStats::key_values`]' names
    /// (whose `cache_hits` counts queries answered from the cache, the same
    /// quantity `cache_lookup_hits` counts from the cache's side).
    pub fn key_values(&self) -> [(&'static str, u64); 6] {
        [
            ("cache_lookup_hits", self.hits),
            ("cache_lookup_misses", self.misses),
            ("cache_insertions", self.insertions),
            ("cache_evictions", self.evictions),
            ("cache_entries", self.entries as u64),
            ("cache_bytes", self.bytes as u64),
        ]
    }

    /// Hit rate in `[0, 1]`; 0 when no lookups happened yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

const NIL: usize = usize::MAX;

/// One cached result inside a shard's slot arena, threaded on the shard's
/// doubly linked LRU list (`head` = most recently used).
#[derive(Debug)]
struct Slot {
    key: QuerySpec,
    report: VugReport,
    tspg: PackedEdgeSet,
    bytes: usize,
    prev: usize,
    next: usize,
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<QuerySpec, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    bytes: usize,
}

impl Shard {
    fn new() -> Self {
        Self { head: NIL, tail: NIL, ..Self::default() }
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    fn push_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        match self.head {
            NIL => self.tail = slot,
            h => self.slots[h].prev = slot,
        }
        self.head = slot;
    }

    fn get(&mut self, key: &QuerySpec) -> Option<VugResult> {
        let slot = *self.map.get(key)?;
        self.unlink(slot);
        self.push_front(slot);
        let entry = &self.slots[slot];
        Some(VugResult { tspg: entry.tspg.unpack(), report: entry.report })
    }

    /// Inserts (or refreshes) an entry, then evicts from the tail until the
    /// shard is within both bounds. Returns `(inserted, evicted)`. The tspG
    /// is packed only when the key is not resident yet.
    ///
    /// Admission is checked against `global_max_bytes` (the whole cache's
    /// configured budget), not the shard's share: a result that fits the
    /// budget the caller configured must never be silently refused just
    /// because key hashing divided that budget by the shard count. The
    /// eviction loop below still enforces `max_bytes` (the per-shard
    /// share), but its `len() > 1` guard lets a single oversized entry
    /// live alone in its shard.
    fn insert(
        &mut self,
        key: QuerySpec,
        value: &VugResult,
        max_entries: usize,
        max_bytes: usize,
        global_max_bytes: usize,
    ) -> (bool, u64) {
        if let Some(&slot) = self.map.get(&key) {
            // Same canonical query ⇒ same tspG; just refresh recency.
            self.unlink(slot);
            self.push_front(slot);
            return (false, 0);
        }
        let tspg = value.tspg.pack();
        let bytes = entry_bytes(&tspg);
        if bytes > global_max_bytes || max_entries == 0 {
            return (false, 0);
        }
        let entry = Slot { key, report: value.report, tspg, bytes, prev: NIL, next: NIL };
        let slot = match self.free.pop() {
            Some(reused) => {
                self.slots[reused] = entry;
                reused
            }
            None => {
                self.slots.push(entry);
                self.slots.len() - 1
            }
        };
        self.map.insert(key, slot);
        self.push_front(slot);
        self.bytes += bytes;
        let mut evicted = 0;
        while self.map.len() > max_entries || (self.bytes > max_bytes && self.map.len() > 1) {
            let tail = self.tail;
            debug_assert_ne!(tail, NIL);
            self.unlink(tail);
            self.bytes -= self.slots[tail].bytes;
            self.map.remove(&self.slots[tail].key);
            // Drop the evicted result now — a free slot must not pin the
            // tspG's heap allocation until its eventual reuse, or real
            // memory could exceed the byte bound stats() reports against.
            self.slots[tail].tspg = PackedEdgeSet::default();
            self.slots[tail].bytes = 0;
            self.free.push(tail);
            evicted += 1;
        }
        (true, evicted)
    }

    /// Drops every resident entry and releases its heap allocation, keeping
    /// the slot arena's capacity for reuse.
    fn clear(&mut self) {
        self.map.clear();
        self.free.clear();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            slot.tspg = PackedEdgeSet::default();
            slot.bytes = 0;
            self.free.push(i);
        }
        self.head = NIL;
        self.tail = NIL;
        self.bytes = 0;
    }
}

/// The engine's sharded LRU result cache. See the module docs.
#[derive(Debug)]
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    max_entries_per_shard: usize,
    max_bytes_per_shard: usize,
    max_bytes_global: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl ResultCache {
    /// Creates an empty cache with the given bounds.
    pub fn new(config: CacheConfig) -> Self {
        // Never more shards than entries: each shard holds at least one
        // entry, so excess shards would silently inflate the global bound.
        let shards = config.shards.clamp(1, config.max_entries.max(1));
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            max_entries_per_shard: (config.max_entries / shards).max(1),
            max_bytes_per_shard: (config.max_bytes / shards).max(1),
            max_bytes_global: config.max_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &QuerySpec) -> &Mutex<Shard> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % self.shards.len()]
    }

    /// Looks up the result of a canonical query, refreshing its recency.
    /// A lookup in a poisoned shard finds nothing and counts as a miss.
    pub fn get(&self, key: &QuerySpec) -> Option<VugResult> {
        let result = self.shard(key).lock().ok().and_then(|mut shard| shard.get(key));
        // relaxed: hit/miss tallies are pure statistics — no reader orders
        // other memory against them.
        match result {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        result
    }

    /// Stores the result of a canonical query, evicting LRU entries as
    /// needed. Oversized results (packed, larger than the whole configured
    /// byte budget) are silently skipped.
    pub fn insert(&self, key: QuerySpec, value: &VugResult) {
        let Ok(mut shard) = self.shard(&key).lock() else { return };
        let (inserted, evicted) = shard.insert(
            key,
            value,
            self.max_entries_per_shard,
            self.max_bytes_per_shard,
            self.max_bytes_global,
        );
        drop(shard);
        // relaxed: insertion/eviction tallies are pure statistics; the
        // cached data itself is published by the shard mutex above.
        if inserted {
            self.insertions.fetch_add(1, Ordering::Relaxed);
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Drops every resident entry at once — the graph-epoch flush.
    ///
    /// Called when the underlying graph mutates: every cached tspG was
    /// computed against the previous epoch and must become unreachable.
    /// Flushed entries are not counted as evictions (`cache_evictions`
    /// keeps measuring capacity pressure, not invalidation); the hit/miss
    /// history is preserved so hit-rate recovery after an ingest is
    /// observable in the same counters.
    pub fn clear(&self) {
        for shard in &self.shards {
            if let Ok(mut shard) = shard.lock() {
                shard.clear();
            }
        }
    }

    /// Counters plus current occupancy.
    pub fn stats(&self) -> CacheStats {
        let (mut entries, mut bytes) = (0, 0);
        for shard in &self.shards {
            if let Ok(shard) = shard.lock() {
                entries += shard.map.len();
                bytes += shard.bytes;
            }
        }
        // relaxed: a stats snapshot tolerates torn reads across counters;
        // each counter individually is just a monotone tally.
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }
}

/// Fixed per-entry overhead charged on top of the packed tspG's heap bytes.
///
/// An entry does not just own its tspG: it pins a [`Slot`] in the shard's
/// slot arena (key + report + packed header + the two intrusive LRU links), a
/// `key → slot` pair in the shard's hash map, and a share of the map's
/// bucket/control metadata (hash maps keep a load factor below 1, so each
/// resident entry costs more than its own pair; 2× is a conservative
/// stand-in). Charging only `tspg.heap_bytes()` would let a small-result
/// workload blow far past `max_bytes` in real memory while the accounted
/// total stays near zero.
const ENTRY_OVERHEAD: usize = std::mem::size_of::<Slot>()
    + 2 * std::mem::size_of::<(QuerySpec, usize)>()
    + std::mem::size_of::<usize>();

/// Approximate heap footprint of one cached entry: the packed tspG's heap
/// allocation plus [`ENTRY_OVERHEAD`].
fn entry_bytes(tspg: &PackedEdgeSet) -> usize {
    tspg.heap_bytes() + ENTRY_OVERHEAD
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eev::EevStats;
    use crate::vug::VugReport;
    use std::time::Duration;
    use tspg_graph::{EdgeSet, TemporalEdge, TimeInterval};

    fn key(i: i64) -> QuerySpec {
        QuerySpec::new(0, 1, TimeInterval::new(i, i + 3))
    }

    fn result(edges: usize) -> VugResult {
        let tspg = EdgeSet::from_edges((0..edges).map(|i| TemporalEdge::new(0, 1, i as i64 + 1)));
        VugResult { tspg, report: VugReport::default() }
    }

    fn single_shard(max_entries: usize, max_bytes: usize) -> ResultCache {
        ResultCache::new(CacheConfig { max_entries, max_bytes, shards: 1 })
    }

    /// What an entry holding `result(edges)` is charged.
    fn packed_entry_bytes(edges: usize) -> usize {
        entry_bytes(&result(edges).tspg.pack())
    }

    #[test]
    fn a_hit_returns_the_inserted_result_exactly() {
        // A tspG with spread-out ids and timestamps, so every packed field
        // is wide, and a report with every field set.
        let tspg = EdgeSet::from_edges((0..50u32).map(|i| {
            TemporalEdge::new(i * 977 % 4099, (i * 31 + 7) % 65_537, i64::from(i) * 86_400 - 9)
        }));
        let mut eev = EevStats {
            confirmed_by_endpoints: 3,
            confirmed_by_cover: 5,
            confirmed_by_search: 42,
            rejected: 2,
            ..EevStats::default()
        };
        eev.bidir.searches = 44;
        eev.bidir.successes = 42;
        eev.bidir.expansions = 1_234;
        let report = VugReport {
            quick_elapsed: Duration::from_nanos(1_234_567),
            tight_elapsed: Duration::from_nanos(89_012),
            eev_elapsed: Duration::from_micros(345),
            input_edges: 100_000,
            quick_edges: 80,
            tight_edges: 52,
            result_edges: tspg.num_edges(),
            result_vertices: tspg.num_vertices(),
            eev,
            approx_bytes: 65_536,
        };
        let cache = ResultCache::new(CacheConfig::default());
        cache.insert(key(0), &VugResult { tspg: tspg.clone(), report });
        let hit = cache.get(&key(0)).expect("hit");
        assert_eq!(hit.tspg, tspg);
        assert_eq!(hit.report, report);
    }

    #[test]
    fn stats_bytes_sum_the_packed_sizes_of_resident_entries() {
        let cache = single_shard(6, usize::MAX >> 1);
        let sizes = [0, 1, 7, 40, 3, 250, 12, 64];
        for (i, &edges) in sizes.iter().enumerate() {
            cache.insert(key(i as i64), &result(edges));
        }
        // Two entries were evicted; sum over whoever is still resident.
        let expected: usize = sizes
            .iter()
            .enumerate()
            .filter(|&(i, _)| cache.get(&key(i as i64)).is_some())
            .map(|(_, &edges)| result(edges).tspg.pack().heap_bytes() + ENTRY_OVERHEAD)
            .sum();
        let stats = cache.stats();
        assert_eq!(stats.entries, 6, "{stats:?}");
        assert_eq!(stats.bytes, expected, "{stats:?}");
    }

    #[test]
    fn a_poisoned_shard_counts_its_lookups_as_misses() {
        let cache =
            ResultCache::new(CacheConfig { max_entries: 64, max_bytes: 1 << 20, shards: 2 });
        for i in 0..8 {
            cache.insert(key(i), &result(2));
        }
        let poisoned = cache.shard(&key(0));
        let other =
            (1..8).find(|&i| !std::ptr::eq(cache.shard(&key(i)), poisoned)).expect("2 shards");
        std::thread::scope(|scope| {
            let panicked = scope
                .spawn(|| {
                    let _guard = poisoned.lock().expect("not poisoned yet");
                    panic!("poison the shard");
                })
                .join();
            assert!(panicked.is_err());
        });
        assert!(poisoned.is_poisoned());
        assert!(cache.get(&key(0)).is_none(), "a poisoned shard answers nothing");
        assert!(cache.get(&key(other)).is_some(), "other shards keep working");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1), "every probe is counted: {stats:?}");
    }

    #[test]
    fn get_after_insert_roundtrips_and_counts() {
        let cache = ResultCache::new(CacheConfig::default());
        assert!(cache.get(&key(0)).is_none());
        cache.insert(key(0), &result(3));
        let hit = cache.get(&key(0)).expect("hit");
        assert_eq!(hit.tspg, result(3).tspg);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes > 0);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let cache = single_shard(2, usize::MAX >> 1);
        cache.insert(key(1), &result(1));
        cache.insert(key(2), &result(1));
        // Touch key 1 so key 2 becomes LRU.
        assert!(cache.get(&key(1)).is_some());
        cache.insert(key(3), &result(1));
        assert!(cache.get(&key(2)).is_none(), "LRU entry must be evicted");
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn byte_bound_evicts_and_oversized_results_are_skipped() {
        let per_entry = packed_entry_bytes(4);
        let cache = single_shard(1024, 2 * per_entry + per_entry / 2);
        cache.insert(key(1), &result(4));
        cache.insert(key(2), &result(4));
        cache.insert(key(3), &result(4));
        let stats = cache.stats();
        assert!(stats.entries <= 2, "byte bound must hold: {stats:?}");
        assert!(stats.bytes <= 2 * per_entry + per_entry / 2);
        assert!(stats.evictions >= 1);
        // A result bigger than the whole shard is never admitted.
        let tiny = single_shard(1024, per_entry / 2);
        tiny.insert(key(9), &result(4));
        assert_eq!(tiny.stats().entries, 0);
        assert!(tiny.get(&key(9)).is_none());
    }

    #[test]
    fn empty_results_still_pay_per_entry_overhead() {
        // A zero-edge result owns no tspG heap at all; if the accounting
        // charged only the value's approximate bytes, max_bytes would never
        // bite and resident memory (Slot + map entry per insert) would grow
        // unboundedly. With the per-entry overhead charged, a byte bound
        // sized for ~8 entries must hold the cache to ~8 entries.
        let empty = VugResult { tspg: EdgeSet::new(), report: VugReport::default() };
        assert_eq!(entry_bytes(&empty.tspg.pack()), ENTRY_OVERHEAD);
        let budget = 8 * ENTRY_OVERHEAD;
        let cache = single_shard(usize::MAX >> 1, budget);
        for i in 0..256 {
            cache.insert(key(i), &empty);
        }
        let stats = cache.stats();
        assert!(stats.entries <= 8, "byte bound must limit empty entries: {stats:?}");
        assert!(stats.bytes <= budget, "{stats:?}");
        assert!(stats.evictions >= 248, "{stats:?}");
    }

    #[test]
    fn reinserting_a_key_refreshes_recency_without_double_counting() {
        let cache = single_shard(2, usize::MAX >> 1);
        cache.insert(key(1), &result(1));
        cache.insert(key(2), &result(1));
        cache.insert(key(1), &result(1)); // refresh, not a new entry
        assert_eq!(cache.stats().insertions, 2);
        assert_eq!(cache.stats().entries, 2);
        cache.insert(key(3), &result(1));
        assert!(cache.get(&key(1)).is_some(), "refreshed key must survive");
        assert!(cache.get(&key(2)).is_none());
    }

    #[test]
    fn oversized_entry_fitting_global_budget_is_admitted_in_sharded_cache() {
        // Regression: admission used to be checked against max_bytes /
        // shards, so an entry within the configured global budget but above
        // one shard's share was silently refused whenever shards > 1.
        let per_entry = packed_entry_bytes(4);
        let global = 3 * per_entry; // per-shard share = 3/4 of one entry
        let cache = ResultCache::new(CacheConfig { max_entries: 64, max_bytes: global, shards: 4 });
        cache.insert(key(1), &result(4));
        assert!(cache.get(&key(1)).is_some(), "entry within global budget must be cached");
        let stats = cache.stats();
        assert_eq!(stats.entries, 1, "{stats:?}");
        assert_eq!(stats.insertions, 1, "{stats:?}");
        // It lives alone in its shard: inserting a second entry that hashes
        // to the same shard may evict one, but the global byte budget holds.
        for i in 2..32 {
            cache.insert(key(i), &result(4));
        }
        assert!(cache.stats().bytes <= global + 3 * per_entry, "one oversized entry per shard");
        // Entries above the global budget are still refused outright.
        let tiny =
            ResultCache::new(CacheConfig { max_entries: 64, max_bytes: per_entry - 1, shards: 4 });
        tiny.insert(key(1), &result(4));
        assert_eq!(tiny.stats().entries, 0);
    }

    #[test]
    fn clear_flushes_every_shard_without_counting_evictions() {
        let cache =
            ResultCache::new(CacheConfig { max_entries: 64, max_bytes: 1 << 20, shards: 4 });
        for i in 0..16 {
            cache.insert(key(i), &result(2));
        }
        assert!(cache.stats().entries > 0);
        cache.clear();
        let stats = cache.stats();
        assert_eq!(stats.entries, 0, "{stats:?}");
        assert_eq!(stats.bytes, 0, "{stats:?}");
        assert_eq!(stats.evictions, 0, "an epoch flush is not capacity pressure");
        assert_eq!(stats.insertions, 16, "history survives the flush");
        for i in 0..16 {
            assert!(cache.get(&key(i)).is_none(), "flushed entries must be gone");
        }
        // The cache keeps working after a flush (slot arena is reused).
        cache.insert(key(0), &result(2));
        assert!(cache.get(&key(0)).is_some());
    }

    #[test]
    fn tiny_entry_bounds_are_honored_even_with_many_shards() {
        // max_entries < shards must not inflate the global bound to one
        // entry per shard.
        let cache = ResultCache::new(CacheConfig { max_entries: 2, max_bytes: 1 << 20, shards: 8 });
        for i in 0..32 {
            cache.insert(key(i), &result(1));
        }
        assert!(cache.stats().entries <= 2, "{:?}", cache.stats());
    }

    #[test]
    fn shards_partition_the_bounds() {
        let cache = ResultCache::new(CacheConfig { max_entries: 8, max_bytes: 1 << 20, shards: 4 });
        for i in 0..64 {
            cache.insert(key(i), &result(1));
        }
        let stats = cache.stats();
        assert!(stats.entries <= 8, "{stats:?}");
        assert!(stats.evictions >= 56);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache =
            ResultCache::new(CacheConfig { max_entries: 64, max_bytes: 1 << 20, shards: 4 });
        std::thread::scope(|scope| {
            for worker in 0..4i64 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..100 {
                        let k = key((i + worker) % 32);
                        if cache.get(&k).is_none() {
                            cache.insert(k, &result(2));
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert!(stats.hits + stats.misses == 400);
        assert!(stats.entries <= 64);
    }
}
