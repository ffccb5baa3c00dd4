//! The cross-request recommendation cache: one memory-budgeted LRU
//! holding both finished `/recommend` response payloads and reusable
//! per-view aggregate partials.
//!
//! Keys are canonical signatures (`seedb_core::signature`) namespaced by
//! kind — `R|…` for rendered responses, `P|…` for per-view
//! [`CachedPartial`]s — so the two layers share one budget and
//! one eviction order. Recency is tracked with a monotonic clock and a
//! `BTreeMap` index, which makes eviction order fully deterministic: the
//! entry with the oldest last-touch tick always goes first.

use seedb_core::cache::{CachedPartial, ViewCache};
use seedb_util::PLock;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A cached value: either a finished response body or a per-view partial.
#[derive(Clone)]
pub enum CacheValue {
    /// A rendered `/recommend` response payload (the deterministic part of
    /// the body, shared verbatim on every future hit).
    Response(Arc<String>),
    /// A view's per-phase aggregates over the phases its run covered,
    /// reusable by any overlapping request (see `SeeDb::with_cache`).
    Partial(Arc<CachedPartial>),
}

impl CacheValue {
    /// Heap footprint in bytes, for budget accounting: a response's body
    /// length, or what a partial owns on the heap
    /// ([`CachedPartial::heap_bytes`], measured within 10 % by the
    /// `cache_footprint` test). The budget is only as true as this figure:
    /// an undercount lets the resident set outgrow it.
    pub fn approx_size(&self) -> usize {
        match self {
            CacheValue::Response(body) => body.len(),
            CacheValue::Partial(partial) => partial.heap_bytes(),
        }
    }
}

/// One resident entry.
struct Slot {
    value: CacheValue,
    /// `key.len() + value.approx_size()` at insert time.
    size: usize,
    /// Last-touch tick (key into the recency index).
    tick: u64,
}

struct Inner {
    map: HashMap<String, Slot>,
    /// tick → key, ordered oldest-first; the eviction queue.
    recency: BTreeMap<u64, String>,
    clock: u64,
    bytes: usize,
}

/// Monotonic counters exposed at `GET /statz`.
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: AtomicU64,
    /// Lookups that found nothing.
    pub misses: AtomicU64,
    /// Entries evicted to make room.
    pub evictions: AtomicU64,
    /// Entries inserted.
    pub insertions: AtomicU64,
    /// Inserts rejected because a single entry exceeded the whole budget.
    pub rejected: AtomicU64,
    /// Entries dropped because their dataset instance was replaced
    /// ([`RecCache::purge_instance`]).
    pub purged: AtomicU64,
    /// Bytes those purged entries held.
    pub purged_bytes: AtomicU64,
}

/// Memory-budgeted LRU over [`CacheValue`]s. All operations are
/// `Mutex`-serialized; entries are shared out as `Arc`s so hits are
/// zero-copy.
pub struct RecCache {
    inner: PLock<Inner>,
    budget: usize,
    stats: CacheStats,
}

impl RecCache {
    /// A cache bounded to roughly `budget_bytes` of entry payload.
    pub fn new(budget_bytes: usize) -> Self {
        RecCache {
            inner: PLock::new(
                "server.rec_cache",
                Inner {
                    map: HashMap::new(),
                    recency: BTreeMap::new(),
                    clock: 0,
                    bytes: 0,
                },
            ),
            budget: budget_bytes.max(1),
            stats: CacheStats::default(),
        }
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Counter snapshot access.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident bytes.
    pub fn bytes(&self) -> usize {
        self.inner.lock().bytes
    }

    /// Looks `key` up, refreshing its recency on hit.
    pub fn get(&self, key: &str) -> Option<CacheValue> {
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let tick = inner.clock;
        match inner.map.get_mut(key) {
            Some(slot) => {
                let old = std::mem::replace(&mut slot.tick, tick);
                let value = slot.value.clone();
                inner.recency.remove(&old);
                inner.recency.insert(tick, key.to_owned());
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            None => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or refreshes) `key`, evicting least-recently-used entries
    /// until the budget holds. An entry larger than the whole budget is
    /// rejected rather than flushing everything else.
    pub fn put(&self, key: &str, value: CacheValue) {
        let size = key.len() + value.approx_size();
        if size > self.budget {
            self.stats.rejected.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut inner = self.inner.lock();
        if let Some(old) = inner.map.remove(key) {
            inner.recency.remove(&old.tick);
            inner.bytes -= old.size;
        }
        while inner.bytes + size > self.budget {
            let Some((&oldest, _)) = inner.recency.iter().next() else {
                break;
            };
            // recency and map are maintained in lockstep; if they ever
            // disagree, stop evicting (one oversized round) rather than
            // panic while holding the cache lock.
            let Some(victim_key) = inner.recency.remove(&oldest) else {
                break;
            };
            let Some(victim) = inner.map.remove(&victim_key) else {
                break;
            };
            inner.bytes -= victim.size;
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        }
        inner.clock += 1;
        let tick = inner.clock;
        inner.recency.insert(tick, key.to_owned());
        inner.map.insert(key.to_owned(), Slot { value, size, tick });
        inner.bytes += size;
        self.stats.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Drops every response (`R|`) and partial (`P|`) entry of dataset
    /// instance `instance` — an upload that was replaced, whose entries no
    /// request can reach any more and which would otherwise sit in the
    /// budget until LRU reached them. Returns the entries dropped; their
    /// values are freed after the cache lock is released.
    pub fn purge_instance(&self, instance: &str) -> usize {
        let response = format!("R|{instance}|");
        let partial = format!("P|{instance}|");
        let mut inner = self.inner.lock();
        let purged: Vec<(String, Slot)> = inner
            .map
            .extract_if(|key, _| key.starts_with(&response) || key.starts_with(&partial))
            .collect();
        let mut bytes = 0;
        for (_, slot) in &purged {
            inner.recency.remove(&slot.tick);
            bytes += slot.size;
        }
        inner.bytes -= bytes;
        drop(inner);
        self.stats
            .purged
            .fetch_add(purged.len() as u64, Ordering::Relaxed);
        self.stats
            .purged_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
        purged.len()
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.recency.clear();
        inner.bytes = 0;
    }

    /// Resident keys ordered least- to most-recently used.
    #[cfg(test)]
    pub(crate) fn keys_lru_order(&self) -> Vec<String> {
        let inner = self.inner.lock();
        inner.recency.values().cloned().collect()
    }
}

/// Adapter giving `SeeDb::with_cache` a view into one [`RecCache`],
/// namespaced under a dataset-instance prefix so partials from different
/// datasets (or row counts) can never alias.
pub struct PartialCache {
    cache: Arc<RecCache>,
    prefix: String,
}

impl PartialCache {
    /// A view of `cache` scoped to `prefix` (e.g. `CENSUS@5000#seed17`).
    pub fn new(cache: Arc<RecCache>, prefix: String) -> Self {
        PartialCache { cache, prefix }
    }

    fn full_key(&self, key: &str) -> String {
        format!("P|{}|{}", self.prefix, key)
    }
}

impl ViewCache for PartialCache {
    fn get(&self, key: &str) -> Option<Arc<CachedPartial>> {
        match self.cache.get(&self.full_key(key)) {
            Some(CacheValue::Partial(partial)) => Some(partial),
            _ => None,
        }
    }

    fn put(&self, key: &str, value: Arc<CachedPartial>) {
        self.cache
            .put(&self.full_key(key), CacheValue::Partial(value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(body: &str) -> CacheValue {
        CacheValue::Response(Arc::new(body.to_owned()))
    }

    #[test]
    fn get_put_and_stats() {
        let cache = RecCache::new(10_000);
        assert!(cache.get("a").is_none());
        cache.put("a", response("hello"));
        assert!(matches!(cache.get("a"), Some(CacheValue::Response(b)) if *b == "hello"));
        assert_eq!(cache.stats().hits.load(Ordering::Relaxed), 1);
        assert_eq!(cache.stats().misses.load(Ordering::Relaxed), 1);
        assert_eq!(cache.stats().insertions.load(Ordering::Relaxed), 1);
        assert_eq!(cache.len(), 1);
        assert!(cache.bytes() > 0);
    }

    #[test]
    fn eviction_is_lru_and_deterministic() {
        // Budget fits exactly two ~105-byte entries.
        let cache = RecCache::new(220);
        cache.put("k1", response(&"x".repeat(100)));
        cache.put("k2", response(&"y".repeat(100)));
        assert_eq!(cache.len(), 2);
        // Touch k1 so k2 is the LRU victim.
        let _ = cache.get("k1");
        cache.put("k3", response(&"z".repeat(100)));
        assert_eq!(cache.len(), 2);
        assert!(cache.get("k2").is_none(), "LRU entry must be evicted");
        assert!(cache.get("k1").is_some());
        assert!(cache.get("k3").is_some());
        assert_eq!(cache.stats().evictions.load(Ordering::Relaxed), 1);
        assert!(cache.bytes() <= cache.budget());
    }

    #[test]
    fn oversized_entries_are_rejected_not_thrashed() {
        let cache = RecCache::new(100);
        cache.put("small", response("ok"));
        cache.put("huge", response(&"x".repeat(500)));
        assert!(cache.get("huge").is_none());
        assert!(cache.get("small").is_some(), "resident entries survive");
        assert_eq!(cache.stats().rejected.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn reinsert_updates_size_and_recency() {
        let cache = RecCache::new(1_000);
        cache.put("a", response(&"x".repeat(100)));
        let before = cache.bytes();
        cache.put("a", response("tiny"));
        assert!(cache.bytes() < before);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_order_is_observable() {
        let cache = RecCache::new(10_000);
        cache.put("a", response("1"));
        cache.put("b", response("2"));
        cache.put("c", response("3"));
        let _ = cache.get("a");
        assert_eq!(cache.keys_lru_order(), vec!["b", "c", "a"]);
    }

    #[test]
    fn partial_cache_is_namespaced() {
        use seedb_core::cache::ViewCache as _;
        let shared = Arc::new(RecCache::new(100_000));
        let a = PartialCache::new(shared.clone(), "DS@100".into());
        let b = PartialCache::new(shared.clone(), "DS@200".into());
        let partial = Arc::new(CachedPartial::prefix(vec![Arc::default()], 1));
        a.put("key", partial.clone());
        assert!(a.get("key").is_some());
        assert!(b.get("key").is_none(), "prefixes must isolate instances");
        // A response entry under the same raw key is not a partial.
        shared.put("P|DS@100|other", response("body"));
        assert!(a.get("other").is_none());
    }

    #[test]
    fn purge_instance_drops_exactly_that_instances_entries() {
        let cache = RecCache::new(100_000);
        for key in [
            "R|d@2#f01|sig",
            "P|d@2#f01|view",
            "R|d@2#f012|sig",
            "R|d@3#f02|sig",
            "P|e@2#f01|view",
        ] {
            cache.put(key, response("payload"));
        }
        let before = cache.bytes();
        assert_eq!(cache.purge_instance("d@2#f01"), 2);
        assert_eq!(
            cache.keys_lru_order(),
            vec!["R|d@2#f012|sig", "R|d@3#f02|sig", "P|e@2#f01|view"]
        );
        let purged_bytes = cache.stats().purged_bytes.load(Ordering::Relaxed) as usize;
        assert_eq!(cache.bytes(), before - purged_bytes);
        assert_eq!(
            purged_bytes,
            "R|d@2#f01|sig".len() + "P|d@2#f01|view".len() + 14
        );
        assert_eq!(cache.stats().purged.load(Ordering::Relaxed), 2);
        // Nothing left under the instance: a second purge is a no-op.
        assert_eq!(cache.purge_instance("d@2#f01"), 0);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn partial_sizes_scale_with_phase_deltas() {
        // Budget accounting must see every per-phase delta, not just one
        // result, or pruned-run prefixes would be under-billed.
        let one = CacheValue::Partial(Arc::new(CachedPartial::prefix(vec![Arc::default()], 10)));
        let five = CacheValue::Partial(Arc::new(CachedPartial::prefix(
            (0..5).map(|_| Arc::default()).collect(),
            10,
        )));
        assert!(five.approx_size() > one.approx_size());
    }
}
