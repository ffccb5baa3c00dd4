//! Cross-request reuse hook: a cache of each view's per-phase aggregates.
//!
//! SeeDB's intra-query sharing (§4.1) reuses scans *within* one
//! recommendation run; a serving layer wants the cross-request twin of
//! that idea — when an analyst re-issues an overlapping query (same
//! target, different `k` or metric; or a repeat of the same query), the
//! per-view aggregates are already known and the scan can be skipped.
//!
//! [`ViewCache`] is the hook the engine calls through: a
//! [`SeeDb`](crate::SeeDb) given one with
//! [`SeeDb::with_cache`](crate::SeeDb::with_cache) probes it per view on
//! every [`recommend`](crate::SeeDb::recommend) and fills it with
//! [`CachedPartial`]s. A view has one entry, keyed
//! `{predicate}|{reference}|{view}|ph{N}` (see [`crate::signature`]) where
//! `N` is the run's phase count — 1 for the unphased strategies. The entry
//! holds the view's groups of each phase it took part in, in phase order,
//! exactly as the executor folded them: a pruned view keeps the prefix it
//! accumulated before being discarded, a survivor all `N` phases. A later
//! run *replays* the cached phases without scanning and resumes the scan
//! where they end. The deltas are raw aggregates with no pruning decision
//! baked in, so one entry serves runs that differ in `k`, `delta`, metric
//! or pruning scheme: the consumer re-derives its own decisions phase by
//! phase.
//!
//! The trait is deliberately tiny so serving layers can back it with any
//! eviction policy (the `seedb-server` crate uses a memory-budgeted
//! LRU); [`MemoryViewCache`] is an unbounded reference implementation
//! for tests and embedding.

use crate::state::ViewGroups;
use seedb_util::PLock;
use std::collections::HashMap;
use std::mem::size_of;
use std::sync::Arc;

/// A cached per-view aggregate: the view's groups of each phase over a
/// contiguous phase prefix.
///
/// `deltas[j]` is the view's aggregate over phase `j`'s rows alone;
/// merging `deltas[0..=j]` into a fresh
/// [`ViewState`](crate::state::ViewState) reproduces the cumulative
/// state after phase `j` bit-for-bit (accumulator merges are exact).
#[derive(Debug, Clone)]
pub struct CachedPartial {
    /// Per-phase groups; `deltas.len()` phases are covered.
    pub deltas: Vec<Arc<ViewGroups>>,
    /// The phase-partition granularity (effective non-empty phases).
    pub total_phases: usize,
}

impl CachedPartial {
    /// The first `deltas.len()` phases of an `N = total_phases` partition.
    pub fn prefix(deltas: Vec<Arc<ViewGroups>>, total_phases: usize) -> Self {
        debug_assert!(deltas.len() <= total_phases);
        CachedPartial {
            deltas,
            total_phases,
        }
    }

    /// Phases covered by this entry.
    pub fn phases_done(&self) -> usize {
        self.deltas.len()
    }

    /// Heap bytes an `Arc<CachedPartial>` holding this entry owns: the
    /// `Arc`'s own allocation, the delta vector's capacity, and every
    /// delta's `Arc` allocation and groups.
    pub fn heap_bytes(&self) -> usize {
        let arc = |value: usize| 2 * size_of::<usize>() + value;
        let deltas: usize = self
            .deltas
            .iter()
            .map(|d| arc(size_of::<ViewGroups>()) + d.heap_bytes())
            .sum();
        arc(size_of::<Self>()) + self.deltas.capacity() * size_of::<Arc<ViewGroups>>() + deltas
    }
}

/// A store of per-view [`CachedPartial`]s keyed by canonical signature
/// strings.
///
/// Implementations must return values bit-identical to what was `put`
/// (share the `Arc`, don't re-derive) — the cached-recommendation path
/// relies on exact round-trips for its bit-identity guarantee.
pub trait ViewCache: Send + Sync {
    /// Looks up the partial cached under `key`, if any.
    fn get(&self, key: &str) -> Option<Arc<CachedPartial>>;
    /// Stores `value` under `key`.
    fn put(&self, key: &str, value: Arc<CachedPartial>);
}

/// How a recommendation run used its cache (all zero without one).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheUse {
    /// Views answered entirely from the cache (no scan).
    pub hits: usize,
    /// Views computed from scratch (and then cached).
    pub misses: usize,
    /// Views that replayed a cached phase prefix and resumed scanning at
    /// `phases_done` instead of row 0.
    pub resumed: usize,
}

impl CacheUse {
    /// True when every view came from the cache (the request touched no
    /// table data at all).
    pub fn fully_cached(&self) -> bool {
        self.misses == 0 && self.resumed == 0 && self.hits > 0
    }
}

/// Unbounded thread-safe in-memory [`ViewCache`] — the reference
/// implementation for tests and simple embeddings.
pub struct MemoryViewCache {
    map: PLock<HashMap<String, Arc<CachedPartial>>>,
}

impl Default for MemoryViewCache {
    fn default() -> Self {
        MemoryViewCache {
            map: PLock::new("core.view_cache", HashMap::new()),
        }
    }
}

impl MemoryViewCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ViewCache for MemoryViewCache {
    fn get(&self, key: &str) -> Option<Arc<CachedPartial>> {
        self.map.lock().get(key).cloned()
    }

    fn put(&self, key: &str, value: Arc<CachedPartial>) {
        self.map.lock().insert(key.to_owned(), value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_cache_round_trips_shared_arcs() {
        let cache = MemoryViewCache::new();
        assert!(cache.is_empty());
        assert!(cache.get("a").is_none());
        let v = Arc::new(CachedPartial::prefix(vec![Arc::default()], 1));
        cache.put("a", v.clone());
        let got = cache.get("a").expect("present");
        assert!(Arc::ptr_eq(&v, &got), "must share, not copy");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cache_use_flags() {
        assert!(!CacheUse::default().fully_cached());
        let full = CacheUse {
            hits: 3,
            misses: 0,
            resumed: 0,
        };
        assert!(full.fully_cached());
        let partial = CacheUse {
            hits: 3,
            misses: 1,
            resumed: 0,
        };
        assert!(!partial.fully_cached());
        let resumed = CacheUse {
            hits: 3,
            misses: 0,
            resumed: 1,
        };
        assert!(!resumed.fully_cached(), "a resumed view still scanned");
    }
}
