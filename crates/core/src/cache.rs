//! Cross-request reuse hook: a cache of per-view aggregates, exact or
//! phase-prefix.
//!
//! SeeDB's intra-query sharing (§4.1) reuses scans *within* one
//! recommendation run; a serving layer wants the cross-request twin of
//! that idea — when an analyst re-issues an overlapping query (same
//! target, different `k` or metric; or a repeat of the same query), the
//! per-view aggregates are already known and the scan can be skipped
//! entirely.
//!
//! [`ViewCache`] is the hook the engine calls through: a
//! [`SeeDb`](crate::SeeDb) given one with
//! [`SeeDb::with_cache`](crate::SeeDb::with_cache) probes it per view with
//! a canonical key (see [`crate::signature`]) on every
//! [`recommend`](crate::SeeDb::recommend), and fills it with
//! [`CachedPartial`]s. Two kinds of entry live in the same key
//! space, distinguished by their key *and* their [`Exactness`] tag:
//!
//! * **Exact** entries hold one full-table combined result per view —
//!   what the pruning-free configurations deposit and consume.
//! * **Prefix** entries hold one combined result *per executed phase* of
//!   an `N`-phase partition (keys carry a `|phN` suffix). A pruned run
//!   deposits whatever prefix each view accumulated before being
//!   discarded — the work is kept, not thrown away — and a later pruned
//!   run *replays* those phases without scanning, resuming the scan at
//!   `phases_done` instead of row 0. Because the deltas are raw
//!   aggregates (no pruning decisions baked in), the same entry is
//!   reusable across runs that differ in `k`, `delta`, or pruning
//!   scheme: the consumer re-derives its own decisions phase by phase,
//!   and a view that outlives its cached prefix just resumes scanning. A
//!   view whose prefix covers all `N` phases is tagged [`Exactness::Exact`]
//!   — its scans are skipped entirely and the pruner's interval collapses
//!   to zero width by the final phase.
//!
//! The trait is deliberately tiny so serving layers can back it with any
//! eviction policy (the `seedb-server` crate uses a memory-budgeted
//! LRU); [`MemoryViewCache`] is an unbounded reference implementation
//! for tests and embedding.

use seedb_engine::GroupedResult;
use seedb_util::PLock;
use std::collections::HashMap;
use std::sync::Arc;

/// How much of a view's full-table aggregate a [`CachedPartial`] covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exactness {
    /// The entry covers the whole table: merging every delta yields the
    /// exact full-table combined result.
    Exact,
    /// The entry covers the first `phases_done` of `total_phases`
    /// contiguous phases — a resumable prefix.
    Prefix {
        /// Phases covered (the resume point for a consumer).
        phases_done: usize,
        /// The partition granularity the deltas were computed under.
        total_phases: usize,
    },
}

/// A cached per-view aggregate: per-phase combined (target + reference)
/// results over a contiguous phase prefix.
///
/// `deltas[j]` is the view's aggregate over phase `j`'s rows alone;
/// merging `deltas[0..=j]` into a fresh
/// [`ViewState`](crate::state::ViewState) reproduces the cumulative
/// state after phase `j` bit-for-bit (accumulator merges are exact).
/// Unphased exact entries are the degenerate single-delta case with
/// `total_phases == 1`.
#[derive(Debug, Clone)]
pub struct CachedPartial {
    /// Per-phase combined results; `deltas.len()` phases are covered.
    pub deltas: Vec<Arc<GroupedResult>>,
    /// The phase-partition granularity (effective non-empty phases).
    pub total_phases: usize,
}

impl CachedPartial {
    /// An exact full-table entry (single delta, one-phase partition).
    pub fn exact(result: Arc<GroupedResult>) -> Self {
        CachedPartial {
            deltas: vec![result],
            total_phases: 1,
        }
    }

    /// A phase-prefix entry over an `N = total_phases` partition.
    pub fn prefix(deltas: Vec<Arc<GroupedResult>>, total_phases: usize) -> Self {
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

    /// The entry's exactness tag.
    pub fn exactness(&self) -> Exactness {
        if self.is_exact() {
            Exactness::Exact
        } else {
            Exactness::Prefix {
                phases_done: self.phases_done(),
                total_phases: self.total_phases,
            }
        }
    }

    /// Whether the entry covers the whole table.
    pub fn is_exact(&self) -> bool {
        !self.deltas.is_empty() && self.deltas.len() == self.total_phases
    }

    /// The full-table combined result, when this entry is a single-delta
    /// exact entry (the shape the pruning-free path stores and loads).
    pub fn as_exact_result(&self) -> Option<&Arc<GroupedResult>> {
        if self.is_exact() && self.deltas.len() == 1 {
            Some(&self.deltas[0])
        } else {
            None
        }
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
    /// `phases_done` instead of row 0 (pruned configurations only).
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
    use seedb_engine::AggSpec;

    fn result() -> Arc<GroupedResult> {
        Arc::new(GroupedResult {
            group_by: vec![seedb_storage::ColumnId(0)],
            aggregates: vec![AggSpec::new(
                seedb_engine::AggFunc::Avg,
                seedb_storage::ColumnId(1),
            )],
            groups: Vec::new(),
        })
    }

    #[test]
    fn memory_cache_round_trips_shared_arcs() {
        let cache = MemoryViewCache::new();
        assert!(cache.is_empty());
        assert!(cache.get("a").is_none());
        let v = Arc::new(CachedPartial::exact(result()));
        cache.put("a", v.clone());
        let got = cache.get("a").expect("present");
        assert!(Arc::ptr_eq(&v, &got), "must share, not copy");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn exactness_tags_follow_coverage() {
        let exact = CachedPartial::exact(result());
        assert!(exact.is_exact());
        assert_eq!(exact.exactness(), Exactness::Exact);
        assert!(exact.as_exact_result().is_some());
        assert_eq!(exact.phases_done(), 1);

        let prefix = CachedPartial::prefix(vec![result(), result()], 5);
        assert!(!prefix.is_exact());
        assert_eq!(
            prefix.exactness(),
            Exactness::Prefix {
                phases_done: 2,
                total_phases: 5
            }
        );
        assert!(prefix.as_exact_result().is_none());

        // A prefix covering every phase is exact, but multi-delta exact
        // entries are not the single-result shape the unphased path loads.
        let full = CachedPartial::prefix(vec![result(), result()], 2);
        assert!(full.is_exact());
        assert_eq!(full.exactness(), Exactness::Exact);
        assert!(full.as_exact_result().is_none());
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
