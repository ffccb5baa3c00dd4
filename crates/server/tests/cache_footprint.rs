//! What the cache charges for a per-view partial is what the partial holds:
//! `CacheValue::approx_size` within 10 % of the heap a real entry frees
//! when it is dropped.
//!
//! The entries, each deposited by a real COMB + CI run, cover the three
//! ways a cached phase delta lays its groups out: a dictionary dimension's
//! dense table, a dictionary dimension whose NULL group lands in the
//! ordered map (a one-entry map still allocates a whole node), and an
//! `Int64` dimension aggregated through the hash path, all of whose groups
//! live in the map. The first three are counted exactly; the fourth, a
//! hash-path dimension of 400 groups, holds many map nodes a phase, whose
//! number depends on insertion order and is charged at an average fill.
//!
//! This file is its own test binary with a single test, so the counting
//! allocator sees nothing but this run.

use seedb_core::{
    CachedPartial, Knob, Predicate, ReferenceSpec, SeeDb, SeeDbConfig, ViewCache, ViewSpec,
};
use seedb_engine::{group_index_for, AggFunc, GroupIndexKind};
use seedb_server::cache::CacheValue;
use seedb_storage::{ColumnDef, ColumnId, ColumnRole, ColumnType, StoreKind, TableBuilder, Value};
use seedb_util::PLock;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// `System`, plus a count of live heap bytes.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates a counter beside it, so `System`'s
// guarantees carry over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`; forwarded unchanged.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A [`ViewCache`] whose entries can be taken back out.
struct Keep(PLock<HashMap<String, Arc<CachedPartial>>>);

impl ViewCache for Keep {
    fn get(&self, key: &str) -> Option<Arc<CachedPartial>> {
        self.0.lock().get(key).cloned()
    }

    fn put(&self, key: &str, value: Arc<CachedPartial>) {
        self.0.lock().insert(key.to_owned(), value);
    }
}

const ROWS: i64 = 6_000;

/// `region`: 8 dictionary values; `status`: 3 values and a NULL every
/// seventh row; `year`: ten `Int64` years; `store`: 400 `Int64` ids;
/// `amount`: the measure.
fn table() -> seedb_storage::BoxedTable {
    let mut b = TableBuilder::new(vec![
        ColumnDef::dim("region"),
        ColumnDef::dim("status"),
        ColumnDef::new("year", ColumnType::Int64, ColumnRole::Dimension),
        ColumnDef::new("store", ColumnType::Int64, ColumnRole::Dimension),
        ColumnDef::measure("amount"),
    ]);
    for i in 0..ROWS {
        let status = if i % 7 == 0 {
            Value::Null
        } else {
            Value::str(["open", "held", "shut"][(i % 3) as usize])
        };
        b.push_row(&[
            Value::str(format!("r{}", i % 8)),
            status,
            Value::Int(2015 + i % 10),
            Value::Int(i * 7919 % 400),
            Value::Float((i % 97) as f64 * 1.25 + if i % 5 == 0 { 40.0 } else { 0.0 }),
        ])
        .unwrap();
    }
    b.build(StoreKind::Column).unwrap()
}

#[test]
fn approx_size_matches_the_heap_a_partial_frees() {
    let table = table();
    let column = |name: &str| table.schema().column_id(name).unwrap();
    let (region, status, year) = (column("region"), column("status"), column("year"));
    assert_eq!(
        group_index_for(table.as_ref(), &[year]),
        GroupIndexKind::Hash,
        "test premise: the Int64 dimension groups through the hash path"
    );
    assert_eq!(
        group_index_for(table.as_ref(), &[region]),
        GroupIndexKind::Dense
    );

    let mut cfg = SeeDbConfig::default(); // COMB + CI
    cfg.k = 2;
    cfg.sharing.parallelism = Knob::Fixed(1);
    let cache = Arc::new(Keep(PLock::new("test.keep", HashMap::new())));
    let target = Predicate::NumCmp {
        col: column("amount"),
        op: seedb_engine::CmpOp::Ge,
        value: 60.0,
    };
    let seedb = SeeDb::with_config(table.clone(), cfg).with_cache(cache.clone());
    let views = seedb.views();
    let rec = seedb
        .recommend(&target, &ReferenceSpec::WholeTable)
        .unwrap();
    assert_eq!(rec.cache.misses, views.len());
    drop(rec);

    let signature = |dim: ColumnId| {
        ViewSpec {
            id: 0,
            dim,
            measure: column("amount"),
            func: AggFunc::Avg,
        }
        .signature()
    };
    for (label, dim) in [
        ("dense dictionary", region),
        ("NULL group in the map", status),
        ("hash-path Int64", year),
        ("hash-path Int64, 400 groups", column("store")),
    ] {
        let view = signature(dim);
        let key = cache
            .0
            .lock()
            .keys()
            .find(|key| key.contains(&format!("|{view}|")))
            .cloned()
            .expect("every view deposits");
        let entry = cache.0.lock().remove(&key).expect("present");
        assert_eq!(
            Arc::strong_count(&entry),
            1,
            "{label}: the cache's only copy"
        );
        assert!(
            entry.deltas.iter().all(|d| Arc::strong_count(d) == 1),
            "{label}: no delta shared with another entry"
        );
        let charged = CacheValue::Partial(entry.clone()).approx_size();
        let before = LIVE.load(Ordering::Relaxed);
        drop(entry);
        let freed = before - LIVE.load(Ordering::Relaxed);
        let ratio = charged as f64 / freed as f64;
        eprintln!(
            "{label}: {} phases, charged {charged} B, freed {freed} B ({ratio:.3})",
            key.rsplit("|ph").next().unwrap_or("?")
        );
        assert!(
            (0.9..=1.1).contains(&ratio),
            "{label}: approx_size {charged} B against {freed} B of heap"
        );
    }
}
