//! Heap high-water of a table build: staging and sealing a table should
//! cost little more than the columns it produces.
//!
//! The table is shaped like the benchmark's events table — an ascending
//! `Int64` key outside view enumeration, categorical dimensions and
//! non-integral float measures — so every non-dimension column has one
//! distinct value per row. A hash set over one such column's values costs
//! more than the column itself (≈ 4.7 MB of `u64` buckets beside 2 MB of
//! `f64`s), so keeping one for any of them fails the bound below.
//!
//! This file is its own test binary with a single test, so the counting
//! allocator sees nothing but this build.

use seedb_storage::{
    ColumnData, ColumnDef, ColumnId, ColumnRole, ColumnType, Table, TableBuilder, Value,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// `System`, plus a count of live heap bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates two counters beside it, so `System`'s
// guarantees carry over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`; forwarded unchanged.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const ROWS: usize = 256 * 1024;

/// Payload plus validity bytes of one built column.
fn column_bytes(data: &ColumnData, has_validity: bool) -> usize {
    let payload = match data {
        ColumnData::Int64(v) => v.len() * 8,
        ColumnData::Float64(v) => v.len() * 8,
        ColumnData::Categorical(v) => v.len() * 4,
        ColumnData::Bool(b) => b.len().div_ceil(8),
    };
    payload
        + if has_validity {
            data.len().div_ceil(8)
        } else {
            0
        }
}

#[test]
fn build_peak_heap_stays_near_the_column_bytes() {
    let defs = vec![
        ColumnDef::new("ts", ColumnType::Int64, ColumnRole::Ignore),
        ColumnDef::dim("region"),
        ColumnDef::dim("device"),
        ColumnDef::measure("latency"),
        ColumnDef::measure("bytes"),
        ColumnDef::measure("score"),
    ];
    let regions: Vec<String> = (0..12).map(|i| format!("region_{i}")).collect();
    let devices: Vec<String> = (0..40).map(|i| format!("device_{i}")).collect();
    let mut row: Vec<Value> = Vec::with_capacity(defs.len());

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let mut builder = TableBuilder::new(defs);
    for i in 0..ROWS {
        let x = i as f64;
        row.clear();
        row.push(Value::Int(i as i64));
        row.push(Value::Str(regions[i % regions.len()].clone()));
        row.push(Value::Str(devices[(i * 7) % devices.len()].clone()));
        row.push(Value::Float(x * 0.37 + 0.1));
        row.push(Value::Float(1e6 - x * 1.013));
        row.push(Value::Float((x * 0.001).sin() + 2.5));
        builder.push_row(&row).unwrap();
    }
    let table = builder.build_column_store().unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - before;

    assert_eq!(table.num_rows(), ROWS);
    let built: usize = (0..table.schema().len())
        .map(|c| {
            let column = table.column(ColumnId(c as u32));
            column_bytes(&column.data, column.validity.is_some())
        })
        .sum();
    assert!(
        peak as f64 <= 1.5 * built as f64,
        "build peak {peak} B is {:.2}x the {built} B of built columns",
        peak as f64 / built as f64
    );
}
