//! Fixed-size table partitions (segments) with per-column zone maps.
//!
//! The table builder seals a [`Partition`] every [`DEFAULT_PARTITION_ROWS`]
//! rows (configurable via `TableBuilder::with_partition_rows`): a
//! contiguous row range plus one [`ColumnZone`] per schema column, computed
//! during load. Partitions are *logical* — both storage layouts keep their
//! physical representation unchanged and expose the partition directory
//! through [`crate::Table::partitions`] — but they are the engine's unit of
//! pruning and parallelism: a scan consults the zones to skip partitions no
//! contributing row can live in, and fans the surviving partitions out over
//! the morsel scheduler.

use crate::schema::ColumnId;
use crate::zonemap::ColumnZone;
use std::ops::Range;

/// Default number of rows per partition. A multiple of the default batch
/// size (1024) so batch boundaries stay aligned inside a partition, and
/// small enough that zone maps get selective on clustered data.
pub const DEFAULT_PARTITION_ROWS: usize = 8192;

/// One sealed partition: a contiguous row range and its zone maps.
#[derive(Debug, Clone)]
pub struct Partition {
    /// The rows this partition covers (contiguous, non-empty).
    pub rows: Range<usize>,
    /// One zone per schema column, in schema order.
    pub zones: Vec<ColumnZone>,
}

impl Partition {
    /// Number of rows in the partition.
    pub fn len(&self) -> usize {
        self.rows.end - self.rows.start
    }

    /// Whether the partition covers no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Zone map of column `col`, if the column exists.
    pub fn zone(&self, col: ColumnId) -> Option<&ColumnZone> {
        self.zones.get(col.index())
    }

    /// Intersection of this partition's rows with `range` (possibly empty).
    pub fn clip(&self, range: &Range<usize>) -> Range<usize> {
        let start = self.rows.start.max(range.start);
        let end = self.rows.end.min(range.end);
        start..end.max(start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;
    use crate::zonemap::ZoneBuilder;

    fn partition(rows: Range<usize>) -> Partition {
        let mut zb = ZoneBuilder::new(ColumnType::Float64);
        for r in rows.clone() {
            zb.observe(r as f64);
        }
        Partition {
            rows,
            zones: vec![zb.seal()],
        }
    }

    #[test]
    fn clip_intersects_ranges() {
        let p = partition(10..20);
        assert_eq!(p.clip(&(0..100)), 10..20);
        assert_eq!(p.clip(&(15..17)), 15..17);
        assert_eq!(p.clip(&(0..12)), 10..12);
        assert_eq!(p.clip(&(18..40)), 18..20);
        assert!(p.clip(&(0..5)).is_empty());
        assert!(p.clip(&(25..30)).is_empty());
    }

    #[test]
    fn len_and_zone_access() {
        let p = partition(0..7);
        assert_eq!(p.len(), 7);
        assert!(!p.is_empty());
        assert!(p.zone(ColumnId(0)).is_some());
        assert!(p.zone(ColumnId(9)).is_none());
        assert_eq!(p.zone(ColumnId(0)).unwrap().min, Some(0.0));
        assert_eq!(p.zone(ColumnId(0)).unwrap().max, Some(6.0));
    }
}
