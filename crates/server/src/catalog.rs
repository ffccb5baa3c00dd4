//! The dataset catalog: lazily generated Table 1 datasets plus ingested
//! CSV datasets, shared immutably across requests.
//!
//! `seedbd` serves the paper's Table 1 inventory (`seedb_data::registry`).
//! Generating a dataset is expensive, so the catalog builds each
//! `(name, rows)` instance once, on first use, and hands out `Arc`s; the
//! tables themselves are immutable, so every concurrent request can scan
//! the same storage. A row cap protects the daemon from a request
//! demanding a 60-million-row AIR10 build — and from a `POST /datasets`
//! upload larger than the daemon is configured to hold.
//!
//! Ingested datasets ([`Catalog::ingest_csv`]) are first-class: they are
//! served by name like Table 1 entries (ingested names shadow Table 1
//! names), listed by `GET /datasets`, and carry a content fingerprint
//! ([`crate::csv::fingerprint`]) that keys their cross-request cache
//! namespace ([`seedb_core::ingested_instance_signature`]) — re-uploading
//! different bytes under the same name re-keys every cache entry, and
//! [`Catalog::ingest`] reports the replaced instance so its entries can
//! be purged. A request reads its table and that fingerprint in one
//! lookup ([`Catalog::resolve`]), so a racing re-upload cannot pair one
//! upload's results with the other's key.
//!
//! Every failure mode is a typed [`CatalogError`] with an HTTP status:
//! unknown names and malformed CSV are client errors (400/404), oversized
//! uploads are 413 — never a blanket 500.

use crate::csv;
use seedb_data::registry::{generate_by_name, table1};
use seedb_data::Dataset;
use seedb_engine::Predicate;
use seedb_storage::{ColumnId, ColumnRole, StoreKind, TableBuilder};
use seedb_util::Json;
use seedb_util::PLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Why a catalog operation failed. Each variant maps to the HTTP status a
/// route should answer with ([`CatalogError::status`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// No Table 1 entry or ingested dataset has this name.
    UnknownDataset(String),
    /// The name exists in Table 1 but has no generator wired up.
    NoGenerator(String),
    /// The uploaded CSV failed to parse or has an unusable schema.
    BadCsv(String),
    /// The upload holds more rows than the daemon's row cap.
    RowCapExceeded {
        /// Rows in the upload.
        rows: usize,
        /// The configured cap.
        max: usize,
    },
}

impl CatalogError {
    /// The HTTP status this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            CatalogError::UnknownDataset(_)
            | CatalogError::NoGenerator(_)
            | CatalogError::BadCsv(_) => 400,
            CatalogError::RowCapExceeded { .. } => 413,
        }
    }
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::UnknownDataset(name) => write!(f, "unknown dataset '{name}'"),
            CatalogError::NoGenerator(name) => write!(f, "no generator for '{name}'"),
            CatalogError::BadCsv(msg) => write!(f, "bad CSV: {msg}"),
            CatalogError::RowCapExceeded { rows, max } => {
                write!(f, "dataset has {rows} rows, exceeding the cap of {max}")
            }
        }
    }
}

/// An ingested dataset plus the fingerprint of the bytes it came from.
struct Ingested {
    dataset: Arc<Dataset>,
    fingerprint: u64,
}

/// What one successful upload changed ([`Catalog::ingest`]).
pub struct Ingest {
    /// The dataset now served under the upload's name.
    pub dataset: Arc<Dataset>,
    /// Content fingerprint of the uploaded bytes.
    pub fingerprint: u64,
    /// `(rows, fingerprint)` of the upload this one replaced, when its
    /// bytes differed: the instance whose cache entries no request can
    /// reach any more. `None` for a first upload or identical bytes.
    pub replaced: Option<(usize, u64)>,
}

/// Lazily populated, thread-safe dataset store.
pub struct Catalog {
    /// Hard cap on rows per dataset instance (generated or ingested).
    max_rows: usize,
    /// Default rows when a request does not say (≤ `max_rows`).
    default_rows: usize,
    /// Generation seed (fixed so instances are deterministic).
    seed: u64,
    /// Store layout for generated tables.
    kind: StoreKind,
    /// Built instances, keyed by `(name, rows)`.
    built: PLock<HashMap<(String, usize), Arc<Dataset>>>,
    /// Ingested instances, keyed by name; a re-upload replaces.
    ingested: PLock<HashMap<String, Ingested>>,
    /// Fault-injection hook ([`crate::faults`]): milliseconds every
    /// cold build sleeps before generating. Zero (the default) is free.
    build_delay_ms: AtomicU64,
}

impl Catalog {
    /// A catalog capping dataset instances at `max_rows` rows.
    pub fn new(max_rows: usize, default_rows: usize, seed: u64) -> Self {
        let max_rows = max_rows.max(1);
        Catalog {
            max_rows,
            default_rows: default_rows.clamp(1, max_rows),
            seed,
            kind: StoreKind::Column,
            built: PLock::new("server.catalog.built", HashMap::new()),
            ingested: PLock::new("server.catalog.ingested", HashMap::new()),
            build_delay_ms: AtomicU64::new(0),
        }
    }

    /// Fault-injection hook: make every cold dataset build sleep `ms`
    /// milliseconds first, widening the window in which a request
    /// deadline can expire mid-build. Cached instances stay instant.
    pub fn set_build_delay_ms(&self, ms: u64) {
        self.build_delay_ms.store(ms, Ordering::Relaxed);
    }

    /// The row cap.
    pub fn max_rows(&self) -> usize {
        self.max_rows
    }

    /// Effective row count of a generated instance: `requested` clamped
    /// to the cap and the dataset's full size, or the default when
    /// unspecified. A pure function of the configuration: ingested
    /// datasets, whose size is their own, never enter it.
    pub fn generated_rows(&self, name: &str, requested: Option<usize>) -> usize {
        let full = table1()
            .into_iter()
            .find(|d| d.name == name)
            .map(|d| d.rows)
            .unwrap_or(self.max_rows);
        requested
            .unwrap_or(self.default_rows)
            .clamp(1, self.max_rows)
            .min(full)
    }

    /// The instance a request for `name` reads, with the content
    /// fingerprint of an ingested one, taken in one lookup. A re-upload
    /// racing the request therefore either precedes it entirely or not
    /// at all: results computed on one table can never be keyed by the
    /// other table's fingerprint. A generated instance (`None`) has
    /// [`Catalog::generated_rows`] rows.
    pub fn resolve(
        &self,
        name: &str,
        requested: Option<usize>,
    ) -> Result<(Arc<Dataset>, Option<u64>), CatalogError> {
        let ingested = self
            .ingested
            .lock()
            .get(name)
            .map(|i| (i.dataset.clone(), i.fingerprint));
        match ingested {
            Some((dataset, fingerprint)) => Ok((dataset, Some(fingerprint))),
            None => {
                let rows = self.generated_rows(name, requested);
                Ok((self.generated(name, rows)?, None))
            }
        }
    }

    /// The dataset instance for `(name, rows)`. Ingested names resolve to
    /// their (fixed-size) table; Table 1 names are generated on first use.
    pub fn dataset(&self, name: &str, rows: usize) -> Result<Arc<Dataset>, CatalogError> {
        self.resolve(name, Some(rows)).map(|(dataset, _)| dataset)
    }

    /// The Table 1 instance for `(name, rows)`, generated on first use,
    /// with `rows` clamped to the row cap (and the dataset's full size)
    /// *here*, where the expensive build happens — the cap must hold for
    /// every caller, not just the HTTP route that goes through
    /// [`Catalog::generated_rows`].
    fn generated(&self, name: &str, rows: usize) -> Result<Arc<Dataset>, CatalogError> {
        let info = table1()
            .into_iter()
            .find(|d| d.name == name)
            .ok_or_else(|| CatalogError::UnknownDataset(name.to_owned()))?;
        let rows = rows.clamp(1, self.max_rows).min(info.rows);
        let key = (name.to_owned(), rows);
        if let Some(ds) = self.built.lock().get(&key) {
            return Ok(ds.clone());
        }
        // Generate outside the lock: builds take seconds at large scales
        // and must not block requests for other datasets. Two racing
        // requests may both build; the second insert wins and both Arcs
        // are valid (generation is deterministic).
        let delay = self.build_delay_ms.load(Ordering::Relaxed);
        if delay > 0 {
            std::thread::sleep(std::time::Duration::from_millis(delay));
        }
        let scale = (rows as f64 / info.rows as f64).min(1.0);
        let ds = generate_by_name(name, scale, self.seed, self.kind)
            .ok_or_else(|| CatalogError::NoGenerator(name.to_owned()))?;
        let ds = Arc::new(ds);
        self.built.lock().insert(key, ds.clone());
        Ok(ds)
    }

    /// Ingests CSV text as dataset `name`, replacing any previous upload
    /// under that name ([`Catalog::ingest`] without the swap report).
    pub fn ingest_csv(&self, name: &str, text: &str) -> Result<Arc<Dataset>, CatalogError> {
        self.ingest(name, text).map(|ingest| ingest.dataset)
    }

    /// Ingests CSV text as dataset `name`, replacing any previous upload
    /// under that name, and reports what the swap replaced. The text is
    /// read in two passes ([`csv::CsvReader`]): every check runs before a
    /// single row is built, then rows stream straight into the table
    /// builder, partition-at-a-time (zone maps sealed during load, like
    /// every other table). The canonical target is the first dimension's
    /// first-interned label, so `/recommend` works without a `where` the
    /// same way it does for Table 1 entries.
    pub fn ingest(&self, name: &str, text: &str) -> Result<Ingest, CatalogError> {
        let reader = csv::CsvReader::new(text).map_err(CatalogError::BadCsv)?;
        if reader.rows() == 0 {
            return Err(CatalogError::BadCsv("no data records after header".into()));
        }
        if reader.rows() > self.max_rows {
            return Err(CatalogError::RowCapExceeded {
                rows: reader.rows(),
                max: self.max_rows,
            });
        }
        let defs = reader.defs();
        let n_dims = defs
            .iter()
            .filter(|d| d.role == ColumnRole::Dimension)
            .count();
        let n_measures = defs
            .iter()
            .filter(|d| d.role == ColumnRole::Measure)
            .count();
        if n_dims == 0 || n_measures == 0 {
            return Err(CatalogError::BadCsv(format!(
                "need at least one dimension (text/bool column) and one measure \
                 (numeric column); inferred {n_dims} dimension(s) and {n_measures} measure(s)"
            )));
        }
        let Some(target_col) = defs.iter().position(|d| d.role == ColumnRole::Dimension) else {
            // Unreachable given the n_dims check above, but a malformed
            // upload must never panic the serving path.
            return Err(CatalogError::BadCsv("no dimension column".into()));
        };

        let mut builder = TableBuilder::try_new(defs.to_vec())
            .map_err(|e| CatalogError::BadCsv(e.to_string()))?;
        reader
            .read_rows(|row| builder.push_row(row).map_err(|e| e.to_string()))
            .map_err(CatalogError::BadCsv)?;
        let table = builder
            .build(self.kind)
            .map_err(|e| CatalogError::BadCsv(e.to_string()))?;

        // Canonical target: first dimension = its first interned label
        // (code 0). Bool dimensions have no dictionary; target `= true`.
        let col = ColumnId(target_col as u32);
        let target = if table.dictionary(col).is_some() {
            Predicate::CatEq { col, code: 0 }
        } else {
            Predicate::BoolEq { col, value: true }
        };
        let dataset = Arc::new(Dataset {
            name: name.to_owned(),
            table,
            target,
            task: "ingested".to_owned(),
        });
        let fingerprint = csv::fingerprint(text);
        let replaced = self.ingested.lock().insert(
            name.to_owned(),
            Ingested {
                dataset: dataset.clone(),
                fingerprint,
            },
        );
        // The replaced table is freed here, after the lock is released.
        let replaced = replaced
            .filter(|old| old.fingerprint != fingerprint)
            .map(|old| (old.dataset.rows(), old.fingerprint));
        Ok(Ingest {
            dataset,
            fingerprint,
            replaced,
        })
    }

    /// Names of instances built so far, as `name@rows` (generated) and
    /// `name@rows (ingested)`, sorted.
    pub fn loaded(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .built
            .lock()
            .keys()
            .map(|(name, rows)| format!("{name}@{rows}"))
            .collect();
        names.extend(
            self.ingested
                .lock()
                .values()
                .map(|i| format!("{}@{} (ingested)", i.dataset.name, i.dataset.rows())),
        );
        names.sort();
        names
    }

    /// The `GET /datasets` body: the Table 1 inventory, ingested uploads,
    /// and what this process has materialized.
    pub fn list_json(&self) -> Json {
        let datasets: Vec<Json> = table1()
            .into_iter()
            .map(|d| {
                Json::obj()
                    .set("name", d.name)
                    .set("description", d.description)
                    .set("category", d.category)
                    .set("full_rows", d.rows)
                    .set("dims", d.dims)
                    .set("measures", d.measures)
                    .set("views", d.views)
            })
            .collect();
        let ingested: Vec<Json> = {
            let guard = self.ingested.lock();
            let mut entries: Vec<&Ingested> = guard.values().collect();
            entries.sort_by(|a, b| a.dataset.name.cmp(&b.dataset.name));
            entries
                .iter()
                .map(|i| {
                    let (dims, measures, views) = i.dataset.shape();
                    Json::obj()
                        .set("name", i.dataset.name.as_str())
                        .set("rows", i.dataset.rows())
                        .set("dims", dims)
                        .set("measures", measures)
                        .set("views", views)
                        .set("fingerprint", format!("{:016x}", i.fingerprint))
                })
                .collect()
        };
        let loaded: Vec<Json> = self.loaded().into_iter().map(Json::from).collect();
        Json::obj()
            .set("datasets", datasets)
            .set("ingested", ingested)
            .set("max_rows", self.max_rows)
            .set("default_rows", self.default_rows)
            .set("loaded", loaded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Catalog {
        Catalog::new(2_000, 1_000, 17)
    }

    /// `unwrap_err` for results whose Ok side (`Dataset`) has no `Debug`.
    fn expect_err(r: Result<Arc<Dataset>, CatalogError>) -> CatalogError {
        match r {
            Err(e) => e,
            Ok(_) => panic!("expected an error"),
        }
    }

    #[test]
    fn builds_lazily_and_shares_instances() {
        let c = catalog();
        assert!(c.loaded().is_empty());
        let a = c.dataset("HOUSING", 500).unwrap();
        let b = c.dataset("HOUSING", 500).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same instance must be shared");
        assert_eq!(c.loaded(), vec!["HOUSING@500".to_owned()]);
        // A different row count is a different instance.
        let d = c.dataset("HOUSING", 200).unwrap();
        assert!(!Arc::ptr_eq(&a, &d));
        assert!(d.rows() <= a.rows());
    }

    #[test]
    fn unknown_dataset_is_a_client_error() {
        let err = expect_err(catalog().dataset("NOPE", 100));
        assert_eq!(err, CatalogError::UnknownDataset("NOPE".into()));
        assert_eq!(err.status(), 400);
        assert!(err.to_string().contains("NOPE"));
    }

    #[test]
    fn dataset_enforces_the_row_cap_itself() {
        // The cap must hold even for callers that bypass generated_rows —
        // a direct 60M-row AIR10 demand builds the capped instance.
        let c = catalog();
        let ds = c.dataset("CENSUS", 60_000_000).unwrap();
        assert!(ds.rows() <= 2_100, "rows = {}", ds.rows());
        assert_eq!(c.loaded(), vec!["CENSUS@2000".to_owned()]);
        // And it shares the instance with the equivalent clamped request.
        let same = c.dataset("CENSUS", 2_000).unwrap();
        assert!(Arc::ptr_eq(&ds, &same));
    }

    #[test]
    fn generated_rows_clamps_to_cap_and_full_size() {
        let c = catalog();
        assert_eq!(c.generated_rows("CENSUS", None), 1_000);
        assert_eq!(c.generated_rows("CENSUS", Some(99_999)), 2_000);
        assert_eq!(c.generated_rows("CENSUS", Some(0)), 1);
        // HOUSING only has 500 rows in Table 1.
        assert_eq!(c.generated_rows("HOUSING", Some(99_999)), 500);
        // resolve builds the generated instance at exactly that size.
        let (ds, fingerprint) = c.resolve("HOUSING", Some(99_999)).unwrap();
        assert_eq!(fingerprint, None);
        assert!(Arc::ptr_eq(&ds, &c.dataset("HOUSING", 500).unwrap()));
    }

    #[test]
    fn list_json_inventories_table1() {
        let c = catalog();
        c.dataset("HOUSING", 500).unwrap();
        let j = c.list_json();
        assert_eq!(j.get("datasets").unwrap().as_arr().unwrap().len(), 10);
        assert_eq!(j.get("max_rows").unwrap().as_u64(), Some(2_000));
        let loaded = j.get("loaded").unwrap().as_arr().unwrap();
        assert_eq!(loaded.len(), 1);
    }

    #[test]
    fn ingests_csv_and_serves_it_by_name() {
        let c = catalog();
        let csv = "city,visits\nparis,10\nparis,20\nlyon,5\n";
        let ds = c.ingest_csv("trips", csv).unwrap();
        assert_eq!(ds.rows(), 3);
        assert_eq!(ds.task, "ingested");
        assert_eq!(
            ds.target,
            Predicate::CatEq {
                col: ColumnId(0),
                code: 0
            }
        );
        // Served by name, ignoring the rows argument.
        let again = c.dataset("trips", 999_999).unwrap();
        assert!(Arc::ptr_eq(&ds, &again));
        let (resolved, fingerprint) = c.resolve("trips", Some(1)).unwrap();
        assert!(Arc::ptr_eq(&ds, &resolved));
        assert_eq!(fingerprint, Some(csv::fingerprint(csv)));
        assert!(c.loaded().iter().any(|l| l.contains("ingested")));
        let j = c.list_json();
        assert_eq!(j.get("ingested").unwrap().as_arr().unwrap().len(), 1);
    }

    #[test]
    fn reingest_replaces_and_refingerprints() {
        let c = catalog();
        let first = c.ingest("d", "a,m\nx,1\n").unwrap();
        assert_eq!(first.replaced, None);
        let second = c.ingest("d", "a,m\nx,2\ny,3\n").unwrap();
        assert_ne!(first.fingerprint, second.fingerprint);
        // The swap names the instance it replaced: 1 row, the old bytes.
        assert_eq!(second.replaced, Some((1, first.fingerprint)));
        let (ds, fingerprint) = c.resolve("d", None).unwrap();
        assert_eq!(ds.rows(), 2);
        assert_eq!(fingerprint, Some(second.fingerprint));
        // Identical bytes replace the table but no cache namespace.
        let again = c.ingest("d", "a,m\nx,2\ny,3\n").unwrap();
        assert_eq!(again.replaced, None);
        assert_eq!(again.fingerprint, second.fingerprint);
    }

    #[test]
    fn ingest_rejects_unusable_schemas_as_client_errors() {
        let c = catalog();
        // No measure column.
        let err = expect_err(c.ingest_csv("d", "a,b\nx,y\n"));
        assert_eq!(err.status(), 400);
        assert!(err.to_string().contains("measure"), "{err}");
        // No dimension column.
        let err = expect_err(c.ingest_csv("d", "m,n\n1,2\n"));
        assert_eq!(err.status(), 400);
        // Header only.
        let err = expect_err(c.ingest_csv("d", "a,m\n"));
        assert_eq!(err.status(), 400);
        // Malformed CSV.
        let err = expect_err(c.ingest_csv("d", "a,m\nx\n"));
        assert_eq!(err.status(), 400);
        // Nothing was stored.
        assert!(c.resolve("d", None).is_err());
    }

    #[test]
    fn ingest_row_cap_is_a_413_not_a_500() {
        let c = Catalog::new(3, 3, 17);
        let mut csv = String::from("a,m\n");
        for i in 0..4 {
            csv.push_str(&format!("x,{i}\n"));
        }
        let err = expect_err(c.ingest_csv("big", &csv));
        assert_eq!(err, CatalogError::RowCapExceeded { rows: 4, max: 3 });
        assert_eq!(err.status(), 413);
        assert!(c.resolve("big", None).is_err());
    }

    #[test]
    fn bool_only_dimension_gets_a_bool_target() {
        let c = catalog();
        let ds = c.ingest_csv("flags", "flag,m\ntrue,1\nfalse,2\n").unwrap();
        assert_eq!(
            ds.target,
            Predicate::BoolEq {
                col: ColumnId(0),
                value: true
            }
        );
    }

    #[test]
    fn ingested_tables_are_partitioned() {
        let c = Catalog::new(100_000, 1_000, 17);
        let mut csv = String::from("a,m\n");
        for i in 0..20_000 {
            csv.push_str(&format!("x{},{}\n", i % 3, i));
        }
        let ds = c.ingest_csv("parts", &csv).unwrap();
        // DEFAULT_PARTITION_ROWS = 8192 → 20_000 rows = 3 partitions.
        assert_eq!(ds.table.partitions().len(), 3);
    }
}
