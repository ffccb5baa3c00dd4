//! Shared harness for the SeeDB benchmark suite.
//!
//! The seven Criterion benches (`benches/`) and the `figures` binary
//! (`src/bin/figures.rs`) reproduce the paper's performance figures on
//! scaled-down synthetic twins of the Table 1 datasets. This crate holds
//! what they share: dataset construction at bench scale, configuration
//! presets, and a timing loop for the figure runner. The dependency-free
//! JSON value used for the `BENCH_*.json` trajectory files lives in
//! `seedb-util` (shared with the serving layer) and is re-exported here.

use std::time::Instant;

use seedb_core::{PhysicalPlan, Predicate, Recommendation, ReferenceSpec, SeeDb, SeeDbConfig};
use seedb_data::registry::generate_by_name;
use seedb_data::{table1, Dataset};
use seedb_engine::{AggFunc, AggSpec, CombinedQuery};
use seedb_storage::StoreKind;

/// Deterministic seed shared by every bench so runs are comparable.
pub const BENCH_SEED: u64 = 17;

/// Generates dataset `name` (a Table 1 name) truncated to about
/// `rows` rows, on the given store layout.
///
/// # Panics
/// Panics if `name` is not a Table 1 dataset.
pub fn bench_dataset(name: &str, rows: usize, kind: StoreKind) -> Dataset {
    let info = table1()
        .into_iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("unknown Table 1 dataset {name}"));
    let scale = (rows as f64 / info.rows as f64).min(1.0);
    generate_by_name(name, scale, BENCH_SEED, kind)
        .unwrap_or_else(|| panic!("no generator for {name}"))
}

/// Runs one full recommendation pass over a dataset with its canonical
/// target query and a whole-table reference.
///
/// # Panics
/// Panics if the engine rejects the configuration — benches always pass
/// validated presets.
pub fn recommend(dataset: &Dataset, config: &SeeDbConfig) -> Recommendation {
    recommend_with_target(dataset, &dataset.target, config)
}

/// [`recommend`] with an explicit target predicate.
///
/// # Panics
/// Panics if the engine rejects the configuration.
pub fn recommend_with_target(
    dataset: &Dataset,
    target: &Predicate,
    config: &SeeDbConfig,
) -> Recommendation {
    SeeDb::with_config(dataset.table.clone(), config.clone())
        .recommend(target, &ReferenceSpec::WholeTable)
        .expect("bench recommendation failed")
}

/// The combined queries `plan`'s clusters stand for over `dataset` with
/// its canonical target and a whole-table reference: one per cluster,
/// `AVG` of every measure aggregated once — what the executor scans, for
/// probes that drive the engine directly.
pub fn cluster_queries(dataset: &Dataset, plan: &PhysicalPlan) -> Vec<CombinedQuery> {
    let aggregates: Vec<AggSpec> = dataset
        .table
        .schema()
        .measures()
        .iter()
        .map(|m| AggSpec::new(AggFunc::Avg, *m))
        .collect();
    plan.clusters
        .iter()
        .map(|cluster| CombinedQuery {
            group_by: cluster.clone(),
            aggregates: aggregates.clone(),
            filter: None,
            split: ReferenceSpec::WholeTable.to_split(dataset.target.clone()),
        })
        .collect()
}

/// Mean / min / max wall-clock milliseconds of `runs` executions of `f`,
/// after one untimed warmup execution.
pub fn time_ms<F: FnMut()>(runs: usize, mut f: F) -> Timing {
    f(); // warmup: page in the dataset, warm caches
    time_ms_prewarmed(runs, f)
}

/// [`time_ms`] without the warmup execution — for callers that have
/// already run `f` once (e.g. to capture its result).
pub fn time_ms_prewarmed<F: FnMut()>(runs: usize, mut f: F) -> Timing {
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Timing::from_samples(&samples)
}

/// Wall-clock summary of repeated runs, in milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Mean across runs.
    pub mean_ms: f64,
    /// Fastest run.
    pub min_ms: f64,
    /// Slowest run.
    pub max_ms: f64,
    /// Number of timed runs.
    pub runs: usize,
}

impl Timing {
    fn from_samples(samples: &[f64]) -> Self {
        let runs = samples.len().max(1);
        let sum: f64 = samples.iter().sum();
        Timing {
            mean_ms: sum / runs as f64,
            min_ms: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max_ms: samples.iter().copied().fold(0.0, f64::max),
            runs,
        }
    }
}

/// The workspace-shared minimal JSON value (parser + writer), re-exported
/// so bench tooling keeps its historical `seedb_bench::Json` path. The
/// implementation lives in [`seedb_util::json`] and is shared with the
/// `seedbd` serving layer.
pub use seedb_util::Json;

impl From<Timing> for Json {
    fn from(t: Timing) -> Json {
        Json::obj()
            .set("mean_ms", t.mean_ms)
            .set("min_ms", t.min_ms)
            .set("max_ms", t.max_ms)
            .set("runs", t.runs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_dataset_scales_rows_and_keeps_shape() {
        let ds = bench_dataset("BANK", 500, StoreKind::Column);
        assert_eq!(ds.name, "BANK");
        assert!(ds.rows() > 0 && ds.rows() <= 1_000, "rows = {}", ds.rows());
        assert_eq!(ds.shape(), (11, 7, 77)); // Table 1 shape survives scaling
    }

    #[test]
    fn recommend_runs_on_a_bench_dataset() {
        let ds = bench_dataset("HOUSING", 500, StoreKind::Column);
        let rec = recommend(&ds, &SeeDbConfig::default());
        assert!(!rec.views.is_empty());
    }

    #[test]
    fn timing_summarizes_samples() {
        let t = time_ms(3, || {
            std::hint::black_box(vec![0u8; 1024]);
        });
        assert_eq!(t.runs, 3);
        assert!(t.min_ms <= t.mean_ms && t.mean_ms <= t.max_ms);
    }

    #[test]
    fn timing_converts_to_json() {
        let t = time_ms(2, || {});
        let j = Json::from(t);
        assert_eq!(j.get("runs").unwrap().as_u64(), Some(2));
        assert!(j.get("min_ms").unwrap().as_num().is_some());
    }
}
