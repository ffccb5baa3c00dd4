//! Shared harness for the `figures` binary (`src/bin/figures.rs`), which
//! reproduces the paper's performance figures on scaled-down synthetic
//! twins of the Table 1 datasets and gates the within-run ratios they
//! imply. This crate holds what the runner needs beyond the figures
//! themselves: dataset construction at bench scale, one interleaved
//! sampler for every timed comparison, and the gate evaluator.

use std::time::Instant;

use seedb_core::{PhysicalPlan, Recommendation, ReferenceSpec, SeeDb, SeeDbConfig};
use seedb_data::registry::generate_by_name;
use seedb_data::{table1, Dataset};
use seedb_engine::{AggFunc, AggSpec, CombinedQuery};
use seedb_storage::StoreKind;
use seedb_util::Json;

/// Deterministic seed shared by every figure so runs are comparable.
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
/// Panics if the engine rejects the configuration — figures always pass
/// validated presets.
pub fn recommend(dataset: &Dataset, config: &SeeDbConfig) -> Recommendation {
    SeeDb::with_config(dataset.table.clone(), config.clone())
        .recommend(&dataset.target, &ReferenceSpec::WholeTable)
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

/// Median of `values` (the mean of the middle two for an even count;
/// NaN when empty).
pub fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len().is_multiple_of(2) {
        (values[mid - 1] + values[mid]) / 2.0
    } else {
        values[mid]
    }
}

/// Times `terms` interleaved, `run(t)` running term `t`: after one
/// untimed warmup call of each term, every one of `rounds` rounds calls
/// term 0, term 1, … in turn, `per_round` times over, so host drift lands
/// on every term of a comparison alike instead of on whichever term a
/// block measured last.
pub fn interleave(
    rounds: usize,
    per_round: usize,
    terms: usize,
    mut run: impl FnMut(usize),
) -> Rounds {
    (0..terms).for_each(&mut run);
    let mut samples = vec![Vec::with_capacity(rounds * per_round); terms];
    let mut medians = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let mut round = vec![Vec::with_capacity(per_round); terms];
        for _ in 0..per_round {
            for (term, times) in round.iter_mut().enumerate() {
                let start = Instant::now();
                run(term);
                times.push(start.elapsed().as_secs_f64() * 1e3);
            }
        }
        for (all, times) in samples.iter_mut().zip(&round) {
            all.extend_from_slice(times);
        }
        medians.push(round.into_iter().map(median).collect());
    }
    Rounds { samples, medians }
}

/// What [`interleave`] measured, in milliseconds.
#[derive(Debug)]
pub struct Rounds {
    /// Every timed sample, per term.
    samples: Vec<Vec<f64>>,
    /// Each term's median within each round: `medians[round][term]`.
    medians: Vec<Vec<f64>>,
}

impl Rounds {
    /// `f` over each round's per-term medians, then the median across
    /// rounds: the estimator every gated ratio uses. Each round compares
    /// its terms inside one time window, and the median across rounds
    /// discards a round a scheduler spike polluted.
    pub fn stat(&self, f: impl Fn(&[f64]) -> f64) -> f64 {
        median(self.medians.iter().map(|round| f(round)).collect())
    }

    /// Term `term`'s median across rounds of its per-round medians.
    pub fn median_ms(&self, term: usize) -> f64 {
        self.stat(|round| round[term])
    }

    /// Term `term`'s samples summarised.
    pub fn timing(&self, term: usize) -> Timing {
        Timing::from_samples(&self.samples[term])
    }
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

impl From<Timing> for Json {
    fn from(t: Timing) -> Json {
        Json::obj()
            .set("mean_ms", t.mean_ms)
            .set("min_ms", t.min_ms)
            .set("max_ms", t.max_ms)
            .set("runs", t.runs)
    }
}

/// Which side of its limit a gated value must stay on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// The value must be ≥ the limit.
    Floor,
    /// The value must be ≤ the limit.
    Ceiling,
}

/// One gated result, `(figure, field, bound, limit)`: every entry of
/// `BENCH_<figure>.json` that carries `field` must keep it on the `bound`
/// side of `limit` (a value equal to the limit passes), and at least one
/// entry must carry it.
#[derive(Debug, Clone, Copy)]
pub struct Gate(pub &'static str, pub &'static str, pub Bound, pub f64);

/// Checks `gates` against each figure's results, `(figure, results)`.
/// Returns one `(passed, line)` verdict per gated value, and one failing
/// verdict for a gate whose figure or field no result carries. A line
/// names the entry's `dataset` when it has one.
pub fn check_gates(gates: &[Gate], figures: &[(&str, Vec<Json>)]) -> Vec<(bool, String)> {
    let mut verdicts = Vec::new();
    for &Gate(figure, field, bound, limit) in gates {
        let values: Vec<(f64, Option<&str>)> = figures
            .iter()
            .filter(|(name, _)| *name == figure)
            .flat_map(|(_, results)| results)
            .filter_map(|r| {
                let value = r.get(field)?.as_num()?;
                Some((value, r.get("dataset").and_then(Json::as_str)))
            })
            .collect();
        if values.is_empty() {
            verdicts.push((
                false,
                format!("MISSING   {figure}/{field}: no result carries it"),
            ));
        }
        for (value, dataset) in values {
            let (passed, side) = match bound {
                Bound::Floor => (value >= limit, "floor"),
                Bound::Ceiling => (value <= limit, "ceiling"),
            };
            let verdict = if passed { "ok" } else { "REGRESSED" };
            let at = dataset.map(|d| format!(" [{d}]")).unwrap_or_default();
            verdicts.push((
                passed,
                format!("{verdict:9} {figure}/{field}{at}: {value:.3} ({side} {limit:.3})"),
            ));
        }
    }
    verdicts
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
        let mut calls = [0; 2];
        let rounds = interleave(3, 2, 2, |term| {
            calls[term] += 1;
            std::hint::black_box(vec![0u8; 1024]);
        });
        assert_eq!(calls, [1 + 3 * 2; 2]); // one warmup, then rounds × per_round
        let t = rounds.timing(1);
        assert_eq!(t.runs, 6);
        assert!(t.min_ms <= t.mean_ms && t.mean_ms <= t.max_ms);
        assert!(rounds.median_ms(1) >= t.min_ms && rounds.median_ms(1) <= t.max_ms);
    }

    #[test]
    fn timing_converts_to_json() {
        let t = interleave(1, 2, 1, |_| {}).timing(0);
        let j = Json::from(t);
        assert_eq!(j.get("runs").unwrap().as_u64(), Some(2));
        assert!(j.get("min_ms").unwrap().as_num().is_some());
    }

    #[test]
    fn stat_is_the_median_of_per_round_values() {
        let rounds = Rounds {
            samples: vec![],
            medians: vec![vec![2.0, 1.0], vec![9.0, 3.0], vec![4.0, 1.0]],
        };
        assert_eq!(rounds.stat(|r| r[0] / r[1]), 3.0); // of 2, 3, 4
        assert_eq!(rounds.median_ms(0), 4.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    const FLOOR: Gate = Gate("fig", "speedup", Bound::Floor, 2.0);
    const CEILING: Gate = Gate("fig", "overhead", Bound::Ceiling, 1.1);

    fn results(speedup: f64, overhead: f64) -> Vec<(&'static str, Vec<Json>)> {
        let summary = Json::obj()
            .set("dataset", "D")
            .set("speedup", speedup)
            .set("overhead", overhead);
        vec![("fig", vec![Json::obj().set("rows", 1u64), summary])]
    }

    fn passed(verdicts: &[(bool, String)]) -> Vec<bool> {
        verdicts.iter().map(|(ok, _)| *ok).collect()
    }

    #[test]
    fn a_value_on_its_limit_passes() {
        let verdicts = check_gates(&[FLOOR, CEILING], &results(2.0, 1.1));
        assert_eq!(passed(&verdicts), [true, true]);
        assert_eq!(
            verdicts[0].1,
            "ok        fig/speedup [D]: 2.000 (floor 2.000)"
        );
    }

    #[test]
    fn a_floor_trips_below_its_limit_and_prints_the_value() {
        let verdicts = check_gates(&[FLOOR, CEILING], &results(1.95, 1.0));
        assert_eq!(passed(&verdicts), [false, true]);
        assert_eq!(
            verdicts[0].1,
            "REGRESSED fig/speedup [D]: 1.950 (floor 2.000)"
        );
    }

    #[test]
    fn a_ceiling_trips_above_its_limit() {
        let verdicts = check_gates(&[CEILING], &results(3.0, 1.104));
        assert_eq!(passed(&verdicts), [false]);
        assert_eq!(
            verdicts[0].1,
            "REGRESSED fig/overhead [D]: 1.104 (ceiling 1.100)"
        );
    }

    #[test]
    fn every_entry_carrying_the_field_is_checked() {
        let mut figures = results(3.0, 1.0);
        figures[0]
            .1
            .push(Json::obj().set("dataset", "E").set("speedup", 1.0));
        let verdicts = check_gates(&[FLOOR], &figures);
        assert_eq!(passed(&verdicts), [true, false]);
        assert!(verdicts[1].1.contains("[E]: 1.000"), "{}", verdicts[1].1);
    }

    #[test]
    fn a_missing_field_or_figure_fails() {
        let absent = Gate("fig", "absent", Bound::Floor, 2.0);
        let elsewhere = Gate("other", "speedup", Bound::Floor, 2.0);
        let verdicts = check_gates(&[absent, elsewhere], &results(3.0, 1.0));
        assert_eq!(passed(&verdicts), [false, false]);
        assert_eq!(verdicts[0].1, "MISSING   fig/absent: no result carries it");
    }
}
