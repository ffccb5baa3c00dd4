//! The schema-faithful twin generator: builds a dataset from a declarative
//! [`TwinSpec`] with planted target-vs-reference deviation.
//!
//! ## How deviation is planted
//!
//! Every row is first assigned target membership (Bernoulli with the spec's
//! target fraction), realized as the value of a designated *target
//! dimension* (e.g. BANK's `subscribed = yes/no`). Measures start from a
//! per-measure Gaussian base. For every [`Effect`] `(dim d, measure m,
//! strength s)`, rows **inside the target** get their `m` value tilted by a
//! factor proportional to `s` and to the row's group within `d`:
//!
//! ```text
//! m ← m · (1 + s · tilt(group))      tilt ∈ [−1, +1], linear in group code
//! ```
//!
//! Reference rows keep the base distribution, so the view `(d, m, AVG)`
//! shows target-vs-reference deviation that grows with `s`, while
//! un-planted views deviate only by sampling noise. Choosing a decreasing
//! ladder of strengths reproduces the paper's Figure 10 utility
//! distributions (a few separated leaders, a clustered top-k boundary, a
//! flat tail).

use crate::dataset::Dataset;
use crate::gen::{gaussian, pick_weighted, zipf_weights};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use seedb_engine::Predicate;
use seedb_storage::{ColumnDef, ColumnRole, ColumnType, StoreKind, TableBuilder, Value};

/// A dimension attribute of a twin dataset.
#[derive(Debug, Clone)]
pub struct DimSpec {
    /// Column name.
    pub name: String,
    /// Category labels (cardinality = `labels.len()`).
    pub labels: Vec<String>,
    /// Zipf skew of the label distribution (0 = uniform).
    pub skew: f64,
}

impl DimSpec {
    /// Dimension with explicit labels.
    pub fn labeled(name: &str, labels: &[&str]) -> Self {
        DimSpec {
            name: name.to_owned(),
            labels: labels.iter().map(|s| s.to_string()).collect(),
            skew: 0.4,
        }
    }

    /// Dimension with `card` generated labels `{name}_0 ..`.
    pub fn cardinality(name: &str, card: usize) -> Self {
        DimSpec {
            name: name.to_owned(),
            labels: (0..card.max(1)).map(|i| format!("{name}_{i}")).collect(),
            skew: 0.4,
        }
    }
}

/// A measure attribute of a twin dataset.
#[derive(Debug, Clone)]
pub struct MeasureSpec {
    /// Column name.
    pub name: String,
    /// Gaussian base mean.
    pub mean: f64,
    /// Gaussian base standard deviation.
    pub sd: f64,
    /// Clamp at zero (for inherently non-negative quantities).
    pub non_negative: bool,
}

impl MeasureSpec {
    /// Measure with the given base Gaussian.
    pub fn new(name: &str, mean: f64, sd: f64) -> Self {
        MeasureSpec {
            name: name.to_owned(),
            mean,
            sd,
            non_negative: true,
        }
    }
}

/// A planted deviation: views `(dims[dim], measures[measure], AVG)` will
/// deviate with the given strength.
#[derive(Debug, Clone, Copy)]
pub struct Effect {
    /// Index into [`TwinSpec::dims`].
    pub dim: usize,
    /// Index into [`TwinSpec::measures`].
    pub measure: usize,
    /// Tilt strength (0 = no deviation; 1 = strong).
    pub strength: f64,
}

/// Declarative description of a twin dataset.
#[derive(Debug, Clone)]
pub struct TwinSpec {
    /// Dataset name (Table 1 spelling).
    pub name: String,
    /// Dimension attributes. `dims[target_dim]` is the membership flag and
    /// must have exactly two labels: `[target_label, other]`.
    pub dims: Vec<DimSpec>,
    /// Measure attributes.
    pub measures: Vec<MeasureSpec>,
    /// Which dimension encodes target membership.
    pub target_dim: usize,
    /// Fraction of rows in the target subset.
    pub target_fraction: f64,
    /// Planted deviations.
    pub effects: Vec<Effect>,
    /// One-line description of the canonical task.
    pub task: String,
}

impl TwinSpec {
    /// Generates `rows` rows deterministically from `seed` into the given
    /// store layout.
    pub fn generate(&self, rows: usize, seed: u64, kind: StoreKind) -> Dataset {
        assert!(
            self.dims[self.target_dim].labels.len() == 2,
            "target dimension must be binary"
        );
        let mut rng = StdRng::seed_from_u64(seed);

        let mut defs: Vec<ColumnDef> = Vec::new();
        for d in &self.dims {
            defs.push(ColumnDef::new(
                &d.name,
                ColumnType::Categorical,
                ColumnRole::Dimension,
            ));
        }
        for m in &self.measures {
            defs.push(ColumnDef::new(
                &m.name,
                ColumnType::Float64,
                ColumnRole::Measure,
            ));
        }
        let mut builder = TableBuilder::new(defs);

        // Pre-compute per-dimension weights.
        let weights: Vec<Vec<f64>> = self
            .dims
            .iter()
            .map(|d| zipf_weights(d.labels.len(), d.skew))
            .collect();

        let mut row: Vec<Value> = Vec::with_capacity(self.dims.len() + self.measures.len());
        let mut dim_codes: Vec<usize> = vec![0; self.dims.len()];
        for _ in 0..rows {
            row.clear();
            let in_target = rng.gen::<f64>() < self.target_fraction;
            for (i, d) in self.dims.iter().enumerate() {
                let code = if i == self.target_dim {
                    usize::from(!in_target) // label 0 = target, label 1 = rest
                } else {
                    pick_weighted(&mut rng, &weights[i])
                };
                dim_codes[i] = code;
                row.push(Value::Str(d.labels[code].clone()));
            }
            for (j, m) in self.measures.iter().enumerate() {
                let mut value = gaussian(&mut rng, m.mean, m.sd);
                if in_target {
                    for e in &self.effects {
                        if e.measure == j {
                            let card = self.dims[e.dim].labels.len();
                            let tilt = if card > 1 {
                                2.0 * (dim_codes[e.dim] as f64 / (card - 1) as f64) - 1.0
                            } else {
                                0.0
                            };
                            value *= 1.0 + e.strength * tilt;
                        }
                    }
                }
                if m.non_negative && value < 0.0 {
                    value = 0.0;
                }
                row.push(Value::Float(value));
            }
            builder.push_row(&row).expect("twin rows match schema");
        }

        let table = builder.build(kind).expect("twin schema is valid");
        let target_label = self.dims[self.target_dim].labels[0].clone();
        let target = Predicate::col_eq_str(
            table.as_ref(),
            &self.dims[self.target_dim].name,
            &target_label,
        );
        Dataset {
            name: self.name.clone(),
            table,
            target,
            task: self.task.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> TwinSpec {
        TwinSpec {
            name: "TEST".into(),
            dims: vec![
                DimSpec::labeled("flag", &["yes", "no"]),
                DimSpec::cardinality("d1", 4),
                DimSpec::cardinality("d2", 3),
            ],
            measures: vec![
                MeasureSpec::new("m0", 100.0, 10.0),
                MeasureSpec::new("m1", 50.0, 5.0),
            ],
            target_dim: 0,
            target_fraction: 0.3,
            effects: vec![Effect {
                dim: 1,
                measure: 0,
                strength: 0.8,
            }],
            task: "test task".into(),
        }
    }

    #[test]
    fn generates_requested_shape() {
        let ds = small_spec().generate(500, 1, StoreKind::Column);
        assert_eq!(ds.rows(), 500);
        assert_eq!(ds.shape(), (3, 2, 6));
        assert_eq!(ds.table.schema().column_id("flag").map(|c| c.0), Some(0));
    }

    #[test]
    fn deterministic_in_seed() {
        let a = small_spec().generate(200, 7, StoreKind::Column);
        let b = small_spec().generate(200, 7, StoreKind::Column);
        for row in 0..200 {
            for col in 0..5 {
                let id = seedb_storage::ColumnId(col);
                assert_eq!(a.table.cell(row, id), b.table.cell(row, id));
            }
        }
        let c = small_spec().generate(200, 8, StoreKind::Column);
        let differs = (0..200).any(|row| {
            a.table.cell(row, seedb_storage::ColumnId(3))
                != c.table.cell(row, seedb_storage::ColumnId(3))
        });
        assert!(differs, "different seeds must differ");
    }

    #[test]
    fn target_fraction_approximately_respected() {
        let ds = small_spec().generate(4000, 2, StoreKind::Column);
        let flag = ds.table.schema().column_id("flag").unwrap();
        let dict = ds.table.dictionary(flag).unwrap();
        let yes_code = dict.code("yes").unwrap();
        let mut yes = 0usize;
        for row in 0..ds.rows() {
            if ds.table.cell(row, flag) == seedb_storage::Cell::Cat(yes_code) {
                yes += 1;
            }
        }
        let frac = yes as f64 / ds.rows() as f64;
        assert!((frac - 0.3).abs() < 0.05, "target fraction {frac}");
    }

    #[test]
    fn planted_effect_creates_deviation_unplanted_does_not() {
        use seedb_core::{ReferenceSpec, SeeDb, SeeDbConfig};
        let ds = small_spec().generate(4000, 3, StoreKind::Column);
        let mut cfg = SeeDbConfig::default();
        cfg.strategy = seedb_core::ExecutionStrategy::Sharing;
        let seedb = SeeDb::with_config(ds.table.clone(), cfg);
        let rec = seedb
            .recommend(&ds.target, &ReferenceSpec::Complement)
            .unwrap();
        // Find the utilities of (d1, m0) [planted] and (d2, m1) [not].
        let views = seedb.views();
        let schema = seedb.table().schema();
        let planted = views
            .iter()
            .find(|v| schema.column(v.dim).name == "d1" && schema.column(v.measure).name == "m0")
            .unwrap();
        let unplanted = views
            .iter()
            .find(|v| schema.column(v.dim).name == "d2" && schema.column(v.measure).name == "m1")
            .unwrap();
        let u_planted = rec.all_utilities[planted.id];
        let u_unplanted = rec.all_utilities[unplanted.id];
        assert!(
            u_planted > 3.0 * u_unplanted,
            "planted {u_planted} should dominate unplanted {u_unplanted}"
        );
    }

    #[test]
    #[should_panic(expected = "binary")]
    fn non_binary_target_dim_panics() {
        let mut spec = small_spec();
        spec.target_dim = 1; // d1 has 4 labels
        spec.generate(10, 1, StoreKind::Column);
    }
}
