//! Seeded input generators: every table, predicate pool, request body and
//! CSV the workloads use comes from here, so the same `--seed` gives the
//! same inputs byte for byte and the program under test only ever sees
//! generated inputs.
//!
//! Cost structure is held fixed across seeds on purpose: selectivities sit
//! on a fixed ladder and the seed only chooses *which* column, label and
//! direction lands on each rung. A run with another seed then measures the
//! same amount of work on different data, which is what lets the spread
//! between seeds stay inside the regression bounds.

use seedb_core::ReferenceSpec;
use seedb_engine::{CmpOp, Predicate};
use seedb_storage::{
    BoxedTable, Cell, ColumnDef, ColumnId, ColumnRole, ColumnType, StoreKind, Table, TableBuilder,
    Value,
};

/// The seed every Table 1 twin (DIAB, CENSUS) is generated with, whatever
/// `--seed` says: the repo-wide data seed, which is also
/// `ServerConfig::default().seed`. The paper's datasets are fixed data; what
/// a run's seed varies is what is asked of them — predicate pools, request
/// streams — and the benchmark-built events tables and CSVs. A twin's
/// random realization decides how early `CI` prunes, so letting it move
/// with the seed would move the cost of a request, not just its inputs.
pub const DATA_SEED: u64 = 17;

/// SplitMix64: tiny, seedable, and independent of the workspace's own
/// `rand` shim, so a change to that shim cannot move the benchmark's
/// inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated by `stream` so each client or
    /// generator stage draws from its own sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal (Box–Muller).
    pub fn gauss(&mut self) -> f64 {
        let u = self.unit().max(f64::MIN_POSITIVE);
        let v = self.unit();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }
}

/// A selection over named columns, renderable both as the SQL `WHERE` body
/// the server accepts and as the engine predicate the library accepts —
/// one generator feeds the in-process and the served workloads.
#[derive(Debug, Clone, PartialEq)]
pub enum Cond {
    /// `column = 'label'`.
    DimEq { column: String, label: String },
    /// `column <op> value`.
    NumCmp {
        column: String,
        op: CmpOp,
        value: f64,
    },
    /// Conjunction.
    And(Vec<Cond>),
}

impl Cond {
    /// `lo <= column AND column < hi`.
    pub fn window(column: &str, lo: f64, hi: f64) -> Cond {
        Cond::And(vec![
            Cond::NumCmp {
                column: column.to_owned(),
                op: CmpOp::Ge,
                value: lo,
            },
            Cond::NumCmp {
                column: column.to_owned(),
                op: CmpOp::Lt,
                value: hi,
            },
        ])
    }

    /// The SQL `WHERE` body (Rust's `f64` display is the shortest
    /// round-trip form and never uses an exponent, which the lexer reads
    /// back exactly).
    pub fn sql(&self) -> String {
        match self {
            Cond::DimEq { column, label } => format!("{column} = '{label}'"),
            Cond::NumCmp { column, op, value } => format!("{column} {} {value}", op.sql()),
            Cond::And(parts) => parts
                .iter()
                .map(Cond::sql)
                .collect::<Vec<_>>()
                .join(" AND "),
        }
    }

    /// The engine predicate over `table`. Unknown columns or labels select
    /// nothing, as they would through SQL.
    pub fn predicate(&self, table: &dyn Table) -> Predicate {
        match self {
            Cond::DimEq { column, label } => Predicate::col_eq_str(table, column, label),
            Cond::NumCmp { column, op, value } => match table.schema().column_id(column) {
                Some(col) => Predicate::NumCmp {
                    col,
                    op: *op,
                    value: *value,
                },
                None => Predicate::False,
            },
            Cond::And(parts) => Predicate::And(parts.iter().map(|p| p.predicate(table)).collect()),
        }
    }
}

/// One recommendation request: a target selection and, unless the
/// reference is the whole table, a reference selection.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub target: Cond,
    pub reference: Option<Cond>,
}

impl Query {
    /// `target` against the whole table.
    pub fn vs_all(target: Cond) -> Query {
        Query {
            target,
            reference: None,
        }
    }

    /// The library-level form of this query over `table`.
    pub fn bind(&self, table: &dyn Table) -> (Predicate, ReferenceSpec) {
        let reference = match &self.reference {
            None => ReferenceSpec::WholeTable,
            Some(cond) => ReferenceSpec::Query(cond.predicate(table)),
        };
        (self.target.predicate(table), reference)
    }
}

/// What the pool generators need to know about a table: label shares of
/// every dimension and an ascending sample of every measure.
pub struct Profile {
    dims: Vec<(String, Vec<(String, f64)>)>,
    measures: Vec<(String, Vec<f64>)>,
}

/// Most rows [`Profile::of`] reads per table; quantiles from 20 000 evenly
/// spaced rows are within half a percent of the true ones.
const PROFILE_SAMPLE: usize = 20_000;

impl Profile {
    /// Profiles `table` from an evenly spaced row sample.
    pub fn of(table: &dyn Table) -> Profile {
        let schema = table.schema();
        let rows = table.num_rows();
        let step = rows.div_ceil(PROFILE_SAMPLE).max(1);
        let sampled = (0..rows).step_by(step).count().max(1) as f64;
        let dims = schema
            .dimensions()
            .into_iter()
            .filter_map(|col| {
                let dict = table.dictionary(col)?;
                let mut counts = vec![0usize; dict.len()];
                for row in (0..rows).step_by(step) {
                    if let Cell::Cat(code) = table.cell(row, col) {
                        counts[code as usize] += 1;
                    }
                }
                let labels = dict
                    .iter()
                    .map(|(code, label)| (label.to_owned(), counts[code as usize] as f64 / sampled))
                    .collect();
                Some((schema.column(col).name.clone(), labels))
            })
            .collect();
        let measures = schema
            .measures()
            .into_iter()
            .map(|col| {
                let mut values: Vec<f64> = (0..rows)
                    .step_by(step)
                    .filter_map(|row| table.cell(row, col).as_f64())
                    .collect();
                crate::stats::sort(&mut values);
                (schema.column(col).name.clone(), values)
            })
            .collect();
        Profile { dims, measures }
    }

    /// `measure <op> threshold` selecting about `share` of the rows.
    fn threshold(&self, rng: &mut Rng, share: f64) -> Cond {
        let (name, sorted) = &self.measures[rng.below(self.measures.len())];
        let (op, q) = if rng.below(2) == 0 {
            (CmpOp::Lt, share)
        } else {
            (CmpOp::Gt, 1.0 - share)
        };
        Cond::NumCmp {
            column: name.clone(),
            op,
            value: crate::stats::quantile_sorted(sorted, q),
        }
    }

    /// `dim = 'label'` for one of the three labels, over all dimensions,
    /// whose share is nearest `share` and that `used` does not hold yet.
    fn equality(&self, rng: &mut Rng, share: f64, used: &mut Vec<Cond>) -> Cond {
        let mut candidates: Vec<(f64, Cond)> = self
            .dims
            .iter()
            .flat_map(|(name, labels)| {
                labels.iter().map(move |(label, s)| {
                    let cond = Cond::DimEq {
                        column: name.clone(),
                        label: label.clone(),
                    };
                    ((s - share).abs(), cond)
                })
            })
            .filter(|(_, cond)| !used.contains(cond))
            .collect();
        candidates.sort_by(|a, b| a.0.total_cmp(&b.0));
        let pick = rng.below(candidates.len().clamp(1, 3));
        let cond = candidates.swap_remove(pick).1;
        used.push(cond.clone());
        cond
    }

    /// A pool of `n` target selections at 5–50% selectivity: thresholds on
    /// an exact selectivity ladder alternate with dimension equalities
    /// nearest the same rung. The ladder is the same for every seed.
    pub fn pool(&self, seed: u64, n: usize) -> Vec<Cond> {
        let mut rng = Rng::new(seed, 0x7001);
        let mut used = Vec::new();
        (0..n)
            .map(|i| {
                let share = 0.05 + 0.45 * (i as f64 + 0.5) / n as f64;
                if i % 2 == 0 {
                    self.threshold(&mut rng, share)
                } else {
                    self.equality(&mut rng, share, &mut used)
                }
            })
            .collect()
    }

    /// The `serve_miss` stream: `dim = 'label' AND measure < t` with a
    /// threshold drawn from the middle of the measure's range, so no two
    /// draws ever collide and every request is a first sight.
    pub fn unique(&self, rng: &mut Rng) -> Cond {
        let (dim, labels) = &self.dims[rng.below(self.dims.len())];
        let (label, _) = &labels[rng.below(labels.len())];
        let (measure, sorted) = &self.measures[rng.below(self.measures.len())];
        let lo = crate::stats::quantile_sorted(sorted, 0.35);
        let hi = crate::stats::quantile_sorted(sorted, 0.85);
        Cond::And(vec![
            Cond::DimEq {
                column: dim.clone(),
                label: label.clone(),
            },
            Cond::NumCmp {
                column: measure.clone(),
                op: CmpOp::Lt,
                value: lo + (hi - lo) * rng.unit(),
            },
        ])
    }
}

/// Dimension cardinalities of the time-ordered events table.
const EVENT_DIM_CARDS: [usize; 6] = [4, 7, 12, 20, 33, 50];
/// Its float measures.
const EVENT_MEASURES: [&str; 3] = ["amount", "latency", "score"];

/// One generated event row: `ts`, six dimension codes, three measures.
struct EventRow {
    ts: i64,
    dims: [usize; 6],
    measures: [f64; 3],
}

/// Seeded event rows in ascending `ts` order. Measures drift slowly with
/// time and by dimension, so sliding windows genuinely deviate from their
/// predecessors; the fractional parts keep every float measure
/// non-integral (integer-valued `Float64` columns hit a known pathological
/// build path — see the README's known baselines).
fn event_rows(seed: u64, rows: usize) -> impl Iterator<Item = EventRow> {
    let mut rng = Rng::new(seed, 0xE7E7);
    (0..rows).map(move |i| {
        let mut dims = [0usize; 6];
        for (d, card) in dims.iter_mut().zip(EVENT_DIM_CARDS) {
            // Squaring skews toward low codes, like real categorical data.
            let u = rng.unit();
            *d = ((u * u) * card as f64) as usize;
        }
        let season = (i as f64 / rows as f64 * std::f64::consts::TAU * 3.0).sin();
        let measures = [
            100.0 + 25.0 * rng.gauss() + 30.0 * season * (dims[0] as f64 - 1.5),
            (20.0 + 6.0 * rng.gauss() + 2.0 * dims[2] as f64 * season).abs() + 0.125,
            0.5 + 0.2 * rng.gauss() + 0.05 * season * dims[1] as f64,
        ];
        EventRow {
            ts: i as i64,
            dims,
            measures,
        }
    })
}

/// The `window_events1m` table: `ts` (ascending `Int64`, excluded from
/// view enumeration), six categorical dimensions, three float measures,
/// default partition size — so `ts` windows prune whole partitions.
pub fn events_table(seed: u64, rows: usize) -> BoxedTable {
    let mut defs = vec![ColumnDef::new("ts", ColumnType::Int64, ColumnRole::Ignore)];
    defs.extend((0..EVENT_DIM_CARDS.len()).map(|d| ColumnDef::dim(format!("d{d}"))));
    defs.extend(EVENT_MEASURES.iter().map(|m| ColumnDef::measure(*m)));
    let mut builder = TableBuilder::new(defs);
    let labels: Vec<Vec<String>> = EVENT_DIM_CARDS
        .iter()
        .enumerate()
        .map(|(d, card)| (0..*card).map(|c| format!("d{d}_{c}")).collect())
        .collect();
    let mut row: Vec<Value> = Vec::with_capacity(10);
    for event in event_rows(seed, rows) {
        row.clear();
        row.push(Value::Int(event.ts));
        for (d, code) in event.dims.iter().enumerate() {
            row.push(Value::Str(labels[d][*code].clone()));
        }
        row.extend(event.measures.iter().map(|m| Value::Float(*m)));
        builder.push_row(&row).expect("event rows match the schema");
    }
    builder
        .build(StoreKind::Column)
        .expect("the events schema is valid")
}

/// The first three dimensions and two measures of the same events as CSV
/// text (header + `rows` records, ~25 bytes a record),
/// as a client would upload them to `POST /datasets`. The server infers
/// `ts` as an integer measure, so an upload has 3 × 3 views.
pub fn events_csv(seed: u64, rows: usize) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(rows * 28 + 64);
    out.push_str("ts,region,kind,tier,amount,latency\n");
    for event in event_rows(seed, rows) {
        let [region, kind, tier, ..] = event.dims;
        let [amount, latency, _] = event.measures;
        let _ = writeln!(
            out,
            "{},r{region},k{kind},t{tier},{amount:.1},{latency:.1}",
            event.ts
        );
    }
    out
}

/// A `ts` window pair over a `rows`-row events table: the target covers
/// `target_share` of the rows and the reference is the `reference_share`
/// just before it. `position` in `[0, 1)` slides the pair along the table.
pub fn window_pair(rows: usize, position: f64, target_share: f64, reference_share: f64) -> Query {
    let target = (rows as f64 * target_share) as usize;
    let reference = (rows as f64 * reference_share) as usize;
    let slack = rows - target - reference;
    let start = reference + (slack as f64 * position) as usize;
    Query {
        target: Cond::window("ts", start as f64, (start + target) as f64),
        reference: Some(Cond::window("ts", (start - reference) as f64, start as f64)),
    }
}

/// Columns a recommendation over `table` reads: every dimension and
/// measure, plus whatever the predicates reference.
pub fn referenced_columns(table: &dyn Table, predicates: &[&Predicate]) -> Vec<ColumnId> {
    let schema = table.schema();
    let mut cols = schema.dimensions();
    cols.extend(schema.measures());
    for p in predicates {
        p.collect_columns(&mut cols);
    }
    cols.sort();
    cols.dedup();
    cols
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_seed_and_stream() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(17, 1), draw(17, 1));
        assert_ne!(draw(17, 1), draw(18, 1));
        assert_ne!(draw(17, 1), draw(17, 2));
        let mut r = Rng::new(3, 0);
        for _ in 0..1_000 {
            assert!(r.below(7) < 7);
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn conditions_render_as_sql_and_bind_as_predicates() {
        let table = events_table(17, 500);
        let query = window_pair(500, 0.5, 0.05, 0.2);
        assert_eq!(query.target.sql(), "ts >= 287 AND ts < 312");
        assert_eq!(
            query.reference.as_ref().unwrap().sql(),
            "ts >= 187 AND ts < 287"
        );
        let (Predicate::And(parts), ReferenceSpec::Query(_)) = query.bind(table.as_ref()) else {
            panic!("a window pair is two conjunctions");
        };
        assert_eq!(parts.len(), 2);
        let missing = Cond::DimEq {
            column: "nope".into(),
            label: "x".into(),
        };
        assert_eq!(missing.predicate(table.as_ref()), Predicate::False);
    }

    #[test]
    fn events_are_time_ordered_and_seeded() {
        assert_eq!(events_csv(17, 200), events_csv(17, 200));
        assert_ne!(events_csv(17, 200), events_csv(18, 200));
        let table = events_table(17, 300);
        assert_eq!(table.num_rows(), 300);
        assert_eq!(table.schema().dimensions().len(), 6);
        assert_eq!(table.schema().measures().len(), 3);
        let ts = table.schema().column_id("ts").unwrap();
        assert_eq!(table.cell(0, ts), Cell::Int(0));
        assert_eq!(table.cell(299, ts), Cell::Int(299));
        // The CSV and the table are the same events.
        let csv = events_csv(17, 300);
        assert_eq!(csv.lines().count(), 301);
    }

    #[test]
    fn pools_sit_on_the_selectivity_ladder() {
        let table = events_table(17, 4_000);
        let profile = Profile::of(table.as_ref());
        let pool = profile.pool(17, 16);
        assert_eq!(pool.len(), 16);
        assert_eq!(pool, profile.pool(17, 16));
        assert_ne!(pool, profile.pool(18, 16));
        // Threshold rungs select what the ladder says, within sampling.
        for (i, cond) in pool.iter().enumerate().filter(|(i, _)| i % 2 == 0) {
            let want = 0.05 + 0.45 * (i as f64 + 0.5) / 16.0;
            let pred = cond.predicate(table.as_ref());
            let mut cols = Vec::new();
            pred.collect_columns(&mut cols);
            let bound = pred.bind(&|c| cols.iter().position(|x| *x == c).unwrap());
            let mut hits = 0usize;
            table.scan_range(&cols, 0..4_000, &mut |cells| {
                hits += bound.eval(cells) as usize
            });
            let got = hits as f64 / 4_000.0;
            assert!((got - want).abs() < 0.02, "rung {i}: {got} vs {want}");
        }
    }
}
