//! Per-dataset smoke tests: every generator must produce a non-empty
//! table, with the dataset's canonical target predicate, that
//! `SeeDb::recommend` accepts end-to-end.

use seedb_core::{ReferenceSpec, SeeDb, SeeDbConfig};
use seedb_data::registry::generate_by_name;
use seedb_data::syn::{syn, SynConfig};
use seedb_data::table1;
use seedb_storage::StoreKind;

fn assert_recommendable(ds: &seedb_data::Dataset) {
    assert!(ds.rows() > 0, "{}: generated an empty table", ds.name);
    let (dims, measures, views) = ds.shape();
    assert!(
        dims > 0 && measures > 0 && views == dims * measures,
        "{}: bad shape",
        ds.name
    );

    let mut cfg = SeeDbConfig::default();
    cfg.k = 5;
    let rec = SeeDb::with_config(ds.table.clone(), cfg)
        .recommend(&ds.target, &ReferenceSpec::WholeTable)
        .unwrap_or_else(|e| panic!("{}: recommend failed: {e}", ds.name));
    assert!(!rec.views.is_empty(), "{}: no views recommended", ds.name);
    assert_eq!(
        rec.all_utilities.len(),
        views,
        "{}: utilities must cover every view",
        ds.name
    );
    assert!(
        rec.views
            .iter()
            .all(|v| v.utility.is_finite() && v.utility >= 0.0),
        "{}: non-finite or negative utility",
        ds.name
    );
}

macro_rules! dataset_smoke {
    ($($test:ident => ($name:literal, $rows:expr);)*) => {$(
        #[test]
        fn $test() {
            let info = table1()
                .into_iter()
                .find(|d| d.name == $name)
                .expect("dataset present in Table 1");
            let scale = ($rows as f64 / info.rows as f64).min(1.0);
            let ds = generate_by_name($name, scale, 23, StoreKind::Column)
                .expect("generator exists");
            assert_eq!(ds.name, $name);
            assert_recommendable(&ds);
        }
    )*};
}

dataset_smoke! {
    census_generates_and_recommends => ("CENSUS", 800);
    bank_generates_and_recommends => ("BANK", 800);
    air_generates_and_recommends => ("AIR", 800);
    air10_generates_and_recommends => ("AIR10", 800);
    diab_generates_and_recommends => ("DIAB", 800);
    movies_generates_and_recommends => ("MOVIES", 500);
    housing_generates_and_recommends => ("HOUSING", 500);
    syn_star10_generates_and_recommends => ("SYN*-10", 800);
    syn_star100_generates_and_recommends => ("SYN*-100", 800);
}

#[test]
fn syn_generates_and_recommends() {
    // SYN at Table 1 attribute counts (50 dims x 20 measures = 1000 views)
    // on a small row count; exercises the full view enumeration width.
    let cfg = SynConfig {
        rows: 400,
        dims: 50,
        measures: 20,
        distinct: None,
        seed: 23,
    };
    let ds = syn(&cfg, StoreKind::Column);
    assert_eq!(ds.shape(), (50, 20, 1000));
    assert_recommendable(&ds);
}

#[test]
fn generators_work_on_both_store_layouts() {
    for kind in [StoreKind::Row, StoreKind::Column] {
        let ds = generate_by_name("CENSUS", 0.02, 23, kind).expect("generator exists");
        assert_recommendable(&ds);
    }
}

#[test]
fn generators_are_deterministic_in_seed() {
    let a = generate_by_name("BANK", 0.01, 5, StoreKind::Column).unwrap();
    let b = generate_by_name("BANK", 0.01, 5, StoreKind::Column).unwrap();
    assert_eq!(a.rows(), b.rows());
    let cfg = SeeDbConfig::default();
    let rec_a = SeeDb::with_config(a.table.clone(), cfg.clone())
        .recommend(&a.target, &ReferenceSpec::WholeTable)
        .unwrap();
    let rec_b = SeeDb::with_config(b.table.clone(), cfg)
        .recommend(&b.target, &ReferenceSpec::WholeTable)
        .unwrap();
    assert_eq!(rec_a.all_utilities, rec_b.all_utilities);
}

/// Footprint guard: an accumulator's exact sum lives in an inline window of
/// five 32-bit-spaced chunks and only reaches for the heap when one sum's
/// values span more than that. Real measure columns must not — per-group
/// state, cached partials and peak RSS are all sized on the inline form
/// (plus, while a scan runs, a 16-byte lane per aggregate and a row count
/// per group-side slot) — so hold the paper-scale Table 1 twins to it
/// (DIAB: 100K rows, Gaussian measures clamped at zero): every group of
/// every dimension, every measure, both sides. Their NULL-free float
/// measures also go through the fixed-point lanes whole, whose folds must
/// land in the same window.
#[test]
fn twin_sums_never_leave_the_inline_window() {
    use seedb_engine::{execute_combined, AggFunc, AggSpec, CombinedQuery, ExecStats, SplitSpec};
    for (name, rows) in [("DIAB", 100_000), ("CENSUS", 21_000), ("BANK", 40_000)] {
        let ds = generate_by_name(name, 1.0, 17, StoreKind::Column).expect("generator exists");
        assert_eq!(ds.rows(), rows, "{name}");
        let schema = ds.table.schema();
        let aggregates: Vec<AggSpec> = schema
            .measures()
            .iter()
            .map(|m| AggSpec::new(AggFunc::Avg, *m))
            .collect();
        let mut stats = ExecStats::new();
        for dim in schema.dimensions() {
            let query = CombinedQuery {
                group_by: vec![dim],
                aggregates: aggregates.clone(),
                filter: None,
                split: SplitSpec::TargetVsAll(ds.target.clone()),
            };
            let result = execute_combined(ds.table.as_ref(), &query, &mut stats);
            let mut reference_rows = 0;
            for group in &result.groups {
                reference_rows += group.reference[0].count;
                for acc in group.target.iter().chain(&group.reference) {
                    assert!(
                        !acc.sum_spilled(),
                        "{name} {dim:?} {:?}: {acc:?}",
                        group.key
                    );
                }
            }
            assert_eq!(reference_rows, rows as u64, "{name} {dim:?}");
        }
        assert_eq!(
            stats.fixed_lane_updates, stats.accumulator_updates,
            "{name}"
        );
    }
}
