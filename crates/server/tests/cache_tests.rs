//! The ISSUE-mandated cache guarantees, tested end to end:
//!
//! 1. deterministic LRU eviction under a fixed memory budget,
//! 2. signature collision-freedom across differing predicates/configs
//!    (property-based),
//! 3. responses under 8 parallel clients bit-identical to direct
//!    `SeeDb::recommend` on the same inputs,
//! 4. a run with a cache attached bit-identical to one without, for every
//!    configuration, reading and writing the one `|phN` key per view the
//!    README's cache section names.

use proptest::prelude::*;
use seedb_core::{
    predicate_signature, DistanceKind, ExecutionStrategy, Knob, MemoryViewCache, Predicate,
    PruningKind, Recommendation, ReferenceSpec, SeeDb, SeeDbConfig,
};
use seedb_engine::CmpOp;
use seedb_server::{client, Server, ServerConfig};
use seedb_storage::ColumnId;
use seedb_util::Json;
use std::sync::Arc;

fn boot(cache_bytes: usize) -> seedb_server::ServerHandle {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        max_rows: 3_000,
        default_rows: 800,
        cache_bytes,
        ..Default::default()
    };
    Server::bind(config).unwrap().spawn().unwrap()
}

/// 1a. Server-level: a cache squeezed far below the working set must
/// evict (deterministically, oldest first) yet stay correct — a re-issued
/// query recomputes and matches its original response exactly.
#[test]
fn tiny_budget_evicts_but_stays_correct() {
    let handle = boot(8 * 1024); // far too small for several responses
    let addr = handle.addr();

    let bodies: Vec<String> = (1..=6)
        .map(|k| format!(r#"{{"dataset": "HOUSING", "rows": 300, "k": {k}}}"#))
        .collect();
    let mut first: Vec<Json> = Vec::new();
    for body in &bodies {
        let (status, j) = client::request_json(addr, "POST", "/recommend", Some(body)).unwrap();
        assert_eq!(status, 200);
        first.push(j);
    }
    let state = handle.state();
    assert!(
        state
            .cache
            .stats()
            .evictions
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0,
        "six responses + partials cannot fit 8 KiB without eviction"
    );
    assert!(state.cache.bytes() <= state.cache.budget());

    // Replay: some will be misses (evicted), but every payload must be
    // byte-identical to the first pass.
    for (body, want) in bodies.iter().zip(&first) {
        let (status, j) = client::request_json(addr, "POST", "/recommend", Some(body)).unwrap();
        assert_eq!(status, 200);
        assert_eq!(want.get("views"), j.get("views"));
        assert_eq!(want.get("all_utilities"), j.get("all_utilities"));
    }
    handle.shutdown();
}

/// 2. Property: distinct predicates and distinct result-affecting configs
///    never collide in signature space.
fn arb_leaf() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        Just(Predicate::True),
        Just(Predicate::False),
        (0u32..4, 0u32..5).prop_map(|(col, code)| Predicate::CatEq {
            col: ColumnId(col),
            code,
        }),
        (0u32..4, prop::collection::vec(0u32..6, 1..4)).prop_map(|(col, codes)| {
            Predicate::CatIn {
                col: ColumnId(col),
                codes,
            }
        }),
        (0u32..4, any::<bool>()).prop_map(|(col, value)| Predicate::BoolEq {
            col: ColumnId(col),
            value,
        }),
        (0u32..4, 0usize..6, -50.0f64..50.0).prop_map(|(col, op, value)| {
            let op = [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ][op];
            Predicate::NumCmp {
                col: ColumnId(col),
                op,
                value,
            }
        }),
        (0u32..4).prop_map(|col| Predicate::IsNull { col: ColumnId(col) }),
    ]
}

fn arb_predicate() -> impl Strategy<Value = Predicate> {
    // One level of structure on top of leaves.
    prop_oneof![
        arb_leaf().boxed(),
        prop::collection::vec(arb_leaf(), 2..4)
            .prop_map(Predicate::And)
            .boxed(),
        prop::collection::vec(arb_leaf(), 2..4)
            .prop_map(Predicate::Or)
            .boxed(),
        arb_leaf().prop_map(|p| Predicate::Not(Box::new(p))).boxed(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn signatures_collide_only_for_canonically_equal_predicates(
        a in arb_predicate(),
        b in arb_predicate(),
    ) {
        let sa = predicate_signature(&a);
        let sb = predicate_signature(&b);
        if sa == sb {
            // Equal signatures are only allowed for inputs the canonical
            // form identifies: re-canonicalizing must agree, and both
            // predicates must reference the same columns.
            let mut cols_a = Vec::new();
            let mut cols_b = Vec::new();
            a.collect_columns(&mut cols_a);
            b.collect_columns(&mut cols_b);
            cols_a.sort_unstable_by_key(|c| c.0);
            cols_b.sort_unstable_by_key(|c| c.0);
            cols_a.dedup();
            cols_b.dedup();
            prop_assert_eq!(cols_a, cols_b, "signature collided across columns");
        }
    }

    #[test]
    fn config_signatures_separate_result_affecting_knobs(
        k in 1usize..8,
        metric in 0usize..7,
        strategy in 0usize..3,
    ) {
        let mut cfg = SeeDbConfig::for_strategy(
            [ExecutionStrategy::NoOpt, ExecutionStrategy::Sharing, ExecutionStrategy::Comb][strategy],
        );
        cfg.k = k;
        cfg.metric = DistanceKind::ALL[metric];
        let sig = cfg.result_signature();

        // Any single result-affecting change must move the signature.
        let mut other = cfg.clone();
        other.k += 1;
        prop_assert_ne!(sig.clone(), other.result_signature());
        let mut other = cfg.clone();
        other.metric = DistanceKind::ALL[(metric + 1) % DistanceKind::ALL.len()];
        prop_assert_ne!(sig.clone(), other.result_signature());

        // Execution-shape changes must NOT move it.
        let mut same = cfg.clone();
        same.engine_mode = seedb_core::ExecMode::Scalar;
        same.sharing.parallelism = Knob::Fixed(5);
        same.sharing.morsel_rows = Knob::Fixed(3);
        same.sharing.combine_group_bys = false;
        prop_assert_eq!(sig, same.result_signature());
    }
}

/// 4. Property: a run with a cache attached is bit-identical to one
///    without — for *pruned* configurations across
///    pruning scheme (CI/MAB), parallelism (1/8), and cache state
///    (cold / warm / prefix-resume — the cache warmed by a *different* k,
///    which leaves shorter prefixes that the run must resume, not
///    restart).
mod pruned_equivalence {
    use super::*;
    use seedb_core::{AggFunc, CachedPartial, ViewCache};
    use seedb_storage::{BoxedTable, ColumnDef, StoreKind, TableBuilder, Value};
    use seedb_util::PLock;

    /// A 6-view table whose `BY d0` views deviate maximally (EMD ≈ 1)
    /// while `d1`/`d2` are noise — separated enough for CI to discard
    /// noise views before the final phase, so prefix entries are real.
    fn table() -> BoxedTable {
        let mut b = TableBuilder::new(vec![
            ColumnDef::dim("d0"),
            ColumnDef::dim("d1"),
            ColumnDef::dim("d2"),
            ColumnDef::measure("m0"),
            ColumnDef::measure("m1"),
        ]);
        for i in 0..240u32 {
            b.push_row(&[
                Value::str(format!("g{}", i % 4)),
                Value::str(format!("x{}", i % 3)),
                Value::str(format!("y{}", i % 5)),
                Value::Float(50.0),
                Value::Float((i % 11) as f64),
            ])
            .unwrap();
        }
        b.build(StoreKind::Column).unwrap()
    }

    fn target(t: &dyn seedb_storage::Table) -> Predicate {
        Predicate::Or(vec![
            Predicate::col_eq_str(t, "d0", "g0"),
            Predicate::col_eq_str(t, "d0", "g1"),
        ])
    }

    fn config(k: usize, pruning: PruningKind, parallelism: usize) -> SeeDbConfig {
        let mut cfg = SeeDbConfig::default(); // COMB
        cfg.k = k;
        cfg.pruning = pruning;
        cfg.num_phases = 6;
        cfg.sharing.parallelism = Knob::Fixed(parallelism);
        cfg
    }

    /// A run of `config` with `cache` attached.
    fn cached(
        table: &BoxedTable,
        config: SeeDbConfig,
        cache: &Arc<MemoryViewCache>,
    ) -> Recommendation {
        let t = target(table.as_ref());
        SeeDb::with_config(table.clone(), config)
            .with_cache(cache.clone())
            .recommend(&t, &ReferenceSpec::WholeTable)
            .unwrap()
    }

    /// Bit-level equality of everything a recommendation reports, the
    /// phase count and early stop included (a warm run replays every phase
    /// the cold run executed).
    fn assert_same(a: &Recommendation, b: &Recommendation, ctx: &str) {
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(a.views.len(), b.views.len(), "{ctx}");
        for (x, y) in a.views.iter().zip(&b.views) {
            assert_eq!(x.spec, y.spec, "{ctx}");
            assert_eq!(x.utility.to_bits(), y.utility.to_bits(), "{ctx}");
            assert_eq!(x.group_labels, y.group_labels, "{ctx}");
            assert_eq!(bits(&x.target_values), bits(&y.target_values), "{ctx}");
            assert_eq!(
                bits(&x.reference_values),
                bits(&y.reference_values),
                "{ctx}"
            );
            assert_eq!(
                bits(&x.target_distribution),
                bits(&y.target_distribution),
                "{ctx}"
            );
            assert_eq!(
                bits(&x.reference_distribution),
                bits(&y.reference_distribution),
                "{ctx}"
            );
        }
        assert_eq!(bits(&a.all_utilities), bits(&b.all_utilities), "{ctx}");
        assert_eq!(a.phases_executed, b.phases_executed, "{ctx}");
        assert_eq!(a.early_stopped, b.early_stopped, "{ctx}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn recommend_cached_is_bit_identical_for_pruned_configs(
            k in 1usize..4,
            warm_k in 1usize..4,
            pruning in prop_oneof![Just(PruningKind::Ci), Just(PruningKind::Mab)],
            parallelism in prop_oneof![Just(1usize), Just(8usize)],
        ) {
            let table = table();
            let reference = ReferenceSpec::WholeTable;
            let t = target(table.as_ref());
            let cfg = config(k, pruning, parallelism);
            let direct = SeeDb::with_config(table.clone(), cfg.clone())
                .recommend(&t, &reference)
                .unwrap();

            // Cold: an empty cache.
            let cache = Arc::new(MemoryViewCache::new());
            let cold = cached(&table, cfg.clone(), &cache);
            assert_same(&direct, &cold, "cold");

            // Warm: the same configuration replays everything — zero rows
            // scanned — and still matches bit for bit.
            let warm = cached(&table, cfg.clone(), &cache);
            let u = warm.cache;
            prop_assert!(u.fully_cached(), "{u:?}");
            prop_assert_eq!(warm.stats.rows_scanned, 0);
            assert_same(&direct, &warm, "warm");

            // Prefix-resume: a cache warmed under a *different* k (and CI)
            // holds shorter prefixes for views that k prunes later; the
            // run must resume them mid-scan and still match bit for bit.
            let resume_cache = Arc::new(MemoryViewCache::new());
            let warm_cfg = config(warm_k, PruningKind::Ci, parallelism);
            let _ = cached(&table, warm_cfg, &resume_cache);
            let resumed = cached(&table, cfg.clone(), &resume_cache);
            let u = resumed.cache;
            prop_assert_eq!(u.misses, 0, "every view has at least a prefix: {:?}", u);
            assert_same(&direct, &resumed, "prefix-resume");
        }
    }
    /// The pruning-free shapes of every strategy, under `k` views of `funcs`.
    fn pruning_free(shape: usize, k: usize, funcs: &[AggFunc], parallelism: usize) -> SeeDbConfig {
        let strategy = [
            ExecutionStrategy::NoOpt,
            ExecutionStrategy::Sharing,
            ExecutionStrategy::Comb,
            ExecutionStrategy::CombEarly,
        ][shape];
        let mut cfg = SeeDbConfig::for_strategy(strategy);
        cfg.pruning = PruningKind::None;
        cfg.k = k;
        cfg.num_phases = 6;
        cfg.agg_functions = funcs.to_vec();
        cfg.sharing.parallelism = Knob::Fixed(parallelism);
        cfg
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn cached_runs_are_bit_identical_for_pruning_free_configs(
            shape in 0usize..4,
            k in 1usize..8,
            parallelism in prop_oneof![Just(1usize), Just(8usize)],
        ) {
            let table = table();
            let t = target(table.as_ref());
            let funcs = [AggFunc::Avg, AggFunc::Sum];
            let cfg = pruning_free(shape, k, &funcs, parallelism);
            let label = cfg.strategy;
            let direct = SeeDb::with_config(table.clone(), cfg.clone())
                .recommend(&t, &ReferenceSpec::WholeTable)
                .unwrap();

            // Cold: every view misses and is computed.
            let cache = Arc::new(MemoryViewCache::new());
            let cold = cached(&table, cfg.clone(), &cache);
            prop_assert_eq!(cold.cache.misses, 12, "{}", label);
            assert_same(&direct, &cold, "cold");

            // Warm: nothing is scanned; every phase is replayed.
            let warm = cached(&table, cfg.clone(), &cache);
            prop_assert!(warm.cache.fully_cached(), "{}: {:?}", label, warm.cache);
            prop_assert_eq!(warm.stats.rows_scanned, 0);
            assert_same(&direct, &warm, "warm");

            // Partial overlap: a cache warmed by the AVG views alone, under
            // a k so large that COMB_EARLY stops after its first phase and
            // leaves one-phase prefixes to resume.
            let overlap = Arc::new(MemoryViewCache::new());
            let _ = cached(&table, pruning_free(shape, 12, &funcs[..1], parallelism), &overlap);
            let mixed = cached(&table, cfg.clone(), &overlap);
            let u = mixed.cache;
            prop_assert_eq!((u.hits + u.resumed, u.misses), (6, 6), "{}: {:?}", label, u);
            assert_same(&direct, &mixed, "partial overlap");
        }
    }

    /// A [`ViewCache`] that logs every key read and written.
    struct Recording {
        inner: MemoryViewCache,
        reads: PLock<Vec<String>>,
        writes: PLock<Vec<String>>,
    }

    impl ViewCache for Recording {
        fn get(&self, key: &str) -> Option<Arc<CachedPartial>> {
            self.reads.lock().push(key.to_owned());
            self.inner.get(key)
        }

        fn put(&self, key: &str, value: Arc<CachedPartial>) {
            self.writes.lock().push(key.to_owned());
            self.inner.put(key, value);
        }
    }

    impl Recording {
        fn new() -> Self {
            Recording {
                inner: MemoryViewCache::new(),
                reads: PLock::new("test.recording.reads", Vec::new()),
                writes: PLock::new("test.recording.writes", Vec::new()),
            }
        }

        /// The keys read and written since the last call, each as
        /// `{view}|ph{N}` (the query's predicate and reference dropped),
        /// sorted.
        fn take(&self) -> (Vec<String>, Vec<String>) {
            let tail = |keys: &mut Vec<String>| {
                let mut tails: Vec<String> = std::mem::take(keys)
                    .into_iter()
                    .map(|key| {
                        let parts: Vec<&str> = key.rsplitn(3, '|').collect();
                        format!("{}|{}", parts[1], parts[0])
                    })
                    .collect();
                tails.sort();
                tails
            };
            (tail(&mut self.reads.lock()), tail(&mut self.writes.lock()))
        }
    }

    /// Pins the one key per view each configuration reads and writes, cold
    /// and warm: `|ph1` for the unphased strategies, `|ph6` otherwise.
    #[test]
    fn each_configuration_reads_and_writes_its_matrix_keys() {
        let table = table();
        let t = target(table.as_ref());
        let views: Vec<String> = SeeDb::new(table.clone())
            .views()
            .iter()
            .map(|v| v.signature())
            .collect();
        let all = |phases: usize| -> Vec<String> {
            let mut keys: Vec<String> = views.iter().map(|v| format!("{v}|ph{phases}")).collect();
            keys.sort();
            keys
        };
        let run = |cfg: SeeDbConfig, cache: &Arc<Recording>| {
            SeeDb::with_config(table.clone(), cfg)
                .with_cache(cache.clone())
                .recommend(&t, &ReferenceSpec::WholeTable)
                .unwrap()
        };
        let mut ci = config(1, PruningKind::Ci, 1);
        ci.strategy = ExecutionStrategy::CombEarly;
        for (row, cfg, phases) in [
            ("NO_OPT", pruning_free(0, 2, &[AggFunc::Avg], 1), 1),
            ("SHARING", pruning_free(1, 2, &[AggFunc::Avg], 1), 1),
            ("COMB + NO_PRU", pruning_free(2, 2, &[AggFunc::Avg], 1), 6),
            ("COMB + CI", config(1, PruningKind::Ci, 1), 6),
            ("COMB_EARLY + CI", ci, 6),
            (
                "COMB_EARLY + NO_PRU",
                pruning_free(3, 2, &[AggFunc::Avg], 1),
                6,
            ),
        ] {
            let cache = Arc::new(Recording::new());
            let _ = run(cfg.clone(), &cache);
            let (reads, writes) = cache.take();
            assert_eq!(reads, all(phases), "{row} cold reads");
            assert_eq!(writes, all(phases), "{row} cold writes");
            // Warm: the same keys are read again and nothing is written.
            let _ = run(cfg, &cache);
            let (reads, writes) = cache.take();
            assert_eq!(reads, all(phases), "{row} warm reads");
            assert!(writes.is_empty(), "{row} warm writes {writes:?}");
        }
    }
}

/// 3. Eight parallel clients, mixed repeated/overlapping queries: every
///    response must be bit-identical to a direct `SeeDb::recommend` with
///    the same inputs (rendered through the same pipeline).
#[test]
fn concurrent_responses_match_direct_library_calls() {
    let handle = boot(32 << 20);
    let addr = handle.addr();

    // The server's exact dataset instance: same name/rows/seed/layout.
    let catalog = seedb_server::Catalog::new(3_000, 800, 17);
    let dataset = catalog.dataset("CENSUS", 800).unwrap();

    // Direct library ground truth for k = 1..4, rendered with the same
    // renderer the server uses.
    let truth: Vec<Json> = (1..=4)
        .map(|k| {
            let mut cfg = seedb_server::api::default_config();
            cfg.k = k;
            let seedb = SeeDb::with_config(dataset.table.clone(), cfg);
            let rec = seedb
                .recommend(&dataset.target, &ReferenceSpec::WholeTable)
                .unwrap();
            seedb_server::api::render_recommendation(&dataset, &rec)
        })
        .collect();

    let responses: Vec<(usize, Json)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|client_id| {
                let truth = &truth;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for round in 0..3 {
                        // Overlapping ks: same partials, different top-k.
                        let k = 1 + (client_id + round) % truth.len();
                        let body = format!(r#"{{"dataset": "CENSUS", "rows": 800, "k": {k}}}"#);
                        let (status, j) =
                            client::request_json(addr, "POST", "/recommend", Some(&body)).unwrap();
                        assert_eq!(status, 200);
                        out.push((k, j));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    assert_eq!(responses.len(), 24);
    for (k, response) in responses {
        let want = &truth[k - 1];
        assert_eq!(
            want.get("views"),
            response.get("views"),
            "k={k}: server response diverged from direct SeeDb::recommend"
        );
        assert_eq!(want.get("all_utilities"), response.get("all_utilities"));
        assert_eq!(want.get("rows"), response.get("rows"));
    }
    handle.shutdown();
}
