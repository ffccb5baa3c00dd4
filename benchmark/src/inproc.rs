//! The in-process workloads: one caller thread driving
//! `SeeDb::recommend` over a generated table, cycling a seeded pool of
//! target/reference selections.

use crate::gen::{self, Cond, Profile, Query, Rng};
use crate::pass::{Client, ClientLog, OpKind};
use crate::workload::{RunFacts, Verdict};
use seedb_core::{
    accuracy_at_k, utility_distance, ExecMode, ExecutionStrategy, Knob, Predicate, Recommendation,
    ReferenceSpec, SeeDb, SeeDbConfig,
};
use seedb_data::registry::generate_by_name;
use seedb_storage::{BoxedTable, StoreKind};
use std::time::Instant;

/// Selections in every in-process pool.
pub const POOL: usize = 16;
/// Pool entries the serial scalar oracle re-runs on the exact workloads.
pub const ORACLE_QUERIES: usize = 4;

/// Which in-process workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// DIAB, `SHARING`: one phase, no pruner.
    ScanDiab,
    /// DIAB, the server-default `COMB` + `CI`.
    PhasedDiab,
    /// 1M time-ordered events, sliding `ts` windows, `SHARING`.
    WindowEvents,
}

/// A built in-process workload: the table, the configuration under test
/// and the selection pool.
pub struct InProc {
    pub dataset: &'static str,
    pub table: BoxedTable,
    pub config: SeeDbConfig,
    pub queries: Vec<Query>,
    /// `queries` bound to `table`, index for index.
    bound: Vec<(Predicate, ReferenceSpec)>,
    /// Seconds the table took to generate and build.
    pub generate_s: f64,
}

/// A recommendation reduced to what must repeat exactly: ranked view ids
/// and the bit patterns of their utilities.
pub type Ranked = Vec<(usize, u64)>;

/// The ranked list of `rec`.
pub fn ranked(rec: &Recommendation) -> Ranked {
    rec.views
        .iter()
        .map(|v| (v.spec.id, v.utility.to_bits()))
        .collect()
}

/// `SHARING`: every §4.1 optimization, one pass, no pruning — exact.
pub fn sharing() -> SeeDbConfig {
    SeeDbConfig {
        strategy: ExecutionStrategy::Sharing,
        ..SeeDbConfig::default()
    }
}

impl InProc {
    /// Generates the workload's inputs from `seed`. `scale` shrinks the
    /// table (1.0 = the named size; smoke runs use 0.1).
    pub fn build(kind: Kind, seed: u64, scale: f64) -> InProc {
        let started = Instant::now();
        let (dataset, table, queries, config) = match kind {
            Kind::ScanDiab | Kind::PhasedDiab => {
                let diab = generate_by_name("DIAB", scale, gen::DATA_SEED, StoreKind::Column)
                    .expect("DIAB is a Table 1 dataset");
                // The canonical task first, then the seeded pool.
                let mut queries = vec![Query::vs_all(Cond::DimEq {
                    column: "readmitted".into(),
                    label: "yes".into(),
                })];
                let pool = Profile::of(diab.table.as_ref()).pool(seed, POOL - 1);
                queries.extend(pool.into_iter().map(Query::vs_all));
                let config = match kind {
                    Kind::ScanDiab => sharing(),
                    _ => SeeDbConfig::default(),
                };
                ("DIAB", diab.table, queries, config)
            }
            Kind::WindowEvents => {
                let rows = (1_000_000.0 * scale) as usize;
                let table = gen::events_table(seed, rows);
                let mut rng = Rng::new(seed, 0x3107);
                // One window per sixteenth of the table, jittered inside
                // it: every run slides across the whole time range.
                let queries = (0..POOL)
                    .map(|i| {
                        let position = (i as f64 + rng.unit()) / POOL as f64;
                        gen::window_pair(rows, position, 0.05, 0.20)
                    })
                    .collect();
                ("EVENTS", table, queries, sharing())
            }
        };
        let generate_s = started.elapsed().as_secs_f64();
        let bound = queries.iter().map(|q| q.bind(table.as_ref())).collect();
        InProc {
            dataset,
            table,
            config,
            queries,
            bound,
            generate_s,
        }
    }

    /// The engine under `config` over this workload's table.
    fn seedb(&self, config: SeeDbConfig) -> SeeDb {
        SeeDb::with_config(self.table.clone(), config)
    }

    /// One closed-loop caller.
    pub fn client(&self) -> Box<dyn Client + '_> {
        let views = self.seedb(self.config.clone()).views().len();
        Box::new(Caller {
            workload: self,
            next: 0,
            expect_views: self.config.k.min(views),
            seen: vec![None; self.queries.len()],
        })
    }

    /// Checks answers against an independent run of each selection.
    ///
    /// On the exact workloads the oracle is the serial scalar engine over
    /// [`ORACLE_QUERIES`] pool entries and the ranked lists must match bit
    /// for bit. On the phased workload the oracle is the no-pruning run of
    /// every pool entry, which yields accuracy and utility distance
    /// instead of a pass/fail verdict.
    pub fn verify(&self) -> Verdict {
        let exact = self.config.strategy == ExecutionStrategy::Sharing;
        let (oracle_config, checked) = if exact {
            let mut config = self.config.clone();
            config.engine_mode = ExecMode::Scalar;
            config.sharing.parallelism = Knob::Fixed(1);
            (config, ORACLE_QUERIES)
        } else {
            (sharing(), self.bound.len())
        };
        let subject = self.seedb(self.config.clone());
        let oracle = self.seedb(oracle_config);
        let mut verdict = Verdict::default();
        let step = self.bound.len() / checked;
        for (target, reference) in self.bound.iter().step_by(step).take(checked) {
            verdict.attempted += 1;
            let (Ok(got), Ok(want)) = (
                subject.recommend(target, reference),
                oracle.recommend(target, reference),
            ) else {
                verdict.failed += 1;
                continue;
            };
            if exact && ranked(&got) != ranked(&want) {
                verdict.failed += 1;
            }
            let ids = |r: &Recommendation| r.views.iter().map(|v| v.spec.id).collect::<Vec<_>>();
            verdict.score(
                accuracy_at_k(&ids(&want), &ids(&got)),
                utility_distance(&ids(&want), &ids(&got), &want.all_utilities),
            );
        }
        verdict
    }

    /// One run of every pool entry, for the counts and phase timings that
    /// must not depend on how many operations a pass happened to fit.
    pub fn sweep(&self) -> Vec<RunFacts> {
        let seedb = self.seedb(self.config.clone());
        let rows = self.table.num_rows() as u64;
        self.bound
            .iter()
            .filter_map(|(target, reference)| seedb.recommend(target, reference).ok())
            .map(|rec| RunFacts {
                wall_us: rec.elapsed.as_secs_f64() * 1e6,
                phase_us: rec.stats.phase_times_us.clone(),
                rows_scanned: rec.stats.rows_scanned,
                rows_possible: rows * rec.stats.queries_issued,
                partitions_pruned: rec.stats.partitions_pruned,
                partitions_scanned: rec.stats.partitions_scanned,
            })
            .collect()
    }
}

struct Caller<'a> {
    workload: &'a InProc,
    next: usize,
    expect_views: usize,
    /// First ranked list seen per pool entry; every repeat must equal it.
    seen: Vec<Option<Ranked>>,
}

impl Client for Caller<'_> {
    fn step(&mut self, log: &mut ClientLog) {
        let w = self.workload;
        let index = self.next % w.bound.len();
        self.next += 1;
        let (target, reference) = &w.bound[index];

        let mut op = log.begin(OpKind::Recommend);
        let result = {
            let _span = op.trace.span("recommend");
            w.seedb(w.config.clone())
                .with_trace(op.trace.clone())
                .recommend(target, reference)
        };
        op.stop();
        let ok = {
            let _span = op.trace.span("check");
            result.is_ok_and(|rec| {
                let list = ranked(&rec);
                list.len() == self.expect_views
                    && *self.seen[index].get_or_insert_with(|| list.clone()) == list
            })
        };
        log.end(op, ok);
    }
}
