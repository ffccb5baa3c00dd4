//! The six named workloads behind one interface.

use crate::gen::Query;
use crate::inproc::{self, InProc};
use crate::pass::Client;
use crate::serve::{self, Served};
use seedb_core::SeeDbConfig;
use seedb_storage::BoxedTable;

/// Workload names, in the order the suite runs them, each with the one
/// line that says why it is in the benchmark. `BENCHMARK.json` carries the
/// same list; a crate test keeps the two in step.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "scan_diab100k",
        "SHARING over DIAB 100K: storage scan and engine aggregation do all the work; phase loop, pruner and server do none",
    ),
    (
        "phased_diab100k",
        "COMB+CI on the same table and predicates: adds the phase loop, per-phase re-planning, distances and the pruner; carries accuracy",
    ),
    (
        "window_events1m",
        "sliding 5% ts windows over 1M time-ordered rows: zone-map verdicts skip ~75% of partition scans, so skip bookkeeping decides the cost",
    ),
    (
        "serve_warm_census21k",
        "a 32-body pool that fits the cache, all response hits: connect, HTTP, JSON, SQL, signature, cache probe and write are the whole request",
    ),
    (
        "serve_miss_census21k",
        "unique predicates against an 8 MiB cache smaller than the working set: engine on the request path, partial reuse, constant eviction",
    ),
    (
        "serve_ingest_events8k",
        "CSV uploads beside reads of what was uploaded: JSON string decode, CSV parse, table build and catalog swap share locks and cache with reads",
    ),
];

/// What a correctness pass found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Checks made.
    pub attempted: u64,
    /// Checks that did not hold.
    pub failed: u64,
    accuracy_sum: f64,
    utility_distance_sum: f64,
    scored: u64,
}

impl Verdict {
    /// Records one answer's accuracy and utility distance to its oracle.
    pub fn score(&mut self, accuracy: f64, utility_distance: f64) {
        self.accuracy_sum += accuracy;
        self.utility_distance_sum += utility_distance;
        self.scored += 1;
    }

    /// Mean share of the oracle's top-k present in the returned top-k.
    pub fn accuracy(&self) -> f64 {
        self.accuracy_sum / self.scored.max(1) as f64
    }

    /// Mean utility distance (Fig. 11) to the oracle's top-k.
    pub fn utility_distance(&self) -> f64 {
        self.utility_distance_sum / self.scored.max(1) as f64
    }
}

/// What one recommendation run reports about itself.
#[derive(Debug, Clone)]
pub struct RunFacts {
    /// The run's own wall clock, microseconds.
    pub wall_us: f64,
    /// Microseconds per executed phase.
    pub phase_us: Vec<u64>,
    pub rows_scanned: u64,
    /// Rows × queries issued: what scanning without pruning would cost.
    pub rows_possible: u64,
    pub partitions_pruned: u64,
    pub partitions_scanned: u64,
}

/// The library-level view of a workload — its table, configuration and a
/// few of its queries — which is what the layer probes call into.
pub struct Subject {
    pub dataset: String,
    pub table: BoxedTable,
    pub config: SeeDbConfig,
    pub queries: Vec<Query>,
    /// Seconds the table took to generate and build.
    pub generate_s: f64,
}

/// A built workload.
pub enum Workload {
    InProc(InProc),
    Served(Served),
}

impl Workload {
    /// Builds the workload `name` from `seed` at `scale` of its named
    /// size, up to the state its measured window starts from.
    pub fn build(name: &str, seed: u64, scale: f64) -> std::io::Result<Workload> {
        Ok(match name {
            "scan_diab100k" => Workload::InProc(InProc::build(inproc::Kind::ScanDiab, seed, scale)),
            "phased_diab100k" => {
                Workload::InProc(InProc::build(inproc::Kind::PhasedDiab, seed, scale))
            }
            "window_events1m" => {
                Workload::InProc(InProc::build(inproc::Kind::WindowEvents, seed, scale))
            }
            "serve_warm_census21k" => {
                Workload::Served(Served::build(serve::Kind::Warm, seed, scale)?)
            }
            "serve_miss_census21k" => {
                Workload::Served(Served::build(serve::Kind::Miss, seed, scale)?)
            }
            "serve_ingest_events8k" => {
                Workload::Served(Served::build(serve::Kind::Ingest, seed, scale)?)
            }
            other => {
                let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
                return Err(std::io::Error::other(format!(
                    "unknown workload '{other}' (expected one of {names:?})"
                )));
            }
        })
    }

    /// The `'static` spelling of a workload name.
    pub fn label(name: &str) -> Option<&'static str> {
        WORKLOADS.iter().map(|(n, _)| *n).find(|n| *n == name)
    }

    /// Fresh closed-loop clients for pass number `epoch` of this run: one
    /// caller in process, two over sockets.
    pub fn clients(&self, epoch: u64) -> Vec<Box<dyn Client + '_>> {
        match self {
            Workload::InProc(w) => vec![w.client()],
            Workload::Served(w) => w.clients(epoch),
        }
    }

    /// The correctness pass.
    pub fn verify(&self) -> std::io::Result<Verdict> {
        match self {
            Workload::InProc(w) => Ok(w.verify()),
            Workload::Served(w) => w.verify(),
        }
    }

    /// One cold default-configuration run per sampled query.
    pub fn sweep(&self) -> std::io::Result<Vec<RunFacts>> {
        match self {
            Workload::InProc(w) => Ok(w.sweep()),
            Workload::Served(w) => w.sweep(),
        }
    }

    /// The library-level view for the layer probes.
    pub fn subject(&self) -> std::io::Result<Subject> {
        match self {
            Workload::InProc(w) => Ok(Subject {
                dataset: w.dataset.to_owned(),
                table: w.table.clone(),
                config: w.config.clone(),
                queries: w.queries.clone(),
                generate_s: w.generate_s,
            }),
            Workload::Served(w) => w.subject(),
        }
    }

    /// The server, on the served workloads.
    pub fn served(&self) -> Option<&Served> {
        match self {
            Workload::InProc(_) => None,
            Workload::Served(w) => Some(w),
        }
    }
}
