//! # seedb-core
//!
//! The SeeDB visualization recommendation engine (Vartak et al., VLDB 2015).
//!
//! Given a table, a target selection `Q` (a [`Predicate`]) and a reference
//! specification, SeeDB enumerates every aggregate view `(a, m, f)` —
//! group-by dimension `a`, measure `m`, aggregate `f` — computes each view
//! over the target data `D_Q` and the reference data `D_R`, and ranks views
//! by the distance between the two normalized result distributions
//! (deviation-based utility, §2). The top-k views are returned as
//! recommendations.
//!
//! The execution engine applies two orthogonal optimization families:
//!
//! * **Sharing** (§4.1): combine aggregates, combine group-bys under a
//!   memory budget (bin packing), combine target+reference into one scan,
//!   and execute query clusters in parallel.
//! * **Pruning** (§4.2): phased execution with confidence-interval
//!   ([`pruning::ci`]) or multi-armed-bandit ([`pruning::mab`]) elimination
//!   of low-utility views after every phase.
//!
//! [`ExecutionStrategy`] selects the paper's evaluated configurations:
//! `NO_OPT`, `SHARING`, `COMB`, `COMB_EARLY`.
//!
//! ```
//! use seedb_core::{ReferenceSpec, SeeDb, SeeDbConfig};
//! use seedb_engine::Predicate;
//! use seedb_storage::{ColumnDef, StoreKind, TableBuilder, Value};
//!
//! let mut b = TableBuilder::new(vec![
//!     ColumnDef::dim("sex"),
//!     ColumnDef::dim("marital"),
//!     ColumnDef::measure("capital_gain"),
//! ]);
//! for (s, m, g) in [("F", "single", 510.0), ("M", "single", 480.0),
//!                   ("F", "married", 310.0), ("M", "married", 690.0)] {
//!     b.push_row(&[Value::str(s), Value::str(m), Value::Float(g)]).unwrap();
//! }
//! let table = b.build(StoreKind::Column).unwrap();
//!
//! let seedb = SeeDb::new(table.clone());
//! let target = Predicate::col_eq_str(table.as_ref(), "marital", "single");
//! let rec = seedb.recommend(&target, &ReferenceSpec::WholeTable).unwrap();
//! assert!(!rec.views.is_empty());
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod config;
pub mod error;
pub mod executor;
pub mod phase;
pub mod plan;
pub mod pruning;
pub mod quality;
pub mod reference;
pub mod seedb;
pub mod signature;
pub mod state;
pub mod view;

pub use cache::{CacheUse, CachedPartial, MemoryViewCache, ViewCache};
pub use config::{
    ExecutionStrategy, GroupingPolicy, Knob, PruningKind, SeeDbConfig, SharingConfig,
};
pub use error::CoreError;
pub use executor::{ExecutionReport, Executor};
pub use phase::{effective_phases, phase_ranges};
pub use plan::{Member, PhysicalPlan};
pub use quality::{accuracy_at_k, utility_distance};
pub use reference::ReferenceSpec;
pub use seedb::{RankedView, Recommendation, SeeDb};
pub use signature::{
    ingested_instance_signature, instance_signature, predicate_signature, reference_signature,
};
pub use view::{ViewId, ViewSpec};

// Re-exported for downstream convenience: the types callers need to drive
// the engine without importing every crate.
pub use seedb_engine::{AggFunc, CancelToken, ExecMode, Predicate};
pub use seedb_metrics::DistanceKind;
