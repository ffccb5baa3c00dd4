//! # seedb-data
//!
//! Dataset generators reproducing Table 1 of the SeeDB paper.
//!
//! The paper evaluates on four real datasets (BANK, DIAB, AIR, AIR10),
//! three user-study datasets (CENSUS, HOUSING, MOVIES) and three synthetic
//! families (SYN, SYN*-10, SYN*-100). The real files are not available in
//! this offline environment, so this crate generates **schema-faithful
//! synthetic twins**: same row counts, same dimension/measure counts (hence
//! the same view counts), realistic column names and cardinalities, and —
//! crucially for the pruning experiments — **planted deviation structure**:
//! a small set of views receives controlled target-vs-reference deviation
//! of decreasing strength, producing utility distributions shaped like the
//! paper's Figure 10 (a few well-separated high-utility views, a clustered
//! boundary, and a long flat tail).
//!
//! Performance experiments (Figures 5–9) depend only on data *shape* (rows,
//! attribute counts, distinct values), which the twins match exactly at
//! `scale = 1.0`; the generators accept a scale factor so tests can run on
//! smaller instances. Accuracy experiments (Figures 10–13) depend on the
//! utility gap structure, which the planted effects control.
//!
//! Every generator is deterministic in its seed.

#![forbid(unsafe_code)]

pub mod air;
pub mod bank;
pub mod census;
pub mod dataset;
pub mod diab;
pub mod gen;
pub mod housing;
pub mod movies;
pub mod registry;
pub mod syn;
pub mod twin;

pub use dataset::Dataset;
pub use registry::{table1, DatasetInfo};
pub use syn::{syn, syn_star, SynConfig};
pub use twin::{Effect, TwinSpec};
