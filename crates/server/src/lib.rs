//! # seedb-server
//!
//! `seedbd` — a dependency-free serving layer for the SeeDB reproduction.
//!
//! The paper frames SeeDB as interactive *middleware* that analysts query
//! repeatedly with small variations over the same dataset (§3); this crate
//! is that long-lived process: a multi-threaded HTTP/1.1 JSON API daemon
//! over `std::net` only (the registry is unreachable, so the HTTP framing
//! is hand-rolled the same way `seedb-util` hand-rolls JSON).
//!
//! ## Endpoints
//!
//! | method & path | body | response |
//! |---|---|---|
//! | `GET /healthz` | — | `{"status":"ok", …}` |
//! | `GET /statz` | — | cache + request counters, uptime, admission gauges |
//! | `GET /metrics` | — | the same counters in Prometheus text exposition |
//! | `GET /datasets` | — | the Table 1 catalog, ingested uploads, what's loaded |
//! | `POST /datasets` | `{"name": …, "csv": …}` | ingest a CSV dataset |
//! | `POST /recommend` | request JSON (below) | ranked views |
//! | `GET /debug/traces` | — | flight-recorder index (most recent first) |
//! | `GET /debug/traces/{id}` | — | one trace as Chrome trace-event JSON |
//!
//! A `/recommend` body names a catalog dataset and a target selection, and
//! may override any result-affecting config knob:
//!
//! ```json
//! {"dataset": "CENSUS", "rows": 5000,
//!  "where": "marital_status = 'unmarried'",
//!  "reference": "whole", "k": 5, "metric": "EMD",
//!  "strategy": "SHARING"}
//! ```
//!
//! ## Cross-request cache
//!
//! All responses and per-view aggregates flow through one memory-budgeted
//! LRU ([`cache::RecCache`]) keyed by canonical signatures
//! (`seedb_core::signature`): a repeated query returns its cached response
//! without touching the engine, and an *overlapping* query (same dataset +
//! predicate, different `k`/metric/pruning knobs) reuses the cached
//! per-view partials ([`CachedPartial`](seedb_core::CachedPartial)) —
//! each view's aggregates of every phase its run covered, replayed and
//! resumed under the same phase count — by attaching the cache to the run
//! ([`SeeDb::with_cache`](seedb_core::SeeDb::with_cache)).
//! Responses are bit-identical to direct library calls in every case; a
//! request can opt out with `"cache_mode": "bypass"` — the same run with
//! no cache attached — which `/statz` counts separately so operators can
//! see when the cache is not in play.
//!
//! [`router::handle`] is the one dispatcher; a `/recommend` runs one
//! straight sequence of stages: parse → resolve → key → probe → plan +
//! lease → run → deposit → render.
//!
//! ## Concurrency & overload
//!
//! The accept thread pushes connections onto a bounded admission queue
//! drained by a fixed pool of worker threads; a full queue sheds the
//! connection immediately with `503` + `Retry-After` instead of building
//! an unbounded backlog. Recommendation work inside a request rides the
//! engine's persistent scoped worker pool, and concurrent requests share
//! the machine through an admission lease on
//! [`WorkerBudget`](seedb_engine::WorkerBudget) so N parallel `/recommend`
//! calls never oversubscribe the morsel workers. Worker leases are
//! bounded waits, never indefinite: a starved request degrades along the
//! ladder *parallel → serial → cached-partial → shed*. Every `/recommend`
//! can carry a `deadline_ms`, enforced cooperatively at phase and morsel
//! boundaries; an expired run returns a `504` envelope (or a clearly
//! tagged degraded partial answer) and never poisons the cache. A
//! deterministic fault-injection layer ([`faults`]) drives the chaos test
//! suite.
//!
//! ## Observability
//!
//! Every request is traced from socket to socket: `http_read`, the
//! admission-queue wait, catalog build, cache probe, plan derivation,
//! each execution phase, the per-worker morsel fan-out, cache deposit,
//! and `response_write` each become spans in a [`seedb_obs`] trace.
//! Completed traces land in a bounded flight recorder served at
//! `/debug/traces` (Perfetto-loadable Chrome trace-event JSON per
//! trace), requests slower than `--slow-ms` are logged in full as one
//! structured JSON line, and `/metrics` exposes every counter and
//! latency histogram in Prometheus text format. An `X-Request-Id`
//! header (client-sent or generated) correlates the response envelope,
//! the trace, and the log line.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::string_slice
)]

pub mod api;
pub mod cache;
pub mod catalog;
pub mod client;
pub mod csv;
pub mod faults;
pub mod http;
pub mod router;
pub mod server;

pub use cache::{CacheStats, CacheValue, RecCache};
pub use catalog::{Catalog, CatalogError};
pub use faults::{ConnFaults, FaultPlan, TruncatingWriter};
pub use http::{Request, Response};
pub use server::{Server, ServerConfig, ServerHandle};
