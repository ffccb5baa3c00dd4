//! # seedb-obs
//!
//! Dependency-free observability for the SeeDB reproduction: a span-based
//! tracer with a bounded flight recorder, leveled structured (JSON-line)
//! logging, log₂ latency histograms, and Prometheus text exposition — all
//! over `std` only, matching the workspace's no-registry constraint.
//!
//! The design center is *explaining one slow request after the fact*:
//!
//! - [`TraceCtx`] is an explicit, cheaply-cloned context handle (no
//!   thread-local magic) created per request by [`Obs::begin`] and threaded
//!   down through the server, core executor, and engine. Disabled contexts
//!   cost one branch per probe.
//! - [`SpanGuard`] records RAII spans; [`TraceCtx::record`] records spans
//!   with an explicit start/duration (used where a layer already measures a
//!   phase — the span then agrees with the existing counters exactly).
//! - [`Obs::finish`] lands completed traces in a bounded ring buffer (the
//!   [`FlightRecorder`]) an operator can read back as Chrome trace-event
//!   JSON, and emits a structured slow-request log line past a threshold.
//! - [`LatencyHisto`] is the shared lock-free histogram; [`PromText`]
//!   renders counters/gauges/histograms in Prometheus text exposition
//!   format, turning the log₂ buckets into cumulative `le` series.

#![forbid(unsafe_code)]

pub mod histo;
pub mod log;
pub mod prom;
pub mod trace;

pub use histo::{LatencyHisto, HISTO_BUCKETS};
pub use log::{LogLevel, Logger};
pub use prom::PromText;
pub use trace::{CompletedTrace, FlightRecorder, Span, SpanGuard, TraceCtx};

use seedb_util::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default flight-recorder capacity (completed traces retained).
pub const DEFAULT_TRACE_BUFFER: usize = 256;

/// The per-process observability hub: allocates trace IDs, owns the flight
/// recorder and the logger, and finalizes traces.
pub struct Obs {
    next_id: AtomicU64,
    /// Completed traces, most recent last.
    pub recorder: FlightRecorder,
    /// Structured log sink.
    pub logger: Logger,
    /// Requests slower than this (total µs) log their full trace; 0
    /// disables the slow-request log.
    pub slow_us: u64,
}

impl Obs {
    /// An observability hub retaining `trace_buffer` completed traces
    /// (0 disables tracing entirely) and logging requests slower than
    /// `slow_ms` (0 disables the slow log) through `logger`.
    pub fn new(trace_buffer: usize, slow_ms: u64, logger: Logger) -> Obs {
        Obs {
            next_id: AtomicU64::new(1),
            recorder: FlightRecorder::new(trace_buffer),
            logger,
            slow_us: slow_ms.saturating_mul(1_000),
        }
    }

    /// Starts a trace for one request. The ID is always allocated (it
    /// seeds generated request IDs); the context records spans only when
    /// the flight recorder has capacity.
    pub fn begin(&self) -> TraceCtx {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        if self.recorder.is_enabled() {
            TraceCtx::enabled(id)
        } else {
            TraceCtx::with_id(id)
        }
    }

    /// The server-generated request ID for a trace, used when the client
    /// did not send `X-Request-Id`.
    pub fn request_id_for(&self, ctx: &TraceCtx) -> String {
        format!("r-{:08x}", ctx.id())
    }

    /// Finalizes a trace: snapshots its spans into a [`CompletedTrace`],
    /// lands it in the flight recorder, and — when the request exceeded
    /// the slow threshold — logs the full trace as one structured line.
    /// Returns `None` for disabled contexts.
    pub fn finish(
        &self,
        ctx: &TraceCtx,
        request_id: &str,
        route: &str,
        status: u16,
    ) -> Option<Arc<CompletedTrace>> {
        if !ctx.is_enabled() {
            return None;
        }
        let trace = Arc::new(ctx.complete(request_id, route, status));
        self.recorder.push(trace.clone());
        if self.slow_us > 0 && trace.total_us >= self.slow_us {
            self.logger.warn(
                "slow_request",
                Json::obj()
                    .set("request_id", request_id)
                    .set("trace_id", trace.id)
                    .set("route", route)
                    .set("status", status as u64)
                    .set("total_us", trace.total_us)
                    .set("trace", trace.chrome_json()),
            );
        }
        Some(trace)
    }
}

impl Default for Obs {
    fn default() -> Obs {
        Obs::new(DEFAULT_TRACE_BUFFER, 0, Logger::stderr(LogLevel::Info))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_allocates_monotonic_ids_even_when_disabled() {
        let obs = Obs::new(0, 0, Logger::stderr(LogLevel::Error));
        let a = obs.begin();
        let b = obs.begin();
        assert!(!a.is_enabled() && !b.is_enabled());
        assert!(b.id() > a.id());
        assert_ne!(obs.request_id_for(&a), obs.request_id_for(&b));
        assert!(obs.finish(&a, "r-x", "/x", 200).is_none());
        assert_eq!(obs.recorder.len(), 0);
    }

    #[test]
    fn finish_lands_the_trace_in_the_recorder() {
        let obs = Obs::new(4, 0, Logger::stderr(LogLevel::Error));
        let ctx = obs.begin();
        {
            let _g = ctx.span("work");
        }
        let trace = obs.finish(&ctx, "r-1", "/recommend", 200).unwrap();
        assert_eq!(trace.route, "/recommend");
        assert_eq!(trace.status, 200);
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].name, "work");
        assert!(obs.recorder.get(trace.id).is_some());
    }

    #[test]
    fn slow_requests_emit_a_structured_trace_log_line() {
        let (logger, sink) = Logger::capture(LogLevel::Info);
        // slow_ms = 0 would disable the log; 1 ms with a forced 2 ms span
        // guarantees the threshold trips.
        let obs = Obs::new(4, 1, logger);
        let ctx = obs.begin();
        ctx.record(
            "phase",
            0,
            std::time::Instant::now(),
            std::time::Duration::from_millis(2),
            vec![("phase", "0".to_owned())],
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
        obs.finish(&ctx, "r-slow", "/recommend", 200).unwrap();
        let logged = String::from_utf8(sink.lock().clone()).unwrap();
        assert!(logged.contains("slow_request"), "{logged}");
        assert!(logged.contains("r-slow"), "{logged}");
        let line = Json::parse(logged.lines().next().unwrap()).unwrap();
        assert_eq!(line.get("level").unwrap().as_str(), Some("warn"));
        assert!(line.get("trace").unwrap().get("traceEvents").is_some());

        // A fast request under the threshold logs nothing new.
        let before = sink.lock().len();
        let fast = obs.begin();
        obs.finish(&fast, "r-fast", "/healthz", 200).unwrap();
        assert_eq!(sink.lock().len(), before);
    }
}
