//! Span tracing and the flight recorder.
//!
//! A [`TraceCtx`] is an explicit handle cloned down the call stack — no
//! thread-locals — so the same request context can cross the admission
//! queue, the connection worker, and the engine's scoped pool workers.
//! Span starts are stored as µs offsets from the trace's own start, which
//! makes the Chrome trace-event export self-contained (Perfetto and
//! `chrome://tracing` render relative timestamps directly).

use seedb_util::{Json, PLock};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One completed span of a trace.
#[derive(Debug, Clone)]
pub struct Span {
    /// Monotonic span ID within the trace (allocation order, which can
    /// differ from start order when workers race).
    pub id: u64,
    /// Span name (`"http_read"`, `"phase"`, `"morsels"`, …).
    pub name: &'static str,
    /// Display lane: 0 is the request thread, `1 + w` is morsel worker `w`.
    pub lane: u32,
    /// Start offset from the trace start, microseconds.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Span arguments (phase index, worker morsel counts, …).
    pub args: Vec<(&'static str, String)>,
}

struct TraceInner {
    start: Instant,
    next_span: AtomicU64,
    spans: PLock<Vec<Span>>,
    notes: PLock<Vec<(&'static str, String)>>,
}

/// Per-request trace context. Cloning shares the same trace; a disabled
/// context (no recorder capacity) still carries the request's trace ID but
/// drops every span on the floor for one branch per probe.
#[derive(Clone)]
pub struct TraceCtx {
    id: u64,
    inner: Option<Arc<TraceInner>>,
}

impl std::fmt::Debug for TraceCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCtx")
            .field("id", &self.id)
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl TraceCtx {
    /// A context that records nothing (trace ID 0). The default for every
    /// library entry point that isn't handed a live trace.
    pub fn disabled() -> TraceCtx {
        TraceCtx { id: 0, inner: None }
    }

    /// A non-recording context that still carries a trace ID (so request
    /// IDs stay unique when tracing is off).
    pub fn with_id(id: u64) -> TraceCtx {
        TraceCtx { id, inner: None }
    }

    /// A live recording context; the clock starts now.
    pub fn enabled(id: u64) -> TraceCtx {
        TraceCtx {
            id,
            inner: Some(Arc::new(TraceInner {
                start: Instant::now(),
                next_span: AtomicU64::new(0),
                spans: PLock::new("obs.trace.spans", Vec::new()),
                notes: PLock::new("obs.trace.notes", Vec::new()),
            })),
        }
    }

    /// The trace ID (0 for [`TraceCtx::disabled`]).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Whether spans recorded on this context are kept.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Microseconds since the trace started (0 when disabled).
    pub fn elapsed_us(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.start.elapsed().as_micros() as u64)
    }

    /// Opens an RAII span on the request lane; the span ends (and is
    /// recorded) when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.span_on(name, 0)
    }

    /// [`TraceCtx::span`] on an explicit display lane.
    fn span_on(&self, name: &'static str, lane: u32) -> SpanGuard {
        SpanGuard {
            ctx: self.clone(),
            name,
            lane,
            start: Instant::now(),
            args: Vec::new(),
        }
    }

    /// Records a span with an explicit start and duration — for layers
    /// that already measure the interval (phase timings, queue waits), so
    /// the span agrees with the existing counters to the microsecond.
    pub fn record(
        &self,
        name: &'static str,
        lane: u32,
        start: Instant,
        dur: Duration,
        args: Vec<(&'static str, String)>,
    ) {
        let Some(inner) = &self.inner else { return };
        let span = Span {
            id: inner.next_span.fetch_add(1, Ordering::Relaxed),
            name,
            lane,
            start_us: start.saturating_duration_since(inner.start).as_micros() as u64,
            dur_us: dur.as_micros() as u64,
            args,
        };
        inner.spans.lock().push(span);
    }

    /// Attaches request-level metadata (`"cache"` outcome, …) surfaced in
    /// the trace index and export.
    pub fn note(&self, key: &'static str, value: impl Into<String>) {
        let Some(inner) = &self.inner else { return };
        inner.notes.lock().push((key, value.into()));
    }

    /// The last value noted under `key`.
    fn note_value(&self, key: &str) -> Option<String> {
        let inner = self.inner.as_ref()?;
        let notes = inner.notes.lock();
        notes
            .iter()
            .rev()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.clone())
    }

    /// Snapshots this context into a [`CompletedTrace`] (spans sorted by
    /// start offset). Called by `Obs::finish`; panics on a disabled
    /// context, which `finish` screens out.
    pub(crate) fn complete(&self, request_id: &str, route: &str, status: u16) -> CompletedTrace {
        let inner = self.inner.as_ref().expect("complete() on a live trace");
        let mut spans = inner.spans.lock().clone();
        spans.sort_by_key(|s| (s.start_us, s.id));
        CompletedTrace {
            id: self.id,
            request_id: request_id.to_owned(),
            route: route.to_owned(),
            status,
            cache: self.note_value("cache").unwrap_or_else(|| "-".to_owned()),
            total_us: self.elapsed_us(),
            spans,
        }
    }
}

/// An open span; records itself on drop. Returned by [`TraceCtx::span`].
pub struct SpanGuard {
    ctx: TraceCtx,
    name: &'static str,
    lane: u32,
    start: Instant,
    args: Vec<(&'static str, String)>,
}

impl SpanGuard {
    /// Attaches an argument to the span (builder style).
    pub fn arg(mut self, key: &'static str, value: impl Into<String>) -> SpanGuard {
        if self.ctx.is_enabled() {
            self.args.push((key, value.into()));
        }
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.ctx.is_enabled() {
            let args = std::mem::take(&mut self.args);
            self.ctx
                .record(self.name, self.lane, self.start, self.start.elapsed(), args);
        }
    }
}

/// A finished request trace, as retained by the [`FlightRecorder`].
#[derive(Debug)]
pub struct CompletedTrace {
    /// Monotonic trace ID.
    pub id: u64,
    /// Correlation key (client-sent or generated `X-Request-Id`).
    pub request_id: String,
    /// Request path.
    pub route: String,
    /// Response status code.
    pub status: u16,
    /// Cache outcome (`hit`/`partial`/`miss`/`bypass`/`degraded`, or `-`
    /// for routes without one).
    pub cache: String,
    /// Wall-clock total, microseconds.
    pub total_us: u64,
    /// Spans in start order.
    pub spans: Vec<Span>,
}

impl CompletedTrace {
    /// The `/debug/traces` index entry.
    pub fn index_json(&self) -> Json {
        Json::obj()
            .set("id", self.id)
            .set("request_id", self.request_id.as_str())
            .set("route", self.route.as_str())
            .set("status", self.status as u64)
            .set("total_us", self.total_us)
            .set("cache", self.cache.as_str())
            .set("spans", self.spans.len())
    }

    /// The Chrome trace-event JSON export: complete (`"ph":"X"`) events
    /// with µs timestamps relative to the trace start, plus thread-name
    /// metadata so Perfetto labels the request lane and each morsel
    /// worker. Loadable directly in `chrome://tracing` / Perfetto.
    pub fn chrome_json(&self) -> Json {
        let mut events: Vec<Json> = Vec::with_capacity(self.spans.len() + 2);
        let mut lanes: Vec<u32> = self.spans.iter().map(|s| s.lane).collect();
        lanes.sort_unstable();
        lanes.dedup();
        for lane in lanes {
            let label = if lane == 0 {
                "request".to_owned()
            } else {
                format!("worker-{}", lane - 1)
            };
            events.push(
                Json::obj()
                    .set("name", "thread_name")
                    .set("ph", "M")
                    .set("pid", 1u64)
                    .set("tid", lane as u64)
                    .set("args", Json::obj().set("name", label)),
            );
        }
        for span in &self.spans {
            let mut args = Json::obj();
            for (k, v) in &span.args {
                args = args.set(k, v.as_str());
            }
            events.push(
                Json::obj()
                    .set("name", span.name)
                    .set("cat", "request")
                    .set("ph", "X")
                    .set("ts", span.start_us)
                    .set("dur", span.dur_us)
                    .set("pid", 1u64)
                    .set("tid", span.lane as u64)
                    .set("args", args),
            );
        }
        Json::obj()
            .set("displayTimeUnit", "ms")
            .set(
                "metadata",
                Json::obj()
                    .set("trace_id", self.id)
                    .set("request_id", self.request_id.as_str())
                    .set("route", self.route.as_str())
                    .set("status", self.status as u64)
                    .set("cache", self.cache.as_str())
                    .set("total_us", self.total_us),
            )
            .set("traceEvents", events)
    }
}

/// The bounded ring of completed traces (`--trace-buffer`). One short
/// mutexed push per *request* (not per span), so it stays off every hot
/// path; capacity 0 disables tracing.
pub struct FlightRecorder {
    cap: usize,
    ring: PLock<VecDeque<Arc<CompletedTrace>>>,
}

impl FlightRecorder {
    /// A recorder retaining the last `cap` traces (0 = tracing off).
    pub fn new(cap: usize) -> FlightRecorder {
        FlightRecorder {
            cap,
            ring: PLock::new("obs.recorder.ring", VecDeque::with_capacity(cap.min(1024))),
        }
    }

    /// Whether traces are being retained at all.
    pub fn is_enabled(&self) -> bool {
        self.cap > 0
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Retained trace count.
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lands a completed trace, evicting the oldest past capacity.
    pub fn push(&self, trace: Arc<CompletedTrace>) {
        if self.cap == 0 {
            return;
        }
        let mut ring = self.ring.lock();
        if ring.len() >= self.cap {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// The retained traces, most recent first.
    pub fn index(&self) -> Vec<Arc<CompletedTrace>> {
        let ring = self.ring.lock();
        ring.iter().rev().cloned().collect()
    }

    /// Looks up one retained trace by ID.
    pub fn get(&self, id: u64) -> Option<Arc<CompletedTrace>> {
        let ring = self.ring.lock();
        ring.iter().find(|t| t.id == id).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completed(ctx: &TraceCtx) -> CompletedTrace {
        ctx.complete("r-test", "/recommend", 200)
    }

    #[test]
    fn disabled_context_records_nothing_for_free() {
        let ctx = TraceCtx::disabled();
        assert!(!ctx.is_enabled());
        assert_eq!(ctx.id(), 0);
        {
            let _g = ctx.span("never").arg("k", "v");
        }
        ctx.note("cache", "hit");
        assert_eq!(ctx.note_value("cache"), None);
        assert_eq!(ctx.elapsed_us(), 0);
    }

    #[test]
    fn spans_record_raii_and_explicit_and_sort_by_start() {
        let ctx = TraceCtx::enabled(7);
        let t0 = Instant::now();
        std::thread::sleep(Duration::from_millis(1));
        {
            let _g = ctx.span("outer").arg("phase", "2");
            std::thread::sleep(Duration::from_millis(2));
        }
        // An explicit record with a start *before* the RAII span sorts first.
        ctx.record("early", 1, t0, Duration::from_micros(5), Vec::new());
        let trace = completed(&ctx);
        assert_eq!(trace.id, 7);
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[0].name, "early");
        assert_eq!(trace.spans[0].lane, 1);
        assert_eq!(trace.spans[1].name, "outer");
        assert!(trace.spans[1].dur_us >= 2_000, "{:?}", trace.spans[1]);
        assert_eq!(trace.spans[1].args, vec![("phase", "2".to_owned())]);
        assert!(trace.total_us >= trace.spans[1].dur_us);
    }

    #[test]
    fn clones_share_the_same_trace_across_threads() {
        let ctx = TraceCtx::enabled(1);
        std::thread::scope(|scope| {
            for lane in 1..=4u32 {
                let ctx = ctx.clone();
                scope.spawn(move || {
                    let _g = ctx.span_on("worker", lane);
                });
            }
        });
        let trace = completed(&ctx);
        assert_eq!(trace.spans.len(), 4);
        let mut ids: Vec<u64> = trace.spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3], "span IDs are unique");
    }

    #[test]
    fn notes_surface_in_the_completed_trace() {
        let ctx = TraceCtx::enabled(3);
        ctx.note("cache", "miss");
        ctx.note("cache", "partial"); // last write wins
        let trace = completed(&ctx);
        assert_eq!(trace.cache, "partial");
        let idx = trace.index_json();
        assert_eq!(idx.get("cache").unwrap().as_str(), Some("partial"));
        assert_eq!(idx.get("request_id").unwrap().as_str(), Some("r-test"));
    }

    #[test]
    fn chrome_export_has_complete_events_and_thread_names() {
        let ctx = TraceCtx::enabled(9);
        ctx.record(
            "phase",
            0,
            Instant::now(),
            Duration::from_micros(120),
            vec![("phase", "0".to_owned())],
        );
        ctx.record(
            "morsels",
            2,
            Instant::now(),
            Duration::from_micros(40),
            Vec::new(),
        );
        let chrome = completed(&ctx).chrome_json();
        let events = chrome.get("traceEvents").unwrap().as_arr().unwrap();
        // 2 thread_name metadata events (lanes 0 and 2) + 2 spans.
        assert_eq!(events.len(), 4);
        let metas: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .collect();
        assert_eq!(metas.len(), 2);
        let spans: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .collect();
        assert_eq!(spans.len(), 2);
        for s in &spans {
            assert!(s.get("ts").unwrap().as_u64().is_some());
            assert!(s.get("dur").unwrap().as_u64().is_some());
            assert!(s.get("tid").unwrap().as_u64().is_some());
        }
        assert_eq!(
            chrome
                .get("metadata")
                .unwrap()
                .get("trace_id")
                .unwrap()
                .as_u64(),
            Some(9)
        );
        // The export round-trips through the JSON parser.
        assert!(Json::parse(&chrome.compact()).is_ok());
    }

    #[test]
    fn flight_recorder_is_a_bounded_ring() {
        let rec = FlightRecorder::new(2);
        assert!(rec.is_enabled());
        assert!(rec.is_empty());
        for id in 1..=3u64 {
            let ctx = TraceCtx::enabled(id);
            rec.push(Arc::new(ctx.complete("r", "/x", 200)));
        }
        assert_eq!(rec.len(), 2);
        assert!(rec.get(1).is_none(), "oldest evicted");
        assert!(rec.get(2).is_some() && rec.get(3).is_some());
        let index = rec.index();
        assert_eq!(index[0].id, 3, "most recent first");
        assert_eq!(index[1].id, 2);

        let off = FlightRecorder::new(0);
        assert!(!off.is_enabled());
        off.push(Arc::new(TraceCtx::enabled(5).complete("r", "/x", 200)));
        assert_eq!(off.len(), 0);
    }
}
