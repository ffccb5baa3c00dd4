//! Request routing: the API endpoints over shared server state.

use crate::api::{self, RecommendRequest};
use crate::cache::{CacheStats, CacheValue, PartialCache, RecCache};
use crate::catalog::Catalog;
use crate::http::{Request, Response};
use seedb_core::{
    ingested_instance_signature, instance_signature, predicate_signature, reference_signature,
    CacheUse, CancelToken, CoreError, Knob, PhysicalPlan, ReferenceSpec, SeeDb, SeeDbConfig,
    ViewCache,
};
use seedb_engine::{BudgetLease, ExecStats, Predicate, TraceCtx, WorkerBudget};
use seedb_obs::{LatencyHisto, Obs, PromText};
use seedb_sql::{parser::parse_expr, Planner};
use seedb_util::{Json, PLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use Kind::{Counter, Gauge, Histogram};

/// How long an admission-starved `/recommend` waits for a single worker
/// permit before degrading further (bounded by half the remaining
/// deadline, so a waited request still has time to actually run).
const LEASE_WAIT: Duration = Duration::from_millis(250);

/// Request/latency counters exposed at `GET /statz`.
#[derive(Debug)]
pub struct ServerStats {
    /// Total HTTP requests handled (any route).
    pub requests: AtomicU64,
    /// Successful `/recommend` responses.
    pub recommends_ok: AtomicU64,
    /// Failed `/recommend` requests (client or server error).
    pub recommends_err: AtomicU64,
    /// `/recommend` responses served from the response cache.
    pub response_hits: AtomicU64,
    /// `/recommend` responses that ran the engine.
    pub response_misses: AtomicU64,
    /// `/recommend` runs that skipped the cache entirely (request-level
    /// `cache_mode: "bypass"` or a cache-ineligible configuration). The
    /// operator signal that the cache was not in play: for the default
    /// configuration this counter must stay 0.
    pub response_bypass: AtomicU64,
    /// Cumulative latency of cache-miss recommends, microseconds.
    pub miss_us_total: AtomicU64,
    /// Cumulative latency of response-cache hits, microseconds.
    pub hit_us_total: AtomicU64,
    /// Cumulative latency of bypassed recommends, microseconds — kept out
    /// of `miss_us_total` so the derived mean miss latency stays honest.
    pub bypass_us_total: AtomicU64,
    /// Plan summary and per-phase timings of the most recent engine run
    /// (cache hits don't execute, so they don't overwrite it). Surfaced
    /// at `GET /statz` as the operator's view of what the planner chose.
    pub last_run: PLock<(String, Vec<u64>)>,
    /// Connections shed at the accept loop because the admission queue
    /// was full (incremented by the server, not the router).
    pub sheds: AtomicU64,
    /// `/recommend` requests shed because every morsel worker stayed
    /// busy past the bounded lease wait and no cached partial existed.
    pub shed_busy: AtomicU64,
    /// Response writes that failed (peer gone, injected truncation, …).
    pub write_errors: AtomicU64,
    /// `/recommend` runs cancelled by their deadline (504 or degraded).
    pub deadline_timeouts: AtomicU64,
    /// Degraded partial answers assembled purely from cached deltas.
    pub degraded: AtomicU64,
    /// `/recommend` runs that found no free permit instantly and fell
    /// back to the bounded single-permit wait.
    pub lease_waits: AtomicU64,
    /// Latency histogram for `/recommend`.
    pub recommend_histo: LatencyHisto,
    /// Latency histogram for `/datasets` (both methods).
    pub datasets_histo: LatencyHisto,
    /// Latency histogram for every other route.
    pub other_histo: LatencyHisto,
    /// Connections currently parked in the admission queue (maintained by
    /// the server's accept loop and workers).
    pub queue_depth: AtomicU64,
    /// The admission queue's capacity (set once at server start; 0 when
    /// the router runs without a server, e.g. in tests).
    pub queue_capacity: AtomicU64,
    /// Time connections spent waiting in the admission queue before a
    /// worker picked them up.
    pub admission_wait_histo: LatencyHisto,
}

impl Default for ServerStats {
    fn default() -> Self {
        ServerStats {
            requests: AtomicU64::new(0),
            recommends_ok: AtomicU64::new(0),
            recommends_err: AtomicU64::new(0),
            response_hits: AtomicU64::new(0),
            response_misses: AtomicU64::new(0),
            response_bypass: AtomicU64::new(0),
            miss_us_total: AtomicU64::new(0),
            hit_us_total: AtomicU64::new(0),
            bypass_us_total: AtomicU64::new(0),
            last_run: PLock::new("server.stats.last_run", (String::new(), Vec::new())),
            sheds: AtomicU64::new(0),
            shed_busy: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            deadline_timeouts: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            lease_waits: AtomicU64::new(0),
            recommend_histo: LatencyHisto::default(),
            datasets_histo: LatencyHisto::default(),
            other_histo: LatencyHisto::default(),
            queue_depth: AtomicU64::new(0),
            queue_capacity: AtomicU64::new(0),
            admission_wait_histo: LatencyHisto::default(),
        }
    }
}

/// Everything a request handler needs, shared across connections.
pub struct AppState {
    /// Lazily generated dataset instances.
    pub catalog: Catalog,
    /// The cross-request response + partials cache.
    pub cache: Arc<RecCache>,
    /// Admission budget over morsel-worker slots.
    pub budget: WorkerBudget,
    /// Request counters.
    pub stats: ServerStats,
    /// Catalog generation seed (part of cache-key namespaces).
    pub seed: u64,
    /// Deadline applied to `/recommend` requests that don't carry their
    /// own `deadline_ms`; 0 disables the default.
    pub default_deadline_ms: u64,
    /// Tracing, flight recorder, and structured logging.
    pub obs: Arc<Obs>,
    /// Server start time, for `/statz` uptime.
    pub start: Instant,
}

/// Dispatches one request, recording router-side spans (catalog build,
/// cache probe, plan derivation, execution phases, cache deposit) into
/// the request's trace. Responses carry the request's correlation id
/// ([`request_id`]) in the `X-Request-Id` header and, for `/recommend`
/// envelopes, a `request_id` field.
pub fn handle(state: &AppState, req: &Request) -> Response {
    state.stats.requests.fetch_add(1, Ordering::Relaxed);
    let start = Instant::now();
    let path = req.path.split('?').next().unwrap_or("");
    req.trace.note("route", path);
    let response = match (req.method.as_str(), path) {
        ("GET", "/healthz") => healthz(state),
        ("GET", "/statz") => statz(state),
        ("GET", "/metrics") => metrics(state),
        ("GET", "/debug/traces") => traces_index(state),
        ("GET", p) if p.starts_with("/debug/traces/") => trace_export(state, p),
        ("GET", "/datasets") => Response::json(state.catalog.list_json().compact()),
        ("POST", "/datasets") => ingest(state, req),
        ("POST", "/recommend") => recommend(state, req),
        ("GET", "/recommend") => Response::error(405, "use POST for /recommend"),
        _ => Response::error(404, &format!("no route for {} {}", req.method, path)),
    };
    let histo = match path {
        "/recommend" => &state.stats.recommend_histo,
        "/datasets" => &state.stats.datasets_histo,
        _ => &state.stats.other_histo,
    };
    histo.record_us(start.elapsed().as_micros() as u64);
    match request_id(req) {
        Some(id) => response.with_request_id(&id),
        None => response,
    }
}

/// The request's correlation id: the client's sanitized `X-Request-Id`
/// when present, else one derived from the trace id (`r-` + zero-padded
/// hex — the same shape [`Obs::request_id_for`] produces). `None` only
/// for an untraced request with no client id.
pub fn request_id(req: &Request) -> Option<String> {
    let trace_id = req.trace.id();
    match &req.request_id {
        Some(id) => Some(id.clone()),
        None => (trace_id != 0).then(|| format!("r-{trace_id:08x}")),
    }
}

fn healthz(state: &AppState) -> Response {
    Response::json(
        Json::obj()
            .set("status", "ok")
            .set("requests", state.stats.requests.load(Ordering::Relaxed))
            .set("cache_entries", state.cache.len())
            .compact(),
    )
}

/// How one exported metric reads and renders.
enum Kind<'a> {
    /// A monotonic count: a Prometheus `counter` and a `/statz` number.
    Counter(u64),
    /// A level that can fall: a Prometheus `gauge` and a `/statz` number.
    Gauge(u64),
    /// A latency histogram: the series with these labels in a Prometheus
    /// `histogram` family, and a `/statz` count/sum/quantile object.
    Histogram(&'static [(&'static str, &'static str)], &'a LatencyHisto),
}

/// One metric as both `/statz` and `/metrics` export it.
struct Metric<'a> {
    /// Dotted path of its value in the `/statz` document.
    statz: &'static str,
    /// Prometheus family name; consecutive histogram series share one.
    prom: &'static str,
    /// Prometheus `# HELP` text.
    help: &'static str,
    kind: Kind<'a>,
}

/// Every counter, gauge and histogram the server exports, declared once
/// for both endpoints. The stats structs are destructured with no `..`:
/// a new field fails to compile until it is bound here, and a bound field
/// left out of the table is an unused variable, which the clippy gate
/// (`-D warnings`) rejects. `last_run` is `/statz`-only (see [`statz`]).
#[rustfmt::skip]
fn exported(state: &AppState) -> Vec<Metric<'_>> {
    let ServerStats {
        requests,
        recommends_ok,
        recommends_err,
        response_hits,
        response_misses,
        response_bypass,
        miss_us_total,
        hit_us_total,
        bypass_us_total,
        last_run: _,
        sheds,
        shed_busy,
        write_errors,
        deadline_timeouts,
        degraded,
        lease_waits,
        recommend_histo,
        datasets_histo,
        other_histo,
        queue_depth,
        queue_capacity,
        admission_wait_histo,
    } = &state.stats;
    let CacheStats {
        hits,
        misses,
        evictions,
        insertions,
        rejected,
        purged,
        purged_bytes,
    } = state.cache.stats();
    let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
    let (cache, budget) = (&state.cache, &state.budget);
    let route = "Request latency by route, microseconds";
    let m = |statz, prom, help, kind| Metric { statz, prom, help, kind };
    vec![
        m("requests", "seedbd_requests_total", "HTTP requests handled, any route", Counter(load(requests))),
        m("uptime_s", "seedbd_uptime_seconds", "Seconds since the server started", Gauge(state.start.elapsed().as_secs())),
        m("recommend.ok", "seedbd_recommends_ok_total", "Successful /recommend responses", Counter(load(recommends_ok))),
        m("recommend.errors", "seedbd_recommends_err_total", "Failed /recommend requests", Counter(load(recommends_err))),
        m("recommend.response_hits", "seedbd_response_cache_hits_total", "/recommend responses served from the response cache", Counter(load(response_hits))),
        m("recommend.response_misses", "seedbd_response_cache_misses_total", "/recommend responses that ran the engine", Counter(load(response_misses))),
        m("recommend.bypass", "seedbd_response_cache_bypass_total", "/recommend runs that skipped the cache", Counter(load(response_bypass))),
        m("recommend.hit_us_total", "seedbd_hit_latency_us_total", "Cumulative latency of response-cache hits, microseconds", Counter(load(hit_us_total))),
        m("recommend.miss_us_total", "seedbd_miss_latency_us_total", "Cumulative latency of cache-miss recommends, microseconds", Counter(load(miss_us_total))),
        m("recommend.bypass_us_total", "seedbd_bypass_latency_us_total", "Cumulative latency of bypassed recommends, microseconds", Counter(load(bypass_us_total))),
        m("cache.entries", "seedbd_cache_entries", "Entries currently in the cache", Gauge(cache.len() as u64)),
        m("cache.bytes", "seedbd_cache_bytes", "Bytes currently held by the cache", Gauge(cache.bytes() as u64)),
        m("cache.budget_bytes", "seedbd_cache_budget_bytes", "The cache's byte budget", Gauge(cache.budget() as u64)),
        m("cache.hits", "seedbd_view_cache_hits_total", "View/response cache lookups that hit", Counter(load(hits))),
        m("cache.misses", "seedbd_view_cache_misses_total", "View/response cache lookups that missed", Counter(load(misses))),
        m("cache.evictions", "seedbd_view_cache_evictions_total", "Cache entries evicted to stay under budget", Counter(load(evictions))),
        m("cache.insertions", "seedbd_view_cache_insertions_total", "Cache entries inserted", Counter(load(insertions))),
        m("cache.rejected", "seedbd_view_cache_rejected_total", "Cache insertions rejected as oversized", Counter(load(rejected))),
        m("cache.purged", "seedbd_view_cache_purged_total", "Cache entries purged because their dataset upload was replaced", Counter(load(purged))),
        m("cache.purged_bytes", "seedbd_view_cache_purged_bytes_total", "Bytes held by cache entries purged on re-upload", Counter(load(purged_bytes))),
        m("workers.total", "seedbd_workers_total", "Morsel worker slots in the admission budget", Gauge(budget.total() as u64)),
        m("workers.available", "seedbd_workers_available", "Morsel worker slots currently free", Gauge(budget.available() as u64)),
        m("overload.sheds", "seedbd_sheds_total", "Connections shed because the admission queue was full", Counter(load(sheds))),
        m("overload.shed_busy", "seedbd_shed_busy_total", "/recommend requests shed because every worker stayed busy", Counter(load(shed_busy))),
        m("overload.write_errors", "seedbd_write_errors_total", "Response writes that failed", Counter(load(write_errors))),
        m("overload.deadline_timeouts", "seedbd_deadline_timeouts_total", "/recommend runs cancelled by their deadline", Counter(load(deadline_timeouts))),
        m("overload.degraded", "seedbd_degraded_total", "Degraded partial answers assembled from cached deltas", Counter(load(degraded))),
        m("overload.lease_waits", "seedbd_lease_waits_total", "/recommend runs that waited for a worker permit", Counter(load(lease_waits))),
        m("admission.queue_depth", "seedbd_admission_queue_depth", "Connections parked in the admission queue", Gauge(load(queue_depth))),
        m("admission.queue_capacity", "seedbd_admission_queue_capacity", "The admission queue's capacity", Gauge(load(queue_capacity))),
        m("admission.wait", "seedbd_admission_wait_us", "Time connections waited in the admission queue, microseconds", Histogram(&[], admission_wait_histo)),
        m("latency.recommend", "seedbd_route_latency_us", route, Histogram(&[("route", "recommend")], recommend_histo)),
        m("latency.datasets", "seedbd_route_latency_us", route, Histogram(&[("route", "datasets")], datasets_histo)),
        m("latency.other", "seedbd_route_latency_us", route, Histogram(&[("route", "other")], other_histo)),
    ]
}

/// Sets `value` at the dotted `path` of a `/statz` object, creating each
/// group object the first time a path names it.
fn insert_at(fields: &mut Vec<(String, Json)>, path: &str, value: Json) {
    let Some((group, rest)) = path.split_once('.') else {
        fields.push((path.to_owned(), value));
        return;
    };
    if !fields.iter().any(|(key, _)| key == group) {
        fields.push((group.to_owned(), Json::obj()));
    }
    if let Some((_, Json::Obj(inner))) = fields.iter_mut().find(|(key, _)| key == group) {
        insert_at(inner, rest, value);
    }
}

/// `GET /statz`: the [`exported`] table as one JSON document, plus the
/// plan summary and phase timings of the last engine run.
fn statz(state: &AppState) -> Response {
    let mut doc = Vec::new();
    for metric in exported(state) {
        let value = match metric.kind {
            Counter(v) | Gauge(v) => Json::from(v),
            Histogram(_, histo) => histo.json(),
        };
        insert_at(&mut doc, metric.statz, value);
    }
    // `PLock` recovers from poisoning: a thread that panicked while
    // holding the lock leaves a plain clone-out perfectly usable, and that
    // beats turning every future /statz into a 500-by-panic.
    let (summary, phases) = state.stats.last_run.lock().clone();
    let phases: Vec<Json> = phases.into_iter().map(Json::from).collect();
    insert_at(&mut doc, "recommend.last_plan_summary", summary.into());
    insert_at(&mut doc, "recommend.last_phase_times_us", phases.into());
    Response::json(Json::Obj(doc).compact())
}

/// `GET /metrics`: the [`exported`] table in Prometheus text exposition
/// format, plus the flight recorder's size. Histograms render their log₂
/// buckets as cumulative `le` series.
fn metrics(state: &AppState) -> Response {
    let table = exported(state);
    let mut p = PromText::new();
    for family in table.chunk_by(|a, b| a.prom == b.prom) {
        let Some(first) = family.first() else {
            continue;
        };
        match first.kind {
            Counter(v) => p.counter(first.prom, first.help, v),
            Gauge(v) => p.gauge(first.prom, first.help, v),
            Histogram(..) => {
                let series: Vec<_> = family
                    .iter()
                    .filter_map(|m| match m.kind {
                        Histogram(labels, histo) => Some((labels, histo)),
                        Counter(_) | Gauge(_) => None,
                    })
                    .collect();
                p.histogram(first.prom, first.help, &series);
            }
        }
    }
    p.gauge(
        "seedbd_flight_recorder_traces",
        "Completed traces currently in the flight recorder",
        state.obs.recorder.len() as u64,
    );
    Response::text(p.finish(), seedb_obs::prom::CONTENT_TYPE)
}

/// `GET /debug/traces`: the flight recorder's index, most recent first.
fn traces_index(state: &AppState) -> Response {
    let traces: Vec<Json> = state
        .obs
        .recorder
        .index()
        .iter()
        .map(|t| t.index_json())
        .collect();
    Response::json(
        Json::obj()
            .set("capacity", state.obs.recorder.capacity())
            .set("traces", traces)
            .compact(),
    )
}

/// `GET /debug/traces/{id}`: one completed trace as Chrome trace-event
/// JSON (loadable in Perfetto / `chrome://tracing`).
fn trace_export(state: &AppState, path: &str) -> Response {
    let tail = path.strip_prefix("/debug/traces/").unwrap_or("");
    let Ok(id) = tail.parse::<u64>() else {
        return Response::error(400, &format!("bad trace id '{tail}'"));
    };
    match state.obs.recorder.get(id) {
        Some(trace) => Response::json(trace.chrome_json().compact()),
        None => Response::error(
            404,
            &format!("no trace {id} in the flight recorder (it may have been evicted)"),
        ),
    }
}

/// The `POST /datasets` flow: ingest a CSV upload into the catalog. The
/// body is `{"name": …, "csv": …}`; schema is inferred from the data
/// ([`crate::csv`]). Every failure is a typed [`crate::catalog::CatalogError`]
/// with an honest status — malformed CSV or an unusable schema is 400, an
/// upload over the row cap is 413. An upload that replaces different
/// bytes under the same name purges the old instance's cache entries:
/// nothing can reach them once the name resolves to the new table.
fn ingest(state: &AppState, req: &Request) -> Response {
    let parsed = match Json::parse(&req.body) {
        Ok(j) => j,
        Err(e) => return Response::error(400, &format!("bad JSON body: {e}")),
    };
    let name = match parsed.get("name").and_then(Json::as_str) {
        Some(n) if !n.is_empty() => n,
        _ => return Response::error(400, "missing or empty \"name\" field"),
    };
    let Some(csv) = parsed.get("csv").and_then(Json::as_str) else {
        return Response::error(400, "missing \"csv\" field");
    };
    match state.catalog.ingest(name, csv) {
        Ok(ingest) => {
            if let Some((rows, fp)) = ingest.replaced {
                state
                    .cache
                    .purge_instance(&ingested_instance_signature(name, rows, fp));
            }
            let (ds, fp) = (&ingest.dataset, ingest.fingerprint);
            let (dims, measures, views) = ds.shape();
            Response::json(
                Json::obj()
                    .set("name", ds.name.as_str())
                    .set("rows", ds.rows())
                    .set("dims", dims)
                    .set("measures", measures)
                    .set("views", views)
                    .set("partitions", ds.table.partitions().len())
                    .set("fingerprint", format!("{fp:016x}"))
                    .compact(),
            )
        }
        Err(e) => Response::error(e.status(), &e.to_string()),
    }
}

/// The `/recommend` flow.
fn recommend(state: &AppState, req: &Request) -> Response {
    let start = Instant::now();
    let result = recommend_inner(state, req, start);
    match result {
        Ok(response) => {
            state.stats.recommends_ok.fetch_add(1, Ordering::Relaxed);
            response
        }
        Err(response) => {
            state.stats.recommends_err.fetch_add(1, Ordering::Relaxed);
            response
        }
    }
}

/// One straight sequence of stages: parse → resolve → key → probe →
/// plan + lease → run → deposit → render. A `"cache_mode": "bypass"`
/// request is the same sequence with no probe, no cache attached to the
/// run and no deposit.
fn recommend_inner(state: &AppState, req: &Request, start: Instant) -> Result<Response, Response> {
    let trace = &req.trace;
    let parsed = RecommendRequest::from_json(&req.body).map_err(|e| Response::error(400, &e))?;
    let bypass = parsed.cache_mode == api::CacheMode::Bypass;

    // The deadline clock starts at request arrival and covers everything
    // downstream — catalog build, admission wait, engine run. A request
    // value (even an explicit 0 = "no deadline") overrides the server
    // default.
    let deadline_ms = parsed.deadline_ms.unwrap_or(state.default_deadline_ms);
    let cancel = if deadline_ms == 0 {
        CancelToken::none()
    } else {
        CancelToken::with_deadline(start + Duration::from_millis(deadline_ms))
    };

    let (dataset, fingerprint) = {
        let _span = trace.span("catalog").arg("dataset", parsed.dataset.clone());
        state
            .catalog
            .resolve(&parsed.dataset, parsed.rows)
            .map_err(|e| Response::error(e.status(), &e.to_string()))?
    };
    let table = dataset.table.as_ref();

    // Target predicate: the request's WHERE body, or the dataset's
    // canonical target query.
    let (target, where_desc): (Predicate, String) = match &parsed.where_sql {
        Some(sql) => (plan_where(table, sql)?, sql.clone()),
        None => (
            dataset.target.clone(),
            format!("<default: {}>", dataset.task),
        ),
    };
    let reference = match parsed.reference.as_str() {
        "whole" => ReferenceSpec::WholeTable,
        "complement" => ReferenceSpec::Complement,
        sql => ReferenceSpec::Query(plan_where(table, sql)?),
    };
    let rid = request_id(req);
    let mut envelope = Envelope {
        where_desc: &where_desc,
        request_id: rid.as_deref(),
        start,
        cache: "",
        usage: CacheUse::default(),
        explain: None,
        coverage: None,
    };

    // One canonical signature covers dataset instance + query + config.
    // The config part (`result_signature`) includes the pruning kind,
    // delta, and phase count for the pruning strategies, so probabilistic
    // results never cross-contaminate deterministic ones. Generated
    // instances are keyed by seed; ingested instances by their content
    // fingerprint, so re-uploading different bytes under the same name
    // re-keys every cache entry instead of serving stale results. The
    // fingerprint came with the table from one catalog lookup, so it
    // always names the bytes this run reads.
    let instance = match fingerprint {
        Some(fp) => ingested_instance_signature(&dataset.name, dataset.rows(), fp),
        None => instance_signature(
            &dataset.name,
            state.catalog.generated_rows(&dataset.name, parsed.rows),
            state.seed,
        ),
    };
    let response_key = format!(
        "R|{instance}|{}|{}|{}",
        predicate_signature(&target),
        reference_signature(&reference),
        parsed.config.result_signature()
    );

    let probed = (!bypass).then(|| {
        let _span = trace.span("cache_probe");
        state.cache.get(&response_key)
    });
    if let Some(Some(CacheValue::Response(payload))) = probed {
        trace.note("cache", "hit");
        // A hit executes nothing, so EXPLAIN re-derives the plan this
        // request *would* run under and reports empty phase timings.
        envelope.explain = parsed.explain.then(|| {
            let seedb = SeeDb::with_config(dataset.table.clone(), parsed.config.clone());
            explain_fragment(&seedb.plan(&target, &reference), None)
        });
        let us = start.elapsed().as_micros() as u64;
        state.stats.response_hits.fetch_add(1, Ordering::Relaxed);
        state.stats.hit_us_total.fetch_add(us, Ordering::Relaxed);
        envelope.cache = "hit";
        return Ok(Response::json(envelope.wrap(&payload, us)));
    }

    // The run's engine, reading and filling this instance's partials
    // unless the request bypasses the cache.
    let partials: Option<Arc<dyn ViewCache>> =
        (!bypass).then(|| Arc::new(PartialCache::new(state.cache.clone(), instance)) as _);
    let seedb = |config: SeeDbConfig| {
        let seedb = SeeDb::with_config(dataset.table.clone(), config)
            .with_trace(trace.clone())
            .with_cancel(cancel);
        match &partials {
            Some(cache) => seedb.with_cache(cache.clone()),
            None => seedb,
        }
    };

    // Admission: lease worker slots so concurrent requests share the
    // machine's morsel workers instead of each spawning a full pool. The
    // lease request is the *planned* worker count — a small or heavily
    // pruned query asks for 1 slot, not the whole machine. When every
    // permit stays busy past the bounded wait, degrade: serve whatever
    // the partials cache already holds, else shed with a retry hint.
    let Some((config, plan, lease)) = plan_and_lease(
        state,
        &dataset,
        &parsed.config,
        &target,
        &reference,
        &cancel,
        trace,
    ) else {
        let seedb = seedb(parsed.config.clone());
        return degraded_response(
            state, &seedb, &dataset, &target, &reference, envelope, trace,
        )
        .ok_or_else(|| shed_busy(state));
    };

    let seedb = seedb(config);
    let rec = match seedb.recommend(&target, &reference) {
        Ok(rec) => rec,
        Err(CoreError::DeadlineExceeded) => {
            drop(lease);
            state
                .stats
                .deadline_timeouts
                .fetch_add(1, Ordering::Relaxed);
            // Without a cache there is no partial to degrade to — the
            // timeout is the honest answer.
            return degraded_response(
                state, &seedb, &dataset, &target, &reference, envelope, trace,
            )
            .ok_or_else(|| deadline_exceeded(deadline_ms));
        }
        Err(e) => return Err(Response::error(400, &e.to_string())),
    };
    drop(lease);
    record_last_run(state, &rec.stats);

    let payload = api::render_recommendation(&dataset, &rec).compact();
    let us = start.elapsed().as_micros() as u64;
    envelope.cache = if bypass {
        state.stats.response_bypass.fetch_add(1, Ordering::Relaxed);
        state.stats.bypass_us_total.fetch_add(us, Ordering::Relaxed);
        "bypass"
    } else {
        {
            let _span = trace.span("cache_deposit");
            state.cache.put(
                &response_key,
                CacheValue::Response(Arc::new(payload.clone())),
            );
        }
        state.stats.response_misses.fetch_add(1, Ordering::Relaxed);
        state.stats.miss_us_total.fetch_add(us, Ordering::Relaxed);
        if rec.cache.hits > 0 || rec.cache.resumed > 0 {
            "partial"
        } else {
            "miss"
        }
    };
    trace.note("cache", envelope.cache);
    envelope.usage = rec.cache;
    envelope.explain = parsed
        .explain
        .then(|| explain_fragment(&plan, Some(&rec.stats)));
    Ok(Response::json(envelope.wrap(&payload, us)))
}

/// Derives the physical plan for `requested`, leases worker slots for its
/// planned parallelism, and pins the granted count into the config the
/// engine will actually run. When admission trims the grant below the
/// plan's choice, the plan is re-derived at the granted width so EXPLAIN
/// reports the shape that executes (morsel sizing tracks worker count) —
/// while keeping the knob provenance of the original request.
///
/// Admission never blocks unboundedly: a free permit is taken instantly
/// (`try_lease`, possibly trimmed to whatever is free — a 1-permit grant
/// is serial execution, bit-identical by engine contract); a fully
/// starved budget waits at most [`LEASE_WAIT`] (and never past half the
/// remaining deadline) for a single permit; past that, `None` — the
/// caller degrades or sheds, it does not queue forever.
fn plan_and_lease<'a>(
    state: &'a AppState,
    dataset: &seedb_data::Dataset,
    requested: &SeeDbConfig,
    target: &Predicate,
    reference: &ReferenceSpec,
    cancel: &CancelToken,
    trace: &TraceCtx,
) -> Option<(SeeDbConfig, PhysicalPlan, BudgetLease<'a>)> {
    let plan_span = Instant::now();
    let mut plan =
        SeeDb::with_config(dataset.table.clone(), requested.clone()).plan(target, reference);
    trace.record(
        "plan",
        0,
        plan_span,
        plan_span.elapsed(),
        vec![("workers", plan.workers.to_string())],
    );
    let admission = trace.span("admission");
    let lease = match state.budget.try_lease(plan.workers) {
        Some(lease) => lease,
        None => {
            state.stats.lease_waits.fetch_add(1, Ordering::Relaxed);
            let wait = match cancel.remaining() {
                Some(left) => LEASE_WAIT.min(left / 2),
                None => LEASE_WAIT,
            };
            state.budget.lease_timeout(1, wait)?
        }
    };
    drop(admission.arg("granted", lease.granted().to_string()));
    let mut config = requested.clone();
    config.sharing.parallelism = Knob::Fixed(lease.granted());
    if lease.granted() != plan.workers {
        let workers_auto = plan.workers_auto;
        plan = SeeDb::with_config(dataset.table.clone(), config.clone()).plan(target, reference);
        plan.workers_auto = workers_auto;
    }
    Some((config, plan, lease))
}

/// The shed response for worker starvation: 503 with a machine-readable
/// code and a retry hint. Cheap by construction — no engine work happened.
fn shed_busy(state: &AppState) -> Response {
    state.stats.shed_busy.fetch_add(1, Ordering::Relaxed);
    Response::error_envelope(
        503,
        "all morsel workers are busy and no cached partial exists; retry shortly",
        "workers_busy",
        Some(1_000),
    )
}

/// The timeout response for a deadline that expired mid-run. The partial
/// phase results were discarded and nothing was cached, so a retry with a
/// longer deadline recomputes from whatever complete phases *earlier*
/// successful runs deposited.
fn deadline_exceeded(deadline_ms: u64) -> Response {
    Response::error_envelope(
        504,
        &format!("deadline of {deadline_ms} ms exceeded before the recommendation finished"),
        "deadline_exceeded",
        None,
    )
}

/// Assembles a degraded partial answer purely from the cached per-view
/// deltas `seedb` has attached — zero scan work — for a request that
/// cannot run (starved or out of deadline). `None` when no cache is
/// attached or it holds nothing for this query; the caller falls through
/// to shed/timeout. The response is clearly tagged (`"cache": "degraded"`,
/// `"degraded": true`, a coverage ratio) and is never deposited into the
/// response cache: a later healthy request must compute and cache the
/// full answer.
fn degraded_response(
    state: &AppState,
    seedb: &SeeDb,
    dataset: &seedb_data::Dataset,
    target: &Predicate,
    reference: &ReferenceSpec,
    envelope: Envelope<'_>,
    trace: &TraceCtx,
) -> Option<Response> {
    let (rec, coverage) = seedb.degraded_from_cache(target, reference)?;
    trace.note("cache", "degraded");
    state.stats.degraded.fetch_add(1, Ordering::Relaxed);
    let payload = api::render_recommendation(dataset, &rec).compact();
    let us = envelope.start.elapsed().as_micros() as u64;
    let envelope = Envelope {
        cache: "degraded",
        coverage: Some(coverage),
        ..envelope
    };
    Some(Response::json(envelope.wrap(&payload, us)))
}

/// Records the executed plan summary and phase timings for `/statz`.
/// Poison recovery mirrors `/statz`'s read side: the tuple assignment
/// cannot leave the data half-written in any state a reader would see.
fn record_last_run(state: &AppState, stats: &ExecStats) {
    let mut last = state.stats.last_run.lock();
    *last = (stats.plan_summary.clone(), stats.phase_times_us.clone());
}

/// The EXPLAIN object: the chosen plan plus, for runs that actually
/// executed, per-phase wall-clock timings and the zone-map pruning
/// counters. Cache hits pass `None` — nothing ran, so timings are empty and
/// the pruning counters are reported as zero.
fn explain_fragment(plan: &PhysicalPlan, stats: Option<&ExecStats>) -> Json {
    let (times, scanned, pruned) = match stats {
        Some(s) => (
            s.phase_times_us.iter().map(|&t| Json::from(t)).collect(),
            s.partitions_scanned,
            s.partitions_pruned,
        ),
        None => (Vec::new(), 0, 0),
    };
    Json::obj()
        .set("plan", plan.explain_json())
        .set("phase_times_us", times)
        .set("partitions_scanned", scanned)
        .set("partitions_pruned", pruned)
}

/// Parses and plans a SQL `WHERE` body against the dataset schema,
/// rendering parse errors with their caret diagnostics.
fn plan_where(table: &dyn seedb_storage::Table, sql: &str) -> Result<Predicate, Response> {
    let expr = parse_expr(sql).map_err(|e| Response::error(400, &e.render(sql)))?;
    Planner::new(table)
        .plan_predicate(&expr)
        .map_err(|e| Response::error(400, &e.render(sql)))
}

/// The per-request fields a `/recommend` envelope wraps around the cached
/// deterministic payload: the request's own WHERE spelling (the payload is
/// shared by every spelling that normalizes to the same signature) and
/// correlation id, its arrival time, the cache disposition —
/// `hit`/`partial`/`miss`/`bypass`/`degraded` — with the per-view split,
/// and the optional EXPLAIN object and degraded coverage.
struct Envelope<'r> {
    where_desc: &'r str,
    request_id: Option<&'r str>,
    start: Instant,
    cache: &'static str,
    usage: CacheUse,
    explain: Option<Json>,
    coverage: Option<f64>,
}

impl Envelope<'_> {
    /// The response body: these fields, then `payload`'s, in one object.
    /// The payload is not re-parsed: both sides are compact JSON objects,
    /// so they join inside one pair of braces.
    fn wrap(self, payload: &str, us: u64) -> String {
        let mut obj = Json::obj()
            .set("where", self.where_desc)
            .set("cache", self.cache)
            .set("view_hits", self.usage.hits)
            .set("view_misses", self.usage.misses)
            .set("view_resumed", self.usage.resumed)
            .set("elapsed_us", us);
        if let Some(id) = self.request_id {
            obj = obj.set("request_id", id);
        }
        if let Some(coverage) = self.coverage {
            obj = obj.set("degraded", true).set("coverage", coverage);
        }
        if let Some(explain) = self.explain {
            obj = obj.set("explain", explain);
        }
        let head = obj.compact();
        match (head.strip_suffix('}'), payload.strip_prefix('{')) {
            (Some(fields), Some(rest)) if rest != "}" => format!("{fields},{rest}"),
            _ => head,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seedb_engine::parallel::default_parallelism;

    fn state() -> AppState {
        AppState {
            catalog: Catalog::new(2_000, 500, 17),
            cache: Arc::new(RecCache::new(4 << 20)),
            budget: WorkerBudget::new(default_parallelism()),
            stats: ServerStats::default(),
            seed: 17,
            default_deadline_ms: 0,
            obs: Arc::new(Obs::default()),
            start: Instant::now(),
        }
    }

    fn post(state: &AppState, path: &str, body: &str) -> Response {
        handle(state, &Request::new("POST", path, body))
    }

    fn get(state: &AppState, path: &str) -> Response {
        handle(state, &Request::new("GET", path, ""))
    }

    #[test]
    fn healthz_and_statz_are_parseable() {
        let s = state();
        let r = get(&s, "/healthz");
        assert_eq!(r.status, 200);
        let j = Json::parse(&r.body).unwrap();
        assert_eq!(j.get("status").unwrap().as_str(), Some("ok"));
        let r = get(&s, "/statz");
        assert_eq!(r.status, 200);
        let j = Json::parse(&r.body).unwrap();
        assert!(j.get("cache").unwrap().get("budget_bytes").is_some());
        assert!(j.get("workers").unwrap().get("total").is_some());
    }

    #[test]
    fn unknown_routes_404_and_recommend_requires_post() {
        let s = state();
        assert_eq!(get(&s, "/nope").status, 404);
        assert_eq!(get(&s, "/recommend").status, 405);
    }

    #[test]
    fn recommend_round_trip_and_response_cache() {
        let s = state();
        let body = r#"{"dataset": "HOUSING", "rows": 300, "k": 3}"#;
        let r1 = post(&s, "/recommend", body);
        assert_eq!(r1.status, 200, "{}", r1.body);
        let j1 = Json::parse(&r1.body).unwrap();
        assert_eq!(j1.get("cache").unwrap().as_str(), Some("miss"));
        assert_eq!(j1.get("views").unwrap().as_arr().unwrap().len(), 3);

        // The repeat is a response-cache hit with an identical payload.
        let r2 = post(&s, "/recommend", body);
        let j2 = Json::parse(&r2.body).unwrap();
        assert_eq!(j2.get("cache").unwrap().as_str(), Some("hit"));
        assert_eq!(j1.get("views"), j2.get("views"));
        assert_eq!(j1.get("all_utilities"), j2.get("all_utilities"));

        // An overlapping query (different k) reuses every partial.
        let r3 = post(
            &s,
            "/recommend",
            r#"{"dataset": "HOUSING", "rows": 300, "k": 5}"#,
        );
        let j3 = Json::parse(&r3.body).unwrap();
        assert_eq!(j3.get("cache").unwrap().as_str(), Some("partial"));
        assert_eq!(j3.get("view_misses").unwrap().as_u64(), Some(0));
        assert_eq!(j3.get("views").unwrap().as_arr().unwrap().len(), 5);
    }

    #[test]
    fn cached_responses_echo_each_requests_own_where_spelling() {
        // CENSUS's default target IS `marital_status = 'unmarried'`, so an
        // explicit spelling of it normalizes to the same signature and the
        // second request hits the response cache — yet each response must
        // echo its own request's WHERE text, not the other one's.
        let s = state();
        let default_body = r#"{"dataset": "CENSUS", "rows": 500, "k": 2}"#;
        let explicit_body = r#"{"dataset": "CENSUS", "rows": 500, "k": 2,
                                "where": "marital_status = 'unmarried'"}"#;
        let j1 = Json::parse(&post(&s, "/recommend", default_body).body).unwrap();
        let j2 = Json::parse(&post(&s, "/recommend", explicit_body).body).unwrap();
        assert_eq!(j2.get("cache").unwrap().as_str(), Some("hit"));
        assert_eq!(j1.get("views"), j2.get("views"));
        assert!(j1
            .get("where")
            .unwrap()
            .as_str()
            .unwrap()
            .starts_with("<default:"));
        assert_eq!(
            j2.get("where").unwrap().as_str(),
            Some("marital_status = 'unmarried'")
        );
    }

    #[test]
    fn recommend_errors_are_client_errors() {
        let s = state();
        for body in [
            "not json",
            r#"{"dataset": "NOPE"}"#,
            r#"{"dataset": "HOUSING", "where": "ghost = 1"}"#,
            r#"{"dataset": "HOUSING", "where": "price >"}"#,
            r#"{"dataset": "HOUSING", "k": 0}"#,
        ] {
            let r = post(&s, "/recommend", body);
            assert_eq!(r.status, 400, "body {body} → {}", r.body);
            assert!(Json::parse(&r.body).unwrap().get("error").is_some());
        }
        assert_eq!(s.stats.recommends_err.load(Ordering::Relaxed), 5);
    }

    /// A small but non-trivial CSV: 2 dimensions × 1 measure, 60 rows.
    fn sample_csv() -> String {
        let mut csv = String::from("city,region,sales\n");
        for i in 0..60 {
            csv.push_str(&format!("c{},r{},{}\n", i % 4, i % 2, i));
        }
        csv
    }

    fn ingest_body(name: &str, csv: &str) -> String {
        Json::obj().set("name", name).set("csv", csv).compact()
    }

    #[test]
    fn ingest_then_recommend_then_repeat_is_a_hit() {
        let s = state();
        let r = post(&s, "/datasets", &ingest_body("trips", &sample_csv()));
        assert_eq!(r.status, 200, "{}", r.body);
        let j = Json::parse(&r.body).unwrap();
        assert_eq!(j.get("name").unwrap().as_str(), Some("trips"));
        assert_eq!(j.get("rows").unwrap().as_u64(), Some(60));
        assert_eq!(j.get("dims").unwrap().as_u64(), Some(2));
        assert_eq!(j.get("measures").unwrap().as_u64(), Some(1));
        assert!(j.get("fingerprint").unwrap().as_str().unwrap().len() == 16);

        // The upload shows up in the catalog listing.
        let listing = Json::parse(&get(&s, "/datasets").body).unwrap();
        assert_eq!(listing.get("ingested").unwrap().as_arr().unwrap().len(), 1);

        // Recommend against it; the repeat is a response-cache hit with
        // an identical payload.
        let body = r#"{"dataset": "trips", "k": 2}"#;
        let r1 = post(&s, "/recommend", body);
        assert_eq!(r1.status, 200, "{}", r1.body);
        let j1 = Json::parse(&r1.body).unwrap();
        assert_eq!(j1.get("cache").unwrap().as_str(), Some("miss"));
        assert_eq!(j1.get("dataset").unwrap().as_str(), Some("trips"));
        let j2 = Json::parse(&post(&s, "/recommend", body).body).unwrap();
        assert_eq!(j2.get("cache").unwrap().as_str(), Some("hit"));
        assert_eq!(j1.get("views"), j2.get("views"));
    }

    #[test]
    fn reingest_rekeys_the_response_cache() {
        // Uploading different bytes under the same name must not serve
        // the old upload's cached response: the instance signature is
        // fingerprint-keyed, so the next recommend is a miss.
        let s = state();
        post(&s, "/datasets", &ingest_body("d", &sample_csv()));
        let body = r#"{"dataset": "d", "k": 2}"#;
        let j1 = Json::parse(&post(&s, "/recommend", body).body).unwrap();
        assert_eq!(j1.get("cache").unwrap().as_str(), Some("miss"));

        let mut other = sample_csv();
        other.push_str("c9,r9,999\n");
        post(&s, "/datasets", &ingest_body("d", &other));
        let j2 = Json::parse(&post(&s, "/recommend", body).body).unwrap();
        assert_eq!(
            j2.get("cache").unwrap().as_str(),
            Some("miss"),
            "stale hit after re-upload: {j2:?}"
        );
    }

    /// Cache keys resident under one dataset instance, either kind.
    fn keys_under(s: &AppState, instance: &str) -> usize {
        let (response, partial) = (format!("R|{instance}|"), format!("P|{instance}|"));
        s.cache
            .keys_lru_order()
            .iter()
            .filter(|k| k.starts_with(&response) || k.starts_with(&partial))
            .count()
    }

    #[test]
    fn reingest_purges_the_replaced_instance_but_identical_bytes_purge_nothing() {
        let s = state();
        let csv = sample_csv();
        let old = ingested_instance_signature("d", 60, crate::csv::fingerprint(&csv));
        post(&s, "/datasets", &ingest_body("d", &csv));
        let body = r#"{"dataset": "d", "k": 2}"#;
        assert_eq!(post(&s, "/recommend", body).status, 200);
        let resident = keys_under(&s, &old);
        assert!(resident >= 2, "a miss deposits a response and partials");

        // The same bytes again: the instance is unchanged, so its entries
        // stay and the repeat is still a hit.
        post(&s, "/datasets", &ingest_body("d", &csv));
        assert_eq!(keys_under(&s, &old), resident);
        assert_eq!(s.cache.stats().purged.load(Ordering::Relaxed), 0);
        let j = Json::parse(&post(&s, "/recommend", body).body).unwrap();
        assert_eq!(j.get("cache").unwrap().as_str(), Some("hit"));

        // Different bytes: nothing is left under the old instance, and
        // /statz and /metrics both count what went.
        let mut other = sample_csv();
        other.push_str("c9,r9,999\n");
        post(&s, "/datasets", &ingest_body("d", &other));
        assert_eq!(keys_under(&s, &old), 0);
        assert!(s.cache.is_empty());
        let cache = Json::parse(&get(&s, "/statz").body).unwrap();
        let cache = cache.get("cache").unwrap();
        assert_eq!(cache.get("purged").unwrap().as_u64(), Some(resident as u64));
        assert!(cache.get("purged_bytes").unwrap().as_u64().unwrap() > 0);
        let metrics = get(&s, "/metrics").body;
        assert!(metrics.contains(&format!("seedbd_view_cache_purged_total {resident}")));
        assert!(metrics.contains("seedbd_view_cache_purged_bytes_total "));
    }

    #[test]
    fn racing_reuploads_never_key_old_results_under_the_new_fingerprint() {
        use std::sync::atomic::AtomicUsize;
        // Two tables under one name, same shape, different measures.
        let csvs = [sample_csv(), sample_csv().replace(",r0,", ",r1,")];
        // Every request a fresh predicate, so every one is a miss that
        // runs the engine and deposits.
        let bodies: Vec<String> = (0..60)
            .map(|i| {
                format!(
                    r#"{{"dataset": "d", "k": 2, "where": "sales >= {} AND sales > -{i}"}}"#,
                    i % 30
                )
            })
            .collect();

        // What a bypass run answers for each (table, body), under the key
        // a cached run of it would deposit.
        let mut truth = std::collections::HashMap::new();
        for csv in &csvs {
            let oracle = state();
            post(&oracle, "/datasets", &ingest_body("d", csv));
            let dataset = oracle.catalog.dataset("d", 0).unwrap();
            let instance =
                ingested_instance_signature("d", dataset.rows(), crate::csv::fingerprint(csv));
            for body in &bodies {
                let parsed = RecommendRequest::from_json(body).unwrap();
                let sql = parsed.where_sql.as_deref().unwrap();
                let target = plan_where(dataset.table.as_ref(), sql).unwrap();
                let key = format!(
                    "R|{instance}|{}|{}|{}",
                    predicate_signature(&target),
                    reference_signature(&ReferenceSpec::WholeTable),
                    parsed.config.result_signature()
                );
                let bypass = body.replace(r#""k": 2"#, r#""k": 2, "cache_mode": "bypass""#);
                let reply = post(&oracle, "/recommend", &bypass);
                truth.insert(key, Json::parse(&reply.body).unwrap());
            }
        }

        // Every resident response must be what a bypass run computes on
        // the table whose fingerprint its key names.
        let s = state();
        let verify = || {
            let mut checked = 0;
            for key in s.cache.keys_lru_order() {
                if !key.starts_with("R|") {
                    continue;
                }
                let want = truth
                    .get(&key)
                    .unwrap_or_else(|| panic!("unknown key {key}"));
                // A purge may take the entry between listing and reading.
                let Some(CacheValue::Response(payload)) = s.cache.get(&key) else {
                    continue;
                };
                let got = Json::parse(&payload).unwrap();
                for field in ["rows", "views", "all_utilities"] {
                    assert_eq!(got.get(field), want.get(field), "{field} under {key}");
                }
                checked += 1;
            }
            checked
        };

        post(&s, "/datasets", &ingest_body("d", &csvs[0]));
        let served = AtomicUsize::new(0);
        let wait_for_a_request = || {
            let seen = served.load(Ordering::SeqCst);
            while served.load(Ordering::SeqCst) == seen {
                std::thread::yield_now();
            }
        };
        let started = Instant::now();
        let checked = std::thread::scope(|scope| {
            let uploader = scope.spawn(|| {
                let mut checked = 0;
                let mut phase = 0x9e37_79b9_7f4a_7c15u64;
                for csv in csvs.iter().cycle().skip(1).take(400) {
                    wait_for_a_request();
                    checked += verify();
                    // Start the upload at a pseudo-random point of a
                    // request, so that across the swaps some land between
                    // a request's catalog read and its cache deposit.
                    wait_for_a_request();
                    let mean_us = started.elapsed().as_micros() as u64
                        / served.load(Ordering::SeqCst).max(1) as u64;
                    phase ^= phase << 13;
                    phase ^= phase >> 7;
                    phase ^= phase << 17;
                    let swap_at = Instant::now() + Duration::from_micros(phase % mean_us.max(1));
                    while Instant::now() < swap_at {
                        std::hint::spin_loop();
                    }
                    assert_eq!(post(&s, "/datasets", &ingest_body("d", csv)).status, 200);
                }
                checked
            });
            for body in bodies.iter().cycle() {
                if uploader.is_finished() {
                    break;
                }
                assert_eq!(post(&s, "/recommend", body).status, 200);
                served.fetch_add(1, Ordering::SeqCst);
            }
            uploader.join().unwrap()
        });
        assert!(checked + verify() > 0, "the race left nothing to check");
    }

    #[test]
    fn ingest_errors_have_honest_statuses() {
        let s = state();
        // Malformed request bodies → 400.
        assert_eq!(post(&s, "/datasets", "not json").status, 400);
        assert_eq!(
            post(&s, "/datasets", r#"{"csv": "a,m\nx,1\n"}"#).status,
            400
        );
        assert_eq!(post(&s, "/datasets", r#"{"name": "d"}"#).status, 400);
        // Unusable CSV (no measure column) → 400 with an explanation.
        let r = post(&s, "/datasets", &ingest_body("d", "a,b\nx,y\n"));
        assert_eq!(r.status, 400, "{}", r.body);
        let j = Json::parse(&r.body).unwrap();
        assert!(j
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("measure"));
        // Over the row cap (2 000 in this fixture) → 413, not 500.
        let mut big = String::from("a,m\n");
        for i in 0..2_001 {
            big.push_str(&format!("x,{i}\n"));
        }
        let r = post(&s, "/datasets", &ingest_body("big", &big));
        assert_eq!(r.status, 413, "{}", r.body);
        // Nothing was stored; recommending against them still 400s.
        assert_eq!(post(&s, "/recommend", r#"{"dataset": "big"}"#).status, 400);
    }

    #[test]
    fn latency_histogram_records_and_reports_quantiles() {
        let h = LatencyHisto::default();
        assert_eq!(h.quantile_us(0.5), 0);
        for us in [3, 5, 9, 17, 1000] {
            h.record_us(us);
        }
        assert_eq!(h.count(), 5);
        // p50 = 3rd of 5 sorted observations (9) → bucket [8,16) → 16.
        assert_eq!(h.quantile_us(0.50), 16);
        // p99 lands on the max (1000) → bucket [512,1024) → 1024.
        assert_eq!(h.quantile_us(0.99), 1024);
        let j = h.json();
        assert_eq!(j.get("count").unwrap().as_u64(), Some(5));
        assert_eq!(j.get("total_us").unwrap().as_u64(), Some(1034));
        assert!(j.get("p95_us").unwrap().as_u64().is_some());
    }

    #[test]
    fn statz_reports_overload_counters_and_per_route_latency() {
        let s = state();
        post(
            &s,
            "/recommend",
            r#"{"dataset": "HOUSING", "rows": 300, "k": 2}"#,
        );
        let j = Json::parse(&get(&s, "/statz").body).unwrap();
        let overload = j.get("overload").unwrap();
        for key in [
            "sheds",
            "shed_busy",
            "write_errors",
            "deadline_timeouts",
            "degraded",
            "lease_waits",
        ] {
            assert!(overload.get(key).unwrap().as_u64().is_some(), "{key}");
        }
        let latency = j.get("latency").unwrap();
        let rec = latency.get("recommend").unwrap();
        assert_eq!(rec.get("count").unwrap().as_u64(), Some(1));
        assert!(rec.get("p50_us").unwrap().as_u64().unwrap() > 0);
        assert!(rec.get("p99_us").unwrap().as_u64().unwrap() >= 1);
        assert!(latency.get("other").is_some());
        assert!(latency.get("datasets").is_some());
    }

    #[test]
    fn expired_deadline_is_a_504_envelope_and_caches_nothing() {
        let s = state();
        // The injected build delay outlasts the 1 ms deadline, so the
        // engine starts with an already-expired token.
        s.catalog.set_build_delay_ms(20);
        let body = r#"{"dataset": "HOUSING", "rows": 300, "k": 3, "deadline_ms": 1}"#;
        let r = post(&s, "/recommend", body);
        assert_eq!(r.status, 504, "{}", r.body);
        let j = Json::parse(&r.body).unwrap();
        assert_eq!(j.get("code").unwrap().as_str(), Some("deadline_exceeded"));
        assert!(j.get("error").unwrap().as_str().is_some());
        assert!(s.cache.is_empty(), "a cancelled run must deposit nothing");
        assert_eq!(s.stats.deadline_timeouts.load(Ordering::Relaxed), 1);
        assert_eq!(s.stats.recommends_err.load(Ordering::Relaxed), 1);

        // Without a deadline the same request (instance now built, so the
        // delay is gone) completes and caches normally.
        let ok = post(
            &s,
            "/recommend",
            r#"{"dataset": "HOUSING", "rows": 300, "k": 3}"#,
        );
        assert_eq!(ok.status, 200, "{}", ok.body);
        assert!(!s.cache.is_empty());
    }

    #[test]
    fn explicit_zero_deadline_overrides_the_server_default() {
        let mut s = state();
        s.default_deadline_ms = 1;
        s.catalog.set_build_delay_ms(20);
        // The server default would expire this request; deadline_ms: 0
        // turns the deadline off entirely.
        let r = post(
            &s,
            "/recommend",
            r#"{"dataset": "HOUSING", "rows": 300, "k": 2, "deadline_ms": 0}"#,
        );
        assert_eq!(r.status, 200, "{}", r.body);
        // And with the default left in force, the request times out.
        let mut s2 = state();
        s2.default_deadline_ms = 1;
        s2.catalog.set_build_delay_ms(20);
        let r = post(
            &s2,
            "/recommend",
            r#"{"dataset": "HOUSING", "rows": 400, "k": 2}"#,
        );
        assert_eq!(r.status, 504, "{}", r.body);
    }

    #[test]
    fn serial_degradation_is_bit_identical_to_the_parallel_run() {
        let s = state();
        let body = r#"{"dataset": "HOUSING", "rows": 300, "k": 3, "cache_mode": "bypass"}"#;
        let baseline = post(&s, "/recommend", body);
        assert_eq!(baseline.status, 200, "{}", baseline.body);
        // Leave exactly one free permit: admission trims the grant to 1
        // and the run executes serially.
        let total = s.budget.total();
        let hold = (total > 1).then(|| s.budget.lease(total - 1));
        let serial = post(&s, "/recommend", body);
        drop(hold);
        assert_eq!(serial.status, 200, "{}", serial.body);
        let a = Json::parse(&baseline.body).unwrap();
        let b = Json::parse(&serial.body).unwrap();
        assert_eq!(a.get("views"), b.get("views"), "serial ≠ parallel bits");
        assert_eq!(a.get("all_utilities"), b.get("all_utilities"));
    }

    #[test]
    fn full_starvation_degrades_to_cached_partials_or_sheds() {
        let s = state();
        // Cold cache + zero free permits → a shed, not a hang: the
        // bounded wait expires and there is nothing cached to serve.
        let hold = s.budget.lease(s.budget.total());
        let cold = post(
            &s,
            "/recommend",
            r#"{"dataset": "HOUSING", "rows": 300, "k": 3, "deadline_ms": 100}"#,
        );
        assert_eq!(cold.status, 503, "{}", cold.body);
        let j = Json::parse(&cold.body).unwrap();
        assert_eq!(j.get("code").unwrap().as_str(), Some("workers_busy"));
        assert!(j.get("retry_after_ms").unwrap().as_u64().unwrap() > 0);
        assert_eq!(s.stats.shed_busy.load(Ordering::Relaxed), 1);
        assert!(s.stats.lease_waits.load(Ordering::Relaxed) >= 1);
        drop(hold);

        // Warm the per-view partials with a one-phase NO_OPT run, then
        // starve again: an overlapping request (different k, so the
        // response cache misses) degrades to a cached-partial answer.
        let warm = post(
            &s,
            "/recommend",
            r#"{"dataset": "HOUSING", "rows": 300, "k": 3, "strategy": "NO_OPT"}"#,
        );
        assert_eq!(warm.status, 200, "{}", warm.body);
        let hold = s.budget.lease(s.budget.total());
        let r = post(
            &s,
            "/recommend",
            r#"{"dataset": "HOUSING", "rows": 300, "k": 5, "strategy": "NO_OPT", "deadline_ms": 100}"#,
        );
        drop(hold);
        assert_eq!(r.status, 200, "{}", r.body);
        let j = Json::parse(&r.body).unwrap();
        assert_eq!(j.get("cache").unwrap().as_str(), Some("degraded"));
        assert_eq!(j.get("degraded").unwrap().as_bool(), Some(true));
        let coverage = j.get("coverage").unwrap().as_num().unwrap();
        assert!(
            coverage > 0.99,
            "full-table partials cover everything: {coverage}"
        );
        assert_eq!(j.get("views").unwrap().as_arr().unwrap().len(), 5);
        assert_eq!(s.stats.degraded.load(Ordering::Relaxed), 1);

        // Degraded answers are never cached: the repeat (permits back)
        // computes for real and deposits.
        let r2 = post(
            &s,
            "/recommend",
            r#"{"dataset": "HOUSING", "rows": 300, "k": 5, "strategy": "NO_OPT"}"#,
        );
        let j2 = Json::parse(&r2.body).unwrap();
        assert_ne!(j2.get("cache").unwrap().as_str(), Some("hit"));
        // The degraded answer came from full-table partials, so it
        // matches the real computation bit for bit.
        assert_eq!(j.get("views"), j2.get("views"));
        assert_eq!(j.get("all_utilities"), j2.get("all_utilities"));
    }

    /// An envelope with the test's fixed per-request fields.
    fn envelope<'r>(
        cache: &'static str,
        usage: CacheUse,
        request_id: Option<&'r str>,
    ) -> Envelope<'r> {
        Envelope {
            where_desc: "x = 1",
            request_id,
            start: Instant::now(),
            cache,
            usage,
            explain: None,
            coverage: None,
        }
    }

    #[test]
    fn envelope_splices_compact_objects() {
        let usage = CacheUse {
            hits: 2,
            misses: 3,
            resumed: 1,
        };
        let spliced = envelope("hit", usage, Some("r-1")).wrap("{\"a\":1}", 7);
        let j = Json::parse(&spliced).unwrap();
        assert_eq!(j.get("cache").unwrap().as_str(), Some("hit"));
        assert_eq!(j.get("view_hits").unwrap().as_u64(), Some(2));
        assert_eq!(j.get("view_resumed").unwrap().as_u64(), Some(1));
        assert_eq!(j.get("request_id").unwrap().as_str(), Some("r-1"));
        assert_eq!(j.get("a").unwrap().as_u64(), Some(1));
        assert!(j.get("explain").is_none());

        // With an explain object, the nested object parses intact.
        let frag = Json::obj()
            .set("plan", Json::obj().set("workers", 2u64))
            .set("phase_times_us", vec![Json::from(4u64), Json::from(5u64)]);
        let usage = CacheUse {
            misses: 6,
            ..CacheUse::default()
        };
        let spliced = Envelope {
            explain: Some(frag),
            ..envelope("miss", usage, None)
        }
        .wrap("{\"a\":1}", 7);
        let j = Json::parse(&spliced).unwrap();
        let ex = j.get("explain").unwrap();
        assert_eq!(
            ex.get("plan").unwrap().get("workers").unwrap().as_u64(),
            Some(2)
        );
        assert_eq!(ex.get("phase_times_us").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(j.get("a").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn envelope_bytes_are_golden() {
        // The exact bytes of every disposition, fixed so a refactor of how
        // the envelope is assembled cannot move a byte of the wire format.
        let payload = r#"{"dataset":"D","views":[{"rank":0}],"all_utilities":[0.5]}"#;
        let tail = r#""dataset":"D","views":[{"rank":0}],"all_utilities":[0.5]}"#;
        let head = |cache: &str, hits: u64, misses: u64, resumed: u64| {
            format!(
                r#"{{"where":"x = 1","cache":"{cache}","view_hits":{hits},"view_misses":{misses},"view_resumed":{resumed},"elapsed_us":7"#
            )
        };
        let hit = envelope("hit", CacheUse::default(), Some("r-1")).wrap(payload, 7);
        assert_eq!(
            hit,
            format!(r#"{},"request_id":"r-1",{tail}"#, head("hit", 0, 0, 0))
        );
        let usage = CacheUse {
            misses: 4,
            ..CacheUse::default()
        };
        let miss = envelope("miss", usage, None).wrap(payload, 7);
        assert_eq!(miss, format!("{},{tail}", head("miss", 0, 4, 0)));
        let usage = CacheUse {
            hits: 2,
            misses: 1,
            resumed: 1,
        };
        let partial = envelope("partial", usage, Some("r-2")).wrap(payload, 7);
        assert_eq!(
            partial,
            format!(r#"{},"request_id":"r-2",{tail}"#, head("partial", 2, 1, 1))
        );
        let bypass = envelope("bypass", CacheUse::default(), None).wrap(payload, 7);
        assert_eq!(bypass, format!("{},{tail}", head("bypass", 0, 0, 0)));
        let degraded = Envelope {
            coverage: Some(0.75),
            ..envelope("degraded", CacheUse::default(), Some("r-3"))
        }
        .wrap(payload, 7);
        assert_eq!(
            degraded,
            format!(
                r#"{},"request_id":"r-3","degraded":true,"coverage":0.75,{tail}"#,
                head("degraded", 0, 0, 0)
            )
        );

        let plan = PhysicalPlan {
            workers: 2,
            workers_auto: true,
            morsel_rows: usize::MAX,
            morsel_auto: false,
            mode: seedb_core::ExecMode::Vectorized,
            index: seedb_engine::GroupIndexKind::Hash,
            clusters: vec![
                vec![seedb_storage::ColumnId(0)],
                vec![seedb_storage::ColumnId(1), seedb_storage::ColumnId(2)],
            ],
            packed: true,
            aggregates: 3,
            views: 4,
            estimated_rows: 1000,
            partitions_total: 4,
            partitions_prunable: 1,
        };
        let mut stats = ExecStats::new();
        stats.phase_times_us = vec![40, 5];
        stats.partitions_scanned = 3;
        stats.partitions_pruned = 1;
        let plan_json = concat!(
            r#"{"workers":2,"workers_source":"auto","morsel_rows":"whole","#,
            r#""morsel_source":"fixed","mode":"VECTORIZED","index":"hash","#,
            r#""clusters":2,"packed":true,"aggregates":3,"views":4,"#,
            r#""estimated_rows":1000,"partitions_total":4,"partitions_prunable":1}"#
        );
        let explain = Envelope {
            explain: Some(explain_fragment(&plan, Some(&stats))),
            ..envelope("miss", CacheUse::default(), None)
        }
        .wrap(payload, 7);
        assert_eq!(
            explain,
            format!(
                r#"{},"explain":{{"plan":{plan_json},"phase_times_us":[40,5],"partitions_scanned":3,"partitions_pruned":1}},{tail}"#,
                head("miss", 0, 0, 0)
            )
        );
        let explain_hit = Envelope {
            explain: Some(explain_fragment(&plan, None)),
            ..envelope("hit", CacheUse::default(), None)
        }
        .wrap(payload, 7);
        assert_eq!(
            explain_hit,
            format!(
                r#"{},"explain":{{"plan":{plan_json},"phase_times_us":[],"partitions_scanned":0,"partitions_pruned":0}},{tail}"#,
                head("hit", 0, 0, 0)
            )
        );

        // An empty payload leaves the envelope's own fields alone.
        let empty = envelope("miss", CacheUse::default(), None).wrap("{}", 7);
        assert_eq!(empty, format!("{}}}", head("miss", 0, 0, 0)));
    }

    #[test]
    fn explain_reports_plan_timings_and_does_not_change_cache_keys() {
        let s = state();
        let body = r#"{"dataset": "HOUSING", "rows": 300, "k": 3, "explain": true}"#;
        let j1 = Json::parse(&post(&s, "/recommend", body).body).unwrap();
        assert_eq!(j1.get("cache").unwrap().as_str(), Some("miss"));
        let ex = j1.get("explain").unwrap();
        let plan = ex.get("plan").unwrap();
        assert!(plan.get("workers").unwrap().as_u64().unwrap() >= 1);
        assert_eq!(plan.get("mode").unwrap().as_str(), Some("VECTORIZED"));
        assert!(plan.get("index").unwrap().as_str().is_some());
        assert!(plan.get("estimated_rows").unwrap().as_u64().is_some());
        // Shared clusters: never more aggregates per row than views, and
        // the stats envelope counts the updates they cost beside the rows.
        let planned = |key: &str| plan.get(key).unwrap().as_u64().unwrap();
        assert!(1 <= planned("aggregates") && planned("aggregates") <= planned("views"));
        let stat = |key: &str| j1.get("stats").unwrap().get(key).unwrap().as_u64().unwrap();
        assert!(stat("accumulator_updates") >= stat("rows_scanned"));
        // … and how many of them took the engine's fast path.
        assert!(0 < stat("fixed_lane_updates"));
        assert!(stat("fixed_lane_updates") <= stat("accumulator_updates"));
        let times = ex.get("phase_times_us").unwrap().as_arr().unwrap();
        assert!(!times.is_empty(), "an executed run must report timings");
        assert!(ex.get("partitions_scanned").unwrap().as_u64().is_some());

        // A repeat with explain is still a cache hit (explain is not part
        // of the signature); the re-derived plan matches, timings empty.
        let j2 = Json::parse(&post(&s, "/recommend", body).body).unwrap();
        assert_eq!(j2.get("cache").unwrap().as_str(), Some("hit"));
        let ex2 = j2.get("explain").unwrap();
        assert_eq!(ex2.get("plan"), ex.get("plan"));
        assert!(ex2
            .get("phase_times_us")
            .unwrap()
            .as_arr()
            .unwrap()
            .is_empty());

        // And a plain request hits the same entry, without the fragment.
        let plain = r#"{"dataset": "HOUSING", "rows": 300, "k": 3}"#;
        let j3 = Json::parse(&post(&s, "/recommend", plain).body).unwrap();
        assert_eq!(j3.get("cache").unwrap().as_str(), Some("hit"));
        assert!(j3.get("explain").is_none());
        assert_eq!(j1.get("views"), j3.get("views"));

        // /statz surfaces the executed plan's profiling.
        let statz = Json::parse(&get(&s, "/statz").body).unwrap();
        let rec = statz.get("recommend").unwrap();
        let summary = rec.get("last_plan_summary").unwrap().as_str().unwrap();
        assert!(summary.contains("workers="), "{summary}");
        assert!(!rec
            .get("last_phase_times_us")
            .unwrap()
            .as_arr()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn statz_survives_a_poisoned_stats_lock() {
        // Regression: a thread panicking while holding `last_run` used to
        // latch every future /statz (and every engine run's bookkeeping)
        // into a panic of its own via `.expect("stats lock poisoned")`.
        let s = std::sync::Arc::new(state());
        let s2 = s.clone();
        let _ = std::thread::spawn(move || {
            let _guard = s2.stats.last_run.lock();
            panic!("poison the stats lock");
        })
        .join();
        assert!(s.stats.last_run.is_poisoned());

        let r = get(&s, "/statz");
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(Json::parse(&r.body).is_ok());

        // The write side recovers too: a recommend records its run and
        // the next /statz serves the fresh summary.
        let rec = post(
            &s,
            "/recommend",
            r#"{"dataset": "HOUSING", "rows": 300, "k": 2}"#,
        );
        assert_eq!(rec.status, 200, "{}", rec.body);
        let j = Json::parse(&get(&s, "/statz").body).unwrap();
        let summary = j
            .get("recommend")
            .unwrap()
            .get("last_plan_summary")
            .unwrap()
            .as_str()
            .unwrap()
            .to_owned();
        assert!(summary.contains("workers="), "{summary}");
    }

    #[test]
    fn statz_reports_uptime_and_admission_gauges() {
        let s = state();
        s.stats.queue_capacity.store(64, Ordering::Relaxed);
        s.stats.queue_depth.store(3, Ordering::Relaxed);
        s.stats.admission_wait_histo.record_us(250);
        let j = Json::parse(&get(&s, "/statz").body).unwrap();
        assert!(j.get("uptime_s").unwrap().as_u64().is_some());
        let adm = j.get("admission").unwrap();
        assert_eq!(adm.get("queue_depth").unwrap().as_u64(), Some(3));
        assert_eq!(adm.get("queue_capacity").unwrap().as_u64(), Some(64));
        let wait = adm.get("wait").unwrap();
        assert_eq!(wait.get("count").unwrap().as_u64(), Some(1));
        assert!(wait.get("p50_us").unwrap().as_u64().unwrap() >= 250);
    }

    #[test]
    fn metrics_exposition_is_valid_and_mirrors_stats() {
        let s = state();
        post(
            &s,
            "/recommend",
            r#"{"dataset": "HOUSING", "rows": 300, "k": 2}"#,
        );
        let r = get(&s, "/metrics");
        assert_eq!(r.status, 200);
        assert_eq!(r.content_type, seedb_obs::prom::CONTENT_TYPE);
        seedb_obs::prom::validate(&r.body).unwrap();
        assert!(r.body.contains("# TYPE seedbd_requests_total counter"));
        assert!(r.body.contains("# HELP seedbd_requests_total"));
        // The /recommend above plus this scrape's own increment race-free
        // lower bound: at least the recommend was counted.
        let line = r
            .body
            .lines()
            .find(|l| l.starts_with("seedbd_requests_total "))
            .unwrap();
        let value: f64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert!(value >= 1.0, "{line}");
        assert!(r.body.contains("seedbd_recommends_ok_total 1"));
        assert!(r.body.contains("seedbd_workers_total "));
        assert!(r.body.contains("seedbd_uptime_seconds "));

        // Finish the scripted sequence (the recommend above was the miss):
        // a hit, a bypass, an ingest and a re-ingest of different bytes.
        let recommend = r#"{"dataset": "HOUSING", "rows": 300, "k": 2}"#;
        let bypass = r#"{"dataset": "HOUSING", "rows": 300, "k": 2, "cache_mode": "bypass"}"#;
        for (body, cache) in [(recommend, "hit"), (bypass, "bypass")] {
            let j = Json::parse(&post(&s, "/recommend", body).body).unwrap();
            assert_eq!(j.get("cache").unwrap().as_str(), Some(cache));
        }
        let mut other = sample_csv();
        other.push_str("c9,r9,999\n");
        for csv in [sample_csv(), other] {
            assert_eq!(post(&s, "/datasets", &ingest_body("d", &csv)).status, 200);
            assert_eq!(
                post(&s, "/recommend", r#"{"dataset": "d", "k": 2}"#).status,
                200
            );
        }

        // Every declared metric reads the same value on both endpoints.
        // Both are rendered directly, so neither scrape counts itself.
        let doc = Json::parse(&statz(&s).body).unwrap();
        let prom = metrics(&s).body;
        let at = |path: &str| {
            path.split('.')
                .try_fold(&doc, |j, key| j.get(key))
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("/statz has no number at {path}"))
        };
        let sample = |series: &str| {
            prom.lines()
                .find_map(|l| l.strip_prefix(&format!("{series} ")))
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or_else(|| panic!("/metrics has no sample {series}"))
        };
        for metric in exported(&s) {
            match metric.kind {
                Gauge(_) if metric.statz == "uptime_s" => {
                    assert!(at(metric.statz).abs_diff(sample(metric.prom)) <= 1);
                }
                Counter(_) | Gauge(_) => {
                    assert_eq!(at(metric.statz), sample(metric.prom), "{}", metric.statz);
                }
                Histogram(labels, _) => {
                    let labels: Vec<String> =
                        labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
                    let labels = if labels.is_empty() {
                        String::new()
                    } else {
                        format!("{{{}}}", labels.join(","))
                    };
                    let count = format!("{}_count{labels}", metric.prom);
                    let sum = format!("{}_sum{labels}", metric.prom);
                    let path = |key: &str| format!("{}.{key}", metric.statz);
                    assert_eq!(at(&path("count")), sample(&count), "{count}");
                    assert_eq!(at(&path("total_us")), sample(&sum), "{sum}");
                }
            }
        }
        assert_eq!(at("recommend.response_hits"), 1);
        // The /statz paths CI's server smoke greps, then those the repo
        // benchmark reads.
        assert_eq!(at("recommend.bypass"), 1);
        assert!(at("cache.purged") >= 1);
        for path in [
            "cache.evictions",
            "cache.bytes",
            "overload.sheds",
            "admission.wait.p50_us",
        ] {
            at(path);
        }
    }

    #[test]
    fn metrics_histogram_buckets_are_cumulative_and_match_the_histo() {
        let s = state();
        for us in [3, 5, 9, 17, 1000, 70_000] {
            s.stats.recommend_histo.record_us(us);
        }
        let body = get(&s, "/metrics").body;
        // Collect the recommend-route bucket series in order.
        let mut values = Vec::new();
        for line in body.lines() {
            if line.starts_with("seedbd_route_latency_us_bucket{route=\"recommend\"") {
                let v: f64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
                values.push(v as u64);
            }
        }
        // 40 finite buckets plus +Inf.
        assert_eq!(values.len(), seedb_obs::HISTO_BUCKETS + 1);
        assert!(
            values.windows(2).all(|w| w[0] <= w[1]),
            "le series must be cumulative: {values:?}"
        );
        assert_eq!(*values.last().unwrap(), 6, "+Inf equals the count");
        // De-cumulate the finite buckets and compare against the
        // histogram's raw counts; the final finite bucket is a catch-all,
        // so +Inf adds nothing beyond it.
        let raw = s.stats.recommend_histo.bucket_counts();
        for (i, pair) in values
            .windows(2)
            .take(seedb_obs::HISTO_BUCKETS - 1)
            .enumerate()
        {
            assert_eq!(pair[1] - pair[0], raw[i + 1], "bucket {}", i + 1);
        }
        assert_eq!(values[0], raw[0]);
        assert_eq!(
            values[seedb_obs::HISTO_BUCKETS - 1],
            *values.last().unwrap()
        );
        // _count and _sum agree with the histogram.
        assert!(body.contains("seedbd_route_latency_us_count{route=\"recommend\"} 6"));
        let sum_line = body
            .lines()
            .find(|l| l.starts_with("seedbd_route_latency_us_sum{route=\"recommend\"}"))
            .unwrap();
        let sum: f64 = sum_line.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert_eq!(sum as u64, s.stats.recommend_histo.total_us());
    }

    #[test]
    fn metrics_counters_are_monotonic_under_concurrent_clients() {
        let s = std::sync::Arc::new(state());
        // Warm once so worker threads mostly hit the response cache.
        post(
            &s,
            "/recommend",
            r#"{"dataset": "HOUSING", "rows": 300, "k": 2}"#,
        );
        let extract = |body: &str, name: &str| -> u64 {
            let prefix = format!("{name} ");
            body.lines()
                .find(|l| l.starts_with(&prefix))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
                .map(|v| v as u64)
                .unwrap_or_else(|| panic!("{name} missing"))
        };
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let s = s.clone();
                std::thread::spawn(move || {
                    let mut last_requests = 0u64;
                    let mut last_ok = 0u64;
                    for _ in 0..20 {
                        post(
                            &s,
                            "/recommend",
                            r#"{"dataset": "HOUSING", "rows": 300, "k": 2}"#,
                        );
                        let body = get(&s, "/metrics").body;
                        seedb_obs::prom::validate(&body).unwrap();
                        let requests = extract(&body, "seedbd_requests_total");
                        let ok = extract(&body, "seedbd_recommends_ok_total");
                        assert!(requests >= last_requests, "requests_total went backwards");
                        assert!(ok >= last_ok, "recommends_ok_total went backwards");
                        last_requests = requests;
                        last_ok = ok;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let final_body = get(&s, "/metrics").body;
        let ok = extract(&final_body, "seedbd_recommends_ok_total");
        assert_eq!(ok, 1 + 8 * 20);
    }

    #[test]
    fn debug_traces_index_and_export_round_trip() {
        let s = state();
        // Traced request: the flight recorder captures it end to end.
        let trace = s.obs.begin();
        assert!(trace.is_enabled());
        let mut req = Request::new(
            "POST",
            "/recommend",
            r#"{"dataset": "HOUSING", "rows": 300, "k": 2}"#,
        );
        req.trace = trace.clone();
        let resp = handle(&s, &req);
        assert_eq!(resp.status, 200, "{}", resp.body);
        let rid = s.obs.request_id_for(&trace);
        assert_eq!(resp.request_id.as_deref(), Some(rid.as_str()));
        let envelope = Json::parse(&resp.body).unwrap();
        assert_eq!(
            envelope.get("request_id").unwrap().as_str(),
            Some(rid.as_str())
        );
        s.obs.finish(&trace, &rid, "/recommend", resp.status);

        // Index lists it.
        let idx = Json::parse(&get(&s, "/debug/traces").body).unwrap();
        let traces = idx.get("traces").unwrap().as_arr().unwrap();
        assert_eq!(traces.len(), 1);
        let entry = &traces[0];
        assert_eq!(entry.get("route").unwrap().as_str(), Some("/recommend"));
        assert_eq!(entry.get("cache").unwrap().as_str(), Some("miss"));
        assert_eq!(
            entry.get("request_id").unwrap().as_str(),
            Some(rid.as_str())
        );
        let id = entry.get("id").unwrap().as_u64().unwrap();

        // Export is Chrome trace-event JSON with the expected spans, and
        // the phase spans sum to no more than the envelope's latency.
        let export = get(&s, &format!("/debug/traces/{id}"));
        assert_eq!(export.status, 200);
        let chrome = Json::parse(&export.body).unwrap();
        let events = chrome.get("traceEvents").unwrap().as_arr().unwrap();
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .map(|e| e.get("name").unwrap().as_str().unwrap())
            .collect();
        for expected in ["catalog", "cache_probe", "plan", "admission", "phase"] {
            assert!(names.contains(&expected), "missing {expected}: {names:?}");
        }
        let phase_sum: u64 = events
            .iter()
            .filter(|e| e.get("name").unwrap().as_str() == Some("phase"))
            .map(|e| e.get("dur").unwrap().as_u64().unwrap())
            .sum();
        let elapsed = envelope.get("elapsed_us").unwrap().as_u64().unwrap();
        assert!(
            phase_sum <= elapsed,
            "phase spans ({phase_sum} µs) exceed the envelope total ({elapsed} µs)"
        );
        assert!(phase_sum > 0, "executed phases must record real durations");

        // Unknown and malformed ids are honest errors.
        assert_eq!(get(&s, "/debug/traces/999999").status, 404);
        assert_eq!(get(&s, "/debug/traces/nope").status, 400);
    }

    #[test]
    fn client_request_ids_are_echoed_and_traces_stay_disabled_without_obs() {
        let s = state();
        let mut req = Request::new("GET", "/healthz", "");
        req.request_id = Some("client-abc.1".to_owned());
        let resp = handle(&s, &req);
        assert_eq!(resp.request_id.as_deref(), Some("client-abc.1"));
        // Untraced requests without a client id carry no header at all.
        let resp = handle(&s, &Request::new("GET", "/healthz", ""));
        assert_eq!(resp.request_id, None);
    }

    #[test]
    fn no_opt_issues_two_queries_per_view_whatever_the_sharing_knobs() {
        // The request keeps the default sharing knobs; NO_OPT still runs
        // each view's own target and reference query.
        let s = state();
        let body = r#"{"dataset": "HOUSING", "rows": 300, "k": 3, "strategy": "no_opt"}"#;
        let r = post(&s, "/recommend", body);
        assert_eq!(r.status, 200, "{}", r.body);
        let j = Json::parse(&r.body).unwrap();
        let views = j.get("all_utilities").unwrap().as_arr().unwrap().len() as u64;
        let stats = j.get("stats").unwrap();
        assert_eq!(
            stats.get("queries_issued").unwrap().as_u64(),
            Some(2 * views)
        );
    }

    #[test]
    fn bypass_mode_skips_the_cache_and_counts() {
        let s = state();
        let body = r#"{"dataset": "HOUSING", "rows": 300, "k": 3, "cache_mode": "bypass"}"#;
        let r1 = post(&s, "/recommend", body);
        assert_eq!(r1.status, 200, "{}", r1.body);
        let j1 = Json::parse(&r1.body).unwrap();
        assert_eq!(j1.get("cache").unwrap().as_str(), Some("bypass"));
        assert!(s.cache.is_empty(), "bypass must store nothing");
        assert_eq!(s.stats.response_bypass.load(Ordering::Relaxed), 1);
        assert_eq!(s.stats.response_hits.load(Ordering::Relaxed), 0);
        assert_eq!(s.stats.response_misses.load(Ordering::Relaxed), 0);

        // A bypass repeat is another engine run — and bit-identical.
        let j2 = Json::parse(&post(&s, "/recommend", body).body).unwrap();
        assert_eq!(j2.get("cache").unwrap().as_str(), Some("bypass"));
        assert_eq!(j1.get("views"), j2.get("views"));
        assert_eq!(s.stats.response_bypass.load(Ordering::Relaxed), 2);

        // Statz surfaces the counter.
        let statz = Json::parse(&get(&s, "/statz").body).unwrap();
        assert_eq!(
            statz
                .get("recommend")
                .unwrap()
                .get("bypass")
                .unwrap()
                .as_u64(),
            Some(2)
        );

        // The default configuration never bypasses: an auto repeat is a
        // response-cache hit and the bypass counter stays put.
        let auto_body = r#"{"dataset": "HOUSING", "rows": 300, "k": 3}"#;
        let _ = post(&s, "/recommend", auto_body);
        let j = Json::parse(&post(&s, "/recommend", auto_body).body).unwrap();
        assert_eq!(j.get("cache").unwrap().as_str(), Some("hit"));
        assert_eq!(j1.get("views"), j.get("views"), "bypass ≡ cached bits");
        assert_eq!(s.stats.response_bypass.load(Ordering::Relaxed), 2);
    }
}
