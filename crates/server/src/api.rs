//! The `/recommend` API surface: request parsing and response rendering.
//!
//! A request names a catalog dataset and a target selection (a SQL
//! `WHERE`-clause body) and may override any *result-affecting* config
//! knob. Execution-shape knobs (parallelism, morsel size, engine mode)
//! are the daemon's business — they are bit-identical by engine contract
//! and governed by the admission budget, so the API exposes none of them.

use seedb_core::{DistanceKind, ExecutionStrategy, PruningKind, Recommendation, SeeDbConfig};
use seedb_data::Dataset;
use seedb_engine::AggFunc;
use seedb_util::Json;

/// How a `/recommend` request wants the cross-request cache used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// Probe and fill the response and partials caches (the default).
    #[default]
    Auto,
    /// Skip the cache entirely: run the engine directly, store nothing.
    /// The response envelope reports `"cache": "bypass"` and the run
    /// increments the `/statz` bypass counter — the operator-visible
    /// signal that the cache was not in play.
    Bypass,
}

/// A parsed `/recommend` request body.
#[derive(Debug, Clone)]
pub struct RecommendRequest {
    /// Catalog dataset name (Table 1 spelling).
    pub dataset: String,
    /// Requested instance size (rows); the catalog clamps it.
    pub rows: Option<usize>,
    /// Target selection as a SQL `WHERE` body; `None` ⇒ the dataset's
    /// canonical target query.
    pub where_sql: Option<String>,
    /// Reference: `"whole"` (default), `"complement"`, or a SQL `WHERE`
    /// body for an arbitrary reference selection.
    pub reference: String,
    /// Cache disposition override (`"cache_mode"`: `"auto"`/`"bypass"`).
    pub cache_mode: CacheMode,
    /// EXPLAIN: when true the response envelope carries the chosen
    /// physical plan, per-phase timings, and pruning counters. Purely
    /// additive — it never changes what is computed or cached.
    pub explain: bool,
    /// Per-request deadline in milliseconds, measured from request
    /// arrival. `None` ⇒ the server's configured default; an explicit
    /// `0` disables the deadline for this request. Never part of the
    /// cache signature — a deadline changes whether a run finishes, not
    /// what a finished run computes.
    pub deadline_ms: Option<u64>,
    /// Result-affecting config overrides applied over the server default.
    pub config: SeeDbConfig,
}

/// The server's default per-request configuration: the paper's §5 `COMB`
/// setup (EMD, k = 10, CI pruning, 10 phases, all sharing optimizations)
/// — [`SeeDbConfig::default`]. Pruned runs are fully cache-eligible:
/// repeats hit the response cache and overlapping requests replay or
/// resume per-view phase prefixes (`SeeDb::with_cache`).
pub fn default_config() -> SeeDbConfig {
    SeeDbConfig::default()
}

impl RecommendRequest {
    /// Parses and validates a request body. Every error is a client
    /// error: the returned message goes into a 400 response.
    pub fn from_json(body: &str) -> Result<RecommendRequest, String> {
        let doc = Json::parse(body).map_err(|e| format!("invalid JSON body: {e}"))?;
        let dataset = doc
            .get("dataset")
            .and_then(Json::as_str)
            .ok_or("missing required string field 'dataset'")?
            .to_owned();
        let rows = match doc.get("rows") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_u64().ok_or("'rows' must be a non-negative integer")? as usize),
        };
        let where_sql = match doc.get("where") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_str().ok_or("'where' must be a SQL string")?.to_owned()),
        };
        let reference = match doc.get("reference") {
            None | Some(Json::Null) => "whole".to_owned(),
            Some(v) => v.as_str().ok_or("'reference' must be a string")?.to_owned(),
        };
        let cache_mode = match doc.get("cache_mode") {
            None | Some(Json::Null) => CacheMode::Auto,
            Some(v) => match v.as_str().ok_or("'cache_mode' must be a string")? {
                "auto" => CacheMode::Auto,
                "bypass" => CacheMode::Bypass,
                other => {
                    return Err(format!(
                        "unknown cache_mode '{other}' (expected 'auto' or 'bypass')"
                    ))
                }
            },
        };
        let explain = match doc.get("explain") {
            None | Some(Json::Null) => false,
            Some(v) => v.as_bool().ok_or("'explain' must be a boolean")?,
        };
        let deadline_ms = match doc.get("deadline_ms") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or("'deadline_ms' must be a non-negative integer")?,
            ),
        };

        let mut config = default_config();
        if let Some(v) = doc.get("k") {
            config.k = v.as_u64().ok_or("'k' must be a positive integer")? as usize;
        }
        if let Some(v) = doc.get("metric") {
            let name = v.as_str().ok_or("'metric' must be a string")?;
            config.metric = parse_metric(name)?;
        }
        if let Some(v) = doc.get("strategy") {
            let name = v.as_str().ok_or("'strategy' must be a string")?;
            config.strategy = parse_strategy(name)?;
        }
        if let Some(v) = doc.get("pruning") {
            let name = v.as_str().ok_or("'pruning' must be a string")?;
            config.pruning = parse_pruning(name)?;
        }
        if let Some(v) = doc.get("num_phases") {
            config.num_phases =
                v.as_u64()
                    .ok_or("'num_phases' must be a positive integer")? as usize;
        }
        if let Some(v) = doc.get("delta") {
            config.delta = v.as_num().ok_or("'delta' must be a number")?;
        }
        if let Some(v) = doc.get("agg") {
            let items = v.as_arr().ok_or("'agg' must be an array of strings")?;
            let mut funcs = Vec::with_capacity(items.len());
            for item in items {
                let name = item.as_str().ok_or("'agg' must be an array of strings")?;
                funcs.push(name.parse::<AggFunc>().map_err(|e| e.to_string())?);
            }
            config.agg_functions = funcs;
        }
        config.validate().map_err(|e| e.to_string())?;

        Ok(RecommendRequest {
            dataset,
            rows,
            where_sql,
            reference,
            cache_mode,
            explain,
            deadline_ms,
            config,
        })
    }
}

fn parse_metric(name: &str) -> Result<DistanceKind, String> {
    let upper = name.to_ascii_uppercase();
    DistanceKind::ALL
        .into_iter()
        .find(|k| k.name() == upper)
        .ok_or_else(|| {
            let names: Vec<&str> = DistanceKind::ALL.iter().map(|k| k.name()).collect();
            format!("unknown metric '{name}' (expected one of {names:?})")
        })
}

fn parse_strategy(name: &str) -> Result<ExecutionStrategy, String> {
    let upper = name.to_ascii_uppercase();
    ExecutionStrategy::ALL
        .into_iter()
        .find(|s| s.label() == upper)
        .ok_or_else(|| {
            let names: Vec<&str> = ExecutionStrategy::ALL.iter().map(|s| s.label()).collect();
            format!("unknown strategy '{name}' (expected one of {names:?})")
        })
}

fn parse_pruning(name: &str) -> Result<PruningKind, String> {
    let upper = name.to_ascii_uppercase();
    PruningKind::ALL
        .into_iter()
        .find(|p| p.label() == upper)
        .ok_or_else(|| {
            let names: Vec<&str> = PruningKind::ALL.iter().map(|p| p.label()).collect();
            format!("unknown pruning '{name}' (expected one of {names:?})")
        })
}

/// Renders the deterministic part of a `/recommend` response: everything
/// except per-request fields (latency, cache disposition, the request's
/// own WHERE spelling), which the router adds around this payload. The
/// payload must stay request-spelling-independent because it is shared
/// across every request with the same canonical signature — two
/// bit-identical recommendations render to byte-identical payloads
/// (float formatting is exact shortest round-trip).
pub fn render_recommendation(dataset: &Dataset, rec: &Recommendation) -> Json {
    let table = dataset.table.as_ref();
    let views: Vec<Json> = rec
        .views
        .iter()
        .enumerate()
        .map(|(rank, v)| {
            let schema = table.schema();
            Json::obj()
                .set("rank", rank)
                .set("view", v.spec.describe(table))
                .set("dim", schema.column(v.spec.dim).name.as_str())
                .set("measure", schema.column(v.spec.measure).name.as_str())
                .set("func", v.spec.func.name())
                .set("utility", v.utility)
                .set(
                    "groups",
                    v.group_labels
                        .iter()
                        .map(|l| Json::from(l.as_str()))
                        .collect::<Vec<_>>(),
                )
                .set("target", nums(&v.target_distribution))
                .set("reference", nums(&v.reference_distribution))
                .set("target_values", nums(&v.target_values))
                .set("reference_values", nums(&v.reference_values))
        })
        .collect();
    Json::obj()
        .set("dataset", dataset.name.as_str())
        .set("rows", dataset.rows())
        .set("views", views)
        .set("all_utilities", nums(&rec.all_utilities))
        .set(
            "stats",
            Json::obj()
                .set("queries_issued", rec.stats.queries_issued)
                .set("scan_passes", rec.stats.scan_passes)
                .set("rows_scanned", rec.stats.rows_scanned)
                .set("accumulator_updates", rec.stats.accumulator_updates)
                .set("fixed_lane_updates", rec.stats.fixed_lane_updates)
                .set("cells_visited", rec.stats.cells_visited)
                .set("groups_max", rec.stats.groups_max)
                .set("partitions_scanned", rec.stats.partitions_scanned)
                .set("partitions_pruned", rec.stats.partitions_pruned),
        )
}

fn nums(xs: &[f64]) -> Vec<Json> {
    xs.iter().map(|&x| Json::from(x)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_request() {
        let r = RecommendRequest::from_json(r#"{"dataset": "CENSUS"}"#).unwrap();
        assert_eq!(r.dataset, "CENSUS");
        assert_eq!(r.rows, None);
        assert_eq!(r.where_sql, None);
        assert_eq!(r.reference, "whole");
        assert_eq!(r.cache_mode, CacheMode::Auto);
        assert_eq!(r.deadline_ms, None);
        // The default is the paper's fastest configuration, not a
        // cache-convenient downgrade.
        assert_eq!(r.config.strategy, ExecutionStrategy::Comb);
        assert_eq!(r.config.pruning, PruningKind::Ci);
    }

    #[test]
    fn parses_cache_mode() {
        let r = RecommendRequest::from_json(r#"{"dataset": "CENSUS", "cache_mode": "bypass"}"#)
            .unwrap();
        assert_eq!(r.cache_mode, CacheMode::Bypass);
        let err = RecommendRequest::from_json(r#"{"dataset": "CENSUS", "cache_mode": "maybe"}"#)
            .unwrap_err();
        assert!(err.contains("cache_mode"), "{err}");
    }

    #[test]
    fn parses_deadline_ms() {
        let r =
            RecommendRequest::from_json(r#"{"dataset": "CENSUS", "deadline_ms": 250}"#).unwrap();
        assert_eq!(r.deadline_ms, Some(250));
        let r = RecommendRequest::from_json(r#"{"dataset": "CENSUS", "deadline_ms": 0}"#).unwrap();
        assert_eq!(r.deadline_ms, Some(0));
        let err = RecommendRequest::from_json(r#"{"dataset": "CENSUS", "deadline_ms": "fast"}"#)
            .unwrap_err();
        assert!(err.contains("deadline_ms"), "{err}");
        let err =
            RecommendRequest::from_json(r#"{"dataset": "CENSUS", "deadline_ms": -5}"#).unwrap_err();
        assert!(err.contains("deadline_ms"), "{err}");
    }

    #[test]
    fn parses_explain_flag() {
        let r = RecommendRequest::from_json(r#"{"dataset": "CENSUS"}"#).unwrap();
        assert!(!r.explain);
        let r = RecommendRequest::from_json(r#"{"dataset": "CENSUS", "explain": true}"#).unwrap();
        assert!(r.explain);
        let err =
            RecommendRequest::from_json(r#"{"dataset": "CENSUS", "explain": "yes"}"#).unwrap_err();
        assert!(err.contains("explain"), "{err}");
    }

    #[test]
    fn parses_full_overrides() {
        let r = RecommendRequest::from_json(
            r#"{"dataset": "BANK", "rows": 1000, "where": "age >= 40",
                "reference": "complement", "k": 3, "metric": "l1",
                "strategy": "comb", "pruning": "mab", "num_phases": 4,
                "delta": 0.1, "agg": ["AVG", "SUM"]}"#,
        )
        .unwrap();
        assert_eq!(r.rows, Some(1000));
        assert_eq!(r.where_sql.as_deref(), Some("age >= 40"));
        assert_eq!(r.reference, "complement");
        assert_eq!(r.config.k, 3);
        assert_eq!(r.config.metric, DistanceKind::L1);
        assert_eq!(r.config.strategy, ExecutionStrategy::Comb);
        assert_eq!(r.config.pruning, PruningKind::Mab);
        assert_eq!(r.config.num_phases, 4);
        assert_eq!(r.config.delta, 0.1);
        assert_eq!(r.config.agg_functions, vec![AggFunc::Avg, AggFunc::Sum]);
    }

    #[test]
    fn rejects_bad_fields_with_messages() {
        let cases = [
            (r#"{}"#, "dataset"),
            (r#"{"dataset": 3}"#, "dataset"),
            (r#"{"dataset": "X", "k": 0}"#, "k"),
            (r#"{"dataset": "X", "k": -1}"#, "k"),
            (r#"{"dataset": "X", "metric": "COSINE"}"#, "metric"),
            (r#"{"dataset": "X", "strategy": "TURBO"}"#, "strategy"),
            (r#"{"dataset": "X", "pruning": "YOLO"}"#, "pruning"),
            (r#"{"dataset": "X", "agg": ["MEDIAN"]}"#, "MEDIAN"),
            (r#"{"dataset": "X", "delta": 2.0}"#, "delta"),
            (r#"not json"#, "JSON"),
        ];
        for (body, needle) in cases {
            let err = RecommendRequest::from_json(body).unwrap_err();
            assert!(
                err.to_lowercase().contains(&needle.to_lowercase()),
                "body {body}: error '{err}' should mention {needle}"
            );
        }
    }

    #[test]
    fn default_config_is_cache_eligible() {
        // The default is the paper's COMB + CI: cached per phase and
        // resumed where a cached prefix ends, which the core asserts is
        // bit-identical.
        let cfg = default_config();
        assert_eq!(cfg.pruning, PruningKind::Ci);
        assert!(matches!(
            cfg.strategy,
            ExecutionStrategy::Comb | ExecutionStrategy::CombEarly
        ));
    }
}
