//! The served workloads: `seedbd` booted inside the benchmark process and
//! driven socket to socket by two closed-loop clients, one connection in
//! flight each, through `seedb_server::client`.

use crate::gen::{self, Cond, Profile, Query, Rng};
use crate::pass::{Client, ClientLog, OpKind};
use crate::workload::{RunFacts, Subject, Verdict};
use seedb_core::SeeDbConfig;
use seedb_data::registry::generate_by_name;
use seedb_obs::LogLevel;
use seedb_server::{client, Catalog, Server, ServerConfig, ServerHandle};
use seedb_storage::{BoxedTable, StoreKind};
use seedb_util::Json;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::Instant;

/// Closed-loop clients per served workload.
pub const CLIENTS: usize = 2;
/// Request bodies in the `serve_warm` pool.
pub const WARM_POOL: usize = 32;
/// Rows of each uploaded events CSV at scale 1.
pub const INGEST_ROWS: usize = 8_000;
/// Every this-many-th reply is parsed in full; the rest get the cheap
/// structural checks only (see [`check_reply`]).
const FULL_PARSE_EVERY: usize = 16;
/// `k` of every CENSUS request unless a `serve_miss` overlap overrides it.
const K: usize = 10;
/// `k` over an uploaded events CSV, which has only 3 × 3 views.
const K_EVENTS: usize = 5;
/// Window pairs read after each upload, and times each is asked.
const READ_PAIRS: usize = 2;
const READ_REPEATS: usize = 5;
/// Requests [`Served::verify`] and [`Served::sweep`] sample.
const SAMPLES: usize = 16;
/// The upload the sampled requests of the ingest workload read.
const SAMPLE_DATASET: &str = "events_sample";

/// Which served workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A 32-body pool that fits the cache: every measured request is a
    /// response hit.
    Warm,
    /// Unique predicates against a cache smaller than the working set.
    Miss,
    /// CSV uploads beside reads of what was just uploaded.
    Ingest,
}

/// How a request wants to be executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The server defaults (`COMB` + `CI`, cached).
    Default,
    /// The exact answer outside the cache — the accuracy oracle.
    Exact,
    /// The default configuration outside the cache with `explain` on, so
    /// the reply carries phase timings and pruning counters.
    Explain,
}

/// One `/recommend` request body.
#[derive(Debug, Clone)]
pub struct Req {
    pub dataset: String,
    pub rows: Option<usize>,
    pub query: Query,
    pub k: usize,
    pub metric: Option<&'static str>,
    pub mode: Mode,
}

impl Req {
    /// The JSON body. Built by hand so the load generator's cost does not
    /// depend on the JSON writer under test.
    pub fn body(&self) -> String {
        let mut out = format!("{{\"dataset\":{}", json_string(&self.dataset));
        if let Some(rows) = self.rows {
            out.push_str(&format!(",\"rows\":{rows}"));
        }
        out.push_str(&format!(
            ",\"where\":{}",
            json_string(&self.query.target.sql())
        ));
        if let Some(reference) = &self.query.reference {
            out.push_str(&format!(",\"reference\":{}", json_string(&reference.sql())));
        }
        out.push_str(&format!(",\"k\":{}", self.k));
        if let Some(metric) = self.metric {
            out.push_str(&format!(",\"metric\":\"{metric}\""));
        }
        out.push_str(match self.mode {
            Mode::Default => "",
            Mode::Exact => ",\"strategy\":\"SHARING\",\"cache_mode\":\"bypass\"",
            Mode::Explain => ",\"explain\":true,\"cache_mode\":\"bypass\"",
        });
        out.push('}');
        out
    }
}

/// `text` as a JSON string literal.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `POST /datasets` body for `csv` under `name`.
pub fn ingest_body(name: &str, csv: &str) -> String {
    format!(
        "{{\"name\":{},\"csv\":{}}}",
        json_string(name),
        json_string(csv)
    )
}

/// A booted server plus what the clients need to talk to it.
pub struct Served {
    kind: Kind,
    pub server: ServerHandle,
    seed: u64,
    /// Rows of the dataset the requests name (CENSUS, or each upload).
    rows: usize,
    /// CENSUS as the server's catalog generates it — the benchmark's own
    /// copy, for profiling columns and probing layers. `None` on the
    /// ingest workload, whose tables are the uploads.
    census: Option<BoxedTable>,
    profile: Option<Profile>,
    /// The `serve_warm` pool.
    warm: Vec<Req>,
    /// Seconds the benchmark's own copy of the dataset took to generate.
    generate_s: f64,
}

impl Served {
    /// Boots the server and brings it to the workload's steady state:
    /// dataset generated, and on `serve_warm` every pool body answered
    /// once so the measured window is all response hits.
    pub fn build(kind: Kind, seed: u64, scale: f64) -> std::io::Result<Served> {
        let cache_bytes = match kind {
            // ~5 MB of responses + partials for the pool: fits.
            Kind::Warm | Kind::Ingest => 64 << 20,
            // ~170 KB of partials per miss: exceeded within ~50 requests.
            Kind::Miss => 8 << 20,
        };
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            max_rows: 200_000,
            cache_bytes,
            log_level: LogLevel::Error,
            ..ServerConfig::default()
        };
        let server = Server::bind(config)?.spawn()?;
        let mut served = Served {
            kind,
            server,
            seed,
            rows: 0,
            census: None,
            profile: None,
            warm: Vec::new(),
            generate_s: 0.0,
        };
        match kind {
            Kind::Warm | Kind::Miss => {
                let started = Instant::now();
                let census = generate_by_name("CENSUS", scale, gen::DATA_SEED, StoreKind::Column)
                    .expect("CENSUS is a Table 1 dataset")
                    .table;
                served.generate_s = started.elapsed().as_secs_f64();
                served.rows = census.num_rows();
                let profile = Profile::of(census.as_ref());
                if kind == Kind::Warm {
                    served.warm = profile
                        .pool(seed, WARM_POOL)
                        .into_iter()
                        .map(|target| served.census_req(target))
                        .collect();
                }
                served.census = Some(census);
                served.profile = Some(profile);
                // The first request makes the catalog generate CENSUS; on
                // `serve_warm` the rest of the pool fills the cache.
                let prime: Vec<Req> = match kind {
                    Kind::Warm => served.warm.clone(),
                    _ => vec![served.census_req(Cond::DimEq {
                        column: "marital_status".into(),
                        label: "unmarried".into(),
                    })],
                };
                for req in prime {
                    let (status, body) = served.post("/recommend", &req.body())?;
                    if status != 200 {
                        return Err(std::io::Error::other(format!("priming failed: {body}")));
                    }
                }
            }
            Kind::Ingest => {
                served.rows = (INGEST_ROWS as f64 * scale) as usize;
                // One upload before the clock starts: the sampled
                // requests read it, and the first ingest pays for the
                // first-touch costs the measured ones should not.
                let body = ingest_body(SAMPLE_DATASET, &served.sample_csv());
                let (status, reply) = served.post("/datasets", &body)?;
                if status != 200 {
                    return Err(std::io::Error::other(format!("priming failed: {reply}")));
                }
            }
        }
        Ok(served)
    }

    fn census_req(&self, target: Cond) -> Req {
        Req {
            dataset: "CENSUS".into(),
            rows: Some(self.rows),
            query: Query::vs_all(target),
            k: K,
            metric: None,
            mode: Mode::Default,
        }
    }

    /// The server's address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    fn post(&self, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        client::request(self.addr(), "POST", path, Some(body))
    }

    /// `GET /statz`, parsed.
    pub fn statz(&self) -> std::io::Result<Json> {
        client::request_json(self.addr(), "GET", "/statz", None).map(|(_, json)| json)
    }

    /// Fresh clients for one pass. `epoch` numbers the passes of a run so
    /// that "unique" request streams stay unique across them.
    pub fn clients(&self, epoch: u64) -> Vec<Box<dyn Client + '_>> {
        self.remotes(epoch)
            .into_iter()
            .map(|remote| Box::new(remote) as Box<dyn Client + '_>)
            .collect()
    }

    fn remotes(&self, epoch: u64) -> Vec<Remote<'_>> {
        (0..CLIENTS)
            .map(|id| Remote {
                served: self,
                rng: Rng::new(self.seed, 0xC11E + epoch * 16 + id as u64),
                id,
                epoch,
                cycle: 0,
                checked: 0,
                previous: None,
                seen: HashMap::new(),
            })
            .collect()
    }

    /// The CSV behind the sampled requests of the ingest workload.
    fn sample_csv(&self) -> String {
        gen::events_csv(self.seed ^ 0x7E57, self.rows)
    }

    /// [`SAMPLES`] default-configuration requests of the kind this
    /// workload sends, for the oracle, the sweep and the layer probes.
    fn samples(&self) -> Vec<Req> {
        let mut rng = Rng::new(self.seed, 0x5A3F);
        match self.kind {
            Kind::Warm => {
                let step = self.warm.len() / SAMPLES;
                self.warm.iter().step_by(step).cloned().collect()
            }
            Kind::Miss => {
                let profile = self.profile.as_ref().expect("census is profiled");
                (0..SAMPLES)
                    .map(|_| self.census_req(profile.unique(&mut rng)))
                    .collect()
            }
            Kind::Ingest => (0..SAMPLES)
                .map(|i| {
                    let position = (i as f64 + rng.unit()) / SAMPLES as f64;
                    window_req(SAMPLE_DATASET, self.rows, position)
                })
                .collect(),
        }
    }

    /// A default-configuration request of this workload's kind, for
    /// probing the router with.
    pub fn probe_request(&self) -> Req {
        self.samples().swap_remove(0)
    }

    /// A measure column of the dataset [`Served::probe_request`] names.
    pub fn probe_measure(&self) -> &'static str {
        match self.kind {
            Kind::Warm | Kind::Miss => "age",
            Kind::Ingest => "amount",
        }
    }

    /// The library-level view of this workload — the table the server
    /// holds and the sampled queries — for probing layers below the
    /// server from outside it.
    pub fn subject(&self) -> std::io::Result<Subject> {
        let started = Instant::now();
        let (dataset, table) = match &self.census {
            Some(census) => ("CENSUS", census.clone()),
            None => {
                let catalog = Catalog::new(self.rows.max(1), self.rows.max(1), self.seed);
                let uploaded = catalog
                    .ingest_csv(SAMPLE_DATASET, &self.sample_csv())
                    .map_err(|e| std::io::Error::other(e.to_string()))?;
                ("EVENTS", uploaded.table.clone())
            }
        };
        Ok(Subject {
            dataset: dataset.to_owned(),
            table,
            config: SeeDbConfig::default(),
            queries: self.samples().into_iter().map(|r| r.query).collect(),
            generate_s: self.generate_s + started.elapsed().as_secs_f64(),
        })
    }

    /// Every sampled request once with `explain` on and the cache
    /// bypassed: what one cold default run costs inside the server.
    pub fn sweep(&self) -> std::io::Result<Vec<RunFacts>> {
        let mut facts = Vec::new();
        for req in self.samples() {
            let explain = Req {
                mode: Mode::Explain,
                ..req
            };
            let (status, body) = self.post("/recommend", &explain.body())?;
            let parsed = (status == 200)
                .then(|| Json::parse(&body).ok())
                .flatten()
                .and_then(|doc| run_facts(&doc));
            facts.push(parsed.ok_or_else(|| {
                std::io::Error::other(format!("explain reply not understood: {body:.200}"))
            })?);
        }
        Ok(facts)
    }

    /// Post-pass correctness: every sampled body answers 200 with `k`
    /// ranked views, a repeat returns the same ranked list, and the
    /// default (pruned) answer is scored against the exact one.
    pub fn verify(&self) -> std::io::Result<Verdict> {
        let mut verdict = Verdict::default();
        for req in self.samples() {
            let exact = Req {
                mode: Mode::Exact,
                ..req.clone()
            };
            let first = self.post("/recommend", &req.body())?;
            let again = self.post("/recommend", &req.body())?;
            let truth = self.post("/recommend", &exact.body())?;
            verdict.attempted += 3;
            let lists = [first, again, truth].map(|(status, body)| {
                (status == 200)
                    .then(|| ranked_views(&body))
                    .flatten()
                    .filter(|list| list.len() == req.k)
            });
            verdict.failed += lists.iter().filter(|l| l.is_none()).count() as u64;
            let [Some(first), Some(again), Some(truth)] = lists else {
                continue;
            };
            if first != again {
                verdict.failed += 1;
            }
            let hits = first
                .iter()
                .filter(|(view, _)| truth.iter().any(|(t, _)| t == view))
                .count();
            let mean = |list: &[(String, u64)]| {
                list.iter()
                    .map(|(_, bits)| f64::from_bits(*bits))
                    .sum::<f64>()
                    / req.k as f64
            };
            // The exact run's utilities for the returned views are not in
            // its reply (only its own top-k is), so the distance is
            // between the two lists' own mean utilities.
            verdict.score(hits as f64 / req.k as f64, mean(&truth) - mean(&first));
        }
        Ok(verdict)
    }
}

/// The facts of one explained run, from its reply.
fn run_facts(doc: &Json) -> Option<RunFacts> {
    let explain = doc.get("explain")?;
    let stats = doc.get("stats")?;
    let count = |json: &Json, key: &str| json.get(key).and_then(Json::as_u64);
    Some(RunFacts {
        wall_us: count(doc, "elapsed_us")? as f64,
        phase_us: explain
            .get("phase_times_us")?
            .as_arr()?
            .iter()
            .filter_map(Json::as_u64)
            .collect(),
        rows_scanned: count(stats, "rows_scanned")?,
        rows_possible: count(doc, "rows")? * count(stats, "queries_issued")?,
        partitions_pruned: count(explain, "partitions_pruned")?,
        partitions_scanned: count(explain, "partitions_scanned")?,
    })
}

/// A sliding-window request over an uploaded events dataset: a 10% target
/// window against the 30% before it.
fn window_req(name: &str, rows: usize, position: f64) -> Req {
    Req {
        dataset: name.to_owned(),
        rows: None,
        query: gen::window_pair(rows, position, 0.10, 0.30),
        k: K_EVENTS,
        metric: None,
        mode: Mode::Default,
    }
}

/// The ranked `(view, utility bits)` list of a `/recommend` reply, or
/// `None` when the body is not the JSON the API documents.
pub fn ranked_views(body: &str) -> Option<Vec<(String, u64)>> {
    let doc = Json::parse(body).ok()?;
    doc.get("cache")?.as_str()?;
    doc.get("views")?
        .as_arr()?
        .iter()
        .map(|v| {
            Some((
                v.get("view")?.as_str()?.to_owned(),
                v.get("utility")?.as_num()?.to_bits(),
            ))
        })
        .collect()
}

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What the cheap per-reply check extracts.
struct Reply<'a> {
    /// `hit` / `partial` / `miss` / `bypass` / `degraded`.
    cache: &'a str,
    /// Fingerprint of the rendered `views` array.
    views_hash: u64,
}

/// Checks a `/recommend` reply without a JSON parser, so the client's cost
/// per reply stays small and independent of `seedb_util::json`: the body
/// must carry a cache disposition and exactly `k` ranked views, and the
/// rendered `views` array is fingerprinted so repeats can be compared.
/// The array's rendering is deterministic (shortest round-trip floats), so
/// equal fingerprints mean equal ranked lists.
fn check_reply(body: &str, k: usize) -> Option<Reply<'_>> {
    let cache = body.split_once("\"cache\":\"")?.1.split_once('"')?.0;
    let views = body.split_once("\"views\":[")?.1;
    let views = views.split_once("],\"all_utilities\"")?.0;
    (views.matches("\"rank\":").count() == k).then(|| Reply {
        cache,
        views_hash: fnv1a(views.as_bytes()),
    })
}

/// One operation of a client's script.
#[derive(Debug, Clone)]
enum Step {
    /// `POST /datasets` of a `rows`-row CSV.
    Ingest { body: String, rows: usize },
    /// `POST /recommend`.
    Recommend(Req),
}

/// One closed-loop client of a served workload.
struct Remote<'a> {
    served: &'a Served,
    rng: Rng,
    id: usize,
    epoch: u64,
    /// Cycles scripted so far.
    cycle: u64,
    /// Replies checked so far.
    checked: usize,
    /// `serve_miss`: the previous unique predicate, for the overlap.
    previous: Option<Cond>,
    /// First `views` fingerprint seen per request body.
    seen: HashMap<String, u64>,
}

impl Remote<'_> {
    /// The client's next cycle, a pure function of seed, epoch, client id
    /// and cycle number: one request on the read workloads, an upload and
    /// the ten reads of it on the ingest workload.
    fn next_cycle(&mut self) -> Vec<Step> {
        let served = self.served;
        let cycle = self.cycle;
        self.cycle += 1;
        match served.kind {
            Kind::Warm => {
                let pick = self.rng.below(served.warm.len());
                vec![Step::Recommend(served.warm[pick].clone())]
            }
            Kind::Miss => {
                let profile = served.profile.as_ref().expect("census is profiled");
                // Every fourth request revisits the previous predicate
                // with another k and metric: the response misses but the
                // per-view partials are reused.
                let req = match self.previous.take().filter(|_| cycle % 4 == 3) {
                    Some(previous) => Req {
                        k: 5,
                        metric: Some("L1"),
                        ..served.census_req(previous)
                    },
                    None => {
                        let target = profile.unique(&mut self.rng);
                        self.previous = Some(target.clone());
                        served.census_req(target)
                    }
                };
                vec![Step::Recommend(req)]
            }
            Kind::Ingest => {
                // Two names per client, alternating: four names rotate in
                // all and no client ever replaces the other's dataset.
                let name = format!("events_{}", self.id * 2 + (cycle % 2) as usize);
                let csv_seed =
                    served.seed ^ ((self.epoch << 40) | ((self.id as u64) << 32) | cycle);
                let rows = served.rows;
                let mut steps = vec![Step::Ingest {
                    body: ingest_body(&name, &gen::events_csv(csv_seed, rows)),
                    rows,
                }];
                // Two window pairs, each asked five times: a miss, then
                // four hits. With a fifth of the reads missing, the median
                // is a hit and p90 sits at the median of the misses; an
                // even split would leave the median between two modes.
                for _ in 0..READ_PAIRS {
                    let req = window_req(&name, rows, self.rng.unit());
                    steps.extend(std::iter::repeat_n(Step::Recommend(req), READ_REPEATS));
                }
                steps
            }
        }
    }

    /// Checks a `/recommend` reply: the cheap structural check and the
    /// repeat comparison on every reply, the full parse on every
    /// [`FULL_PARSE_EVERY`]-th.
    fn check(&mut self, log: &mut ClientLog, body: String, k: usize, text: &str) -> bool {
        let Some(reply) = check_reply(text, k) else {
            return false;
        };
        log.add(
            match reply.cache {
                "hit" => "cache_hit",
                "partial" => "cache_partial",
                "miss" => "cache_miss",
                _ => "cache_other",
            },
            1.0,
        );
        self.checked += 1;
        let full_parse = self.checked.is_multiple_of(FULL_PARSE_EVERY);
        *self.seen.entry(body).or_insert(reply.views_hash) == reply.views_hash
            && (!full_parse || ranked_views(text).is_some_and(|list| list.len() == k))
    }
}

impl Client for Remote<'_> {
    fn step(&mut self, log: &mut ClientLog) {
        for step in self.next_cycle() {
            let (kind, path, body, expect) = match step {
                Step::Ingest { body, rows } => (OpKind::Ingest, "/datasets", body, rows),
                Step::Recommend(req) => (OpKind::Recommend, "/recommend", req.body(), req.k),
            };
            let mut op = log.begin(kind);
            let reply = {
                let _span = op.trace.span("http_roundtrip");
                client::request(self.served.addr(), "POST", path, Some(&body))
            };
            // The clock stops here; checking the reply is the benchmark's
            // own time.
            op.stop();
            let ok = {
                let _span = op.trace.span("check");
                match (&reply, kind) {
                    (Ok((200, text)), OpKind::Ingest) => {
                        // The upload replaced a dataset: answers seen for
                        // its name no longer have to repeat.
                        self.seen.clear();
                        text.contains(&format!("\"rows\":{expect},"))
                    }
                    (Ok((200, text)), OpKind::Recommend) => {
                        let ok = self.check(log, body, expect, text);
                        if !ok {
                            log.fail(|| format!("{path} reply failed its checks: {text:.300}"));
                        }
                        ok
                    }
                    (Ok((status, text)), _) => {
                        log.fail(|| format!("{path} answered {status}: {text:.200}"));
                        false
                    }
                    (Err(e), _) => {
                        log.connect_failures += 1;
                        log.fail(|| format!("{path}: {e}"));
                        false
                    }
                }
            };
            log.end(op, ok);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bodies_are_valid_json_the_api_accepts() {
        let req = Req {
            dataset: "CENSUS".into(),
            rows: Some(2_000),
            query: Query {
                target: Cond::DimEq {
                    column: "sex".into(),
                    label: "female".into(),
                },
                reference: Some(Cond::window("age", 20.0, 40.5)),
            },
            k: 5,
            metric: Some("L1"),
            mode: Mode::Exact,
        };
        let parsed = seedb_server::api::RecommendRequest::from_json(&req.body()).unwrap();
        assert_eq!(parsed.dataset, "CENSUS");
        assert_eq!(parsed.rows, Some(2_000));
        assert_eq!(parsed.where_sql.as_deref(), Some("sex = 'female'"));
        assert_eq!(parsed.reference, "age >= 20 AND age < 40.5");
        assert_eq!(parsed.config.k, 5);
        let ingest = Json::parse(&ingest_body("e\"1", "a,b\n1,x\n")).unwrap();
        assert_eq!(ingest.get("name").unwrap().as_str(), Some("e\"1"));
        assert_eq!(ingest.get("csv").unwrap().as_str(), Some("a,b\n1,x\n"));
    }

    #[test]
    fn cheap_check_agrees_with_the_full_parse() {
        let body = r#"{"where":"x","cache":"hit","elapsed_us":3,"dataset":"D","rows":9,"views":[{"rank":0,"view":"AVG(m) BY d","utility":0.5},{"rank":1,"view":"AVG(n) BY d","utility":0.25}],"all_utilities":[0.5,0.25],"stats":{}}"#;
        let reply = check_reply(body, 2).unwrap();
        assert_eq!(reply.cache, "hit");
        assert!(check_reply(body, 3).is_none());
        let list = ranked_views(body).unwrap();
        assert_eq!(list.len(), 2);
        assert_eq!(list[0], ("AVG(m) BY d".to_owned(), 0.5f64.to_bits()));
        // Another envelope around the same views fingerprints the same.
        let other = body.replace("\"elapsed_us\":3", "\"elapsed_us\":99");
        assert_eq!(check_reply(&other, 2).unwrap().views_hash, reply.views_hash);
        assert!(check_reply("{}", 0).is_none());
        assert!(ranked_views("not json").is_none());
    }

    /// The request streams are a function of the seed alone: the same
    /// seed replays byte-identical bodies, another seed sends others.
    #[test]
    fn request_streams_are_deterministic_per_seed() {
        let stream = |kind: Kind, seed: u64| -> Vec<String> {
            let served = Served::build(kind, seed, 0.05).unwrap();
            let mut bodies = Vec::new();
            for mut remote in served.remotes(1) {
                for _ in 0..8 {
                    bodies.extend(remote.next_cycle().into_iter().map(|step| match step {
                        Step::Ingest { body, .. } => body,
                        Step::Recommend(req) => req.body(),
                    }));
                }
            }
            bodies
        };
        for kind in [Kind::Warm, Kind::Miss, Kind::Ingest] {
            let first = stream(kind, 17);
            assert!(first.len() >= 16, "{kind:?}");
            assert_eq!(first, stream(kind, 17), "{kind:?}");
            assert_ne!(first, stream(kind, 18), "{kind:?}");
        }
    }
}
