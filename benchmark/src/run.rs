//! One run of one workload: set-up, warm-up, the measured window, the
//! correctness pass, and — in the traced run — the traced pass and the
//! layer probes.

use crate::layers::{self, Ledger};
use crate::pass::{run_pass, OpKind, PassLog};
use crate::report::{self, Outcome};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{self, Latencies};
use crate::trace;
use crate::workload::Workload;
use crate::Args;
use seedb_util::Json;
use std::time::{Duration, Instant};

/// Times a run sets its workload up; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Longest the caches get to fill before the clock starts.
const WARM_UP: Duration = Duration::from_secs(1);

/// Runs workload `name` as `args` says and returns what it measured. An
/// `Err` is a run that could not produce a result at all.
pub fn run(name: &str, args: &Args) -> Result<Outcome, String> {
    let label = Workload::label(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let io = |e: std::io::Error| format!("{label}: {e}");
    let window = Duration::from_secs(args.window_seconds());
    println!(
        "workload {label}  seed {}  window {} s  trace {}  scale {}  nproc {}",
        args.seed,
        window.as_secs(),
        u8::from(args.trace),
        args.scale(),
        std::thread::available_parallelism().map_or(1, usize::from),
    );

    // Set-up, several times over: the first builds are thrown away (server
    // shut down, tables dropped) so only one copy is ever resident.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::with_capacity(reps);
    let mut built = None;
    for _ in 0..reps {
        drop(built.take());
        let started = Instant::now();
        built = Some(Workload::build(label, args.seed, args.scale()).map_err(io)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let workload = built.expect("at least one set-up ran");
    let warm_up = WARM_UP.min(window / 2);
    let _ = run_pass(workload.clients(0), warm_up, label, false);

    if args.trace {
        traced_run(&workload, label, args, window)
    } else {
        measured_run(&workload, label, window, stats::median(&setups))
    }
}

/// The headline timing statistics of a pass, or why it has none.
struct Timings {
    recommend: Latencies,
    p50_ms: f64,
    tail_ms: f64,
    tail_percentile: f64,
    per_s: f64,
}

fn timings(log: &PassLog, label: &str) -> Result<Timings, String> {
    let recommend = Latencies::new(log.latencies_ms(OpKind::Recommend));
    let short = || {
        format!(
            "{label}: {} recommend samples in the window, {} needed",
            recommend.len(),
            stats::MIN_SAMPLES
        )
    };
    let p50_ms = recommend.p50().ok_or_else(short)?;
    let (tail_ms, tail_percentile) = recommend.tail(0.90).ok_or_else(short)?;
    Ok(Timings {
        per_s: recommend.len() as f64 / log.elapsed.as_secs_f64(),
        recommend,
        p50_ms,
        tail_ms,
        tail_percentile,
    })
}

/// Assembles an outcome from named values, in declaration order; a
/// declared metric nobody measured is a bug, reported as 0 only for the
/// ledger (where 0 means "this workload never enters the layer").
fn outcome(
    declared: &[crate::spec::Metric],
    values: &Ledger,
    attempted: u64,
    failed: u64,
) -> Outcome {
    Outcome {
        attempted,
        failed,
        metrics: declared
            .iter()
            .map(|m| (m.name, values.get(m.name).copied().unwrap_or(0.0), m.unit))
            .collect(),
    }
}

fn print_metrics(outcome: &Outcome) {
    for (name, value, unit) in &outcome.metrics {
        let gate = crate::spec::find(name)
            .and_then(|m| Some((m.better.label(), m.bound?)))
            .map(|(better, bound)| format!("  ({better} is better, bound {:.0}%)", bound * 100.0))
            .unwrap_or_default();
        println!("  {name:<34} {value:>16.6} {unit}{gate}");
    }
}

fn measured_run(
    workload: &Workload,
    label: &'static str,
    window: Duration,
    setup_s: f64,
) -> Result<Outcome, String> {
    let log = run_pass(workload.clients(1), window, label, false);
    let t = timings(&log, label)?;
    let verdict = workload.verify().map_err(|e| format!("{label}: {e}"))?;
    let (attempted, failed) = log.totals();

    let mut values = Ledger::new();
    values.insert("recommend_p50_ms", t.p50_ms);
    values.insert("recommend_p90_ms", t.tail_ms);
    values.insert("recommend_per_s", t.per_s);
    values.insert("accuracy_at_k", verdict.accuracy());
    values.insert("peak_rss_mb", report::peak_rss_mb());
    values.insert("setup_s", setup_s);
    let outcome = outcome(
        &END_TO_END,
        &values,
        attempted + verdict.attempted,
        failed + verdict.failed,
    );

    print_metrics(&outcome);
    println!(
        "  recommend samples {} (tail reported at p{:.1}{}), ingest samples {}, \
         oracle checks {} failed {}, connect failures {}, max send gap {:.3} ms",
        t.recommend.len(),
        t.tail_percentile * 100.0,
        if stats::supports(t.recommend.len(), 0.90) {
            ""
        } else {
            ": under 100 samples, so not a p90"
        },
        log.ops(OpKind::Ingest).count(),
        verdict.attempted,
        verdict.failed,
        log.connect_failures(),
        log.max_gap().as_secs_f64() * 1e3,
    );
    print_failures(&log);
    Ok(outcome)
}

/// The `/statz` number reached by `path` (0 when absent).
fn statz_value(doc: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(doc, |j, key| j.get(key))
        .and_then(Json::as_num)
        .unwrap_or(0.0)
}

fn print_failures(log: &PassLog) {
    for why in log.failures() {
        println!("  FAILED: {why}");
    }
}

fn traced_run(
    workload: &Workload,
    label: &'static str,
    args: &Args,
    window: Duration,
) -> Result<Outcome, String> {
    let io = |e: std::io::Error| format!("{label}: {e}");
    let statz = || match workload.served() {
        Some(served) => served.statz().map(Some),
        None => Ok(None),
    };
    // The window is split: measured and traced passes alternate, twice,
    // so that drift in the machine's speed lands on both sides of the
    // overhead ratio; the rest is for the probes, which bound themselves.
    let pass = window * 3 / 20;
    let before = statz().map_err(io)?;
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    for round in 0..2 {
        plain.push(run_pass(
            workload.clients(1 + 2 * round),
            pass,
            label,
            false,
        ));
        traced.push(run_pass(workload.clients(2 + 2 * round), pass, label, true));
    }
    let after = statz().map_err(io)?;
    let mut ledger = Ledger::new();
    if let Some(served) = workload.served() {
        // Before anything else talks to the server: the flight recorder
        // must still hold the passes' requests.
        layers::probe_stages(served, &mut ledger).map_err(io)?;
    }
    let plain = PassLog::merged(plain);
    let traced = PassLog::merged(traced);
    // These passes are short and what they feed is diagnostic, so unlike
    // the measured run they take whatever sample they got.
    let plain_ms = plain.latencies_ms(OpKind::Recommend);
    let traced_ms = traced.latencies_ms(OpKind::Recommend);
    if plain_ms.is_empty() || traced_ms.is_empty() {
        return Err(format!("{label}: a pass completed no recommendation"));
    }
    let overhead = stats::median(&traced_ms) / stats::median(&plain_ms);
    let recommend = Latencies::new(plain_ms);

    ledger.insert("recommend_samples", recommend.len() as f64);
    if let Some((_, percentile)) = recommend.tail(0.90) {
        ledger.insert("recommend_tail_percentile", percentile);
    }
    if let Some((p99, _)) = recommend.tail(0.99).filter(|(_, q)| *q >= 0.99) {
        // Only where a thousand samples back it.
        ledger.insert("recommend_p99_ms", p99);
    }
    let mut ingest = plain.latencies_ms(OpKind::Ingest);
    ingest.extend(traced.latencies_ms(OpKind::Ingest));
    ledger.insert("ingest_samples", ingest.len() as f64);
    if !ingest.is_empty() {
        ledger.insert("ingest_p50_ms", stats::median(&ingest));
    }
    ledger.insert(
        "client.connect_failures",
        (plain.connect_failures() + traced.connect_failures()) as f64,
    );
    ledger.insert(
        "client.max_send_gap_ms",
        plain.max_gap().as_secs_f64() * 1e3,
    );
    ledger.insert("obs.trace_overhead_ratio", overhead);

    // The benchmark's own spans: time inside the call and inside checks.
    let spans = trace::self_times(&traced);
    let ops = traced.totals().0.max(1) as f64;
    let self_us = |names: &[&str]| {
        names
            .iter()
            .filter_map(|n| spans.get(n))
            .map(|t| t.self_us as f64)
            .sum::<f64>()
            / ops
    };
    ledger.insert(
        "bench.call_self_us",
        self_us(&["recommend", "http_roundtrip"]),
    );
    ledger.insert("bench.check_self_us", self_us(&["check"]));

    if let (Some(before), Some(after)) = (&before, &after) {
        let both = |name: &str| plain.tally(name) + traced.tally(name);
        let hits = both("cache_hit");
        let requests = hits + both("cache_partial") + both("cache_miss");
        ledger.insert("server.cache_response_hits", hits);
        ledger.insert("server.cache_response_partials", both("cache_partial"));
        ledger.insert("server.cache_response_misses", both("cache_miss"));
        ledger.insert("server.cache_hit_rate", hits / requests.max(1.0));
        let delta = |path: &[&str]| statz_value(after, path) - statz_value(before, path);
        ledger.insert("server.cache_evictions", delta(&["cache", "evictions"]));
        ledger.insert("server.sheds", delta(&["overload", "sheds"]));
        ledger.insert(
            "server.cache_bytes",
            statz_value(after, &["cache", "bytes"]),
        );
        ledger.insert(
            "server.admission_wait_p50_us",
            statz_value(after, &["admission", "wait", "p50_us"]),
        );
    }

    let verdict = workload.verify().map_err(io)?;
    ledger.insert("core.utility_distance", verdict.utility_distance());
    let sweep = workload.sweep().map_err(io)?;
    let subject = workload.subject().map_err(io)?;
    layers::probe_library(&subject, &sweep, &mut ledger);
    layers::probe_static(args.seed, args.scale(), &mut ledger);
    if let Some(served) = workload.served() {
        layers::probe_server(served, &mut ledger).map_err(io)?;
    }

    let (attempted, failed) = [&plain, &traced]
        .iter()
        .map(|log| log.totals())
        .fold((0, 0), |(a, f), (a2, f2)| (a + a2, f + f2));
    let outcome = outcome(
        &PER_LAYER,
        &ledger,
        attempted + verdict.attempted,
        failed + verdict.failed,
    );
    print_metrics(&outcome);
    print_failures(&plain);
    print_failures(&traced);
    println!("  plan: {}", layers::plan_summary(&subject));
    println!("  traced pass, per span name (count, total ms, self ms):");
    for (name, totals) in &spans {
        println!(
            "    {name:<18} {:>8} {:>12.3} {:>12.3}",
            totals.count,
            totals.total_us as f64 / 1e3,
            totals.self_us as f64 / 1e3
        );
    }

    // The trace file is a by-product; failing to write it (a read-only
    // checkout, say) does not void the measurements.
    let path = args.out.join(format!("trace_{label}.json"));
    let written = std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&path, trace::chrome_json(&traced, label).compact()));
    match written {
        Ok(()) => println!("  wrote {}", path.display()),
        Err(e) => println!("  could not write {}: {e}", path.display()),
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use std::path::PathBuf;

    /// Every workload, both runs, in smoke mode (1 s windows at a tenth of
    /// the rows): every declared metric is reported, finite and carries
    /// its unit, nothing fails, and the ledger's fixed points hold. One
    /// test, so the workloads run one after another as they do for real.
    #[test]
    fn smoke_every_workload_reports_every_metric() {
        let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out/test-smoke");
        for (name, _) in WORKLOADS {
            for trace in [false, true] {
                let args = Args {
                    workload: Some(name.to_owned()),
                    seed: 17,
                    seconds: None,
                    trace,
                    smoke: true,
                    out: out.clone(),
                };
                let outcome = run(name, &args).unwrap_or_else(|e| panic!("{e}"));
                assert_eq!(outcome.failed, 0, "{name}");
                assert!(outcome.attempted >= stats::MIN_SAMPLES as u64, "{name}");
                let declared: &[crate::spec::Metric] = if trace { &PER_LAYER } else { &END_TO_END };
                assert_eq!(outcome.metrics.len(), declared.len());
                for ((got, value, unit), want) in outcome.metrics.iter().zip(declared) {
                    assert_eq!((*got, *unit), (want.name, want.unit));
                    assert!(value.is_finite(), "{name}: {got} = {value}");
                    assert!(trace || *value > 0.0, "{name}: {got} = {value}");
                }
                let value = |metric: &str| {
                    let found = outcome.metrics.iter().find(|(n, _, _)| *n == metric);
                    found.unwrap_or_else(|| panic!("{metric} not reported")).1
                };
                if !trace {
                    continue;
                }
                let served = name.starts_with("serve_");
                assert_eq!(value("server.handle_hit_us") > 0.0, served, "{name}");
                assert_eq!(
                    value("ingest_samples") > 0.0,
                    name == "serve_ingest_events8k"
                );
                assert!(value("engine.agg_ns_per_row_agg") > 0.0, "{name}");
                match name {
                    "scan_diab100k" => {
                        assert_eq!(value("engine.partitions_pruned_share"), 0.0);
                        assert_eq!(value("core.phases_executed"), 1.0);
                        assert_eq!(value("core.rows_scanned_share"), 1.0);
                    }
                    "phased_diab100k" => {
                        assert_eq!(value("core.phases_executed"), 10.0);
                        assert!(value("core.rows_scanned_share") < 1.0);
                    }
                    "window_events1m" => {
                        assert!(value("engine.partitions_pruned_share") >= 0.5);
                    }
                    "serve_warm_census21k" => {
                        assert!(value("server.cache_hit_rate") >= 0.99);
                        assert_eq!(value("server.cache_evictions"), 0.0);
                    }
                    _ => {}
                }
                let trace_file = out.join(format!("trace_{name}.json"));
                let doc = Json::parse(&std::fs::read_to_string(trace_file).unwrap()).unwrap();
                assert!(!doc.get("traceEvents").unwrap().as_arr().unwrap().is_empty());
            }
        }
    }
}
