//! Perf smoke checker: guards fig5/fig6 timings against regressions.
//!
//! Reads the `BENCH_fig5_overall.json` / `BENCH_fig6_baseline.json` files a
//! `figures --fast` run just produced and compares every entry's **minimum**
//! latency against a committed baseline file, failing (exit 1) when any
//! entry regressed by more than the tolerance factor. The minimum (not the
//! mean) is compared because `--fast` takes only two samples and the min of
//! repeated runs is far more robust to scheduler spikes and cold caches.
//!
//! Usage:
//!
//! ```text
//! perf_smoke <figures_dir> <baseline.json> [--tolerance <factor>] [--write]
//! ```
//!
//! `--write` regenerates the baseline from `<figures_dir>` instead of
//! checking (run locally after an intentional perf change and commit the
//! result). The tolerance defaults to 5.0× — wide enough to absorb the
//! hardware gap between the machine that wrote the baseline and a noisy
//! shared CI runner, tight enough to catch an accidental algorithmic
//! regression (the guarded entries regress ~100× when a sharing
//! optimization breaks) — and can also be set via `PERF_SMOKE_TOLERANCE`.
//!
//! Besides the baseline comparison, the checker gates *within-run*
//! speedup ratios: both sides of each ratio ran on the same host seconds
//! apart, so they are machine-independent absolute floors, not
//! baseline-relative. From `BENCH_server.json`, the pruned default
//! configuration's warm path must be ≥ 5× faster than cold, or the
//! response cache has stopped covering pruned runs. From
//! `BENCH_partitions.json`, a 10%-selectivity scan over a partitioned
//! value-sorted table must be ≥ 2× faster than the same scan with zone
//! maps disabled (one whole-table partition), or partition pruning has
//! stopped skipping cold partitions. From `BENCH_planner.json`, the
//! cost-based planner's automatic knob choices must at least match the
//! best fixed-knob configuration in its grid sweep (≥ 1.0×). From
//! `BENCH_server_load.json`, admission sheds under open-loop overload
//! must answer ≥ 2× faster than the median served request, and zero
//! connections may hang without a response. Three *ceilings* instead of
//! floors: from `BENCH_obs.json`, warm cache-hit p50 against a fully
//! traced daemon must stay within 1.10× of the same daemon with the
//! flight recorder disabled, or request tracing has left the
//! pay-only-when-enabled budget; from `BENCH_sharing.json`, the executor's
//! `SHARING` wall on a 100K-row DIAB must stay within 1.25× of a bare
//! scan of its plan's clusters with each measure aggregated once, or the
//! clusters have gone back to aggregating a measure once per member view
//! (≈ 2.4×); and, from the same file, `COMB` without a pruner (ten phases)
//! must stay within 1.45× of `SHARING` on that table — same rows, same
//! accumulator updates — or a phase has gone back to costing more than its
//! rows (≈ 1.9× when each phase rebuilt its worker partials and rolled
//! clusters up through intermediate results; ≈ 1.25–1.35× since).

use seedb_util::Json;
use std::path::Path;
use std::process::ExitCode;

/// The figures the smoke check guards.
const FIGURES: [&str; 2] = ["fig5_overall", "fig6_baseline"];

/// Within-run speedup ratios gated as absolute floors: `(field, min)`
/// over the entries of `BENCH_server.json`.
const SERVER_RATIO_GATES: [(&str, f64); 1] = [("speedup_warm_over_cold_pruned", 5.0)];

/// Absolute floors over the entries of `BENCH_partitions.json`: zone-map
/// pruning must win ≥ 2× at 10% selectivity.
const PARTITION_RATIO_GATES: [(&str, f64); 1] = [("speedup_pruned_over_full_sel10", 2.0)];

/// Absolute floor over the entries of `BENCH_planner.json`: the
/// cost-based planner's `Auto` knobs must at least match the best
/// fixed-knob grid arm (≥ 1.0×) — if the cost model starts choosing a
/// bad execution shape, planned latency falls behind hand tuning and the
/// gate trips.
const PLANNER_RATIO_GATES: [(&str, f64); 1] = [("speedup_planned_over_best_fixed", 1.0)];

/// Absolute floors over the entries of `BENCH_server_load.json`: under
/// open-loop overload, the shed-latency p99 must sit at least 2× under
/// the served-latency p99 (shedding as slow as serving is not
/// load-shedding — the ratio is also 0.0 if overload stops producing
/// sheds at all, tripping the gate loudly), and every connection must
/// receive *some* response (`no_hung_connections` is 1.0 only when zero
/// requests hung or were dropped without a status line).
const LOAD_RATIO_GATES: [(&str, f64); 2] = [
    ("speedup_served_over_shed", 2.0),
    ("no_hung_connections", 1.0),
];

/// Absolute *ceilings* over the entries of `BENCH_obs.json`: flight-
/// recorder tracing must cost ≤ 10% on the warm cache-hit path.
const OBS_RATIO_CEILINGS: [(&str, f64); 1] = [("overhead_traced_over_untraced", 1.10)];

/// Absolute *ceilings* over the entries of `BENCH_sharing.json`: everything
/// `SHARING` does around its cluster scans must cost ≤ 25% of them, what
/// each of ten phases (`COMB`, no pruner) adds to the same scan ≤ one naive
/// `f64` sum over the measure columns (the 0.47 ms a phase that `COMB` ≤
/// 1.45 × `SHARING` allowed before the scan got faster under it), and an
/// exact grouped aggregate of a row·aggregate ≤ 6 naive `f64` adds (≈ 10
/// before the vectorized path summed in fixed-point lanes).
const SHARING_RATIO_CEILINGS: [(&str, f64); 3] = [
    ("overhead_sharing_over_cluster_scan", 1.25),
    ("phase_constant_over_naive_pass", 1.0),
    ("agg_over_naive_sum", 6.0),
];

/// Absolute floor over `BENCH_sharing.json` — a count, not a timing: on
/// DIAB's NULL-free float measures ≥ 99% of the cluster scan's accumulator
/// updates must be lane adds; a lower share means the scan fell back to one
/// window update per value.
const SHARING_RATIO_GATES: [(&str, f64); 1] = [("lane_share_of_updates", 0.99)];

/// One comparable measurement: a stable identity string and its fastest
/// observed latency.
struct Entry {
    key: String,
    min_ms: f64,
}

fn main() -> ExitCode {
    let mut positional: Vec<String> = Vec::new();
    let mut tolerance: f64 = std::env::var("PERF_SMOKE_TOLERANCE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5.0);
    let mut write = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--write" => write = true,
            "--tolerance" => {
                tolerance = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--tolerance requires a number"));
            }
            other if !other.starts_with('-') => positional.push(other.to_owned()),
            other => die(&format!("unknown flag {other}")),
        }
    }
    let [figures_dir, baseline_path] = positional.as_slice() else {
        die("usage: perf_smoke <figures_dir> <baseline.json> [--tolerance <factor>] [--write]");
    };

    let current = collect_entries(Path::new(figures_dir));
    if current.is_empty() {
        die(&format!("no figure entries found under {figures_dir}"));
    }

    if write {
        let doc = Json::obj().set("tolerance_hint", tolerance).set(
            "entries",
            current
                .iter()
                .map(|e| {
                    Json::obj()
                        .set("key", e.key.as_str())
                        .set("min_ms", e.min_ms)
                })
                .collect::<Vec<_>>(),
        );
        std::fs::write(baseline_path, doc.pretty()).expect("write baseline");
        println!("wrote {} ({} entries)", baseline_path, current.len());
        return ExitCode::SUCCESS;
    }

    let baseline_text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| die(&format!("read {baseline_path}: {e}")));
    let baseline =
        Json::parse(&baseline_text).unwrap_or_else(|e| die(&format!("parse {baseline_path}: {e}")));
    let baseline_entries: Vec<Entry> = baseline
        .get("entries")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| die("baseline has no entries array"))
        .iter()
        .filter_map(|e| {
            Some(Entry {
                key: e.get("key")?.as_str()?.to_owned(),
                min_ms: e.get("min_ms")?.as_num()?,
            })
        })
        .collect();

    let mut regressions = Vec::new();
    let mut missing = Vec::new();
    let mut checked = 0usize;
    for base in &baseline_entries {
        match current.iter().find(|e| e.key == base.key) {
            None => missing.push(base.key.clone()),
            Some(cur) => {
                checked += 1;
                let limit = base.min_ms * tolerance;
                let verdict = if cur.min_ms > limit {
                    "REGRESSED"
                } else {
                    "ok"
                };
                println!(
                    "{verdict:9} {key}: min {cur:.3} ms vs baseline {base_ms:.3} ms (limit {limit:.3})",
                    key = base.key,
                    cur = cur.min_ms,
                    base_ms = base.min_ms,
                );
                if cur.min_ms > limit {
                    regressions.push(base.key.clone());
                }
            }
        }
    }

    println!(
        "\nperf smoke: {checked} checked, {} regressed, {} missing (tolerance {tolerance}x)",
        regressions.len(),
        missing.len()
    );
    if !missing.is_empty() {
        eprintln!("missing entries (bench layout changed? regenerate with --write): {missing:?}");
        return ExitCode::FAILURE;
    }
    if !regressions.is_empty() {
        eprintln!("regressed entries: {regressions:?}");
        return ExitCode::FAILURE;
    }
    let dir = Path::new(figures_dir);
    let mut gates_ok = check_ratios(dir, "BENCH_server.json", &SERVER_RATIO_GATES);
    gates_ok &= check_ratios(dir, "BENCH_partitions.json", &PARTITION_RATIO_GATES);
    gates_ok &= check_ratios(dir, "BENCH_planner.json", &PLANNER_RATIO_GATES);
    gates_ok &= check_ratios(dir, "BENCH_server_load.json", &LOAD_RATIO_GATES);
    gates_ok &= check_ceilings(dir, "BENCH_obs.json", &OBS_RATIO_CEILINGS);
    gates_ok &= check_ceilings(dir, "BENCH_sharing.json", &SHARING_RATIO_CEILINGS);
    gates_ok &= check_ratios(dir, "BENCH_sharing.json", &SHARING_RATIO_GATES);
    if !gates_ok {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Gates within-run overhead ratios from one figure file against
/// absolute *ceilings*: the gate trips when the measured value exceeds
/// the limit (the mirror image of [`check_ratios`]).
fn check_ceilings(dir: &Path, file: &str, gates: &[(&str, f64)]) -> bool {
    let path = dir.join(file);
    let Ok(text) = std::fs::read_to_string(&path) else {
        eprintln!(
            "perf_smoke: {} missing — the figures run no longer emits its sweeps",
            path.display()
        );
        return false;
    };
    let doc = Json::parse(&text).unwrap_or_else(|e| die(&format!("parse {}: {e}", path.display())));
    let Some(results) = doc.get("results").and_then(Json::as_arr) else {
        eprintln!("perf_smoke: {} has no results array", path.display());
        return false;
    };
    let mut ok = true;
    for &(field, ceiling) in gates {
        let Some(value) = results
            .iter()
            .find_map(|r| r.get(field).and_then(Json::as_num))
        else {
            eprintln!("perf_smoke: no entry in {} carries {field}", path.display());
            ok = false;
            continue;
        };
        let verdict = if value > ceiling { "REGRESSED" } else { "ok" };
        println!("{verdict:9} {file}/{field}: {value:.3}x (ceiling {ceiling}x)");
        if value > ceiling {
            ok = false;
        }
    }
    ok
}

/// Gates within-run speedup ratios from one figure file (see module
/// docs). Absolute floors — no baseline involved.
fn check_ratios(dir: &Path, file: &str, gates: &[(&str, f64)]) -> bool {
    let path = dir.join(file);
    let Ok(text) = std::fs::read_to_string(&path) else {
        eprintln!(
            "perf_smoke: {} missing — the figures run no longer emits its sweeps",
            path.display()
        );
        return false;
    };
    let doc = Json::parse(&text).unwrap_or_else(|e| die(&format!("parse {}: {e}", path.display())));
    let Some(results) = doc.get("results").and_then(Json::as_arr) else {
        eprintln!("perf_smoke: {} has no results array", path.display());
        return false;
    };
    let mut ok = true;
    for &(field, floor) in gates {
        let Some(value) = results
            .iter()
            .find_map(|r| r.get(field).and_then(Json::as_num))
        else {
            eprintln!("perf_smoke: no entry in {} carries {field}", path.display());
            ok = false;
            continue;
        };
        let verdict = if value < floor { "REGRESSED" } else { "ok" };
        println!("{verdict:9} {file}/{field}: {value:.1}x (floor {floor}x)");
        if value < floor {
            ok = false;
        }
    }
    ok
}

/// Loads the guarded figures from `dir` and flattens each result into a
/// stable string key plus its minimum observed latency (the quantity the
/// gate compares; see the module docs for why min, not mean).
fn collect_entries(dir: &Path) -> Vec<Entry> {
    let mut out = Vec::new();
    for figure in FIGURES {
        let path = dir.join(format!("BENCH_{figure}.json"));
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let doc =
            Json::parse(&text).unwrap_or_else(|e| die(&format!("parse {}: {e}", path.display())));
        let Some(results) = doc.get("results").and_then(Json::as_arr) else {
            continue;
        };
        for result in results {
            let Some(min) = result
                .get("timing")
                .and_then(|t| t.get("min_ms"))
                .and_then(Json::as_num)
            else {
                continue;
            };
            out.push(Entry {
                key: entry_key(figure, result),
                min_ms: min,
            });
        }
    }
    out
}

/// Builds a stable identity for one result: the figure name plus every
/// identifying field the figure runners emit (dataset, strategy, store,
/// engine mode, row count) that is present on the entry.
fn entry_key(figure: &str, result: &Json) -> String {
    let mut parts = vec![figure.to_owned()];
    for field in ["dataset", "strategy", "store", "sweep", "engine_mode"] {
        if let Some(v) = result.get(field).and_then(Json::as_str) {
            parts.push(format!("{field}={v}"));
        }
    }
    if let Some(rows) = result.get("rows").and_then(Json::as_num) {
        parts.push(format!("rows={rows}"));
    }
    parts.join("/")
}

fn die(msg: &str) -> ! {
    eprintln!("perf_smoke: {msg}");
    std::process::exit(2);
}
