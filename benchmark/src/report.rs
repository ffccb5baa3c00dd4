//! Results on the way out: the one-line JSON result of a run, the suite's
//! `results.json` with its host fingerprint, and `agree`, which compares
//! two result files metric by metric against the declared bounds (the
//! ones `BENCHMARK.json` carries; a crate test keeps code and file equal).

use crate::spec::{self, Better};
use seedb_util::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// What one run of one workload produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Checks made: every operation of the measured passes plus the
    /// correctness pass.
    pub attempted: u64,
    /// Checks that did not hold.
    pub failed: u64,
    /// `(name, value, unit)` for every metric the run reports.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// The result line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`. Values are printed as measured (Rust's
    /// shortest round-trip float form), never rounded.
    pub fn line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc` does
/// not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// Where these numbers were taken: core count, CPU model, compiler, and
/// the commit when the checkout is a git repository.
pub fn host_fingerprint() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    Json::obj()
        .set("nproc", nproc)
        .set("cpu_model", cpu)
        .set("rustc", command_line("rustc", &["--version"]))
        .set("git_commit", command_line("git", &["rev-parse", "HEAD"]))
}

/// One workload's merged result inside `results.json`.
pub fn workload_json(end_to_end: &Outcome, per_layer: &Outcome) -> Json {
    let mut metrics = Json::obj();
    for (name, value, unit) in end_to_end.metrics.iter().chain(&per_layer.metrics) {
        metrics = metrics.set(name, Json::obj().set("value", *value).set("unit", *unit));
    }
    Json::obj()
        .set("correct", end_to_end.failed + per_layer.failed == 0)
        .set("attempted", end_to_end.attempted + per_layer.attempted)
        .set("failed", end_to_end.failed + per_layer.failed)
        .set("metrics", metrics)
}

/// `{workload: {metric: value}}` of a result file.
fn load(path: &Path) -> Result<BTreeMap<String, BTreeMap<String, f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Json::Obj(workloads)) = doc.get("workloads") else {
        return Err(format!("{}: no \"workloads\" object", path.display()));
    };
    let mut out = BTreeMap::new();
    for (workload, result) in workloads {
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            return Err(format!("{}: {workload} has no metrics", path.display()));
        };
        let values = metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_num()?)))
            .collect();
        out.insert(workload.clone(), values);
    }
    Ok(out)
}

/// Compares result file `b` against base `a`: one row per (workload,
/// metric) with both values and the ratio b ÷ a. A bounded metric breaches
/// when b is worse than a by more than its bound; an exact count breaches
/// on any difference. Returns the table and the number of breaches.
pub fn agree(a: &Path, b: &Path) -> Result<(String, usize), String> {
    let base = load(a)?;
    let other = load(b)?;
    let mut table = format!(
        "{:<24} {:<34} {:>16} {:>16} {:>9}  verdict (ratio = b / a, base a = {})\n",
        "workload",
        "metric",
        "a",
        "b",
        "b/a",
        a.display()
    );
    let mut breaches = 0;
    for (workload, metrics) in &base {
        let Some(theirs) = other.get(workload) else {
            table.push_str(&format!("{workload:<24} missing from b: BREACH\n"));
            breaches += 1;
            continue;
        };
        for (name, &va) in metrics {
            let Some(&vb) = theirs.get(name) else {
                table.push_str(&format!(
                    "{workload:<24} {name:<34} missing from b: BREACH\n"
                ));
                breaches += 1;
                continue;
            };
            let ratio = if va == 0.0 { f64::NAN } else { vb / va };
            let declared = spec::find(name);
            let exact = declared.is_some_and(|m| m.exact);
            let verdict = if exact && va != vb {
                breaches += 1;
                "BREACH (must repeat exactly)".to_owned()
            } else if let Some((better, bound)) = declared.and_then(|m| Some((m.better, m.bound?)))
            {
                let worse = match better {
                    Better::Lower => (vb - va) / va,
                    Better::Higher => (va - vb) / va,
                };
                if worse > bound {
                    breaches += 1;
                    format!(
                        "BREACH (worse by {:.1}% > {:.0}%)",
                        worse * 100.0,
                        bound * 100.0
                    )
                } else {
                    format!("ok (bound {:.0}%)", bound * 100.0)
                }
            } else if exact {
                "ok (exact)".to_owned()
            } else {
                String::new()
            };
            table.push_str(&format!(
                "{workload:<24} {name:<34} {va:>16.6} {vb:>16.6} {ratio:>9.4}  {verdict}\n"
            ));
        }
    }
    Ok((table, breaches))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(p50: f64, share: f64) -> Outcome {
        Outcome {
            attempted: 10,
            failed: 0,
            metrics: vec![
                ("recommend_p50_ms", p50, "ms"),
                ("engine.partitions_pruned_share", share, "share"),
                ("engine.morsels_ms", 3.0, "ms"),
            ],
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = outcome(1.25, 0.5).line();
        let Json::Obj(fields) = Json::parse(&line).unwrap() else {
            panic!("not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let doc = Json::Obj(fields);
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
        let p50 = doc.get("metrics").unwrap().get("recommend_p50_ms").unwrap();
        assert_eq!(p50.get("value").unwrap().as_num(), Some(1.25));
        assert_eq!(p50.get("unit").unwrap().as_str(), Some("ms"));
    }

    #[test]
    fn agree_flags_bound_breaches_and_inexact_counts() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-agree-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, o: &Outcome| {
            let empty = Outcome {
                attempted: 0,
                failed: 0,
                metrics: Vec::new(),
            };
            let doc = Json::obj().set("workloads", Json::obj().set("w", workload_json(o, &empty)));
            let path = dir.join(name);
            std::fs::write(&path, doc.pretty()).unwrap();
            path
        };
        let bound = spec::find("recommend_p50_ms").unwrap().bound.unwrap();
        let a = write("a.json", &outcome(100.0, 0.5));
        let same = write("same.json", &outcome(100.0 * (1.0 + bound) - 1.0, 0.5));
        let slow = write("slow.json", &outcome(100.0 * (1.0 + bound) + 1.0, 0.5));
        let drift = write("drift.json", &outcome(100.0, 0.51));
        assert_eq!(agree(&a, &same).unwrap().1, 0);
        let (table, breaches) = agree(&a, &slow).unwrap();
        assert_eq!(breaches, 1, "{table}");
        assert!(table.contains("BREACH (worse by"), "{table}");
        let (table, breaches) = agree(&a, &drift).unwrap();
        assert_eq!(breaches, 1, "{table}");
        assert!(table.contains("must repeat exactly"), "{table}");
        assert!(agree(&a, &dir.join("nope.json")).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
