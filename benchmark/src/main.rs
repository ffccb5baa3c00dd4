//! `seedb-benchmark` — the repo benchmark.
//!
//! ```text
//! seedb-benchmark                      # the suite: every workload, both runs, results.json
//! seedb-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! seedb-benchmark agree a.json b.json  # compare two result files against the bounds
//! ```
//!
//! A run with `--trace 0` measures one workload with the benchmark's spans
//! off and reports the end-to-end metrics; `--trace 1` runs a shorter
//! measured pass, a traced pass and the layer probes, and reports the
//! per-layer ledger. Either way the last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`, and
//! the exit code is non-zero when any check failed.

mod gen;
mod inproc;
mod layers;
mod pass;
mod report;
mod run;
mod serve;
mod spec;
mod stats;
mod trace;
mod workload;

use report::Outcome;
use seedb_util::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workload::WORKLOADS;

/// Parsed command line of a run or of the suite.
#[derive(Debug, Clone)]
pub struct Args {
    /// One workload, or `None` for the suite.
    pub workload: Option<String>,
    pub seed: u64,
    /// Length of the measured window; `None` = the mode's default.
    pub seconds: Option<u64>,
    pub trace: bool,
    /// 1 s windows at a tenth of the rows: a functional check, not a
    /// measurement.
    pub smoke: bool,
    /// Where trace files and `results.json` go.
    pub out: PathBuf,
}

/// The seed the suite and `BENCHMARK.json` name.
const DEFAULT_SEED: u64 = 17;
/// Measured seconds per run, as `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: u64 = 15;

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: None,
            trace: false,
            smoke: false,
            out: PathBuf::from("benchmark/out"),
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = |what: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs {what}"))
            };
            match flag.as_str() {
                "--workload" => args.workload = Some(value("a workload name")?),
                "--seed" => {
                    args.seed = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    let seconds: u64 = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if seconds == 0 {
                        return Err("--seconds must be at least 1".into());
                    }
                    args.seconds = Some(seconds);
                }
                "--trace" => {
                    args.trace = match value("0 or 1")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                    }
                }
                "--smoke" => args.smoke = true,
                "--out" => args.out = PathBuf::from(value("a directory")?),
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        Ok(args)
    }

    /// Measured seconds of this run.
    pub fn window_seconds(&self) -> u64 {
        self.seconds
            .unwrap_or(if self.smoke { 1 } else { DEFAULT_SECONDS })
    }

    /// Share of each workload's named size to build.
    pub fn scale(&self) -> f64 {
        if self.smoke {
            0.1
        } else {
            1.0
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("agree") => agree(&argv[1..]),
        _ => Args::parse(&argv).and_then(|args| match &args.workload {
            Some(name) => run::run(name, &args).map(|outcome| {
                println!("{}", outcome.line());
                outcome.failed == 0
            }),
            None => suite(&args),
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("seedb-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

fn agree(argv: &[String]) -> Result<bool, String> {
    let [a, b] = argv else {
        return Err("usage: seedb-benchmark agree a.json b.json".into());
    };
    let (table, breaches) = report::agree(Path::new(a), Path::new(b))?;
    print!("{table}");
    println!("{breaches} breach(es)");
    Ok(breaches == 0)
}

/// Runs one workload in a fresh child process and reads its result line.
fn child(name: &str, args: &Args, trace: bool) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.window_seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out);
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let line = stdout.lines().last().unwrap_or("");
    let parsed = Json::parse(line).ok().and_then(|doc| parse_outcome(&doc));
    parsed.ok_or_else(|| {
        format!(
            "{name} (trace {}) produced no result: {}",
            u8::from(trace),
            String::from_utf8_lossy(&output.stderr).trim()
        )
    })
}

fn parse_outcome(doc: &Json) -> Option<Outcome> {
    let Json::Obj(fields) = doc.get("metrics")? else {
        return None;
    };
    let metrics = fields
        .iter()
        .map(|(name, m)| {
            let spec = spec::find(name)?;
            Some((spec.name, m.get("value")?.as_num()?, spec.unit))
        })
        .collect::<Option<Vec<_>>>()?;
    Some(Outcome {
        attempted: doc.get("attempted")?.as_u64()?,
        failed: doc.get("failed")?.as_u64()?,
        metrics,
    })
}

/// The one command: every workload, each run in a fresh child process —
/// the measured run, then the traced run — then `results.json`.
fn suite(args: &Args) -> Result<bool, String> {
    let mut workloads = Json::obj();
    let mut all_correct = true;
    for (name, why) in WORKLOADS {
        println!("== {name}: {why}");
        let measured = child(name, args, false)?;
        let traced = child(name, args, true)?;
        all_correct &= measured.failed + traced.failed == 0;
        workloads = workloads.set(name, report::workload_json(&measured, &traced));
    }
    let results = Json::obj()
        .set("host", report::host_fingerprint())
        .set("seed", args.seed)
        .set("seconds", args.window_seconds())
        .set("smoke", args.smoke)
        .set("workloads", workloads);
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let path = args.out.join("results.json");
    std::fs::write(&path, results.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let args = Args::parse(&argv(&[
            "--workload",
            "scan_diab100k",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("scan_diab100k"));
        assert_eq!(
            (args.seed, args.window_seconds(), args.trace),
            (42, 10, true)
        );
        assert_eq!(args.scale(), 1.0);
        let smoke = Args::parse(&argv(&["--smoke"])).unwrap();
        assert_eq!((smoke.window_seconds(), smoke.scale()), (1, 0.1));
        assert_eq!(smoke.seed, DEFAULT_SEED);
        for bad in [
            &["--trace", "2"][..],
            &["--seconds", "0"],
            &["--seed"],
            &["--frobnicate"],
        ] {
            assert!(Args::parse(&argv(bad)).is_err(), "{bad:?}");
        }
    }

    /// `BENCHMARK.json` and the code declare the same benchmark.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let Json::Obj(fields) = &doc else {
            panic!("BENCHMARK.json is not an object");
        };
        let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").unwrap().as_u64(),
            Some(DEFAULT_SECONDS)
        );
        let str_of = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap().to_owned();
        let declared: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| (str_of(w, "name"), str_of(w, "why")))
            .collect();
        let coded: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(declared, coded);
        for (key, metrics) in [
            ("end_to_end", &spec::END_TO_END[..]),
            ("per_layer", &spec::PER_LAYER[..]),
        ] {
            let entries = doc.get(key).and_then(Json::as_arr).unwrap();
            assert_eq!(entries.len(), metrics.len(), "{key}");
            for (entry, metric) in entries.iter().zip(metrics) {
                assert_eq!(str_of(entry, "name"), metric.name);
                assert_eq!(str_of(entry, "unit"), metric.unit, "{}", metric.name);
                assert_eq!(
                    str_of(entry, "better"),
                    metric.better.label(),
                    "{}",
                    metric.name
                );
                assert_eq!(
                    entry.get("bound").and_then(Json::as_num),
                    metric.bound,
                    "{}",
                    metric.name
                );
            }
        }
    }
}
