//! `seedbd` — the SeeDB recommendation daemon.
//!
//! ```text
//! seedbd [--addr HOST:PORT] [--max-rows N] [--default-rows N]
//!        [--cache-mb N] [--seed N] [--workers N] [--max-conns N]
//!        [--queue N] [--deadline-ms N] [--faults SPEC]
//!        [--trace-buffer N] [--slow-ms N] [--log LEVEL]
//! seedbd request ADDR METHOD PATH [BODY]
//! ```
//!
//! The first form serves the JSON API (see the crate docs for endpoints).
//! The second form is a std-only HTTP client for smoke checks: it prints
//! the response body and exits non-zero unless the status is 200 — CI
//! uses it instead of curl.

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

use seedb_server::{client, Server, ServerConfig};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some((first, rest)) = args.split_first() {
        if first == "request" {
            return run_client(rest);
        }
    }
    run_daemon(&args)
}

fn run_daemon(args: &[String]) -> ExitCode {
    let mut config = ServerConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| die(&format!("{name} requires a value")))
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--max-rows" => config.max_rows = parse_num(&value("--max-rows"), "--max-rows"),
            "--default-rows" => {
                config.default_rows = parse_num(&value("--default-rows"), "--default-rows")
            }
            "--cache-mb" => {
                config.cache_bytes = parse_num(&value("--cache-mb"), "--cache-mb") << 20
            }
            "--seed" => config.seed = parse_num(&value("--seed"), "--seed") as u64,
            "--workers" => config.worker_budget = parse_num(&value("--workers"), "--workers"),
            "--max-conns" => {
                config.max_connections = parse_num(&value("--max-conns"), "--max-conns")
            }
            "--queue" => config.admission_queue = parse_num(&value("--queue"), "--queue"),
            "--deadline-ms" => {
                config.default_deadline_ms =
                    parse_num(&value("--deadline-ms"), "--deadline-ms") as u64
            }
            "--faults" => config.faults = Some(value("--faults")),
            "--trace-buffer" => {
                config.trace_buffer = parse_num(&value("--trace-buffer"), "--trace-buffer")
            }
            "--slow-ms" => config.slow_ms = parse_num(&value("--slow-ms"), "--slow-ms") as u64,
            "--log" => {
                let raw = value("--log");
                config.log_level = seedb_obs::LogLevel::parse(&raw).unwrap_or_else(|| {
                    die(&format!("--log expects error|warn|info|debug, got '{raw}'"))
                })
            }
            "--help" | "-h" => {
                println!(
                    "usage: seedbd [--addr HOST:PORT] [--max-rows N] [--default-rows N] \
                     [--cache-mb N] [--seed N] [--workers N] [--max-conns N] [--queue N] \
                     [--deadline-ms N] [--faults SPEC] [--trace-buffer N] [--slow-ms N] \
                     [--log error|warn|info|debug]\n       \
                     seedbd request ADDR METHOD PATH [BODY]"
                );
                return ExitCode::SUCCESS;
            }
            other => die(&format!("unknown flag {other}")),
        }
    }
    let server = match Server::bind(config.clone()) {
        Ok(s) => s,
        Err(e) => die(&format!("bind {}: {e}", config.addr)),
    };
    match server.local_addr() {
        Ok(addr) => server.state().obs.logger.info(
            "listening",
            seedb_util::Json::obj()
                .set("addr", addr.to_string())
                .set("max_rows", config.max_rows as u64)
                .set("cache_mb", (config.cache_bytes >> 20) as u64)
                .set("workers", config.worker_budget as u64)
                .set("conns", config.max_connections as u64)
                .set("queue", config.admission_queue as u64)
                .set("deadline_ms", config.default_deadline_ms)
                .set("trace_buffer", config.trace_buffer as u64)
                .set("slow_ms", config.slow_ms),
        ),
        Err(e) => die(&format!("local_addr: {e}")),
    }
    server.run();
    ExitCode::SUCCESS
}

fn run_client(args: &[String]) -> ExitCode {
    let [addr, method, path, rest @ ..] = args else {
        die("usage: seedbd request ADDR METHOD PATH [BODY]");
    };
    let body = rest.first().map(String::as_str);
    match client::request(addr.as_str(), method, path, body) {
        Ok((status, body)) => {
            println!("{body}");
            if status == 200 {
                ExitCode::SUCCESS
            } else {
                eprintln!("seedbd request: HTTP {status}");
                ExitCode::FAILURE
            }
        }
        Err(e) => die(&format!("request {method} {path} against {addr}: {e}")),
    }
}

fn parse_num(text: &str, flag: &str) -> usize {
    text.parse()
        .unwrap_or_else(|_| die(&format!("{flag} expects a number, got '{text}'")))
}

fn die(msg: &str) -> ! {
    eprintln!("seedbd: {msg}");
    std::process::exit(2);
}
