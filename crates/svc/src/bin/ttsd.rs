//! `ttsd` — the thermal-time-shifting simulation daemon.
//!
//! ```text
//! ttsd [--addr HOST:PORT] [--workers N] [--queue N] [--budget N]
//!      [--max-jobs N] [--cache-mb N] [--cache-dir PATH]
//!      [--port-file PATH] [--metrics-out PATH] [--debug] [--no-stdin-watch]
//! ttsd req <HOST:PORT> <METHOD> <PATH> [--body JSON] [<METHOD> <PATH> [--body JSON]]…
//! ttsd loadgen [--duration-ms N] [--out PATH]
//! ```
//!
//! The daemon binds (port `0` picks an ephemeral port, written to
//! `--port-file` as `HOST:PORT` for scripts to poll), serves the
//! Experiment API over persistent connections, and shuts down gracefully
//! on `POST /admin/shutdown` or stdin EOF (disable the watcher with
//! `--no-stdin-watch` when backgrounding with a closed stdin).
//! `--budget N` sets the run scheduler's leaseable worker budget (default
//! `TTS_THREADS`, else the machine's available parallelism); every run
//! executes under a lease on a slice of it, and results are
//! byte-identical at any budget split. `--cache-dir` persists cached
//! summaries across restarts; `--cache-mb` caps the in-memory cache.
//!
//! `ttsd req` is a minimal wire client for environments without `curl`:
//! several `METHOD PATH [--body JSON]` groups reuse **one keep-alive
//! connection**, chunked responses (the job events stream) are decoded
//! and printed as chunks arrive, bodies go to stdout, status lines to
//! stderr, and the exit is `0` when every response was 2xx.
//!
//! `ttsd loadgen` runs the in-process mixed-traffic benchmark behind
//! `BENCH_ttsd.json` (see `tts_svc::loadgen`).

use std::io::{Read, Write};
use std::time::Duration;

use tts_obs::MetricsSink;
use tts_svc::loadgen::{run_loadgen, LoadgenConfig, WireClient};
use tts_svc::server::{Server, ServerConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("req") => std::process::exit(client(&args[1..])),
        Some("loadgen") => std::process::exit(loadgen(&args[1..])),
        _ => std::process::exit(daemon(&args)),
    }
}

fn usage_error(message: &str) -> ! {
    eprintln!("ttsd: {message}");
    eprintln!(
        "usage: ttsd [--addr HOST:PORT] [--workers N] [--queue N] [--budget N]\n\
         \x20            [--max-jobs N] [--cache-mb N] [--cache-dir PATH]\n\
         \x20            [--port-file PATH] [--metrics-out PATH] [--debug] [--no-stdin-watch]\n\
         \x20      ttsd req <HOST:PORT> <METHOD> <PATH> [--body JSON] [<METHOD> <PATH> …]\n\
         \x20      ttsd loadgen [--duration-ms N] [--out PATH]"
    );
    std::process::exit(2);
}

fn daemon(args: &[String]) -> i32 {
    let mut config = ServerConfig::default();
    let mut port_file: Option<String> = None;
    let mut stdin_watch = true;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next()
                .cloned()
                .unwrap_or_else(|| usage_error(&format!("{name} requires a value")))
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--workers" => config.workers = parse_count("--workers", &value("--workers")),
            "--queue" => config.queue_cap = parse_count("--queue", &value("--queue")),
            "--budget" => config.budget = parse_count("--budget", &value("--budget")),
            "--max-jobs" => config.max_jobs = parse_count("--max-jobs", &value("--max-jobs")),
            "--cache-mb" => {
                config.cache_cap_bytes =
                    parse_count("--cache-mb", &value("--cache-mb")) * 1024 * 1024;
            }
            "--cache-dir" => config.cache_dir = Some(value("--cache-dir").into()),
            "--port-file" => port_file = Some(value("--port-file")),
            "--metrics-out" => config.metrics_out = Some(value("--metrics-out").into()),
            "--debug" => config.debug = true,
            "--no-stdin-watch" => stdin_watch = false,
            other => usage_error(&format!("unknown flag {other:?}")),
        }
    }
    let sink = MetricsSink::fresh();
    // Route the worker pools' (best-effort) telemetry to the same
    // registry the service reports into.
    tts_exec::set_metrics_sink(sink.clone());
    let server = match Server::bind(config, sink) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ttsd: bind failed: {e}");
            return 1;
        }
    };
    let addr = server.local_addr().expect("bound listener has an address");
    println!("ttsd listening on http://{addr}");
    if let Some(path) = port_file {
        if let Err(e) = std::fs::write(&path, addr.to_string()) {
            eprintln!("ttsd: cannot write port file {path}: {e}");
            return 1;
        }
    }
    if stdin_watch {
        let shutdown = server.shutdown_handle();
        std::thread::Builder::new()
            .name("ttsd-stdin-watch".to_string())
            .spawn(move || {
                let mut sink = Vec::new();
                let _ = std::io::stdin().read_to_end(&mut sink);
                shutdown.trigger();
            })
            .expect("spawn stdin watcher");
    }
    match server.run() {
        Ok(()) => {
            println!("ttsd: drained and stopped");
            0
        }
        Err(e) => {
            eprintln!("ttsd: server error: {e}");
            1
        }
    }
}

fn parse_count(name: &str, raw: &str) -> usize {
    raw.parse::<usize>()
        .ok()
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| usage_error(&format!("{name} requires a positive integer")))
}

/// One `METHOD PATH [--body JSON]` group from the `req` argument list.
struct ReqSpec {
    method: String,
    path: String,
    body: String,
}

/// `ttsd req <HOST:PORT> <METHOD> <PATH> [--body JSON] […]`: every group
/// after the address reuses one keep-alive connection.
fn client(args: &[String]) -> i32 {
    let Some(addr) = args.first().filter(|a| !a.starts_with("--")) else {
        usage_error("req needs <HOST:PORT> <METHOD> <PATH>");
    };
    let mut specs: Vec<ReqSpec> = Vec::new();
    let mut it = args[1..].iter().peekable();
    while let Some(method) = it.next() {
        let Some(path) = it.next() else {
            usage_error(&format!("method {method:?} without a path"));
        };
        let body = if it.peek().map(|a| a.as_str()) == Some("--body") {
            it.next();
            it.next()
                .cloned()
                .unwrap_or_else(|| usage_error("--body requires a JSON argument"))
        } else {
            String::new()
        };
        specs.push(ReqSpec {
            method: method.clone(),
            path: path.clone(),
            body,
        });
    }
    if specs.is_empty() {
        usage_error("req needs at least one <METHOD> <PATH>");
    }
    let sock_addr = match addr.parse() {
        Ok(a) => a,
        Err(_) => match std::net::ToSocketAddrs::to_socket_addrs(&addr.as_str())
            .ok()
            .and_then(|mut it| it.next())
        {
            Some(a) => a,
            None => {
                eprintln!("ttsd req: cannot resolve {addr}");
                return 1;
            }
        },
    };
    let mut client = match WireClient::connect(sock_addr, Duration::from_secs(60)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("ttsd req: cannot connect to {addr}: {e}");
            return 1;
        }
    };
    let mut all_ok = true;
    let total = specs.len();
    let mut stdout = std::io::stdout();
    for (i, spec) in specs.iter().enumerate() {
        let close = i + 1 == total;
        // Event streams are chunked: print each decoded chunk as it
        // lands instead of waiting for the stream to finish.
        let outcome = if spec.method == "GET" && spec.path.ends_with("/events") {
            client.stream_chunks(&spec.path, |chunk| {
                let _ = stdout.write_all(chunk);
                let _ = stdout.flush();
            })
        } else {
            // Bodies are printed verbatim — no added newline — so shell
            // redirection captures exactly the served bytes (ci.sh
            // `cmp`s them against repro's files).
            client
                .request(&spec.method, &spec.path, spec.body.as_bytes(), close)
                .inspect(|resp| {
                    let _ = stdout.write_all(&resp.body);
                    let _ = stdout.flush();
                })
        };
        match outcome {
            Ok(resp) => {
                eprintln!(
                    "HTTP/1.1 {} ({}{})",
                    resp.status,
                    spec.method,
                    if resp.chunked { ", chunked" } else { "" }
                );
                if !(200..300).contains(&resp.status) {
                    all_ok = false;
                }
            }
            Err(e) => {
                eprintln!("ttsd req: {} {} failed: {e}", spec.method, spec.path);
                return 1;
            }
        }
    }
    i32::from(!all_ok)
}

/// `ttsd loadgen [--duration-ms N] [--out PATH]`.
fn loadgen(args: &[String]) -> i32 {
    let mut cfg = LoadgenConfig::default();
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next()
                .cloned()
                .unwrap_or_else(|| usage_error(&format!("{name} requires a value")))
        };
        match flag.as_str() {
            "--duration-ms" => {
                cfg.duration = Duration::from_millis(parse_count(
                    "--duration-ms",
                    &value("--duration-ms"),
                ) as u64);
            }
            "--out" => out = Some(value("--out")),
            other => usage_error(&format!("unknown loadgen flag {other:?}")),
        }
    }
    let report = run_loadgen(&cfg);
    println!("{}", report.to_json().to_string_pretty());
    if let Some(path) = out {
        let note = format!(
            "ttsd mixed-traffic loadgen: per-request mean ns on the cached scenario, \
             close-delimited serial vs {} keep-alive clients pipelining {} deep \
             (duration {} ms per phase). Regenerate with `ttsd loadgen --out {path}`; \
             ci.sh gates a fresh run against this file via `repro bench-check`.",
            cfg.clients,
            cfg.pipeline_depth,
            cfg.duration.as_millis()
        );
        let doc = report.bench_json(&note).to_string_pretty();
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("ttsd loadgen: cannot write {path}: {e}");
            return 1;
        }
        eprintln!("ttsd loadgen: wrote {path}");
    }
    if report.all_green() {
        0
    } else {
        eprintln!(
            "ttsd loadgen: RED (errors={}, speedup={:.1} vs min {:.1}, p99={:.2} ms vs max {:.2} ms)",
            report.errors, report.speedup, report.min_speedup, report.cached_p99_ms, report.max_cached_p99_ms
        );
        1
    }
}
