//! End-to-end tests against real sockets: each test binds its own
//! server on an ephemeral port, speaks wire-level HTTP/1.1 to it, and
//! shuts it down.
//!
//! The headline property is the ISSUE's acceptance criterion: the body
//! of `POST /v1/experiments/fig7` is byte-identical to the summary the
//! `repro` harness files (`emit_json(&fig).to_string_pretty()`), whether
//! the answer is computed or cached and whatever thread count the
//! request pins.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use thermal_time_shifting::experiment::{self, ExecCtx, Params};
use tts_obs::MetricsSink;
use tts_svc::loadgen::WireClient;
use tts_svc::router::App;
use tts_svc::server::{Server, ServerConfig, ShutdownHandle};

struct Running {
    addr: SocketAddr,
    shutdown: ShutdownHandle,
    app: Arc<App>,
    join: JoinHandle<std::io::Result<()>>,
}

impl Running {
    fn start(config: ServerConfig) -> Self {
        let server = Server::bind(config, MetricsSink::fresh()).expect("bind ephemeral port");
        let addr = server.local_addr().expect("local addr");
        let shutdown = server.shutdown_handle();
        let app = server.app();
        let join = std::thread::spawn(move || server.run());
        Self {
            addr,
            shutdown,
            app,
            join,
        }
    }

    fn stop(self) {
        self.shutdown.trigger();
        self.join
            .join()
            .expect("server thread")
            .expect("clean shutdown");
    }
}

/// One wire response, split into its pieces.
struct WireResponse {
    status: u16,
    head: String,
    body: Vec<u8>,
}

/// Sends `raw` and reads the close-delimited response.
fn exchange(addr: SocketAddr, raw: &[u8]) -> WireResponse {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(raw).expect("write request");
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).expect("read response");
    let head_end = bytes
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response head terminator");
    let head = String::from_utf8_lossy(&bytes[..head_end]).to_string();
    let status = head
        .lines()
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status code");
    WireResponse {
        status,
        head,
        body: bytes[head_end + 4..].to_vec(),
    }
}

fn get(addr: SocketAddr, path: &str) -> WireResponse {
    exchange(
        addr,
        format!("GET {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n").as_bytes(),
    )
}

fn post(addr: SocketAddr, path: &str, body: &str) -> WireResponse {
    exchange(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

fn unique_temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tts-svc-test-{}-{tag}.json", std::process::id()))
}

#[test]
fn fig7_is_byte_identical_cold_cached_and_across_thread_pins() {
    let server = Running::start(ServerConfig::default());
    // The reference bytes: exactly what `repro --write` puts in
    // `results/fig7.summary.json`.
    let exp = experiment::find("fig7").expect("fig7 registered");
    let reference = exp
        .emit_json(
            &exp.run_with(&ExecCtx::disabled(), &Params::default())
                .unwrap(),
        )
        .to_string_pretty()
        .into_bytes();

    let cold = post(server.addr, "/v1/experiments/fig7", "{}");
    assert_eq!(cold.status, 200, "head: {}", cold.head);
    assert_eq!(
        cold.body, reference,
        "cold response must match repro's summary"
    );
    assert_eq!(server.app.cache().len(), 1);

    // Cached replay (whitespace-different body, same canonical scenario).
    let cached = post(server.addr, "/v1/experiments/fig7", " { } ");
    assert_eq!(cached.status, 200);
    assert_eq!(cached.body, reference);
    assert_eq!(
        server.app.cache().len(),
        1,
        "same scenario must share an entry"
    );

    // Thread pins are distinct scenarios (distinct bodies → distinct
    // cache keys) but the determinism contract makes the bytes equal.
    for threads in [1, 4] {
        let pinned = post(
            server.addr,
            "/v1/experiments/fig7",
            &format!("{{\"threads\": {threads}}}"),
        );
        assert_eq!(pinned.status, 200);
        assert_eq!(
            pinned.body, reference,
            "threads={threads} must not change bytes"
        );
    }
    assert_eq!(server.app.cache().len(), 3);
    server.stop();
}

#[test]
fn listing_health_and_metrics_answer() {
    let server = Running::start(ServerConfig::default());
    let health = get(server.addr, "/healthz");
    assert_eq!(health.status, 200);
    assert!(String::from_utf8_lossy(&health.body).contains("\"ok\""));

    let listing = get(server.addr, "/v1/experiments");
    assert_eq!(listing.status, 200);
    let text = String::from_utf8_lossy(&listing.body).to_string();
    for name in ["fig7", "fig11", "fig12", "dcsim"] {
        assert!(text.contains(&format!("/v1/experiments/{name}")), "{text}");
    }

    // The deterministic snapshot hides the service's best-effort
    // instruments; `?full=1` reveals them.
    let _ = get(server.addr, "/healthz");
    let full = get(server.addr, "/metrics?full=1");
    assert_eq!(full.status, 200);
    let full_text = String::from_utf8_lossy(&full.body).to_string();
    assert!(full_text.contains("svc.http.requests"), "{full_text}");
    let plain = get(server.addr, "/metrics");
    assert!(!String::from_utf8_lossy(&plain.body).contains("svc.http.requests"));
    server.stop();
}

#[test]
fn wire_level_rejections_cover_the_status_table() {
    let server = Running::start(ServerConfig {
        read_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    let addr = server.addr;

    assert_eq!(get(addr, "/no/such/endpoint").status, 404);
    let wrong_method = get(addr, "/admin/shutdown");
    assert_eq!(wrong_method.status, 405);
    assert!(
        wrong_method.head.contains("allow: POST"),
        "{}",
        wrong_method.head
    );

    assert_eq!(exchange(addr, b"total garbage\r\n\r\n").status, 400);
    let huge_header = format!("GET / HTTP/1.1\r\nx: {}\r\n\r\n", "a".repeat(20 * 1024));
    assert_eq!(exchange(addr, huge_header.as_bytes()).status, 431);
    let huge_body = b"POST /v1/experiments/fig7 HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n";
    assert_eq!(exchange(addr, huge_body).status, 413);

    // A peer that half-closes mid-request gets a 400, not a hang.
    let mut truncated = TcpStream::connect(addr).unwrap();
    truncated
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    truncated.write_all(b"GET /healthz HT").unwrap();
    truncated.shutdown(std::net::Shutdown::Write).unwrap();
    let mut answer = Vec::new();
    truncated.read_to_end(&mut answer).unwrap();
    assert!(
        answer.starts_with(b"HTTP/1.1 400 "),
        "{}",
        String::from_utf8_lossy(&answer)
    );

    // A silent peer trips the read timeout and gets a 408.
    let mut idle = TcpStream::connect(addr).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    idle.write_all(b"GET /healthz").unwrap(); // incomplete, then silence
    let mut answer = Vec::new();
    idle.read_to_end(&mut answer).unwrap();
    assert!(
        answer.starts_with(b"HTTP/1.1 408 "),
        "{}",
        String::from_utf8_lossy(&answer)
    );
    server.stop();
}

#[test]
fn deeply_nested_body_is_a_400_and_the_daemon_stays_up() {
    let server = Running::start(ServerConfig::default());
    // 120 KB of `[`: without the parser's depth cap this recursed once
    // per byte and overflowed the worker's stack, aborting the daemon.
    let hostile = "[".repeat(120 * 1024);
    let answer = post(server.addr, "/v1/experiments/fig7", &hostile);
    assert_eq!(answer.status, 400, "head: {}", answer.head);
    assert!(
        String::from_utf8_lossy(&answer.body).contains("nesting deeper than"),
        "{}",
        String::from_utf8_lossy(&answer.body)
    );
    let health = get(server.addr, "/healthz");
    assert_eq!(health.status, 200);
    assert!(String::from_utf8_lossy(&health.body).contains("\"ok\""));
    server.stop();
}

#[test]
// The probe read only asks "did any byte arrive before the timeout";
// the amount is irrelevant by design.
#[allow(clippy::unused_io_amount)]
fn full_queue_backpressure_answers_503_with_retry_after() {
    let server = Running::start(ServerConfig {
        workers: 1,
        queue_cap: 1,
        debug: true,
        ..ServerConfig::default()
    });
    let addr = server.addr;
    // Occupy the only worker (retrying in case a stray rejection races
    // the first attempt).
    let sleeper = std::thread::spawn(move || {
        for _ in 0..50 {
            let resp = get(addr, "/debug/sleep?ms=1500");
            if resp.status == 200 {
                return resp;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        panic!("sleeper was never admitted");
    });
    // Give the sleeper an uncontended window to be accepted and picked
    // up before any probe competes for the queue slot.
    std::thread::sleep(Duration::from_millis(300));
    let deadline = Instant::now() + Duration::from_secs(5);
    // …wait until it has actually been picked up (the queue is empty
    // again), then fill the one queue slot with a request we leave
    // pending.
    let mut filler = loop {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n")
            .unwrap();
        s.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        let mut probe = [0u8; 1];
        match s.read(&mut probe) {
            Err(_) => break s, // no answer yet: it is parked in the queue
            Ok(_) => {
                // Answered immediately — the sleeper had not started yet.
                assert!(
                    Instant::now() < deadline,
                    "sleeper never occupied the worker"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };
    // The queue is now full: the acceptor must reject inline.
    let rejected = get(addr, "/healthz");
    assert_eq!(rejected.status, 503);
    assert!(
        rejected.head.contains("retry-after: 1"),
        "{}",
        rejected.head
    );

    // Everyone already admitted still gets an answer.
    assert_eq!(sleeper.join().unwrap().status, 200);
    filler
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut rest = Vec::new();
    filler.read_to_end(&mut rest).unwrap();
    assert!(
        rest.starts_with(b"HTTP/1.1 200 "),
        "{}",
        String::from_utf8_lossy(&rest)
    );
    server.stop();
}

#[test]
fn graceful_shutdown_drains_in_flight_work_and_flushes_metrics() {
    let metrics_path = unique_temp_path("drain");
    let _ = std::fs::remove_file(&metrics_path);
    let server = Running::start(ServerConfig {
        workers: 2,
        debug: true,
        metrics_out: Some(metrics_path.clone()),
        ..ServerConfig::default()
    });
    let addr = server.addr;
    // In-flight work on one worker…
    let slow = std::thread::spawn(move || get(addr, "/debug/sleep?ms=700"));
    std::thread::sleep(Duration::from_millis(100));
    // …while the shutdown endpoint triggers the drain.
    let ack = post(addr, "/admin/shutdown", "");
    assert_eq!(ack.status, 200);
    // The in-flight request completes — drained, not dropped.
    assert_eq!(slow.join().unwrap().status, 200);
    server
        .join
        .join()
        .expect("server thread")
        .expect("clean shutdown");

    // The final metrics flush landed and is valid JSON with the service
    // instruments in it.
    let text = std::fs::read_to_string(&metrics_path).expect("metrics flushed on shutdown");
    let doc = tts_units::json::parse(&text).expect("flushed metrics parse");
    let rendered = doc.to_string();
    assert!(rendered.contains("svc.http.requests"), "{rendered}");
    let _ = std::fs::remove_file(&metrics_path);
}

// ---------------------------------------------------------------------
// Persistent connections
// ---------------------------------------------------------------------

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let server = Running::start(ServerConfig::default());
    let mut client = WireClient::connect(server.addr, Duration::from_secs(30)).expect("connect");

    // Several exchanges over the same TCP stream: health, listing, a
    // cold experiment, then its cached replay.
    let health = client.request("GET", "/healthz", b"", false).unwrap();
    assert_eq!(health.status, 200);
    let listing = client
        .request("GET", "/v1/experiments", b"", false)
        .unwrap();
    assert_eq!(listing.status, 200);
    let cold = client
        .request("POST", "/v1/experiments/fig7", b"{}", false)
        .unwrap();
    assert_eq!(cold.status, 200);
    let cached = client
        .request("POST", "/v1/experiments/fig7", b"{}", false)
        .unwrap();
    assert_eq!(cached.status, 200);
    assert_eq!(cold.body, cached.body);
    // One connection accepted for four answers.
    assert_eq!(server.app.cache().len(), 1);

    // The last request asks for close and the server honors it.
    let last = client.request("GET", "/healthz", b"", true).unwrap();
    assert_eq!(last.status, 200);
    assert_eq!(last.header("connection"), Some("close"));
    server.stop();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let server = Running::start(ServerConfig::default());
    let mut client = WireClient::connect(server.addr, Duration::from_secs(30)).expect("connect");
    // Two requests written back-to-back before reading either answer.
    let wire = b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n\
                 GET /v1/experiments HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n";
    client.stream_mut().write_all(wire).unwrap();
    let first = client.read_response().unwrap();
    let second = client.read_response().unwrap();
    assert_eq!(first.status, 200);
    assert!(String::from_utf8_lossy(&first.body).contains("\"ok\""));
    assert_eq!(second.status, 200);
    assert!(String::from_utf8_lossy(&second.body).contains("/v1/experiments/fig7"));
    server.stop();
}

// ---------------------------------------------------------------------
// The async job API
// ---------------------------------------------------------------------

/// Pulls the numeric id out of a job JSON document (`"id": 7`).
fn job_id(body: &[u8]) -> u64 {
    let text = String::from_utf8_lossy(body);
    text.split("\"id\":")
        .nth(1)
        .and_then(|rest| {
            let digits: String = rest
                .trim_start()
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect();
            digits.parse().ok()
        })
        .unwrap_or_else(|| panic!("no id in {text}"))
}

#[test]
fn job_lifecycle_streams_progress_and_matches_sync_bytes() {
    let server = Running::start(ServerConfig {
        budget: 2,
        ..ServerConfig::default()
    });
    // The reference: what the synchronous endpoint (and `repro`) would
    // file for the same scenario.
    let exp = experiment::find("dcsim").expect("dcsim registered");
    let params = experiment::Params {
        servers: Some(128),
        ..Default::default()
    };
    let reference = exp
        .emit_json(&exp.run_with(&ExecCtx::disabled(), &params).unwrap())
        .to_string_pretty()
        .into_bytes();

    let submitted = post(
        server.addr,
        "/v1/jobs",
        "{\"experiment\": \"dcsim\", \"params\": {\"servers\": 128}}",
    );
    assert_eq!(submitted.status, 202, "head: {}", submitted.head);
    let id = job_id(&submitted.body);

    // The event stream replays from the beginning and ends only when
    // the job is terminal: queued → running → progress… → done.
    let mut client = WireClient::connect(server.addr, Duration::from_secs(60)).unwrap();
    let mut events: Vec<String> = Vec::new();
    let streamed = client
        .stream_chunks(&format!("/v1/jobs/{id}/events"), |chunk| {
            for line in String::from_utf8_lossy(chunk).lines() {
                if !line.trim().is_empty() {
                    events.push(line.to_string());
                }
            }
        })
        .expect("event stream");
    assert_eq!(streamed.status, 200);
    assert!(
        events.first().is_some_and(|e| e.contains("\"queued\"")),
        "{events:?}"
    );
    assert!(
        events.iter().any(|e| e.contains("\"running\"")),
        "{events:?}"
    );
    assert!(
        events.iter().filter(|e| e.contains("\"progress\"")).count() >= 2,
        "dcsim flushes every 6 simulated hours over two days: {events:?}"
    );
    assert!(
        events.last().is_some_and(|e| e.contains("\"done\"")),
        "{events:?}"
    );

    // The stored result is byte-identical to the synchronous answer.
    let result = get(server.addr, &format!("/v1/jobs/{id}/result"));
    assert_eq!(result.status, 200);
    assert_eq!(result.body, reference, "job result must match repro bytes");

    // Terminal status document.
    let status = get(server.addr, &format!("/v1/jobs/{id}"));
    assert_eq!(status.status, 200);
    assert!(String::from_utf8_lossy(&status.body).contains("\"done\""));
    server.stop();
}

#[test]
fn job_cancellation_mid_run_is_prompt() {
    let server = Running::start(ServerConfig {
        budget: 2,
        ..ServerConfig::default()
    });
    let submitted = post(
        server.addr,
        "/v1/jobs",
        "{\"experiment\": \"dcsim\", \"params\": {\"servers\": 128, \"seed\": 99}}",
    );
    assert_eq!(submitted.status, 202);
    let id = job_id(&submitted.body);

    // Wait for the run to actually start making progress…
    let addr = server.addr;
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let status = get(addr, &format!("/v1/jobs/{id}"));
        let text = String::from_utf8_lossy(&status.body).to_string();
        if text.contains("\"running\"") {
            break;
        }
        assert!(
            !text.contains("\"done\"") && Instant::now() < deadline,
            "job finished before it could be cancelled: {text}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // …then cancel it mid-flight and watch it stop well before the
    // ~1s the full simulation would take.
    let cancel_at = Instant::now();
    let ack = exchange(
        addr,
        format!("DELETE /v1/jobs/{id} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n").as_bytes(),
    );
    assert_eq!(ack.status, 200, "head: {}", ack.head);
    loop {
        let status = get(addr, &format!("/v1/jobs/{id}"));
        let text = String::from_utf8_lossy(&status.body).to_string();
        if text.contains("\"cancelled\"") {
            break;
        }
        assert!(
            !text.contains("\"done\""),
            "cancellation lost the race to completion: {text}"
        );
        assert!(
            Instant::now() < cancel_at + Duration::from_secs(10),
            "cancellation never landed: {text}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // A cancelled job has no result.
    let result = get(addr, &format!("/v1/jobs/{id}/result"));
    assert_eq!(result.status, 409);
    server.stop();
}

#[test]
fn two_experiments_progress_simultaneously_under_a_split_budget() {
    let server = Running::start(ServerConfig {
        budget: 2,
        ..ServerConfig::default()
    });
    let addr = server.addr;
    // Distinct seeds → distinct scenarios: neither can ride the other's
    // cache entry, so both must actually run. Each pins one thread, so
    // the two leases split the budget instead of queueing behind it.
    let a = job_id(
        &post(
            addr,
            "/v1/jobs",
            "{\"experiment\": \"dcsim\", \"params\": {\"servers\": 128, \"seed\": 1, \"threads\": 1}}",
        )
        .body,
    );
    let b = job_id(
        &post(
            addr,
            "/v1/jobs",
            "{\"experiment\": \"dcsim\", \"params\": {\"servers\": 128, \"seed\": 2, \"threads\": 1}}",
        )
        .body,
    );

    // Both jobs must be observed Running at the same instant: the
    // partitioned scheduler grants each a slice of the budget instead
    // of serialising them behind a global lock.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let sa = String::from_utf8_lossy(&get(addr, &format!("/v1/jobs/{a}")).body).to_string();
        let sb = String::from_utf8_lossy(&get(addr, &format!("/v1/jobs/{b}")).body).to_string();
        if sa.contains("\"running\"") && sb.contains("\"running\"") {
            break;
        }
        assert!(Instant::now() < deadline, "never concurrent: a={sa} b={sb}");
        assert!(
            !(sa.contains("\"done\"") && !sb.contains("\"running\"") && !sb.contains("\"done\"")),
            "job a finished before job b ever ran (serialised): a={sa} b={sb}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Both complete with results.
    for id in [a, b] {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let text =
                String::from_utf8_lossy(&get(addr, &format!("/v1/jobs/{id}")).body).to_string();
            if text.contains("\"done\"") {
                break;
            }
            assert!(Instant::now() < deadline, "job {id} never finished: {text}");
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(get(addr, &format!("/v1/jobs/{id}/result")).status, 200);
    }
    server.stop();
}

// ---------------------------------------------------------------------
// Determinism across budget splits
// ---------------------------------------------------------------------

#[test]
fn responses_are_byte_identical_across_budget_splits_and_thread_pins() {
    // The reference bytes, computed once outside any server.
    let exp = experiment::find("fig7").expect("fig7 registered");
    let reference = exp
        .emit_json(
            &exp.run_with(&ExecCtx::disabled(), &Params::default())
                .unwrap(),
        )
        .to_string_pretty()
        .into_bytes();

    // Two different budget splits of the worker pool; within each, the
    // request pins TTS-level thread counts 1/4/8. Every combination
    // must produce the same bytes — only latency may differ.
    for budget in [1usize, 3] {
        let server = Running::start(ServerConfig {
            budget,
            ..ServerConfig::default()
        });
        for threads in [1usize, 4, 8] {
            let resp = post(
                server.addr,
                "/v1/experiments/fig7",
                &format!("{{\"threads\": {threads}}}"),
            );
            assert_eq!(resp.status, 200, "budget={budget} threads={threads}");
            assert_eq!(
                resp.body, reference,
                "budget={budget} threads={threads} changed the bytes"
            );
        }
        server.stop();
    }
}
