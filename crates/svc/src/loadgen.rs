//! The mixed-traffic load generator behind `BENCH_ttsd.json`.
//!
//! Binds a throw-away in-process [`Server`] and drives it
//! with the three traffic classes the daemon serves in production —
//! cached hits over keep-alive connections, cold scenario runs, and
//! async jobs — then reports sustained throughput and latency quantiles
//! ([`tts_obs`] histograms, p50/p99/p999).
//!
//! The headline number is the keep-alive dividend: the same cached
//! scenario served over persistent connections by `clients` concurrent
//! workers, versus one serial client opening a fresh `Connection: close`
//! socket per request. The acceptance bar (enforced by `ci.sh` through
//! [`LoadgenReport::all_green`]) is a ≥ `min_speedup` ratio with zero
//! transport errors and a bounded cached-hit p99.
//!
//! The [`WireClient`] here is the keep-alive successor of the one-shot
//! client in [`crate::storm`]: it parses `Content-Length` *and* chunked
//! responses incrementally off a persistent connection, and is reused by
//! `ttsd req` / `ttsd loadgen`.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tts_obs::{Determinism, MetricsSink, LATENCY_MS_EDGES};
use tts_units::json::Json;

use crate::http::ChunkedDecoder;
use crate::server::{Server, ServerConfig};

/// A parsed wire response.
#[derive(Debug, Clone)]
pub struct WireResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Header fields, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (chunked bodies arrive decoded).
    pub body: Vec<u8>,
    /// Whether the body arrived via the chunked transfer coding.
    pub chunked: bool,
}

impl WireResponse {
    /// The first value of header `name` (give `name` lowercased).
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A keep-alive HTTP/1.1 client for the loopback wire: issues requests
/// over one persistent connection and parses length-delimited or chunked
/// responses. Strictly a test/bench/CLI tool — no redirects, no TLS, no
/// retries.
#[derive(Debug)]
pub struct WireClient {
    stream: TcpStream,
    /// Bytes read past the previous response (keep-alive carryover).
    buf: Vec<u8>,
}

impl WireClient {
    /// Connects with `timeout` applied to connect, reads, and writes.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        // Small request/response exchanges on a persistent connection
        // must not wait out Nagle + delayed ACK.
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            buf: Vec::new(),
        })
    }

    /// Raw access to the underlying stream, for hand-rolled wire tests
    /// (e.g. writing pipelined requests before reading any response).
    pub fn stream_mut(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    /// Sends one request and reads its response. `close` sends
    /// `Connection: close` (the server will hang up afterwards; the
    /// client is then good for exactly this one exchange).
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
        close: bool,
    ) -> io::Result<WireResponse> {
        let wire = request_wire(method, target, body, close);
        self.stream.write_all(&wire)?;
        self.stream.flush()?;
        self.read_response()
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 8 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    /// Reads a response head: the status code and the header fields
    /// (names lowercased). Fails with `InvalidData` once 64 KiB arrive
    /// without the blank line that ends the head.
    fn read_head(&mut self) -> io::Result<(u16, Vec<(String, String)>)> {
        let head_end = loop {
            if let Some(pos) = find_subslice(&self.buf, b"\r\n\r\n") {
                break pos;
            }
            if self.buf.len() > 64 * 1024 {
                return Err(invalid("response head too large"));
            }
            self.fill()?;
        };
        let head: Vec<u8> = self.buf.drain(..head_end + 4).collect();
        let text = std::str::from_utf8(&head[..head_end])
            .map_err(|_| invalid("response head is not UTF-8"))?;
        let mut lines = text.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let status = status_line
            .strip_prefix("HTTP/1.1 ")
            .and_then(|rest| rest.split(' ').next())
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| invalid("bad status line"))?;
        let mut headers = Vec::new();
        for line in lines {
            let (name, value) = line.split_once(':').ok_or_else(|| invalid("bad header"))?;
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
        Ok((status, headers))
    }

    /// Reads one full response off the connection (head, then a
    /// `Content-Length` or chunked body), leaving any extra bytes
    /// buffered for the next call.
    pub fn read_response(&mut self) -> io::Result<WireResponse> {
        let (status, headers) = self.read_head()?;
        let header = |name: &str| {
            headers
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.as_str())
        };
        if header("transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked")) {
            let mut decoder = ChunkedDecoder::new(16 * 1024 * 1024);
            loop {
                let pending: Vec<u8> = std::mem::take(&mut self.buf);
                decoder.feed(&pending).map_err(|e| invalid(&e.message()))?;
                if decoder.is_done() {
                    break;
                }
                self.fill()?;
            }
            self.buf = decoder.leftover().to_vec();
            return Ok(WireResponse {
                status,
                headers,
                body: decoder.into_body(),
                chunked: true,
            });
        }
        let need: usize = header("content-length")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| invalid("response without content-length or chunked coding"))?;
        while self.buf.len() < need {
            self.fill()?;
        }
        let body: Vec<u8> = self.buf.drain(..need).collect();
        Ok(WireResponse {
            status,
            headers,
            body,
            chunked: false,
        })
    }

    /// Reads one chunked event stream incrementally, invoking `on_chunk`
    /// per decoded chunk as it lands (the `/v1/jobs/{id}/events`
    /// consumer). The head must already declare chunked coding.
    pub fn stream_chunks(
        &mut self,
        target: &str,
        mut on_chunk: impl FnMut(&[u8]),
    ) -> io::Result<WireResponse> {
        self.stream
            .write_all(&request_wire("GET", target, &[], false))?;
        self.stream.flush()?;
        self.read_streaming(&mut on_chunk)
    }

    fn read_streaming(&mut self, on_chunk: &mut impl FnMut(&[u8])) -> io::Result<WireResponse> {
        let (status, headers) = self.read_head()?;
        if !headers
            .iter()
            .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"))
        {
            return Err(invalid("expected a chunked stream"));
        }
        let mut decoder = ChunkedDecoder::new(16 * 1024 * 1024);
        let mut seen = 0usize;
        loop {
            let pending: Vec<u8> = std::mem::take(&mut self.buf);
            decoder.feed(&pending).map_err(|e| invalid(&e.message()))?;
            if decoder.body().len() > seen {
                on_chunk(&decoder.body()[seen..]);
                seen = decoder.body().len();
            }
            if decoder.is_done() {
                break;
            }
            self.fill()?;
        }
        self.buf = decoder.leftover().to_vec();
        Ok(WireResponse {
            status,
            headers,
            body: decoder.into_body(),
            chunked: true,
        })
    }
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// The serialized bytes of one request, as [`WireClient::request`] sends
/// them — exposed so callers can concatenate several into a pipelined
/// batch and write them in one syscall.
#[must_use]
pub fn request_wire(method: &str, target: &str, body: &[u8], close: bool) -> Vec<u8> {
    let mut head = format!("{method} {target} HTTP/1.1\r\nhost: loadgen\r\n");
    if close {
        head.push_str("connection: close\r\n");
    }
    if !body.is_empty() {
        head.push_str("content-type: application/json\r\n");
    }
    head.push_str(&format!("content-length: {}\r\n\r\n", body.len()));
    let mut wire = head.into_bytes();
    wire.extend_from_slice(body);
    wire
}

/// Load-generator shape.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Measured duration of each throughput phase.
    pub duration: Duration,
    /// Concurrent keep-alive clients in the cached phase.
    pub clients: usize,
    /// Requests each keep-alive client writes back-to-back before
    /// reading any answer (HTTP/1.1 pipelining). Depth 1 degenerates to
    /// strict request/response alternation.
    pub pipeline_depth: usize,
    /// Distinct cold scenarios run during the mixed phase.
    pub cold_scenarios: usize,
    /// Async jobs submitted during the mixed phase.
    pub jobs: usize,
    /// Worker threads + scheduler budget for the embedded server.
    pub workers: usize,
    /// Acceptance bar: keep-alive ÷ serial-close throughput.
    pub min_speedup: f64,
    /// Acceptance bar: cached-hit p99, milliseconds.
    pub max_cached_p99_ms: f64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            duration: Duration::from_millis(1500),
            clients: 4,
            pipeline_depth: 16,
            cold_scenarios: 3,
            jobs: 3,
            workers: 4,
            min_speedup: 5.0,
            max_cached_p99_ms: 50.0,
        }
    }
}

/// What the load generator measured.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Serial `Connection: close` cached throughput, requests/s.
    pub serial_close_rps: f64,
    /// Concurrent pipelined keep-alive cached throughput, requests/s.
    pub keep_alive_rps: f64,
    /// `keep_alive_rps / serial_close_rps`.
    pub speedup: f64,
    /// Cached-hit latency quantiles over keep-alive, milliseconds. With
    /// pipelining these are amortized: each request in a batch is
    /// charged `batch elapsed ÷ answered`.
    pub cached_p50_ms: f64,
    /// p99 of the same distribution.
    pub cached_p99_ms: f64,
    /// p999 of the same distribution.
    pub cached_p999_ms: f64,
    /// Requests issued across all phases.
    pub total_requests: u64,
    /// Transport or status errors across all phases.
    pub errors: u64,
    /// Cold scenarios completed in the mixed phase.
    pub cold_completed: u64,
    /// Jobs submitted, streamed, and completed in the mixed phase.
    pub jobs_completed: u64,
    /// The bars this run was judged against.
    pub min_speedup: f64,
    /// The p99 bar, milliseconds.
    pub max_cached_p99_ms: f64,
}

impl LoadgenReport {
    /// Did the run clear the acceptance bars: zero errors, the keep-alive
    /// speedup, and the cached p99 bound?
    #[must_use]
    pub fn all_green(&self) -> bool {
        self.errors == 0
            && self.speedup >= self.min_speedup
            && self.cached_p99_ms <= self.max_cached_p99_ms
            && self.cold_completed > 0
            && self.jobs_completed > 0
    }

    /// The full human-readable report.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "serial_close_rps".into(),
                Json::Num(round2(self.serial_close_rps)),
            ),
            (
                "keep_alive_rps".into(),
                Json::Num(round2(self.keep_alive_rps)),
            ),
            ("speedup".into(), Json::Num(round2(self.speedup))),
            (
                "cached_p50_ms".into(),
                Json::Num(round2(self.cached_p50_ms)),
            ),
            (
                "cached_p99_ms".into(),
                Json::Num(round2(self.cached_p99_ms)),
            ),
            (
                "cached_p999_ms".into(),
                Json::Num(round2(self.cached_p999_ms)),
            ),
            (
                "total_requests".into(),
                Json::Num(self.total_requests as f64),
            ),
            ("errors".into(), Json::Num(self.errors as f64)),
            (
                "cold_completed".into(),
                Json::Num(self.cold_completed as f64),
            ),
            (
                "jobs_completed".into(),
                Json::Num(self.jobs_completed as f64),
            ),
        ])
    }

    /// A `repro bench-check` compatible report: per-request mean
    /// nanoseconds for the serial-close and keep-alive cached phases
    /// (lower is better; the keep-alive entry is the protected one).
    #[must_use]
    pub fn bench_json(&self, note: &str) -> Json {
        let entry = |name: &str, rps: f64| {
            Json::Obj(vec![
                ("name".to_string(), Json::Str(name.to_string())),
                ("samples".to_string(), Json::Num(1.0)),
                (
                    "mean_ns".to_string(),
                    Json::Num(if rps > 0.0 {
                        round2(1e9 / rps)
                    } else {
                        f64::MAX
                    }),
                ),
            ])
        };
        Json::Obj(vec![
            ("note".to_string(), Json::Str(note.to_string())),
            (
                "benchmarks".to_string(),
                Json::Arr(vec![
                    entry("ttsd/cached_close_serial", self.serial_close_rps),
                    entry("ttsd/cached_keep_alive", self.keep_alive_rps),
                ]),
            ),
        ])
    }
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

/// The cached scenario all throughput phases replay.
const CACHED_TARGET: &str = "/v1/experiments/fig7";

/// Binds an embedded server, drives the serial baseline, the concurrent
/// keep-alive phase, and the mixed cold/job phase, and reports.
pub fn run_loadgen(cfg: &LoadgenConfig) -> LoadgenReport {
    let server = Server::bind(
        ServerConfig {
            workers: cfg.workers.max(2),
            budget: cfg.workers.max(2),
            queue_cap: 256,
            ..ServerConfig::default()
        },
        MetricsSink::fresh(),
    )
    .expect("bind ephemeral loadgen server");
    let addr = server.local_addr().expect("loadgen server addr");
    let shutdown = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());
    let timeout = Duration::from_secs(20);

    let errors = Arc::new(AtomicU64::new(0));
    let total = Arc::new(AtomicU64::new(0));

    // Warm the cache: every subsequent CACHED_TARGET request is a hit.
    {
        let mut c = WireClient::connect(addr, timeout).expect("warm connect");
        let resp = c
            .request("POST", CACHED_TARGET, b"{}", true)
            .expect("warm request");
        assert_eq!(resp.status, 200, "warm-up must succeed");
        total.fetch_add(1, Ordering::Relaxed);
    }

    // Phase 1 — serial baseline: a fresh connection per request,
    // `Connection: close`, one client.
    let mut serial_count = 0u64;
    let deadline = Instant::now() + cfg.duration;
    let serial_started = Instant::now();
    while Instant::now() < deadline {
        match WireClient::connect(addr, timeout)
            .and_then(|mut c| c.request("POST", CACHED_TARGET, b"{}", true))
        {
            Ok(resp) if resp.status == 200 => serial_count += 1,
            _ => {
                errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        total.fetch_add(1, Ordering::Relaxed);
    }
    let serial_close_rps = serial_count as f64 / serial_started.elapsed().as_secs_f64();

    // Phase 2 — keep-alive: `clients` persistent connections hammer the
    // cached scenario concurrently, each writing `pipeline_depth`
    // requests per batch before reading any answer, while amortized
    // per-request latencies land in a histogram.
    let sink = MetricsSink::fresh();
    let latency = sink.histogram_tagged(
        "loadgen.cached_ms",
        &LATENCY_MS_EDGES,
        Determinism::BestEffort,
    );
    let stop = Arc::new(AtomicBool::new(false));
    let ka_count = Arc::new(AtomicU64::new(0));
    let ka_started = Instant::now();
    let workers: Vec<_> = (0..cfg.clients.max(1))
        .map(|_| {
            let (stop, ka_count, errors, total) = (
                Arc::clone(&stop),
                Arc::clone(&ka_count),
                Arc::clone(&errors),
                Arc::clone(&total),
            );
            let latency = latency.clone();
            let depth = cfg.pipeline_depth.max(1);
            std::thread::spawn(move || {
                let Ok(mut client) = WireClient::connect(addr, timeout) else {
                    errors.fetch_add(1, Ordering::Relaxed);
                    return;
                };
                let batch = request_wire("POST", CACHED_TARGET, b"{}", false).repeat(depth);
                while !stop.load(Ordering::Relaxed) {
                    let t0 = Instant::now();
                    // One write carries the whole batch; the responses
                    // stream back in order. The server may end the
                    // session mid-batch (request limit) — that is
                    // protocol, not an error: count what was answered,
                    // reconnect, move on.
                    let outcome = client.stream_mut().write_all(&batch).and_then(|()| {
                        let mut answered = 0u64;
                        let mut closed = false;
                        for _ in 0..depth {
                            let resp = client.read_response()?;
                            if resp.status != 200 {
                                return Err(invalid("non-200 in cached batch"));
                            }
                            answered += 1;
                            if resp.header("connection") == Some("close") {
                                closed = true;
                                break;
                            }
                        }
                        Ok((answered, closed))
                    });
                    match outcome {
                        Ok((answered, closed)) => {
                            let per_request_ms =
                                t0.elapsed().as_secs_f64() * 1e3 / answered.max(1) as f64;
                            for _ in 0..answered {
                                latency.record(per_request_ms);
                            }
                            ka_count.fetch_add(answered, Ordering::Relaxed);
                            total.fetch_add(answered, Ordering::Relaxed);
                            if closed {
                                // Unanswered requests of the batch were
                                // discarded with the connection.
                                match WireClient::connect(addr, timeout) {
                                    Ok(c) => client = c,
                                    Err(_) => break,
                                }
                            }
                        }
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                            total.fetch_add(1, Ordering::Relaxed);
                            // The connection may be poisoned; reconnect.
                            match WireClient::connect(addr, timeout) {
                                Ok(c) => client = c,
                                Err(_) => break,
                            }
                        }
                    }
                }
            })
        })
        .collect();
    std::thread::sleep(cfg.duration);
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        let _ = w.join();
    }
    let keep_alive_rps =
        ka_count.load(Ordering::Relaxed) as f64 / ka_started.elapsed().as_secs_f64();

    // Phase 3 — mixed: cold scenarios (distinct cache keys) and async
    // jobs with streamed progress, all while they share the scheduler.
    let mut cold_completed = 0u64;
    for i in 0..cfg.cold_scenarios {
        // Distinct `threads` values make distinct canonical keys, so each
        // request genuinely simulates (the figure bytes stay identical —
        // that is the determinism contract).
        let body = format!("{{\"threads\": {}}}", 1 + i % 4);
        match WireClient::connect(addr, timeout)
            .and_then(|mut c| c.request("POST", CACHED_TARGET, body.as_bytes(), true))
        {
            Ok(resp) if resp.status == 200 => cold_completed += 1,
            _ => {
                errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        total.fetch_add(1, Ordering::Relaxed);
    }
    let mut jobs_completed = 0u64;
    for i in 0..cfg.jobs {
        let outcome = (|| -> io::Result<bool> {
            let mut c = WireClient::connect(addr, timeout)?;
            let body = format!(
                "{{\"experiment\":\"fig7\",\"params\":{{\"threads\": {}}}}}",
                1 + i % 4
            );
            let sub = c.request("POST", "/v1/jobs", body.as_bytes(), false)?;
            if sub.status != 202 {
                return Ok(false);
            }
            let text = String::from_utf8_lossy(&sub.body).into_owned();
            let id = text
                .split("\"id\":")
                .nth(1)
                .and_then(|rest| {
                    rest.trim_start()
                        .chars()
                        .take_while(char::is_ascii_digit)
                        .collect::<String>()
                        .parse::<u64>()
                        .ok()
                })
                .ok_or_else(|| invalid("job answer without an id"))?;
            // Stream events until the terminal status, then fetch the
            // result — the whole async lifecycle over one connection.
            let mut saw_terminal = false;
            c.stream_chunks(&format!("/v1/jobs/{id}/events"), |chunk| {
                let text = String::from_utf8_lossy(chunk);
                if text.contains("\"done\"") || text.contains("\"failed\"") {
                    saw_terminal = true;
                }
            })?;
            let result = c.request("GET", &format!("/v1/jobs/{id}/result"), b"", true)?;
            Ok(saw_terminal && result.status == 200)
        })();
        match outcome {
            Ok(true) => jobs_completed += 1,
            _ => {
                errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        total.fetch_add(1, Ordering::Relaxed);
    }

    shutdown.trigger();
    let _ = join.join().expect("loadgen server thread");

    let q = |p: f64| latency.quantile(p).unwrap_or(f64::NAN);
    let serial_floor = serial_close_rps.max(1e-9);
    LoadgenReport {
        serial_close_rps,
        keep_alive_rps,
        speedup: keep_alive_rps / serial_floor,
        cached_p50_ms: q(0.50),
        cached_p99_ms: q(0.99),
        cached_p999_ms: q(0.999),
        total_requests: total.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        cold_completed,
        jobs_completed,
        min_speedup: cfg.min_speedup,
        max_cached_p99_ms: cfg.max_cached_p99_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_mixed_run_is_green() {
        let report = run_loadgen(&LoadgenConfig {
            duration: Duration::from_millis(300),
            clients: 3,
            cold_scenarios: 2,
            jobs: 2,
            // The keep-alive dividend on a loopback loop is far above
            // 5x in release mode but noisy under an instrumented debug
            // test run; the CI gate enforces the real bar.
            min_speedup: 1.0,
            max_cached_p99_ms: 5000.0,
            ..LoadgenConfig::default()
        });
        assert_eq!(report.errors, 0, "{report:?}");
        assert!(
            report.cold_completed == 2 && report.jobs_completed == 2,
            "{report:?}"
        );
        assert!(report.keep_alive_rps > 0.0 && report.serial_close_rps > 0.0);
        assert!(report.all_green(), "{report:?}");
        let bench = report.bench_json("test").to_string();
        assert!(bench.contains("ttsd/cached_keep_alive"), "{bench}");
    }

    #[test]
    fn stream_chunks_caps_an_unterminated_response_head() {
        // A peer that never ends its head must not make the client buffer
        // without limit: a status line, 70 KiB of header bytes, no blank
        // line, and the connection held open.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut request = [0u8; 1024];
            let _ = conn.read(&mut request);
            let mut head = b"HTTP/1.1 200 OK\r\n".to_vec();
            while head.len() < 70 * 1024 {
                head.extend_from_slice(b"x-pad: 0123456789abcdef\r\n");
            }
            let _ = conn.write_all(&head);
            // Wait for the client to hang up.
            let _ = conn.read(&mut request);
        });
        let mut client = WireClient::connect(addr, Duration::from_secs(2)).unwrap();
        let err = client
            .stream_chunks("/v1/jobs/1/events", |_| {})
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        drop(client);
        peer.join().unwrap();
    }
}
