//! Connection-level chaos: drive a real [`Server`] with
//! misbehaving clients and check that it *always* answers (or times the
//! client out) with a mapped status — never hangs, never emits garbage.
//!
//! Four client breeds, matching the `tts_chaos` fault taxonomy:
//!
//! * **Slow loris** ([`Fault::SlowLoris`]) — dribbles request-header
//!   bytes with long gaps and then stalls; the server's read timeout
//!   must fire and answer `408`.
//! * **Mid-body disconnect** ([`Fault::MidBodyDisconnect`]) — sends a
//!   `Content-Length` it never honours and half-closes mid-body; the
//!   server must answer `400 truncated request`.
//! * **Queue storm** ([`Fault::QueueStorm`]) — a thundering herd of
//!   well-formed requests against a tiny worker pool; every client gets
//!   `200` or an explicit `503` backpressure answer, never a silent
//!   drop.
//! * **Nested body** ([`Fault::NestedBody`]) — POSTs an experiment a
//!   body of thousands of nested `[`, past the JSON parser's nesting
//!   cap; the answer must be `400` (retried while the queue answers
//!   `503`), not a worker stack overflow that takes the process down.
//!
//! After every storm the server must still answer `GET /healthz`.
//!
//! Wall-clock outcomes (who got `200` vs `503`) are scheduling-
//! dependent, so [`StormReport::deterministic_json`] exposes only the
//! fields that are pure functions of the plan — client counts per kind
//! and the violation list (empty on a green run) — keeping `repro
//! chaos` summaries byte-identical at any `TTS_THREADS`.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use tts_chaos::{Checker, Fault, Violation};
use tts_obs::MetricsSink;
use tts_units::json::{Json, ToJson};

use crate::server::{Server, ServerConfig};

/// Statuses the service may legitimately answer under connection chaos.
pub const ALLOWED_STATUSES: [u16; 9] = [200, 400, 404, 405, 408, 413, 431, 500, 503];

/// Worker threads for the embedded server. The server is deliberately
/// small, here and in [`QUEUE_CAP`], so backpressure paths actually
/// trigger.
const WORKERS: usize = 2;

/// Bounded queue capacity (beyond this: `503`).
const QUEUE_CAP: usize = 4;

/// Server-side read timeout (what the slow loris trips).
const READ_TIMEOUT: Duration = Duration::from_millis(300);

/// Client-side give-up timeout.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// What one misbehaving client observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientOutcome {
    /// A well-formed `HTTP/1.1` response with this status.
    Answered(u16),
    /// The connection closed with zero response bytes.
    Closed,
    /// The client's own read timeout elapsed first.
    TimedOut,
}

/// Aggregate result of one storm run.
#[derive(Debug, Clone)]
pub struct StormReport {
    /// Clients driven, by fault kind (taxonomy order, plan-determined).
    pub clients_by_kind: Vec<(String, u64)>,
    /// Clients that got a well-formed response.
    pub answered: u64,
    /// Clients whose connection closed without response bytes.
    pub closed: u64,
    /// Clients that hit their own timeout.
    pub timed_out: u64,
    /// Invariant checks performed.
    pub checks: u64,
    /// Invariant violations (empty on a green run).
    pub violations: Vec<Violation>,
}

impl StormReport {
    /// Did the service hold its contract for every client?
    pub fn all_green(&self) -> bool {
        self.violations.is_empty()
    }

    /// Only the plan-determined fields — byte-identical across thread
    /// counts and scheduling, safe to `cmp` in CI.
    pub fn deterministic_json(&self) -> Json {
        Json::Obj(vec![
            (
                "clients_by_kind".to_string(),
                Json::Obj(
                    self.clients_by_kind
                        .iter()
                        .map(|(k, c)| (k.clone(), Json::Num(*c as f64)))
                        .collect(),
                ),
            ),
            ("violations".to_string(), self.violations.to_json()),
        ])
    }
}

/// The built-in storm: one fault of each connection-level kind, sized
/// to finish in a couple of seconds while still exercising timeout,
/// truncation, backpressure, and parser-depth paths.
pub fn default_storm() -> Vec<Fault> {
    vec![
        Fault::SlowLoris {
            clients: 2,
            byte_gap_ms: 40,
        },
        Fault::MidBodyDisconnect {
            clients: 2,
            body_frac: 0.5,
        },
        Fault::QueueStorm { clients: 12 },
        Fault::NestedBody { clients: 2 },
    ]
}

/// Binds a throw-away server, drives every connection-level fault in
/// `faults` against it concurrently, and checks the always-answers
/// contract. Non-connection faults are ignored.
pub fn run_storm(faults: &[Fault]) -> StormReport {
    let server = Server::bind(
        ServerConfig {
            workers: WORKERS,
            queue_cap: QUEUE_CAP,
            read_timeout: READ_TIMEOUT,
            write_timeout: Duration::from_secs(2),
            ..ServerConfig::default()
        },
        MetricsSink::fresh(),
    )
    .expect("bind ephemeral storm server");
    let addr = server.local_addr().expect("storm server addr");
    let shutdown = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());

    let mut clients_by_kind: Vec<(String, u64)> = Vec::new();
    let mut handles = Vec::new();
    for fault in faults {
        let (kind, n) = match *fault {
            Fault::SlowLoris { clients, .. } => ("slow_loris", clients),
            Fault::MidBodyDisconnect { clients, .. } => ("mid_body_disconnect", clients),
            Fault::QueueStorm { clients } => ("queue_storm", clients),
            Fault::NestedBody { clients } => ("nested_body", clients),
            _ => continue,
        };
        match clients_by_kind.iter_mut().find(|(k, _)| k == kind) {
            Some((_, c)) => *c += n as u64,
            None => clients_by_kind.push((kind.to_string(), n as u64)),
        }
        for _ in 0..n {
            let fault = *fault;
            handles.push(std::thread::spawn(move || {
                (fault, drive(addr, &fault, CLIENT_TIMEOUT))
            }));
        }
    }
    let outcomes: Vec<(Fault, ClientOutcome)> = handles
        .into_iter()
        .map(|h| h.join().expect("storm client thread"))
        .collect();
    // Every client is done, so the queue is empty: a healthy server
    // answers a one-client queue storm (one `GET /healthz`) at once.
    let health = drive(addr, &Fault::QueueStorm { clients: 1 }, CLIENT_TIMEOUT);

    shutdown.trigger();
    join.join()
        .expect("storm server thread")
        .expect("storm server shutdown");

    let mut checker = Checker::new();
    let (mut answered, mut closed, mut timed_out) = (0u64, 0u64, 0u64);
    for (i, (fault, outcome)) in outcomes.iter().enumerate() {
        if let Fault::NestedBody { .. } = fault {
            checker.check(
                "svc.nested_body_rejected",
                *outcome == ClientOutcome::Answered(400),
                || format!("client {i}: nested body got {outcome:?}, want a 400"),
            );
        }
        match *outcome {
            ClientOutcome::Answered(status) => {
                answered += 1;
                checker.check(
                    "svc.mapped_status",
                    ALLOWED_STATUSES.contains(&status),
                    || format!("client {i} got unmapped status {status}"),
                );
            }
            ClientOutcome::Closed => {
                closed += 1;
                checker.check("svc.always_answers", false, || {
                    format!("client {i}: connection closed without a response")
                });
            }
            ClientOutcome::TimedOut => {
                // Acceptable per the contract ("answers or times out"),
                // but still counted.
                timed_out += 1;
                checker.check("svc.always_answers", true, String::new);
            }
        }
    }
    checker.check(
        "svc.survives_storm",
        health == ClientOutcome::Answered(200),
        || format!("GET /healthz after the storm: {health:?}"),
    );
    let (checks, violations) = checker.into_parts();
    StormReport {
        clients_by_kind,
        answered,
        closed,
        timed_out,
        checks,
        violations,
    }
}

/// Runs one misbehaving client to completion.
fn drive(addr: SocketAddr, fault: &Fault, timeout: Duration) -> ClientOutcome {
    if let Fault::NestedBody { .. } = *fault {
        return nested_body(addr, timeout);
    }
    let Some(mut stream) = connect(addr, timeout) else {
        return ClientOutcome::Closed;
    };
    match *fault {
        Fault::SlowLoris { byte_gap_ms, .. } => {
            // Dribble a header prefix, then stall: the server's read
            // timeout must fire. Write errors just mean the server
            // already gave up on us — fall through and read its answer.
            let prefix = b"GET /healthz HTTP/1.1\r\nhost: storm";
            let gap = Duration::from_millis(byte_gap_ms.min(60));
            for chunk in prefix.chunks(4) {
                if stream.write_all(chunk).is_err() {
                    break;
                }
                std::thread::sleep(gap);
            }
        }
        Fault::MidBodyDisconnect { body_frac, .. } => {
            let body_len = 100usize;
            let head = format!(
                "POST /v1/experiments/fig7 HTTP/1.1\r\nhost: storm\r\n\
                 content-type: application/json\r\ncontent-length: {body_len}\r\n\r\n"
            );
            let sent = ((body_len as f64) * body_frac.clamp(0.0, 0.95)) as usize;
            let _ = stream.write_all(head.as_bytes());
            let _ = stream.write_all(&vec![b'{'; sent]);
            let _ = stream.shutdown(Shutdown::Write);
        }
        Fault::QueueStorm { .. } => {
            let _ = stream
                .write_all(b"GET /healthz HTTP/1.1\r\nhost: storm\r\nconnection: close\r\n\r\n");
        }
        _ => return ClientOutcome::Closed,
    }
    read_outcome(&mut stream)
}

/// Opening brackets in a nested-body client's request: the 120 KB body
/// that once overflowed a worker's stack.
const NESTED_BODY_DEPTH: usize = 120 * 1024;

/// POSTs [`NESTED_BODY_DEPTH`] nested `[` to an experiment, retrying (on
/// a fresh connection) while the bounded queue answers `503`: the
/// storm's queue clients may fill it, and the contract under test is the
/// parser's answer, not admission.
fn nested_body(addr: SocketAddr, timeout: Duration) -> ClientOutcome {
    let body = "[".repeat(NESTED_BODY_DEPTH);
    let request = format!(
        "POST /v1/experiments/fig7 HTTP/1.1\r\nhost: storm\r\n\
         content-type: application/json\r\ncontent-length: {}\r\n\
         connection: close\r\n\r\n{body}",
        body.len()
    );
    let mut outcome = ClientOutcome::Closed;
    for _ in 0..50 {
        let Some(mut stream) = connect(addr, timeout) else {
            return ClientOutcome::Closed;
        };
        let _ = stream.write_all(request.as_bytes());
        outcome = read_outcome(&mut stream);
        if outcome != ClientOutcome::Answered(503) {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    outcome
}

/// A client connection with `timeout` on reads and writes.
fn connect(addr: SocketAddr, timeout: Duration) -> Option<TcpStream> {
    let stream = TcpStream::connect(addr).ok()?;
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    Some(stream)
}

/// Classifies whatever the server sent back.
fn read_outcome(stream: &mut TcpStream) -> ClientOutcome {
    let mut bytes = Vec::new();
    match stream.read_to_end(&mut bytes) {
        Ok(_) => {}
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut =>
        {
            if bytes.is_empty() {
                return ClientOutcome::TimedOut;
            }
        }
        Err(_) if bytes.is_empty() => return ClientOutcome::Closed,
        Err(_) => {}
    }
    if bytes.is_empty() {
        return ClientOutcome::Closed;
    }
    let head = String::from_utf8_lossy(&bytes);
    let status = head
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.split(' ').next())
        .and_then(|s| s.parse::<u16>().ok());
    match status {
        Some(code) => ClientOutcome::Answered(code),
        None => ClientOutcome::Closed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_storm_is_always_answered() {
        let report = run_storm(&default_storm());
        assert!(report.all_green(), "violations: {:?}", report.violations);
        assert_eq!(report.answered + report.closed + report.timed_out, 18);
        assert_eq!(
            report.clients_by_kind,
            vec![
                ("slow_loris".to_string(), 2),
                ("mid_body_disconnect".to_string(), 2),
                ("queue_storm".to_string(), 12),
                ("nested_body".to_string(), 2),
            ]
        );
        // One status check per client, one 400 check per nested-body
        // client, and the post-storm health check.
        assert_eq!(report.checks, 18 + 2 + 1);
    }

    #[test]
    fn deterministic_json_carries_no_timing() {
        let a = run_storm(&default_storm());
        let b = run_storm(&default_storm());
        assert_eq!(
            a.deterministic_json().to_string_pretty(),
            b.deterministic_json().to_string_pretty()
        );
    }

    #[test]
    fn sampled_connection_faults_drive_the_storm() {
        use tts_chaos::{FaultPlan, PlanConfig};
        // Find a seed whose plan carries at least one connection fault.
        let cfg = PlanConfig {
            max_faults: 12,
            ..PlanConfig::default()
        };
        let plan = (0..64)
            .map(|seed| FaultPlan::sample(seed, &cfg))
            .find(|p| !p.connection_faults().is_empty())
            .expect("some seed samples a connection fault");
        let report = run_storm(&plan.connection_faults());
        assert!(report.all_green(), "violations: {:?}", report.violations);
    }
}
