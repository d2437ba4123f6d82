//! The listener/acceptor loop, worker pool, and graceful shutdown.
//!
//! Threading model: one acceptor thread (the caller of [`Server::run`])
//! plus a fixed [`WorkerPool`] of connection handlers behind a bounded
//! queue. The acceptor never parses bytes — it only hands accepted
//! sockets to the pool. When the queue is full the acceptor answers
//! `503 Service Unavailable` with `Retry-After` inline and closes the
//! socket: explicit backpressure instead of an unbounded accept backlog.
//!
//! Connections are **persistent**: a worker serves requests off one
//! socket until the peer asks to close (`Connection: close` or an
//! HTTP/1.0 default), the per-connection request limit is reached, the
//! idle timeout expires between requests, a parse error poisons the
//! stream, or shutdown triggers. Pipelined requests are answered in
//! order. Responses are length-delimited (`Content-Length`) or streamed
//! chunked (the job events endpoint), so the connection stays in sync.
//!
//! Graceful shutdown works without OS signal handling (the hermetic
//! build has no `libc` binding): a [`ShutdownHandle`] sets a flag and
//! pokes the listener with a loopback connect so the blocking `accept`
//! wakes up. Triggers are `POST /admin/shutdown`, stdin EOF (the `ttsd`
//! binary's watcher thread), or any embedder holding the handle. The
//! acceptor then stops accepting, drains every queued and in-flight
//! connection via [`WorkerPool::shutdown`], cancels and joins the async
//! jobs ([`crate::jobs::JobStore::shutdown`]), and flushes a final full
//! metrics snapshot to the configured path.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use tts_exec::WorkerPool;
use tts_obs::MetricsSink;

use crate::http::{chunk_frame, RequestParser, Response};
use crate::router::{self, App, Reply};

/// How the server is wired: address, pool shape, timeouts, debug knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` asks the OS for an ephemeral port.
    pub addr: String,
    /// Connection-handler threads.
    pub workers: usize,
    /// Bounded request-queue capacity (beyond this: `503`).
    pub queue_cap: usize,
    /// Per-connection read timeout while receiving a request (`408`).
    pub read_timeout: Duration,
    /// Per-connection write timeout.
    pub write_timeout: Duration,
    /// Worker-thread budget the run scheduler partitions (0 = auto).
    pub budget: usize,
    /// Bound on synchronous runs waiting for a lease (beyond: `429`).
    pub sched_queue: usize,
    /// Bound on queued-or-running async jobs (beyond: `429`).
    pub max_jobs: usize,
    /// Result-cache byte cap (0 = unbounded).
    pub cache_cap_bytes: usize,
    /// Result-cache persistence directory (`None` = memory only).
    pub cache_dir: Option<PathBuf>,
    /// Enables `/debug/sleep` (test instrumentation).
    pub debug: bool,
    /// Where the final full metrics snapshot lands on shutdown.
    pub metrics_out: Option<PathBuf>,
}

/// How long a keep-alive connection may sit idle *between* requests
/// before the server closes it silently.
const IDLE_TIMEOUT: Duration = Duration::from_secs(5);

/// Requests served per connection before the server closes it (a
/// fairness bound: one chatty peer cannot pin a worker forever).
const MAX_REQUESTS_PER_CONN: usize = 1024;

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_cap: 64,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            budget: 0,
            sched_queue: 16,
            max_jobs: 8,
            cache_cap_bytes: 64 * 1024 * 1024,
            cache_dir: None,
            debug: false,
            metrics_out: None,
        }
    }
}

/// A cloneable trigger for graceful shutdown. Setting it flips a flag
/// and pokes the listener (a loopback connect) so the blocked `accept`
/// observes the flag; the poke connection itself is discarded.
#[derive(Debug, Clone, Default)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    addr: Arc<Mutex<Option<SocketAddr>>>,
}

impl ShutdownHandle {
    /// A fresh, untriggered handle.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Points the handle at the listener it must wake on trigger.
    pub fn attach(&self, addr: SocketAddr) {
        *self.addr.lock().unwrap_or_else(PoisonError::into_inner) = Some(addr);
    }

    /// Whether shutdown has been requested.
    #[must_use]
    pub fn is_triggered(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Requests shutdown (idempotent).
    pub fn trigger(&self) {
        self.flag.store(true, Ordering::SeqCst);
        let addr = *self.addr.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(addr) = addr {
            // Wake the acceptor; failure just means it is not blocked.
            let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(250));
        }
    }
}

/// A bound (but not yet running) service.
pub struct Server {
    listener: TcpListener,
    app: Arc<App>,
    config: ServerConfig,
    shutdown: ShutdownHandle,
}

impl Server {
    /// Binds the listener and builds the shared [`App`] state. The
    /// server is not serving until [`Self::run`] is called.
    pub fn bind(config: ServerConfig, sink: MetricsSink) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let shutdown = ShutdownHandle::new();
        shutdown.attach(listener.local_addr()?);
        let app = Arc::new(App::new(sink, shutdown.clone(), &config));
        Ok(Self {
            listener,
            app,
            config,
            shutdown,
        })
    }

    /// The bound address (resolves the ephemeral port from `addr: …:0`).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A trigger for stopping this server from another thread.
    #[must_use]
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.shutdown.clone()
    }

    /// The shared application state (exposed for in-process tests).
    #[must_use]
    pub fn app(&self) -> Arc<App> {
        Arc::clone(&self.app)
    }

    /// Serves until the shutdown handle triggers, then drains: queued and
    /// in-flight connections finish, async jobs are cancelled and joined,
    /// and the final full metrics snapshot is written to `metrics_out`
    /// (if configured).
    pub fn run(self) -> std::io::Result<()> {
        let app = Arc::clone(&self.app);
        let (read_timeout, write_timeout) = (self.config.read_timeout, self.config.write_timeout);
        let pool = WorkerPool::new(
            "svc",
            self.config.workers,
            self.config.queue_cap,
            self.app.sink(),
            move |stream: TcpStream| handle_connection(&app, stream, read_timeout, write_timeout),
        );
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(conn) => conn,
                Err(_) if self.shutdown.is_triggered() => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if self.shutdown.is_triggered() {
                // `stream` is usually the trigger's wake-up poke; either
                // way, new work is no longer accepted.
                break;
            }
            if let Err(mut rejected) = pool.try_submit(stream) {
                let _ = rejected.set_write_timeout(Some(self.config.write_timeout));
                let _ = Response::error(503, "request queue is full, try again")
                    .header("retry-after", "1")
                    .write_to(&mut rejected, false);
                let _ = rejected.shutdown(Shutdown::Both);
            }
        }
        // Drain: every accepted connection is answered before the pool
        // threads join, then in-flight jobs are cancelled and joined.
        pool.shutdown();
        self.app.jobs().shutdown();
        if let Some(path) = &self.config.metrics_out {
            if let Some(snap) = self.app.sink().snapshot_full(None, None) {
                if let Some(dir) = path.parent() {
                    let _ = std::fs::create_dir_all(dir);
                }
                std::fs::write(path, snap.to_string_pretty())?;
            }
        }
        Ok(())
    }
}

/// What one iteration of the connection loop produced.
enum ReadOutcome {
    /// A complete request is ready.
    Request(Box<crate::http::Request>),
    /// The parser rejected the stream.
    Bad(crate::http::HttpError),
    /// The peer closed.
    Eof,
    /// The read timed out.
    TimedOut,
}

/// Reads until the parser yields a request, the peer closes, or the read
/// times out. Pipelined bytes already buffered are consumed first.
fn read_request(stream: &mut TcpStream, parser: &mut RequestParser, buf: &mut [u8]) -> ReadOutcome {
    // A prior read may have buffered the next pipelined request whole.
    match parser.feed(&[]) {
        Ok(Some(req)) => return ReadOutcome::Request(Box::new(req)),
        Ok(None) => {}
        Err(e) => return ReadOutcome::Bad(e),
    }
    loop {
        match stream.read(buf) {
            Ok(0) => return ReadOutcome::Eof,
            Ok(n) => match parser.feed(&buf[..n]) {
                Ok(Some(req)) => return ReadOutcome::Request(Box::new(req)),
                Ok(None) => continue,
                Err(e) => return ReadOutcome::Bad(e),
            },
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return ReadOutcome::TimedOut
            }
            Err(_) => return ReadOutcome::Eof,
        }
    }
}

/// Serves one persistent connection: requests are read incrementally
/// (pipelining included), routed, and answered until the keep-alive
/// negotiation, the request limit, the idle timeout, or an error ends
/// the session.
fn handle_connection(
    app: &Arc<App>,
    mut stream: TcpStream,
    read_timeout: Duration,
    write_timeout: Duration,
) {
    let _ = stream.set_read_timeout(Some(read_timeout));
    let _ = stream.set_write_timeout(Some(write_timeout));
    // Persistent connections exchange small segments; without nodelay
    // each response can stall on Nagle + the peer's delayed ACK.
    let _ = stream.set_nodelay(true);
    let mut parser = RequestParser::new();
    let mut buf = [0u8; 8 * 1024];
    let mut served = 0usize;
    loop {
        let started = Instant::now();
        let (reply, keep): (Reply, bool) = match read_request(&mut stream, &mut parser, &mut buf) {
            ReadOutcome::Request(req) => {
                let keep = req.wants_keep_alive()
                    && served + 1 < MAX_REQUESTS_PER_CONN
                    && !app.shutdown_requested();
                (router::handle(app, &req), keep)
            }
            ReadOutcome::Bad(e) => (Response::error(e.status(), &e.message()).into(), false),
            ReadOutcome::Eof => {
                if parser.mid_request() {
                    (Response::error(400, "truncated request").into(), false)
                } else {
                    // Clean close between requests (or a port probe /
                    // shutdown poke on a virgin connection).
                    break;
                }
            }
            ReadOutcome::TimedOut => {
                if parser.mid_request() || served == 0 {
                    // Mid-request (or never sent anything): the peer is
                    // stalling — answer 408.
                    (
                        Response::error(408, "timed out waiting for the request").into(),
                        false,
                    )
                } else {
                    // Idle between requests: close silently.
                    break;
                }
            }
        };
        let status = reply.response.status;
        let write_ok = write_reply(&mut stream, reply, keep);
        app.record_response(status, started.elapsed());
        served += 1;
        if !keep || !write_ok {
            break;
        }
        // Between requests the clock is the idle timeout.
        let _ = stream.set_read_timeout(Some(IDLE_TIMEOUT));
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Writes a reply — buffered with `Content-Length`, or chunked when the
/// router attached a stream. Returns whether the connection is still
/// usable.
fn write_reply(stream: &mut TcpStream, reply: Reply, keep_alive: bool) -> bool {
    match reply.stream {
        None => reply.response.write_to(stream, keep_alive).is_ok(),
        Some(mut pull) => {
            if reply
                .response
                .write_chunked_head(stream, keep_alive)
                .is_err()
            {
                return false;
            }
            while let Some(chunk) = pull() {
                if chunk.is_empty() {
                    continue; // an empty chunk would terminate the coding
                }
                if stream.write_all(&chunk_frame(&chunk)).is_err() || stream.flush().is_err() {
                    return false;
                }
            }
            stream.write_all(&chunk_frame(&[])).is_ok() && stream.flush().is_ok()
        }
    }
}
