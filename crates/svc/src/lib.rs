//! `tts-svc` — a zero-dependency HTTP/1.1 simulation service.
//!
//! Serves the Experiment registry (`thermal_time_shifting::experiment`)
//! over a hand-rolled, strictly-bounded HTTP stack built on `std` only:
//! no async runtime, no TLS, no framework — the hermetic-workspace policy
//! applied to serving. The `ttsd` binary wraps [`server::Server`] with
//! flags and a tiny wire client (`ttsd req …`) so CI can smoke-test the
//! daemon without `curl`.
//!
//! Module map:
//!
//! * [`http`] — incremental request parser with hard caps, persistent
//!   connections, response writer (`Content-Length` or chunked).
//! * [`router`] — the JSON endpoints over the Experiment registry,
//!   including the async job API.
//! * [`cache`] — canonical-scenario result cache (hot == cold, bytewise)
//!   with an LRU byte cap and optional disk persistence.
//! * [`sched`] — the partitioned thread-budget scheduler: concurrent
//!   runs under leased slices of the worker budget.
//! * [`jobs`] — the async job store: submission, progress events,
//!   cooperative cancellation.
//! * [`server`] — acceptor + bounded worker pool + keep-alive connection
//!   loop + graceful shutdown.
//! * [`storm`] — the adversarial connection storm (robustness gate).
//! * [`loadgen`] — the mixed-traffic load generator behind
//!   `BENCH_ttsd.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod http;
pub mod jobs;
pub mod loadgen;
pub mod router;
pub mod sched;
pub mod server;
pub mod storm;

pub use cache::ResultCache;
pub use http::{chunk_frame, ChunkedDecoder, Request, RequestParser, Response};
pub use jobs::{Job, JobStatus, JobStore};
pub use loadgen::{run_loadgen, LoadgenConfig, LoadgenReport};
pub use router::{App, Reply};
pub use sched::{Lease, Scheduler, SchedulerFull};
pub use server::{Server, ServerConfig, ShutdownHandle};
pub use storm::{default_storm, run_storm, ClientOutcome, StormReport};
