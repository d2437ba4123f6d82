//! Request routing: the JSON endpoints over the Experiment registry.
//!
//! | endpoint | method | answer |
//! |---|---|---|
//! | `/healthz` | GET | liveness + registry size |
//! | `/metrics` | GET | deterministic snapshot (`?full=1` adds best-effort) |
//! | `/v1/experiments` | GET | the registry: names + supported params |
//! | `/v1/experiments/{name}` | POST | run (or replay) one experiment |
//! | `/v1/jobs` | POST | submit an async run → `202` + job id |
//! | `/v1/jobs` | GET | list retained jobs |
//! | `/v1/jobs/{id}` | GET | job status document |
//! | `/v1/jobs/{id}/result` | GET | result bytes (`409` until done) |
//! | `/v1/jobs/{id}/events` | GET | chunked progress-event stream |
//! | `/v1/jobs/{id}` | DELETE | cooperative cancellation |
//! | `/admin/shutdown` | POST | graceful drain (see `server`) |
//!
//! The experiment routes are where the determinism contract pays off: the
//! response body is exactly `emit_json(&figure).to_string_pretty()` — the
//! same bytes `repro --write` files as `results/{name}.summary.json` — and
//! repeated scenario queries are served from the [`ResultCache`] without
//! re-simulating, byte-identical to the cold run by construction. The
//! async job path shares the same cache and rendering, so a job's result
//! bytes equal the synchronous answer for the same scenario.
//!
//! Execution is **concurrent**: instead of the old global simulation
//! lock, every run takes a [`Scheduler`] lease on a slice of the worker
//! budget and runs under `tts_exec::with_thread_budget`, so independent
//! experiments proceed in parallel while the per-request `threads` knob
//! stays honoured. Results never depend on the split (only latency does)
//! — asserted end-to-end in `tests/serve_e2e.rs`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use thermal_time_shifting::experiment::{self, is_cancel_payload, ExecCtx, Params};
use tts_obs::{Counter, Determinism, Histogram, MetricsSink, LATENCY_MS_EDGES};
use tts_units::json::{parse, Json};

use crate::cache::ResultCache;
use crate::http::{Request, Response};
use crate::jobs::{Job, JobStatus, JobStore};
use crate::sched::Scheduler;
use crate::server::{ServerConfig, ShutdownHandle};

/// Longest `/debug/sleep` the handler will honour.
const MAX_DEBUG_SLEEP_MS: u64 = 10_000;

/// A pull source for a streamed (chunked) response body: each call
/// returns the next chunk, `None` ends the stream. May block waiting for
/// the next chunk (the events stream blocks on the job's condvar).
pub type ChunkPull = Box<dyn FnMut() -> Option<Vec<u8>> + Send>;

/// What the router hands the connection loop: a buffered response, plus
/// an optional chunk stream. With a stream, `response.body` is ignored
/// and the server writes `response` head chunked, then pulls frames.
pub struct Reply {
    /// Status + headers (+ body when not streaming).
    pub response: Response,
    /// The chunk source for a streaming response.
    pub stream: Option<ChunkPull>,
}

impl From<Response> for Reply {
    fn from(response: Response) -> Self {
        Self {
            response,
            stream: None,
        }
    }
}

/// Per-request service telemetry, all [`Determinism::BestEffort`] —
/// request arrival order and wall-clock latency are not reproducible, so
/// none of this can appear in a deterministic snapshot.
struct SvcObs {
    requests: Counter,
    ok_2xx: Counter,
    client_4xx: Counter,
    server_5xx: Counter,
    latency_ms: Histogram,
}

impl SvcObs {
    fn resolve(sink: &MetricsSink) -> Self {
        let c = |name| sink.counter_tagged(name, Determinism::BestEffort);
        Self {
            requests: c("svc.http.requests"),
            ok_2xx: c("svc.http.responses.2xx"),
            client_4xx: c("svc.http.responses.4xx"),
            server_5xx: c("svc.http.responses.5xx"),
            latency_ms: sink.histogram_tagged(
                "svc.http.latency_ms",
                &LATENCY_MS_EDGES,
                Determinism::BestEffort,
            ),
        }
    }
}

/// The shared application state behind every connection: the metrics
/// sink, the result cache, the lease scheduler, the job store, and the
/// shutdown trigger.
pub struct App {
    sink: MetricsSink,
    cache: ResultCache,
    sched: Scheduler,
    jobs: JobStore,
    shutdown: ShutdownHandle,
    debug: bool,
    obs: SvcObs,
}

impl App {
    /// Application state reporting telemetry into `sink`, sized by the
    /// scheduler, job and cache fields of `config`.
    #[must_use]
    pub fn new(sink: MetricsSink, shutdown: ShutdownHandle, config: &ServerConfig) -> Self {
        let budget = if config.budget == 0 {
            tts_exec::thread_count()
        } else {
            config.budget
        };
        Self {
            cache: ResultCache::bounded(config.cache_cap_bytes, config.cache_dir.clone(), &sink),
            sched: Scheduler::new(budget, config.sched_queue, &sink),
            jobs: JobStore::new(config.max_jobs, 64, &sink),
            obs: SvcObs::resolve(&sink),
            sink,
            shutdown,
            debug: config.debug,
        }
    }

    /// The sink this app reports into.
    #[must_use]
    pub fn sink(&self) -> &MetricsSink {
        &self.sink
    }

    /// The result cache (exposed for tests and diagnostics).
    #[must_use]
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// The lease scheduler (exposed for tests and diagnostics).
    #[must_use]
    pub fn scheduler(&self) -> &Scheduler {
        &self.sched
    }

    /// The job store (exposed for tests and the server's drain).
    #[must_use]
    pub fn jobs(&self) -> &JobStore {
        &self.jobs
    }

    /// Whether graceful shutdown has been requested (the connection loop
    /// stops keeping connections alive once it has).
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.is_triggered()
    }

    /// Records one completed request for the service instruments.
    pub fn record_response(&self, status: u16, elapsed: Duration) {
        self.obs.requests.incr();
        match status {
            200..=299 => self.obs.ok_2xx.incr(),
            400..=499 => self.obs.client_4xx.incr(),
            _ => self.obs.server_5xx.incr(),
        }
        self.obs.latency_ms.record(elapsed.as_secs_f64() * 1e3);
    }
}

/// Routes one parsed request to its handler. Takes the shared `Arc`
/// because the job endpoints detach runner threads that outlive the
/// request.
#[must_use]
pub fn handle(app: &Arc<App>, req: &Request) -> Reply {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => healthz().into(),
        ("GET", "/metrics") => metrics(app, req).into(),
        ("GET", "/v1/experiments") => list_experiments().into(),
        ("POST", "/v1/jobs") => submit_job(app, &req.body).into(),
        ("GET", "/v1/jobs") => Response::json(200, &app.jobs.list_json()).into(),
        ("POST", "/admin/shutdown") => shutdown(app).into(),
        ("GET", "/debug/sleep") if app.debug => debug_sleep(req).into(),
        (_, "/healthz" | "/metrics" | "/v1/experiments") => method_not_allowed("GET").into(),
        (_, "/v1/jobs") => method_not_allowed("GET, POST").into(),
        (_, "/admin/shutdown") => method_not_allowed("POST").into(),
        (method, path) => {
            if let Some(rest) = path.strip_prefix("/v1/jobs/") {
                return job_route(app, method, rest);
            }
            match path.strip_prefix("/v1/experiments/") {
                Some(name) if method == "POST" => run_experiment(app, name, &req.body).into(),
                Some(_) => method_not_allowed("POST").into(),
                None => Response::error(404, "no such endpoint").into(),
            }
        }
    }
}

fn healthz() -> Response {
    Response::json(
        200,
        &Json::Obj(vec![
            ("status".to_string(), Json::Str("ok".to_string())),
            (
                "experiments".to_string(),
                Json::Num(experiment::registry().len() as f64),
            ),
        ]),
    )
}

fn metrics(app: &App, req: &Request) -> Response {
    let full = req.query_param("full") == Some("1");
    let doc = if full {
        app.sink.snapshot_full(None, None)
    } else {
        app.sink.snapshot(None, None)
    };
    Response::json(200, &doc.unwrap_or(Json::Null))
}

fn list_experiments() -> Response {
    let list: Vec<Json> = experiment::registry()
        .iter()
        .map(|e| {
            Json::Obj(vec![
                ("name".to_string(), Json::Str(e.name().to_string())),
                (
                    "endpoint".to_string(),
                    Json::Str(format!("/v1/experiments/{}", e.name())),
                ),
                (
                    "params".to_string(),
                    Json::Arr(
                        e.schema()
                            .iter()
                            .map(|p| Json::Str(p.name.to_string()))
                            .collect(),
                    ),
                ),
                // Additive: the full declarative schema (types, ranges,
                // defaults) behind each bare name above.
                (
                    "schema".to_string(),
                    thermal_time_shifting::params::schema_json(e.schema()),
                ),
            ])
        })
        .collect();
    Response::json(
        200,
        &Json::Obj(vec![("experiments".to_string(), Json::Arr(list))]),
    )
}

fn shutdown(app: &App) -> Response {
    app.shutdown.trigger();
    Response::json(
        200,
        &Json::Obj(vec![(
            "status".to_string(),
            Json::Str("shutting down".to_string()),
        )]),
    )
}

fn debug_sleep(req: &Request) -> Response {
    let ms = req
        .query_param("ms")
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(100)
        .min(MAX_DEBUG_SLEEP_MS);
    std::thread::sleep(Duration::from_millis(ms));
    Response::json(
        200,
        &Json::Obj(vec![("slept_ms".to_string(), Json::Num(ms as f64))]),
    )
}

fn method_not_allowed(allow: &str) -> Response {
    Response::error(405, &format!("method not allowed (allow: {allow})")).header("allow", allow)
}

/// A request body validated against the registry: the experiment name,
/// the parsed params, and the cache key for the scenario.
struct Scenario {
    name: String,
    params: Params,
    key: String,
}

/// Parses and validates an experiment invocation. `name` and `params_doc`
/// arrive either from the URL + raw body (synchronous path) or from the
/// job document (async path).
fn validate(name: &str, params_doc: &Json) -> Result<Scenario, Response> {
    let Some(exp) = experiment::find(name) else {
        let known: Vec<String> = experiment::registry()
            .iter()
            .map(|e| e.name().to_string())
            .collect();
        return Err(Response::error(
            404,
            &format!("unknown experiment {name:?} (known: {})", known.join(", ")),
        ));
    };
    // Schema-driven validation: unknown keys, wrong types, and values
    // outside the experiment's declared ranges are all 400s, and the
    // error mentions only the parameters *this* experiment understands.
    let params =
        Params::from_json(params_doc, exp.schema()).map_err(|msg| Response::error(400, &msg))?;
    Ok(Scenario {
        name: name.to_string(),
        params,
        key: ResultCache::key(name, params_doc),
    })
}

/// Parses a raw request body as a JSON object (empty body = `{}`).
fn parse_body(body: &[u8]) -> Result<Json, Response> {
    let text = if body.is_empty() {
        "{}"
    } else {
        std::str::from_utf8(body).map_err(|_| Response::error(400, "request body is not UTF-8"))?
    };
    parse(text).map_err(|e| Response::error(400, &format!("request body is not valid JSON: {e}")))
}

/// Renders the figure for `scenario` under a scheduler lease and caches
/// the bytes. `ctx` carries the cancel token and progress hook (disabled
/// on the synchronous path). Returns the response-ready outcome.
enum RunOutcome {
    Body(Arc<Vec<u8>>),
    Rejected(String),
    Cancelled,
    Panicked,
}

fn run_leased(
    app: &App,
    scenario: &Scenario,
    ctx: &ExecCtx,
    lease: &crate::sched::Lease<'_>,
) -> RunOutcome {
    // Re-check under the lease: the scenario may have raced in while this
    // run waited in the queue — never simulate the same scenario twice.
    if let Some(hit) = app.cache.get(&scenario.key) {
        return RunOutcome::Body(hit);
    }
    let exp = experiment::find(&scenario.name).expect("validated before leasing");
    let outcome =
        lease.run(|| catch_unwind(AssertUnwindSafe(|| exp.run_with(ctx, &scenario.params))));
    match outcome {
        Err(payload) if is_cancel_payload(payload.as_ref()) => RunOutcome::Cancelled,
        Err(_) => RunOutcome::Panicked,
        Ok(Err(msg)) => RunOutcome::Rejected(msg),
        Ok(Ok(fig)) => {
            let body = exp.emit_json(&fig).to_string_pretty().into_bytes();
            RunOutcome::Body(app.cache.insert(scenario.key.clone(), body))
        }
    }
}

/// `POST /v1/experiments/{name}`: parse the body as [`Params`], serve
/// from cache if the canonical scenario was run before, otherwise run the
/// experiment under a scheduler lease and cache the rendered bytes. A
/// full wait queue answers `429` instead of stacking blocked handlers.
fn run_experiment(app: &App, name: &str, body: &[u8]) -> Response {
    let doc = match parse_body(body) {
        Ok(doc) => doc,
        Err(resp) => return resp,
    };
    let scenario = match validate(name, &doc) {
        Ok(s) => s,
        Err(resp) => return resp,
    };
    if let Some(hit) = app.cache.get(&scenario.key) {
        return Response::json_bytes(200, hit.to_vec());
    }
    let want = scenario
        .params
        .threads
        .unwrap_or_else(|| app.sched.budget());
    let Ok(lease) = app.sched.lease(want) else {
        return Response::error(429, "scheduler queue is full, try again or submit a job")
            .header("retry-after", "1");
    };
    match run_leased(app, &scenario, &ExecCtx::disabled(), &lease) {
        RunOutcome::Body(bytes) => Response::json_bytes(200, bytes.to_vec()),
        RunOutcome::Rejected(msg) => Response::error(400, &msg),
        RunOutcome::Cancelled | RunOutcome::Panicked => {
            Response::error(500, "experiment panicked; see server log")
        }
    }
}

/// `POST /v1/jobs`: validate `{"experiment": name, "params": {…}}`,
/// admit a job, and detach a runner thread. Answers `202 Accepted` with
/// the job document immediately.
fn submit_job(app: &Arc<App>, body: &[u8]) -> Response {
    let doc = match parse_body(body) {
        Ok(doc) => doc,
        Err(resp) => return resp,
    };
    let Some(Json::Str(name)) = doc.get("experiment") else {
        return Response::error(400, "job body needs {\"experiment\": \"name\", …}");
    };
    let params_doc = doc.get("params").cloned().unwrap_or(Json::Obj(Vec::new()));
    let scenario = match validate(name, &params_doc) {
        Ok(s) => s,
        Err(resp) => return resp,
    };
    let Some(job) = app.jobs.try_admit(name) else {
        return Response::error(429, "too many active jobs, try again").header("retry-after", "1");
    };
    let runner = spawn_runner(Arc::clone(app), Arc::clone(&job), scenario);
    app.jobs.track_runner(runner);
    Response::json(202, &job.status_json())
}

/// Detaches the thread that executes one job end to end.
fn spawn_runner(app: Arc<App>, job: Arc<Job>, scenario: Scenario) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("job-{}", job.id))
        .spawn(move || {
            // Cache first: a warm scenario needs no lease at all.
            if let Some(hit) = app.cache.get(&scenario.key) {
                job.finish(JobStatus::Done, Some(hit), None);
                return;
            }
            if job.cancel_token().is_cancelled() {
                job.finish(JobStatus::Cancelled, None, None);
                return;
            }
            let want = scenario
                .params
                .threads
                .unwrap_or_else(|| app.sched.budget());
            // Jobs wait for budget unconditionally — their admission
            // bound is the job store's cap, not the scheduler queue.
            let lease = app.sched.lease_queued(want);
            job.mark_running();
            let ctx = ExecCtx::disabled().with_cancel(job.cancel_token());
            let progress_job = Arc::clone(&job);
            ctx.on_progress(move |sim_time| progress_job.push_progress(sim_time.value()));
            match run_leased(&app, &scenario, &ctx, &lease) {
                RunOutcome::Body(bytes) => job.finish(JobStatus::Done, Some(bytes), None),
                RunOutcome::Rejected(msg) => job.finish(JobStatus::Failed, None, Some(msg)),
                RunOutcome::Cancelled => job.finish(JobStatus::Cancelled, None, None),
                RunOutcome::Panicked => job.finish(
                    JobStatus::Failed,
                    None,
                    Some("experiment panicked; see server log".to_string()),
                ),
            }
        })
        .expect("spawning a job runner thread")
}

/// Routes `/v1/jobs/{id}[/…]`.
fn job_route(app: &Arc<App>, method: &str, rest: &str) -> Reply {
    let (id_text, tail) = match rest.split_once('/') {
        Some((id, tail)) => (id, Some(tail)),
        None => (rest, None),
    };
    let Ok(id) = id_text.parse::<u64>() else {
        return Response::error(404, "job ids are decimal integers").into();
    };
    let Some(job) = app.jobs.get(id) else {
        return Response::error(404, &format!("no job {id} (expired or never existed)")).into();
    };
    match (method, tail) {
        ("GET", None) => Response::json(200, &job.status_json()).into(),
        ("DELETE", None) => {
            job.request_cancel();
            Response::json(200, &job.status_json()).into()
        }
        ("GET", Some("result")) => match (job.status(), job.result()) {
            (JobStatus::Done, Some(bytes)) => Response::json_bytes(200, bytes.to_vec()).into(),
            (status, _) => Response::error(
                409,
                &format!("job {id} has no result (status: {})", status.as_str()),
            )
            .into(),
        },
        ("GET", Some("events")) => {
            // One JSON event per chunk, newline-terminated; the stream
            // ends after the terminal status event.
            let mut idx = 0usize;
            let pull: ChunkPull = Box::new(move || {
                let ev = job.next_event(idx)?;
                idx += 1;
                let mut line = ev.to_string().into_bytes();
                line.push(b'\n');
                Some(line)
            });
            Reply {
                response: Response::new(200).header("content-type", "application/x-ndjson"),
                stream: Some(pull),
            }
        }
        (_, None) => method_not_allowed("GET, DELETE").into(),
        (_, Some(_)) => Response::error(404, "no such job endpoint").into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::RequestParser;

    fn app() -> Arc<App> {
        Arc::new(App::new(
            MetricsSink::fresh(),
            ShutdownHandle::new(),
            &ServerConfig::default(),
        ))
    }

    fn request(raw: &[u8]) -> Request {
        RequestParser::new()
            .feed(raw)
            .expect("valid request")
            .expect("complete request")
    }

    fn get(path: &str) -> Request {
        request(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes())
    }

    fn post(path: &str, body: &str) -> Request {
        request(
            format!(
                "POST {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
    }

    fn delete(path: &str) -> Request {
        request(format!("DELETE {path} HTTP/1.1\r\n\r\n").as_bytes())
    }

    /// Routes and returns the buffered response (panics on a stream).
    fn answer(app: &Arc<App>, req: &Request) -> Response {
        let reply = handle(app, req);
        assert!(reply.stream.is_none(), "expected a buffered response");
        reply.response
    }

    #[test]
    fn healthz_and_listing_answer() {
        let app = app();
        let health = answer(&app, &get("/healthz"));
        assert_eq!(health.status, 200);
        assert!(String::from_utf8(health.body).unwrap().contains("\"ok\""));
        let listing = answer(&app, &get("/v1/experiments"));
        assert_eq!(listing.status, 200);
        let text = String::from_utf8(listing.body).unwrap();
        for name in ["fig7", "fig11", "fig12", "dcsim"] {
            assert!(text.contains(name), "listing should mention {name}");
        }
    }

    #[test]
    fn unknown_paths_and_methods_are_rejected() {
        let app = app();
        assert_eq!(answer(&app, &get("/nope")).status, 404);
        assert_eq!(answer(&app, &get("/v1/experiments/fig7")).status, 405);
        assert_eq!(answer(&app, &post("/healthz", "")).status, 405);
        // /debug/sleep is a 404 unless debug mode is on.
        assert_eq!(answer(&app, &get("/debug/sleep?ms=1")).status, 404);
        assert_eq!(
            answer(&app, &post("/v1/experiments/bogus", "{}")).status,
            404
        );
        assert_eq!(answer(&app, &get("/v1/jobs/notanumber")).status, 404);
        assert_eq!(answer(&app, &get("/v1/jobs/7")).status, 404);
    }

    #[test]
    fn bad_experiment_bodies_are_400s() {
        let app = app();
        let cases = [
            "{not json",
            "[1,2,3]",
            r#"{"unknown_knob": 1}"#,
            r#"{"threads": 0}"#,
            r#"{"seed": 3}"#, // fig7 does not take a seed
        ];
        for body in cases {
            let resp = answer(&app, &post("/v1/experiments/fig7", body));
            assert_eq!(resp.status, 400, "body {body:?} should be rejected");
        }
        assert!(app.cache().is_empty(), "rejected requests must not cache");
        // The malformed body's 400 carries the parser's message, not the
        // error's Debug form.
        let resp = answer(&app, &post("/v1/experiments/fig7", "{not json"));
        let doc = parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let Some(Json::Str(message)) = doc.get("error") else {
            panic!("400 body has no error message: {doc:?}");
        };
        let parser_text = parse("{not json").unwrap_err().to_string();
        assert!(message.contains(&parser_text), "{message}");
        assert!(!message.contains("JsonError {"), "{message}");
    }

    #[test]
    fn experiment_runs_are_cached_and_byte_identical() {
        let app = app();
        let cold = answer(&app, &post("/v1/experiments/fig7", "{}"));
        assert_eq!(cold.status, 200);
        assert_eq!(app.cache().len(), 1);
        // Same scenario, different spelling of the body → same entry,
        // same bytes.
        let hot = answer(&app, &post("/v1/experiments/fig7", "  {  }  "));
        assert_eq!(hot.status, 200);
        assert_eq!(app.cache().len(), 1);
        assert_eq!(cold.body, hot.body);
        // And the bytes are exactly the figure's pretty-printed summary.
        let exp = experiment::find("fig7").unwrap();
        let fig = exp
            .run_with(&ExecCtx::disabled(), &Params::default())
            .unwrap();
        assert_eq!(
            String::from_utf8(cold.body).unwrap(),
            exp.emit_json(&fig).to_string_pretty()
        );
    }

    #[test]
    fn threads_param_runs_under_a_lease_not_a_global_override() {
        let app = app();
        let before = tts_exec::thread_budget();
        let resp = answer(&app, &post("/v1/experiments/fig7", r#"{"threads": 2}"#));
        assert_eq!(resp.status, 200);
        assert_eq!(
            tts_exec::thread_budget(),
            before,
            "the caller's lease must not be touched"
        );
        assert_eq!(app.scheduler().leased(), 0, "lease returned");
    }

    #[test]
    fn job_lifecycle_submits_streams_and_serves_the_result() {
        let app = app();
        let sub = answer(
            &app,
            &post("/v1/jobs", r#"{"experiment":"fig7","params":{}}"#),
        );
        assert_eq!(sub.status, 202);
        let text = String::from_utf8(sub.body).unwrap();
        assert!(text.contains("\"id\": 1"), "{text}");
        // The events stream replays from the start and terminates.
        let reply = handle(&app, &get("/v1/jobs/1/events"));
        let mut pull = reply.stream.expect("events stream");
        let mut events = Vec::new();
        while let Some(chunk) = pull() {
            events.push(String::from_utf8(chunk).unwrap());
        }
        assert!(events.first().unwrap().contains("queued"), "{events:?}");
        assert!(events.last().unwrap().contains("done"), "{events:?}");
        // The result equals the synchronous answer for the same scenario.
        let result = answer(&app, &get("/v1/jobs/1/result"));
        assert_eq!(result.status, 200);
        let sync = answer(&app, &post("/v1/experiments/fig7", "{}"));
        assert_eq!(result.body, sync.body, "job result == sync bytes");
        app.jobs().shutdown();
    }

    #[test]
    fn job_result_before_completion_is_a_409_and_bad_submissions_400() {
        let app = app();
        assert_eq!(answer(&app, &post("/v1/jobs", "{}")).status, 400);
        assert_eq!(
            answer(&app, &post("/v1/jobs", r#"{"experiment":"bogus"}"#)).status,
            404
        );
        assert_eq!(
            answer(
                &app,
                &post("/v1/jobs", r#"{"experiment":"fig7","params":{"seed":1}}"#)
            )
            .status,
            400,
            "job params are validated up front"
        );
        // A queued-then-cancelled job never produces a result.
        let sub = answer(
            &app,
            &post("/v1/jobs", r#"{"experiment":"fig7","params":{}}"#),
        );
        assert_eq!(sub.status, 202);
        let cancelled = answer(&app, &delete("/v1/jobs/1"));
        assert_eq!(cancelled.status, 200);
        let result = answer(&app, &get("/v1/jobs/1/result"));
        // The runner may have finished before the cancel landed; both
        // outcomes are legal, but a non-done job must answer 409.
        assert!(
            result.status == 409 || result.status == 200,
            "{}",
            result.status
        );
        app.jobs().shutdown();
    }
}
