//! The async job store behind `/v1/jobs`.
//!
//! A job is one experiment run detached from the submitting connection:
//! `POST /v1/jobs` answers `202 Accepted` with an id immediately, the run
//! executes on its own thread under a scheduler lease, and the client
//! follows up with `GET /v1/jobs/{id}` (status), `GET /v1/jobs/{id}/result`
//! (the rendered bytes, identical to the synchronous answer),
//! `GET /v1/jobs/{id}/events` (a chunked stream of progress events), or
//! `DELETE /v1/jobs/{id}` (cooperative cancellation through the
//! [`CancelToken`] threaded into the run's `ExecCtx`).
//!
//! Lifecycle: `queued → running → done | failed | cancelled`. Every
//! transition and every periodic-flush progress tick appends an event;
//! event history is retained on the job, so a late `/events` subscriber
//! replays the full stream and any number of subscribers can watch one
//! job. Admission is bounded ([`JobStore::try_admit`] answers `429` when
//! too many jobs are queued or running) and terminal jobs are evicted
//! oldest-first beyond a retention cap, so a long-lived daemon's job
//! table cannot grow without limit.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

use thermal_time_shifting::experiment::CancelToken;
use tts_obs::{Counter, Determinism, Gauge, MetricsSink};
use tts_units::json::Json;

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, waiting for a scheduler lease.
    Queued,
    /// Executing under a lease.
    Running,
    /// Finished; the result bytes are available.
    Done,
    /// The experiment rejected its parameters or panicked.
    Failed,
    /// Cancelled before completion.
    Cancelled,
}

impl JobStatus {
    /// The wire spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
        }
    }

    /// Whether the job has reached a final state.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobStatus::Done | JobStatus::Failed | JobStatus::Cancelled
        )
    }
}

/// Mutable job state behind the entry's lock.
#[derive(Debug)]
struct JobState {
    status: JobStatus,
    /// Progress and transition events, in order.
    events: Vec<Json>,
    /// The rendered result bytes (status `Done` only).
    result: Option<Arc<Vec<u8>>>,
    /// Failure detail (status `Failed` only).
    error: Option<String>,
}

/// One submitted job.
#[derive(Debug)]
pub struct Job {
    /// The store-assigned id.
    pub id: u64,
    /// The experiment name the job runs.
    pub experiment: String,
    cancel: CancelToken,
    state: Mutex<JobState>,
    cv: Condvar,
}

impl Job {
    fn new(id: u64, experiment: &str) -> Self {
        let state = JobState {
            status: JobStatus::Queued,
            events: Vec::new(),
            result: None,
            error: None,
        };
        let job = Self {
            id,
            experiment: experiment.to_string(),
            cancel: CancelToken::new(),
            state: Mutex::new(state),
            cv: Condvar::new(),
        };
        job.push_event(Json::Obj(vec![
            ("event".into(), Json::Str("status".into())),
            ("status".into(), Json::Str("queued".into())),
        ]));
        job
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, JobState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The cancel token threaded into the run's `ExecCtx`.
    #[must_use]
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// The current lifecycle state.
    #[must_use]
    pub fn status(&self) -> JobStatus {
        self.lock().status
    }

    /// The result bytes, once `Done`.
    #[must_use]
    pub fn result(&self) -> Option<Arc<Vec<u8>>> {
        self.lock().result.clone()
    }

    /// Appends an event and wakes `/events` subscribers.
    pub fn push_event(&self, ev: Json) {
        self.lock().events.push(ev);
        self.cv.notify_all();
    }

    /// Appends a progress tick (fired from the run's periodic flush).
    pub fn push_progress(&self, sim_time_s: f64) {
        self.push_event(Json::Obj(vec![
            ("event".into(), Json::Str("progress".into())),
            ("sim_time_s".into(), Json::Num(sim_time_s)),
        ]));
    }

    /// Marks the job `Running` (no-op unless currently `Queued`).
    pub fn mark_running(&self) {
        {
            let mut st = self.lock();
            if st.status != JobStatus::Queued {
                return;
            }
            st.status = JobStatus::Running;
        }
        self.push_event(Json::Obj(vec![
            ("event".into(), Json::Str("status".into())),
            ("status".into(), Json::Str("running".into())),
        ]));
    }

    /// Moves the job to a terminal state (first writer wins), recording
    /// the result or error and emitting the terminal event. The status
    /// and its event change under one lock, so a `next_event` reader
    /// never sees a terminal job whose final event is still missing.
    pub fn finish(&self, status: JobStatus, result: Option<Arc<Vec<u8>>>, error: Option<String>) {
        assert!(status.is_terminal(), "finish takes a terminal status");
        let mut ev = vec![
            ("event".to_string(), Json::Str("status".into())),
            ("status".to_string(), Json::Str(status.as_str().into())),
        ];
        if let Some(msg) = &error {
            ev.push(("error".to_string(), Json::Str(msg.clone())));
        }
        {
            let mut st = self.lock();
            if st.status.is_terminal() {
                return;
            }
            st.status = status;
            st.result = result;
            st.error = error;
            st.events.push(Json::Obj(ev));
        }
        self.cv.notify_all();
    }

    /// Requests cancellation: trips the token (the run unwinds at its
    /// next flush checkpoint) and, if the job never started running,
    /// finishes it as `Cancelled` immediately.
    pub fn request_cancel(&self) {
        self.cancel.cancel();
        let queued = self.lock().status == JobStatus::Queued;
        if queued {
            self.finish(JobStatus::Cancelled, None, None);
        }
    }

    /// The status document for `GET /v1/jobs/{id}`.
    #[must_use]
    pub fn status_json(&self) -> Json {
        let st = self.lock();
        let mut doc = vec![
            ("id".to_string(), Json::Num(self.id as f64)),
            ("experiment".to_string(), Json::Str(self.experiment.clone())),
            (
                "status".to_string(),
                Json::Str(st.status.as_str().to_string()),
            ),
            ("events".to_string(), Json::Num(st.events.len() as f64)),
            ("result_ready".to_string(), Json::Bool(st.result.is_some())),
        ];
        if let Some(err) = &st.error {
            doc.push(("error".to_string(), Json::Str(err.clone())));
        }
        doc.push((
            "links".to_string(),
            Json::Obj(vec![
                (
                    "result".to_string(),
                    Json::Str(format!("/v1/jobs/{}/result", self.id)),
                ),
                (
                    "events".to_string(),
                    Json::Str(format!("/v1/jobs/{}/events", self.id)),
                ),
            ]),
        ));
        Json::Obj(doc)
    }

    /// Blocks until event `idx` exists, returning it — or `None` once the
    /// job is terminal and all events have been consumed (end of stream).
    #[must_use]
    pub fn next_event(&self, idx: usize) -> Option<Json> {
        let mut st = self.lock();
        loop {
            if let Some(ev) = st.events.get(idx) {
                return Some(ev.clone());
            }
            if st.status.is_terminal() {
                return None;
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Bounded table of jobs plus the runner threads executing them.
pub struct JobStore {
    jobs: Mutex<BTreeMap<u64, Arc<Job>>>,
    next_id: AtomicU64,
    /// Cap on jobs that are queued or running.
    max_active: usize,
    /// Terminal jobs retained for result/event fetches.
    retain_terminal: usize,
    runners: Mutex<Vec<JoinHandle<()>>>,
    submitted: Counter,
    rejected: Counter,
    active_gauge: Gauge,
}

impl JobStore {
    /// A store admitting at most `max_active` queued-or-running jobs and
    /// retaining the `retain_terminal` most recent finished ones.
    #[must_use]
    pub fn new(max_active: usize, retain_terminal: usize, sink: &MetricsSink) -> Self {
        Self {
            jobs: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(1),
            max_active: max_active.max(1),
            retain_terminal: retain_terminal.max(1),
            runners: Mutex::new(Vec::new()),
            submitted: sink.counter_tagged("svc.jobs.submitted", Determinism::BestEffort),
            rejected: sink.counter_tagged("svc.jobs.rejected", Determinism::BestEffort),
            active_gauge: sink.gauge_tagged("svc.jobs.active", Determinism::BestEffort),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<u64, Arc<Job>>> {
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits a new job for `experiment`, or `None` when `max_active`
    /// jobs are already queued or running (the router answers `429`).
    /// Evicts the oldest terminal jobs beyond the retention cap.
    #[must_use]
    pub fn try_admit(&self, experiment: &str) -> Option<Arc<Job>> {
        let mut jobs = self.lock();
        let active = jobs.values().filter(|j| !j.status().is_terminal()).count();
        if active >= self.max_active {
            self.rejected.incr();
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let job = Arc::new(Job::new(id, experiment));
        jobs.insert(id, Arc::clone(&job));
        // Oldest-first eviction of terminal jobs beyond retention.
        let terminal: Vec<u64> = jobs
            .iter()
            .filter(|(_, j)| j.status().is_terminal())
            .map(|(&id, _)| id)
            .collect();
        if terminal.len() > self.retain_terminal {
            for id in &terminal[..terminal.len() - self.retain_terminal] {
                jobs.remove(id);
            }
        }
        self.submitted.incr();
        self.active_gauge.set((active + 1) as f64);
        Some(job)
    }

    /// The job with this id, if still retained.
    #[must_use]
    pub fn get(&self, id: u64) -> Option<Arc<Job>> {
        self.lock().get(&id).cloned()
    }

    /// Ids and statuses of every retained job, in id order.
    #[must_use]
    pub fn list_json(&self) -> Json {
        let jobs = self.lock();
        Json::Obj(vec![(
            "jobs".to_string(),
            Json::Arr(jobs.values().map(|j| j.status_json()).collect()),
        )])
    }

    /// Registers a runner thread so shutdown can join it.
    pub fn track_runner(&self, handle: JoinHandle<()>) {
        self.runners
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(handle);
    }

    /// Drains for shutdown: trips every non-terminal job's cancel token,
    /// then joins all runner threads (each observes its token at the next
    /// flush checkpoint and finishes as `Cancelled`).
    pub fn shutdown(&self) {
        for job in self.lock().values() {
            if !job.status().is_terminal() {
                job.request_cancel();
            }
        }
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.runners.lock().unwrap_or_else(PoisonError::into_inner));
        for h in handles {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for JobStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobStore")
            .field("max_active", &self.max_active)
            .field("retain_terminal", &self.retain_terminal)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_events_and_status_doc() {
        let store = JobStore::new(4, 4, &MetricsSink::disabled());
        let job = store.try_admit("dcsim").expect("admitted");
        assert_eq!(job.status(), JobStatus::Queued);
        job.mark_running();
        job.push_progress(21600.0);
        job.finish(JobStatus::Done, Some(Arc::new(b"{}".to_vec())), None);
        // Terminal transitions are write-once.
        job.finish(JobStatus::Failed, None, Some("late".into()));
        assert_eq!(job.status(), JobStatus::Done);
        let events: Vec<Json> = std::iter::successors(Some(0usize), |i| Some(i + 1))
            .map_while(|i| job.next_event(i))
            .collect();
        assert_eq!(events.len(), 4, "queued, running, progress, done");
        let doc = job.status_json().to_string();
        assert!(doc.contains("\"status\":\"done\""), "{doc}");
        assert!(doc.contains("\"result_ready\":true"), "{doc}");
    }

    #[test]
    fn event_stream_always_ends_with_the_terminal_status() {
        use std::sync::Barrier;
        for _ in 0..1000 {
            let job = Arc::new(Job::new(1, "fig7"));
            job.mark_running();
            let start = Arc::new(Barrier::new(2));
            let reader = {
                let (job, start) = (Arc::clone(&job), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    std::iter::successors(Some(0usize), |i| Some(i + 1))
                        .map_while(|i| job.next_event(i))
                        .collect::<Vec<Json>>()
                })
            };
            start.wait();
            job.push_progress(1.0);
            job.finish(JobStatus::Done, None, None);
            let events = reader.join().expect("reader thread panicked");
            let last = events.last().expect("stream is never empty").to_string();
            assert!(
                last.contains("\"status\":\"done\""),
                "stream ended with {last}"
            );
        }
    }

    #[test]
    fn admission_cap_counts_only_active_jobs() {
        let store = JobStore::new(2, 8, &MetricsSink::disabled());
        let a = store.try_admit("fig7").expect("first");
        let _b = store.try_admit("fig7").expect("second");
        assert!(store.try_admit("fig7").is_none(), "cap reached");
        a.finish(JobStatus::Done, None, None);
        assert!(store.try_admit("fig7").is_some(), "slot freed");
    }

    #[test]
    fn terminal_jobs_are_evicted_oldest_first() {
        let store = JobStore::new(8, 2, &MetricsSink::disabled());
        let ids: Vec<u64> = (0..4)
            .map(|_| {
                let j = store.try_admit("fig7").expect("admitted");
                j.finish(JobStatus::Done, None, None);
                j.id
            })
            .collect();
        assert!(store.get(ids[0]).is_none(), "oldest evicted");
        assert!(store.get(ids[3]).is_some(), "newest retained");
    }

    #[test]
    fn cancel_of_a_queued_job_is_immediate() {
        let store = JobStore::new(2, 2, &MetricsSink::disabled());
        let job = store.try_admit("dcsim").expect("admitted");
        job.request_cancel();
        assert_eq!(job.status(), JobStatus::Cancelled);
        assert!(job.cancel_token().is_cancelled());
    }
}
