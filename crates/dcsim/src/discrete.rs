//! The discrete job-level cluster simulator.
//!
//! Models exactly what the paper attributes to DCSim: "job arrival, load
//! balancing, and work completion ... at the server, rack, and cluster
//! levels". Each server runs up to `cores` jobs concurrently; excess jobs
//! wait in a per-server FIFO. A pluggable [`Balancer`] routes arrivals.
//!
//! # Engine layout (fleet-scale rebuild)
//!
//! Server state lives in struct-of-arrays form (`ServerArrays`): core
//! occupancy, kill epoch, and the QoS accumulators (busy time, completion
//! counts) are parallel flat arrays, so the hot dispatch/completion loop
//! walks cache-linear memory, and the balancer's occupancy view is
//! maintained incrementally instead of rebuilt O(n) per arrival. The
//! event queue is the bucketed [`CalendarQueue`] (O(1) amortized) rather
//! than a binary heap. Both changes preserve the exact event order and
//! float-operation order of the original engine — the old heap engine is
//! frozen in the dev-only `tts-dcsim-oracle` crate and
//! `tests/engine_equivalence.rs` proves the two byte-identical. For
//! epoch-sharded fleet scale (1M+ servers) see [`crate::fleet`].

use crate::balancer::Balancer;
use crate::calendar::CalendarQueue;
use std::collections::VecDeque;
use tts_obs::{Counter, Gauge, MetricsSink};
use tts_units::Seconds;
use tts_workload::{Job, JobType};

/// Builder for [`DiscreteClusterSim`], replacing the positional
/// four-argument constructor. Defaults: one core per server, one rack
/// spanning the whole cluster, no utilization recording, telemetry off.
///
/// ```
/// use tts_dcsim::balancer::RoundRobin;
/// use tts_dcsim::discrete::ClusterConfig;
///
/// let sim = ClusterConfig::new(8)
///     .cores_per_server(4)
///     .rack_size(4)
///     .build(RoundRobin::new());
/// # let _ = sim;
/// ```
#[derive(Debug, Clone)]
#[must_use = "a cluster config does nothing until .build(balancer)"]
pub struct ClusterConfig {
    servers: usize,
    cores_per_server: usize,
    rack_size: Option<usize>,
    record_utilization: Option<Seconds>,
    metrics: MetricsSink,
}

impl ClusterConfig {
    /// A config for a cluster of `servers` machines (validated at
    /// [`Self::build`]).
    pub fn new(servers: usize) -> Self {
        Self {
            servers,
            cores_per_server: 1,
            rack_size: None,
            record_utilization: None,
            metrics: MetricsSink::disabled(),
        }
    }

    /// Concurrent job slots per server (default 1).
    pub fn cores_per_server(mut self, cores: usize) -> Self {
        self.cores_per_server = cores;
        self
    }

    /// Servers per rack (default: one rack spanning the whole cluster).
    pub fn rack_size(mut self, servers: usize) -> Self {
        self.rack_size = Some(servers);
        self
    }

    /// Records the cluster-utilization trace with the given bucket width
    /// (see [`DiscreteClusterSim::utilization_trace`]).
    pub fn record_utilization(mut self, interval: Seconds) -> Self {
        self.record_utilization = Some(interval);
        self
    }

    /// Routes event-loop telemetry (events, arrivals, completions, queue
    /// depth gauges) to `sink`. The event loop is serial, so everything
    /// registers deterministic.
    pub fn metrics(mut self, sink: &MetricsSink) -> Self {
        self.metrics = sink.clone();
        self
    }

    /// Builds the simulator.
    ///
    /// # Panics
    /// Panics if `servers`, `cores_per_server`, `rack_size`, or the
    /// utilization-recording interval is zero/non-positive.
    pub fn build<B: Balancer>(self, balancer: B) -> DiscreteClusterSim<B> {
        assert!(self.servers > 0, "need at least one server");
        assert!(self.cores_per_server > 0, "need at least one core");
        let rack_size = self.rack_size.unwrap_or(self.servers);
        assert!(rack_size > 0, "need at least one server per rack");
        let util_recording = self.record_utilization.map(|interval| {
            assert!(interval.value() > 0.0, "interval must be positive");
            UtilRecorder::new(self.servers, interval.value())
        });
        DiscreteClusterSim {
            soa: ServerArrays::new(self.servers),
            cores_per_server: self.cores_per_server,
            rack_size,
            balancer,
            response_times: Vec::new(),
            response_by_type: Vec::new(),
            util_recording,
            obs: SimObs::resolve(&self.metrics),
            flush_hook: None,
            fault_hook: None,
            orphans: VecDeque::new(),
            fault_events: 0,
            rescheduled: 0,
            stale_completions: 0,
        }
    }
}

/// Resolved event-loop metric handles (no-ops when built without a sink).
/// All writes happen on the serial event loop, so every entry is
/// [`tts_obs::Determinism::Deterministic`] — including the fault
/// counters, which is what keeps chaos-run snapshots byte-identical
/// across thread counts.
#[derive(Debug, Clone, Default)]
struct SimObs {
    events: Counter,
    arrivals: Counter,
    completions: Counter,
    enqueued: Counter,
    fault_kills: Counter,
    fault_revives: Counter,
    fault_rescheduled: Counter,
    fault_stale: Counter,
    active_jobs: Gauge,
    queued_jobs: Gauge,
    servers_down: Gauge,
}

impl SimObs {
    fn resolve(sink: &MetricsSink) -> Self {
        Self {
            events: sink.counter("dcsim.events"),
            arrivals: sink.counter("dcsim.arrivals"),
            completions: sink.counter("dcsim.completions"),
            enqueued: sink.counter("dcsim.enqueued"),
            fault_kills: sink.counter("dcsim.fault.kills"),
            fault_revives: sink.counter("dcsim.fault.revives"),
            fault_rescheduled: sink.counter("dcsim.fault.rescheduled"),
            fault_stale: sink.counter("dcsim.fault.stale_completions"),
            active_jobs: sink.gauge("dcsim.active_jobs"),
            queued_jobs: sink.gauge("dcsim.queued_jobs"),
            servers_down: sink.gauge("dcsim.servers_down"),
        }
    }
}

/// An event-level fault action requested by a [`FaultHook`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Take a server down. Its in-service and queued jobs are
    /// re-dispatched through the balancer (service restarts from
    /// scratch — no partial credit), so no job is lost or duplicated.
    /// A kill of an already-down or unknown server is a no-op.
    KillServer(usize),
    /// Bring a downed server back. Jobs orphaned while the whole
    /// cluster was down are re-dispatched immediately. A revive of an
    /// up or unknown server is a no-op.
    ReviveServer(usize),
}

/// An event-level fault hook polled by [`DiscreteClusterSim::run`] —
/// the `chaos` crate's entry point into the simulator. The event loop
/// treats hook firings as first-class events: it wakes at
/// [`FaultHook::next_time`] even when no arrival or completion is due.
///
/// Contract: after [`FaultHook::pop_actions`]`(now)` returns, the next
/// [`FaultHook::next_time`] must be strictly greater than `now` (the
/// loop panics otherwise — a stuck hook would spin forever).
pub trait FaultHook: Send + std::fmt::Debug {
    /// The next simulated time this hook wants control, if any.
    fn next_time(&self) -> Option<f64>;
    /// The actions to apply at `now`; must advance the hook's cursor
    /// past `now`.
    fn pop_actions(&mut self, now: f64) -> Vec<FaultAction>;
}

/// A periodic callback on simulated time (see
/// [`DiscreteClusterSim::set_periodic_flush`]).
struct FlushHook {
    interval: f64,
    next: f64,
    f: Box<dyn FnMut(Seconds) + Send>,
}

impl std::fmt::Debug for FlushHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlushHook")
            .field("interval", &self.interval)
            .field("next", &self.next)
            .finish_non_exhaustive()
    }
}

/// A completion event. `epoch` snapshots the target server's kill
/// epoch at dispatch: the event queue has no cancellation, so killing a
/// server instead bumps its epoch and completions from an older epoch
/// are discarded as stale when popped.
#[derive(Debug, Clone, Copy)]
struct Completion {
    server: usize,
    epoch: u64,
    job_id: u64,
    arrival: f64,
    job_type: JobType,
}

/// Struct-of-arrays server state: one flat array per field instead of a
/// `Vec<ServerState>` of structs. The dispatch/completion hot loop reads
/// `occupancy` (and nothing else) for routing, so arrivals touch one
/// contiguous array; the per-server QoS accumulators (`busy_time`,
/// `completed`) are equally flat for the closing sweep.
#[derive(Debug)]
struct ServerArrays {
    /// Jobs in service (≤ cores), per server.
    active: Vec<usize>,
    /// Waiting jobs, per server.
    queue: Vec<VecDeque<Job>>,
    /// Jobs currently in service (mirrors `active`); kept so a kill can
    /// re-dispatch them. Original arrival times ride along, so sojourn
    /// accounting spans the interruption.
    running: Vec<Vec<Job>>,
    /// Busy core-seconds accumulated, per server.
    busy_time: Vec<f64>,
    /// Completed jobs, per server.
    completed: Vec<u64>,
    /// Time of the last occupancy change, per server.
    last_change: Vec<f64>,
    /// Down due to an injected fault.
    down: Vec<bool>,
    /// Bumped on every kill; stale completions carry an older value.
    epoch: Vec<u64>,
    /// The balancer's routing view: `active + queue.len()` per server,
    /// `usize::MAX` when down. Maintained incrementally at every
    /// transition — exactly the vector the legacy engine rebuilt O(n)
    /// per dispatch, so every balancer sees identical input.
    occupancy: Vec<usize>,
    /// Count of not-down servers (0 ⇒ arrivals park in the orphan
    /// buffer).
    live: usize,
}

impl ServerArrays {
    fn new(n: usize) -> Self {
        Self {
            active: vec![0; n],
            queue: (0..n).map(|_| VecDeque::new()).collect(),
            running: (0..n).map(|_| Vec::new()).collect(),
            busy_time: vec![0.0; n],
            completed: vec![0; n],
            last_change: vec![0.0; n],
            down: vec![false; n],
            epoch: vec![0; n],
            occupancy: vec![0; n],
            live: n,
        }
    }

    fn len(&self) -> usize {
        self.active.len()
    }

    /// Accrues server `s` busy time from its last change to `now`
    /// (same arithmetic, same order as the legacy `ServerState::account`).
    fn account(&mut self, s: usize, now: f64, cores: usize) {
        self.busy_time[s] += self.active[s].min(cores) as f64 * (now - self.last_change[s]);
        self.last_change[s] = now;
    }
}

/// Response-time statistics for one job type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TypeQos {
    /// The job type.
    pub job_type: JobType,
    /// Completed jobs of this type.
    pub completed: u64,
    /// Mean response time, seconds.
    pub mean_response_s: f64,
    /// 95th-percentile response time, seconds.
    pub p95_response_s: f64,
}

/// Aggregate metrics of a discrete run.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteMetrics {
    /// Jobs that finished service.
    pub completed: u64,
    /// Jobs still in the system when the run ended.
    pub in_flight: u64,
    /// Mean response (sojourn) time, seconds.
    pub mean_response_s: f64,
    /// 95th-percentile response time, seconds.
    pub p95_response_s: f64,
    /// Per-server utilization (busy core-seconds / capacity).
    pub server_utilization: Vec<f64>,
    /// Per-rack mean utilization.
    pub rack_utilization: Vec<f64>,
    /// Cluster-level mean utilization.
    pub cluster_utilization: f64,
    /// Completed jobs per second of simulated time.
    pub throughput_jobs_per_s: f64,
    /// Per-job-type response-time statistics (QoS view; interactive types
    /// suffer first when batch work monopolizes cores).
    pub per_type: Vec<TypeQos>,
    /// Fault actions applied during the run (kills + revives).
    pub fault_events: u64,
    /// Jobs re-dispatched because their server was killed.
    pub rescheduled: u64,
    /// Completion events discarded because their server died first.
    pub stale_completions: u64,
}

/// The discrete event-driven cluster simulator.
#[derive(Debug)]
pub struct DiscreteClusterSim<B: Balancer> {
    soa: ServerArrays,
    cores_per_server: usize,
    rack_size: usize,
    balancer: B,
    response_times: Vec<f64>,
    response_by_type: Vec<(JobType, f64)>,
    /// Busy core-seconds accumulated per recording interval (when
    /// utilization recording is enabled).
    util_recording: Option<UtilRecorder>,
    /// Event-loop metric handles (no-ops unless configured).
    obs: SimObs,
    /// Periodic simulated-time callback, fired during [`Self::run`].
    flush_hook: Option<FlushHook>,
    /// Event-level fault hook (see [`Self::set_fault_hook`]).
    fault_hook: Option<Box<dyn FaultHook>>,
    /// Jobs with nowhere to go because every server was down; drained
    /// on the next revive. Still in-flight for conservation purposes.
    orphans: VecDeque<Job>,
    fault_events: u64,
    rescheduled: u64,
    stale_completions: u64,
}

#[derive(Debug)]
struct UtilRecorder {
    interval: f64,
    /// Busy core-seconds per interval bucket.
    busy: Vec<f64>,
    /// Time of the last occupancy change, per server.
    last_change: Vec<f64>,
    /// Active jobs per server at `last_change`.
    active: Vec<usize>,
}

impl UtilRecorder {
    fn new(servers: usize, interval: f64) -> Self {
        Self {
            interval,
            busy: Vec::new(),
            last_change: vec![0.0; servers],
            active: vec![0; servers],
        }
    }

    /// Accounts server `s` busy time from its last change to `now`,
    /// spreading across interval buckets.
    fn account(&mut self, s: usize, now: f64, cores: usize) {
        let mut t = self.last_change[s];
        let active = self.active[s].min(cores) as f64;
        while t < now {
            let bucket = (t / self.interval) as usize;
            while self.busy.len() <= bucket {
                self.busy.push(0.0);
            }
            let bucket_end = (bucket as f64 + 1.0) * self.interval;
            let seg_end = bucket_end.min(now);
            self.busy[bucket] += active * (seg_end - t);
            t = seg_end;
        }
        self.last_change[s] = now;
    }
}

impl<B: Balancer> DiscreteClusterSim<B> {
    /// Installs a callback fired every `interval` of *simulated* time
    /// during [`Self::run`] — the flush hook the `repro --metrics` sidecar
    /// uses to snapshot the registry periodically. Before each firing the
    /// `dcsim.active_jobs` / `dcsim.queued_jobs` gauges are refreshed, so
    /// a registry snapshot taken inside the callback sees the queue state
    /// at that boundary. Boundaries are drained up to each event's time
    /// (and the run's closing time), so firing times — and therefore any
    /// snapshot sequence — are deterministic.
    ///
    /// # Panics
    /// Panics if `interval` is not positive.
    pub fn set_periodic_flush(
        &mut self,
        interval: Seconds,
        f: impl FnMut(Seconds) + Send + 'static,
    ) {
        assert!(interval.value() > 0.0, "flush interval must be positive");
        self.flush_hook = Some(FlushHook {
            interval: interval.value(),
            next: interval.value(),
            f: Box::new(f),
        });
    }

    /// Fires the flush hook at every interval boundary ≤ `t`, refreshing
    /// the queue-depth gauges first.
    fn drain_flushes(&mut self, t: f64) {
        let Some(mut hook) = self.flush_hook.take() else {
            return;
        };
        while hook.next <= t {
            let active: usize = self.soa.active.iter().sum();
            let queued: usize = self.soa.queue.iter().map(|q| q.len()).sum();
            self.obs.active_jobs.set(active as f64);
            self.obs.queued_jobs.set(queued as f64);
            (hook.f)(Seconds::new(hook.next));
            hook.next += hook.interval;
        }
        self.flush_hook = Some(hook);
    }

    /// Installs an event-level fault hook, polled by [`Self::run`] as a
    /// third event source next to arrivals and completions. Call before
    /// [`Self::run`].
    pub fn set_fault_hook(&mut self, hook: Box<dyn FaultHook>) {
        self.fault_hook = Some(hook);
    }

    /// Number of servers currently taken down by faults.
    pub fn servers_down(&self) -> usize {
        self.soa.len() - self.soa.live
    }

    /// Routes `job` to a live server through the balancer; used for both
    /// fresh arrivals and fault re-dispatch. If the balancer picks a
    /// downed server, falls back to the least-occupied live one (lowest
    /// index on ties) — deterministic for every balancer. With the whole
    /// cluster down the job is parked in the orphan buffer.
    fn dispatch_job(&mut self, job: Job, now: f64, queue: &mut CalendarQueue<Completion>) {
        if self.soa.live == 0 {
            self.orphans.push_back(job);
            return;
        }
        let mut target = self.balancer.pick(&self.soa.occupancy);
        if target >= self.soa.len() || self.soa.down[target] {
            target = self
                .soa
                .occupancy
                .iter()
                .enumerate()
                .filter(|(i, _)| !self.soa.down[*i])
                .min_by_key(|(_, occ)| **occ)
                .map(|(i, _)| i)
                .expect("at least one live server");
        }
        if let Some(rec) = self.util_recording.as_mut() {
            rec.account(target, now, self.cores_per_server);
        }
        self.soa.account(target, now, self.cores_per_server);
        if self.soa.active[target] < self.cores_per_server {
            self.soa.active[target] += 1;
            self.soa.running[target].push(job);
            queue.push(
                now + job.service_time.value(),
                Completion {
                    server: target,
                    epoch: self.soa.epoch[target],
                    job_id: job.id,
                    arrival: job.arrival.value(),
                    job_type: job.job_type,
                },
            );
        } else {
            self.soa.queue[target].push_back(job);
            self.obs.enqueued.incr();
        }
        // Both branches added one job to the server (in service or
        // queued), so the routing view moves by exactly one.
        self.soa.occupancy[target] += 1;
        if let Some(rec) = self.util_recording.as_mut() {
            rec.active[target] = self.soa.active[target];
        }
    }

    /// Applies one fault action at simulated time `now`.
    fn apply_fault(
        &mut self,
        action: FaultAction,
        now: f64,
        queue: &mut CalendarQueue<Completion>,
    ) {
        match action {
            FaultAction::KillServer(s) => {
                if s >= self.soa.len() || self.soa.down[s] {
                    return;
                }
                self.fault_events += 1;
                self.obs.fault_kills.incr();
                if let Some(rec) = self.util_recording.as_mut() {
                    rec.account(s, now, self.cores_per_server);
                    rec.active[s] = 0;
                }
                self.soa.account(s, now, self.cores_per_server);
                self.soa.down[s] = true;
                self.soa.epoch[s] += 1;
                self.soa.active[s] = 0;
                self.soa.occupancy[s] = usize::MAX;
                self.soa.live -= 1;
                let mut displaced: Vec<Job> = self.soa.running[s].drain(..).collect();
                displaced.extend(self.soa.queue[s].drain(..));
                for job in displaced {
                    self.rescheduled += 1;
                    self.obs.fault_rescheduled.incr();
                    self.dispatch_job(job, now, queue);
                }
            }
            FaultAction::ReviveServer(s) => {
                if s >= self.soa.len() || !self.soa.down[s] {
                    return;
                }
                self.fault_events += 1;
                self.obs.fault_revives.incr();
                self.soa.down[s] = false;
                self.soa.last_change[s] = now;
                self.soa.live += 1;
                self.soa.occupancy[s] = self.soa.active[s] + self.soa.queue[s].len();
                if let Some(rec) = self.util_recording.as_mut() {
                    rec.last_change[s] = now;
                }
                let parked: Vec<Job> = self.orphans.drain(..).collect();
                for job in parked {
                    self.dispatch_job(job, now, queue);
                }
            }
        }
        self.obs.servers_down.set(self.servers_down() as f64);
    }

    /// The recorded cluster-utilization trace (fraction of total core
    /// capacity per bucket), or `None` if recording was not enabled.
    ///
    /// This is the bridge from the event-driven simulator to the thermal
    /// pipeline: feed the result to
    /// [`crate::cluster::run_cooling_load`] for a job-level Figure 11.
    #[must_use = "returns the recorded trace without side effects"]
    pub fn utilization_trace(&self) -> Option<tts_workload::TimeSeries> {
        let rec = self.util_recording.as_ref()?;
        if rec.busy.is_empty() {
            return None;
        }
        let capacity = (self.soa.len() * self.cores_per_server) as f64 * rec.interval;
        let values: Vec<f64> = rec.busy.iter().map(|b| (b / capacity).min(1.0)).collect();
        Some(tts_workload::TimeSeries::new(
            Seconds::new(rec.interval),
            values,
        ))
    }

    /// Runs the full job list to completion (all jobs arrive, the run ends
    /// at `horizon` — jobs still in service then count as in-flight).
    ///
    /// # Panics
    /// Panics if jobs are not sorted by arrival time.
    pub fn run(&mut self, jobs: &[Job], horizon: Seconds) -> DiscreteMetrics {
        let mut queue: CalendarQueue<Completion> = CalendarQueue::new();
        let horizon = horizon.value();
        let mut job_iter = jobs.iter().peekable();
        let mut last_arrival = f64::NEG_INFINITY;
        let mut now = 0.0;

        loop {
            // Next event: fault, job arrival, or completion — earliest
            // wins; at ties, faults fire first (a kill at t affects the
            // job arriving at t), then arrivals before completions (the
            // pre-fault ordering, unchanged).
            let next_arrival = job_iter.peek().map(|j| j.arrival.value());
            let next_completion = queue.peek_time();
            let next_fault = self.fault_hook.as_ref().and_then(|h| h.next_time());
            let job_next = match (next_arrival, next_completion) {
                (Some(a), Some(c)) if a <= c => Some((a, true)),
                (Some(_), Some(c)) => Some((c, false)),
                (Some(a), None) => Some((a, true)),
                (None, Some(c)) => Some((c, false)),
                (None, None) => None,
            };
            let fault_turn = match (next_fault, job_next) {
                (Some(f), Some((t, _))) => f <= t,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let t = if fault_turn {
                next_fault.expect("fault turn has a time")
            } else {
                job_next.expect("job turn has an event").0
            };
            if t > horizon {
                break;
            }
            now = t;
            self.drain_flushes(now);

            if fault_turn {
                let mut hook = self.fault_hook.take().expect("fault turn has a hook");
                for action in hook.pop_actions(now) {
                    self.apply_fault(action, now, &mut queue);
                }
                assert!(
                    hook.next_time().is_none_or(|next| next > now),
                    "fault hook must advance past {now}"
                );
                self.fault_hook = Some(hook);
                continue;
            }
            self.obs.events.incr();

            let (_, is_arrival) = job_next.expect("job turn has an event");
            if is_arrival {
                let job = *job_iter.next().expect("peeked job exists");
                assert!(
                    job.arrival.value() >= last_arrival,
                    "jobs must be sorted by arrival"
                );
                last_arrival = job.arrival.value();
                self.obs.arrivals.incr();
                self.dispatch_job(job, now, &mut queue);
            } else {
                let (_, c) = queue.pop().expect("completion peeked");
                if self.soa.down[c.server] || self.soa.epoch[c.server] != c.epoch {
                    // The server died after this completion was
                    // scheduled; the job was already re-dispatched.
                    self.stale_completions += 1;
                    self.obs.fault_stale.incr();
                    continue;
                }
                if let Some(rec) = self.util_recording.as_mut() {
                    rec.account(c.server, now, self.cores_per_server);
                }
                self.soa.account(c.server, now, self.cores_per_server);
                self.soa.active[c.server] -= 1;
                self.soa.completed[c.server] += 1;
                if let Some(pos) = self.soa.running[c.server]
                    .iter()
                    .position(|j| j.id == c.job_id && j.arrival.value() == c.arrival)
                {
                    self.soa.running[c.server].remove(pos);
                }
                self.obs.completions.incr();
                self.response_times.push(now - c.arrival);
                self.response_by_type.push((c.job_type, now - c.arrival));
                if let Some(next) = self.soa.queue[c.server].pop_front() {
                    self.soa.active[c.server] += 1;
                    self.soa.running[c.server].push(next);
                    queue.push(
                        now + next.service_time.value(),
                        Completion {
                            server: c.server,
                            epoch: self.soa.epoch[c.server],
                            job_id: next.id,
                            arrival: next.arrival.value(),
                            job_type: next.job_type,
                        },
                    );
                }
                // One job left the server (a queued one may have moved
                // into service, which keeps the count): occupancy −1.
                self.soa.occupancy[c.server] -= 1;
                if let Some(rec) = self.util_recording.as_mut() {
                    rec.active[c.server] = self.soa.active[c.server];
                }
            }
        }

        // Close the books at the horizon (or last event).
        let end = now.max(horizon.min(now + 1.0));
        self.drain_flushes(end);
        if let Some(rec) = self.util_recording.as_mut() {
            for s in 0..self.soa.len() {
                rec.account(s, end, self.cores_per_server);
            }
        }
        // Per-server close-out over the flat arrays. Each server's update
        // is independent, so this sweep is byte-identical to the legacy
        // engine's parallel one.
        for s in 0..self.soa.len() {
            self.soa.account(s, end, self.cores_per_server);
        }
        self.metrics(end)
    }

    fn metrics(&self, end: f64) -> DiscreteMetrics {
        let completed: u64 = self.soa.completed.iter().sum();
        // In-service jobs are counted from server state, not the event
        // queue — stale completions of killed servers still sit in the
        // queue and must not inflate the in-flight count.
        let in_service: u64 = self.soa.running.iter().map(|r| r.len() as u64).sum::<u64>()
            + self.orphans.len() as u64;
        let queued: u64 = self.soa.queue.iter().map(|q| q.len() as u64).sum();
        let mut sorted = self.response_times.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("response times are finite"));
        let mean = if sorted.is_empty() {
            0.0
        } else {
            sorted.iter().sum::<f64>() / sorted.len() as f64
        };
        let p95 = if sorted.is_empty() {
            0.0
        } else {
            sorted[((sorted.len() as f64 * 0.95) as usize).min(sorted.len() - 1)]
        };
        let cap = self.cores_per_server as f64 * end;
        let server_utilization: Vec<f64> = self.soa.busy_time.iter().map(|b| b / cap).collect();
        let rack_utilization: Vec<f64> = server_utilization
            .chunks(self.rack_size)
            .map(|rack| rack.iter().sum::<f64>() / rack.len() as f64)
            .collect();
        let cluster_utilization =
            server_utilization.iter().sum::<f64>() / server_utilization.len() as f64;
        // Per-type QoS digests are independent filters over the response
        // log (sorting dominates at scale); compute them on the tts_exec
        // pool — ordered results keep the report identical to serial.
        // Borrow only the response log: the sim itself need not be Sync.
        let response_by_type = &self.response_by_type;
        let per_type = tts_exec::par_map(&JobType::ALL, |&jt| {
            let mut times: Vec<f64> = response_by_type
                .iter()
                .filter(|(t, _)| *t == jt)
                .map(|(_, r)| *r)
                .collect();
            if times.is_empty() {
                return None;
            }
            times.sort_by(|a, b| a.total_cmp(b));
            let mean = times.iter().sum::<f64>() / times.len() as f64;
            let p95 = times[((times.len() as f64 * 0.95) as usize).min(times.len() - 1)];
            Some(TypeQos {
                job_type: jt,
                completed: times.len() as u64,
                mean_response_s: mean,
                p95_response_s: p95,
            })
        })
        .into_iter()
        .flatten()
        .collect();
        DiscreteMetrics {
            completed,
            in_flight: in_service + queued,
            mean_response_s: mean,
            p95_response_s: p95,
            server_utilization,
            rack_utilization,
            cluster_utilization,
            throughput_jobs_per_s: completed as f64 / end.max(1e-9),
            per_type,
            fault_events: self.fault_events,
            rescheduled: self.rescheduled,
            stale_completions: self.stale_completions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::{LeastLoaded, RoundRobin};
    use tts_units::Seconds;
    use tts_workload::series::TimeSeries;
    use tts_workload::{JobStream, JobType};

    fn flat_jobs(util: f64, servers: usize, hours: f64, seed: u64) -> Vec<Job> {
        let n = (hours * 60.0) as usize;
        let trace = TimeSeries::new(Seconds::new(60.0), vec![util; n]);
        JobStream::new(trace, JobType::SocialNetworking, servers, seed).collect_all()
    }

    #[test]
    fn conservation_of_jobs() {
        let jobs = flat_jobs(0.5, 8, 0.5, 1);
        let total = jobs.len() as u64;
        let mut sim = ClusterConfig::new(8)
            .cores_per_server(4)
            .rack_size(4)
            .build(RoundRobin::new());
        let m = sim.run(&jobs, Seconds::new(3600.0));
        assert_eq!(m.completed + m.in_flight, total);
        assert!(m.completed > 0);
    }

    #[test]
    fn measured_utilization_tracks_offered_load() {
        // Offered load 0.6 of cluster core capacity.
        let servers = 10;
        // JobStream offers util×servers server-equivalents of work; with
        // `cores` slots per server, the per-core utilization is util/cores.
        let jobs = flat_jobs(0.6, servers, 2.0, 2);
        let mut sim = ClusterConfig::new(servers)
            .cores_per_server(1)
            .rack_size(5)
            .build(RoundRobin::new());
        let m = sim.run(&jobs, Seconds::new(2.0 * 3600.0));
        assert!(
            (m.cluster_utilization - 0.6).abs() < 0.05,
            "measured {}",
            m.cluster_utilization
        );
    }

    #[test]
    fn round_robin_spreads_load_evenly() {
        let jobs = flat_jobs(0.5, 8, 1.0, 3);
        let mut sim = ClusterConfig::new(8)
            .cores_per_server(4)
            .rack_size(4)
            .build(RoundRobin::new());
        let m = sim.run(&jobs, Seconds::new(3600.0));
        let max = m
            .server_utilization
            .iter()
            .cloned()
            .fold(f64::MIN, f64::max);
        let min = m
            .server_utilization
            .iter()
            .cloned()
            .fold(f64::MAX, f64::min);
        assert!(max - min < 0.08, "spread {}..{}", min, max);
    }

    #[test]
    fn rack_metrics_aggregate_servers() {
        let jobs = flat_jobs(0.5, 8, 0.5, 4);
        let mut sim = ClusterConfig::new(8)
            .cores_per_server(4)
            .rack_size(4)
            .build(RoundRobin::new());
        let m = sim.run(&jobs, Seconds::new(1800.0));
        assert_eq!(m.rack_utilization.len(), 2);
        let rack_mean = (m.rack_utilization[0] + m.rack_utilization[1]) / 2.0;
        assert!((rack_mean - m.cluster_utilization).abs() < 1e-9);
    }

    #[test]
    fn response_time_grows_under_overload() {
        let light = {
            let jobs = flat_jobs(0.3, 4, 1.0, 5);
            let mut sim = ClusterConfig::new(4)
                .cores_per_server(2)
                .rack_size(2)
                .build(RoundRobin::new());
            sim.run(&jobs, Seconds::new(3600.0)).mean_response_s
        };
        let heavy = {
            // Offered load ~1.9× core capacity → queues build.
            let n = 60;
            let trace = TimeSeries::new(Seconds::new(60.0), vec![0.95; n]);
            let jobs = JobStream::new(trace, JobType::SocialNetworking, 16, 5).collect_all();
            let mut sim = ClusterConfig::new(4)
                .cores_per_server(2)
                .rack_size(2)
                .build(RoundRobin::new());
            sim.run(&jobs, Seconds::new(3600.0)).mean_response_s
        };
        assert!(
            heavy > 3.0 * light,
            "overload must inflate response times: {light} vs {heavy}"
        );
    }

    #[test]
    fn least_loaded_beats_round_robin_under_bursts() {
        // With highly variable service times and tight capacity, JSQ should
        // not be (much) worse than blind round-robin.
        let jobs = {
            let trace = TimeSeries::new(Seconds::new(60.0), vec![0.85; 60]);
            JobStream::new(trace, JobType::MapReduce, 6, 9).collect_all()
        };
        let rr = {
            let mut sim = ClusterConfig::new(6)
                .cores_per_server(2)
                .rack_size(3)
                .build(RoundRobin::new());
            sim.run(&jobs, Seconds::new(3600.0)).mean_response_s
        };
        let ll = {
            let mut sim = ClusterConfig::new(6)
                .cores_per_server(2)
                .rack_size(3)
                .build(LeastLoaded::new());
            sim.run(&jobs, Seconds::new(3600.0)).mean_response_s
        };
        assert!(ll <= rr * 1.05, "JSQ {ll} should not lose to RR {rr}");
    }

    #[test]
    fn p95_at_least_mean() {
        let jobs = flat_jobs(0.7, 8, 1.0, 6);
        let mut sim = ClusterConfig::new(8)
            .cores_per_server(4)
            .rack_size(4)
            .build(RoundRobin::new());
        let m = sim.run(&jobs, Seconds::new(3600.0));
        assert!(m.p95_response_s >= m.mean_response_s * 0.9);
        assert!(m.throughput_jobs_per_s > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_panics() {
        ClusterConfig::new(0)
            .cores_per_server(1)
            .rack_size(1)
            .build(RoundRobin::new());
    }

    #[test]
    fn metrics_and_flush_hook_observe_the_event_loop() {
        use std::sync::{Arc, Mutex};
        let jobs = flat_jobs(0.5, 8, 0.5, 1);
        let sink = MetricsSink::fresh();
        let mut sim = ClusterConfig::new(8)
            .cores_per_server(4)
            .rack_size(4)
            .metrics(&sink)
            .build(RoundRobin::new());
        let fired: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&fired);
        sim.set_periodic_flush(Seconds::new(300.0), move |t| {
            log.lock().unwrap().push(t.value());
        });
        let m = sim.run(&jobs, Seconds::new(1800.0));
        assert_eq!(sink.counter("dcsim.completions").value(), m.completed);
        assert_eq!(
            sink.counter("dcsim.arrivals").value(),
            m.completed + m.in_flight
        );
        assert_eq!(
            sink.counter("dcsim.events").value(),
            sink.counter("dcsim.arrivals").value() + m.completed
        );
        // Flush boundaries are exact multiples of the interval, in order.
        let fired = fired.lock().unwrap();
        assert!(!fired.is_empty(), "flush hook never fired");
        for (i, t) in fired.iter().enumerate() {
            assert_eq!(*t, 300.0 * (i as f64 + 1.0));
        }
    }

    #[test]
    fn per_type_qos_separates_interactive_from_batch() {
        // Offer a mix of short (search) and long (MapReduce) jobs; the
        // per-type stats must reflect their service-time scales.
        let trace = TimeSeries::new(Seconds::new(60.0), vec![0.35; 60]);
        let mut jobs = JobStream::new(trace.clone(), JobType::WebSearch, 16, 1).collect_all();
        jobs.extend(JobStream::new(trace, JobType::MapReduce, 16, 2).collect_all());
        jobs.sort_by(|a, b| a.arrival.value().total_cmp(&b.arrival.value()));
        let mut sim = ClusterConfig::new(16)
            .cores_per_server(4)
            .rack_size(8)
            .build(RoundRobin::new());
        let m = sim.run(&jobs, Seconds::new(3600.0));
        let qos: std::collections::HashMap<_, _> =
            m.per_type.iter().map(|q| (q.job_type, q)).collect();
        let search = qos.get(&JobType::WebSearch).expect("search jobs ran");
        let mapreduce = qos.get(&JobType::MapReduce).expect("batch jobs ran");
        assert!(
            mapreduce.mean_response_s > 10.0 * search.mean_response_s,
            "batch {} vs interactive {}",
            mapreduce.mean_response_s,
            search.mean_response_s
        );
        assert!(search.completed > 0 && mapreduce.completed > 0);
        assert!(search.p95_response_s >= search.mean_response_s * 0.5);
        // Per-type counts sum to the total.
        let type_sum: u64 = m.per_type.iter().map(|q| q.completed).sum();
        assert_eq!(type_sum, m.completed);
    }

    #[test]
    fn recorded_utilization_matches_aggregate_metric() {
        let jobs = flat_jobs(0.6, 10, 2.0, 8);
        let mut sim = ClusterConfig::new(10)
            .cores_per_server(1)
            .rack_size(5)
            .record_utilization(Seconds::new(300.0))
            .build(RoundRobin::new());
        let horizon = Seconds::new(2.0 * 3600.0);
        let m = sim.run(&jobs, horizon);
        let trace = sim.utilization_trace().expect("recording enabled");
        // The trace's mean must agree with the run's aggregate utilization.
        assert!(
            (trace.mean() - m.cluster_utilization).abs() < 0.03,
            "trace mean {} vs aggregate {}",
            trace.mean(),
            m.cluster_utilization
        );
        // Samples are valid utilizations.
        assert!(trace.values().iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!(trace.len() >= 23, "expected ~24 five-minute buckets");
    }

    #[test]
    fn utilization_trace_requires_recording() {
        let jobs = flat_jobs(0.5, 4, 0.5, 9);
        let mut sim = ClusterConfig::new(4)
            .cores_per_server(2)
            .rack_size(2)
            .build(RoundRobin::new());
        sim.run(&jobs, Seconds::new(1800.0));
        assert!(sim.utilization_trace().is_none());
    }

    /// Minimal scheduled fault hook for the in-module tests (the chaos
    /// crate builds the real one from sampled plans).
    #[derive(Debug)]
    struct Scheduled {
        faults: Vec<(f64, FaultAction)>,
        cursor: usize,
    }

    impl Scheduled {
        fn new(mut faults: Vec<(f64, FaultAction)>) -> Self {
            faults.sort_by(|a, b| a.0.total_cmp(&b.0));
            Self { faults, cursor: 0 }
        }
    }

    impl FaultHook for Scheduled {
        fn next_time(&self) -> Option<f64> {
            self.faults.get(self.cursor).map(|f| f.0)
        }

        fn pop_actions(&mut self, now: f64) -> Vec<FaultAction> {
            let mut actions = Vec::new();
            while let Some(&(t, a)) = self.faults.get(self.cursor) {
                if t > now {
                    break;
                }
                actions.push(a);
                self.cursor += 1;
            }
            actions
        }
    }

    #[test]
    fn server_kill_conserves_jobs() {
        let jobs = flat_jobs(0.6, 8, 1.0, 7);
        let total = jobs.len() as u64;
        let mut sim = ClusterConfig::new(8)
            .cores_per_server(2)
            .rack_size(4)
            .build(RoundRobin::new());
        sim.set_fault_hook(Box::new(Scheduled::new(vec![
            (600.0, FaultAction::KillServer(0)),
            (900.0, FaultAction::KillServer(3)),
            (1800.0, FaultAction::ReviveServer(0)),
        ])));
        let m = sim.run(&jobs, Seconds::new(3600.0));
        assert_eq!(
            m.completed + m.in_flight,
            total,
            "kill/revive must not lose or duplicate jobs"
        );
        assert_eq!(m.fault_events, 3);
        assert!(m.rescheduled > 0, "busy servers had jobs to displace");
        assert!(m.stale_completions > 0, "in-service work was interrupted");
        assert_eq!(sim.servers_down(), 1, "server 3 stays down");
    }

    #[test]
    fn whole_cluster_outage_parks_and_recovers_jobs() {
        let jobs = flat_jobs(0.5, 2, 1.0, 11);
        let total = jobs.len() as u64;
        let mut sim = ClusterConfig::new(2)
            .cores_per_server(2)
            .rack_size(2)
            .build(RoundRobin::new());
        sim.set_fault_hook(Box::new(Scheduled::new(vec![
            (300.0, FaultAction::KillServer(0)),
            (300.0, FaultAction::KillServer(1)),
            (1200.0, FaultAction::ReviveServer(1)),
        ])));
        let m = sim.run(&jobs, Seconds::new(3600.0));
        assert_eq!(m.completed + m.in_flight, total);
        // Work resumed after the revive: more completions than could
        // have finished before the 300 s outage.
        assert!(
            m.completed > total / 2,
            "completed {} of {total}",
            m.completed
        );
    }

    #[test]
    fn flapping_server_converges_and_redundant_actions_are_noops() {
        let jobs = flat_jobs(0.5, 4, 1.0, 13);
        let total = jobs.len() as u64;
        let mut faults = Vec::new();
        for i in 0..10 {
            let t = 200.0 + 300.0 * i as f64;
            faults.push((t, FaultAction::KillServer(1)));
            faults.push((t + 150.0, FaultAction::ReviveServer(1)));
        }
        // Redundant / out-of-range actions must be ignored.
        faults.push((250.0, FaultAction::KillServer(1)));
        faults.push((260.0, FaultAction::ReviveServer(2)));
        faults.push((270.0, FaultAction::KillServer(99)));
        let mut sim = ClusterConfig::new(4)
            .cores_per_server(2)
            .rack_size(2)
            .build(LeastLoaded::new());
        sim.set_fault_hook(Box::new(Scheduled::new(faults)));
        let m = sim.run(&jobs, Seconds::new(3600.0));
        assert_eq!(m.completed + m.in_flight, total);
        assert_eq!(m.fault_events, 20, "only real transitions count");
        assert_eq!(sim.servers_down(), 0);
    }

    #[test]
    fn killed_server_accrues_no_utilization_while_down() {
        let jobs = flat_jobs(0.7, 4, 2.0, 17);
        let mut sim = ClusterConfig::new(4)
            .cores_per_server(1)
            .rack_size(2)
            .build(RoundRobin::new());
        // Server 2 is down for the second half of the run.
        sim.set_fault_hook(Box::new(Scheduled::new(vec![(
            3600.0,
            FaultAction::KillServer(2),
        )])));
        let m = sim.run(&jobs, Seconds::new(7200.0));
        let healthy_min = m
            .server_utilization
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 2)
            .map(|(_, u)| *u)
            .fold(f64::MAX, f64::min);
        assert!(
            m.server_utilization[2] < 0.75 * healthy_min,
            "down server must sit idle: {:?}",
            m.server_utilization
        );
        assert!(m.server_utilization.iter().all(|u| (0.0..=1.0).contains(u)));
    }

    #[test]
    fn fault_counters_reach_the_metrics_sink() {
        let jobs = flat_jobs(0.6, 4, 1.0, 19);
        let sink = MetricsSink::fresh();
        let mut sim = ClusterConfig::new(4)
            .cores_per_server(2)
            .rack_size(2)
            .metrics(&sink)
            .build(RoundRobin::new());
        sim.set_fault_hook(Box::new(Scheduled::new(vec![
            (400.0, FaultAction::KillServer(0)),
            (800.0, FaultAction::ReviveServer(0)),
        ])));
        let m = sim.run(&jobs, Seconds::new(3600.0));
        assert_eq!(sink.counter("dcsim.fault.kills").value(), 1);
        assert_eq!(sink.counter("dcsim.fault.revives").value(), 1);
        assert_eq!(
            sink.counter("dcsim.fault.rescheduled").value(),
            m.rescheduled
        );
        assert_eq!(
            sink.counter("dcsim.fault.stale_completions").value(),
            m.stale_completions
        );
        // Conservation also holds through the sink's view.
        assert_eq!(
            sink.counter("dcsim.arrivals").value(),
            m.completed + m.in_flight
        );
    }

    #[test]
    fn recorded_trace_follows_a_varying_offered_load() {
        // Low hour then high hour: the recorded trace must show the step.
        let mut vals = vec![0.2; 60];
        vals.extend(vec![0.8; 60]);
        let trace_in = TimeSeries::new(Seconds::new(60.0), vals);
        let jobs = JobStream::new(trace_in, JobType::SocialNetworking, 20, 4).collect_all();
        let mut sim = ClusterConfig::new(20)
            .cores_per_server(1)
            .rack_size(10)
            .record_utilization(Seconds::new(600.0))
            .build(RoundRobin::new());
        sim.run(&jobs, Seconds::new(7200.0));
        let out = sim.utilization_trace().unwrap();
        let first_hour: f64 = out.values()[..6].iter().sum::<f64>() / 6.0;
        let second_hour: f64 = out.values()[6..12].iter().sum::<f64>() / 6.0;
        assert!(
            second_hour > 2.5 * first_hour,
            "step not visible: {first_hour} vs {second_hour}"
        );
    }
}
