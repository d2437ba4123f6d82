//! The pre-rebuild heap-based discrete engine, kept as the equivalence
//! oracle.
//!
//! This is the original `discrete` event loop — `Vec<ServerState>`
//! array-of-structs state, a [`EventQueue`] binary heap, and an O(n)
//! occupancy rebuild per dispatch — frozen verbatim (minus telemetry and
//! the flush hook, which do not affect any metric) so
//! `tests/engine_equivalence.rs` can prove the calendar-queue/SoA engine
//! byte-identical before this path is retired. Not part of the public
//! API: reach it only from tests and benchmarks.

use crate::balancer::Balancer;
use crate::discrete::{DiscreteMetrics, FaultAction, FaultHook, TypeQos};
use crate::event::EventQueue;
use std::collections::VecDeque;
use tts_units::Seconds;
use tts_workload::{Job, JobType};

/// A completion event (see `discrete::Completion`).
#[derive(Debug, Clone, Copy)]
struct Completion {
    server: usize,
    epoch: u64,
    job_id: u64,
    arrival: f64,
    job_type: JobType,
}

#[derive(Debug, Default)]
struct ServerState {
    active: usize,
    queue: VecDeque<Job>,
    running: Vec<Job>,
    busy_time: f64,
    completed: u64,
    last_change: f64,
    down: bool,
    epoch: u64,
}

impl ServerState {
    fn account(&mut self, now: f64, cores: usize) {
        self.busy_time += self.active.min(cores) as f64 * (now - self.last_change);
        self.last_change = now;
    }
}

#[derive(Debug)]
struct UtilRecorder {
    interval: f64,
    busy: Vec<f64>,
    last_change: Vec<f64>,
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

/// The legacy heap-based cluster simulator (oracle only; see module docs).
#[derive(Debug)]
pub struct LegacySim<B: Balancer> {
    servers: Vec<ServerState>,
    cores_per_server: usize,
    rack_size: usize,
    balancer: B,
    response_times: Vec<f64>,
    response_by_type: Vec<(JobType, f64)>,
    util_recording: Option<UtilRecorder>,
    fault_hook: Option<Box<dyn FaultHook>>,
    orphans: VecDeque<Job>,
    fault_events: u64,
    rescheduled: u64,
    stale_completions: u64,
}

impl<B: Balancer> LegacySim<B> {
    /// A legacy simulator mirroring `ClusterConfig::new(servers)
    /// .cores_per_server(cores).rack_size(rack_size).build(balancer)`.
    ///
    /// # Panics
    /// Panics on zero `servers`, `cores`, or `rack_size`.
    pub fn new(servers: usize, cores: usize, rack_size: usize, balancer: B) -> Self {
        assert!(servers > 0, "need at least one server");
        assert!(cores > 0, "need at least one core");
        assert!(rack_size > 0, "need at least one server per rack");
        Self {
            servers: (0..servers).map(|_| ServerState::default()).collect(),
            cores_per_server: cores,
            rack_size,
            balancer,
            response_times: Vec::new(),
            response_by_type: Vec::new(),
            util_recording: None,
            fault_hook: None,
            orphans: VecDeque::new(),
            fault_events: 0,
            rescheduled: 0,
            stale_completions: 0,
        }
    }

    /// Installs an event-level fault hook (see
    /// [`crate::discrete::DiscreteClusterSim::set_fault_hook`]).
    pub fn set_fault_hook(&mut self, hook: Box<dyn FaultHook>) {
        self.fault_hook = Some(hook);
    }

    /// Enables utilization recording (see
    /// [`crate::discrete::ClusterConfig::record_utilization`]).
    pub fn record_utilization(&mut self, interval: Seconds) {
        assert!(interval.value() > 0.0, "interval must be positive");
        self.util_recording = Some(UtilRecorder::new(self.servers.len(), interval.value()));
    }

    /// The recorded cluster-utilization trace, if recording was enabled.
    pub fn utilization_trace(&self) -> Option<tts_workload::TimeSeries> {
        let rec = self.util_recording.as_ref()?;
        if rec.busy.is_empty() {
            return None;
        }
        let capacity = (self.servers.len() * self.cores_per_server) as f64 * rec.interval;
        let values: Vec<f64> = rec.busy.iter().map(|b| (b / capacity).min(1.0)).collect();
        Some(tts_workload::TimeSeries::new(
            Seconds::new(rec.interval),
            values,
        ))
    }

    /// Number of servers currently down.
    pub fn servers_down(&self) -> usize {
        self.servers.iter().filter(|s| s.down).count()
    }

    fn dispatch_job(&mut self, job: Job, now: f64, queue: &mut EventQueue<Completion>) {
        if self.servers.iter().all(|s| s.down) {
            self.orphans.push_back(job);
            return;
        }
        let occupancy: Vec<usize> = self
            .servers
            .iter()
            .map(|s| {
                if s.down {
                    usize::MAX
                } else {
                    s.active + s.queue.len()
                }
            })
            .collect();
        let mut target = self.balancer.pick(&occupancy);
        if target >= self.servers.len() || self.servers[target].down {
            target = occupancy
                .iter()
                .enumerate()
                .filter(|(i, _)| !self.servers[*i].down)
                .min_by_key(|(_, occ)| **occ)
                .map(|(i, _)| i)
                .expect("at least one live server");
        }
        if let Some(rec) = self.util_recording.as_mut() {
            rec.account(target, now, self.cores_per_server);
        }
        let server = &mut self.servers[target];
        server.account(now, self.cores_per_server);
        if server.active < self.cores_per_server {
            server.active += 1;
            server.running.push(job);
            queue.push(
                now + job.service_time.value(),
                Completion {
                    server: target,
                    epoch: server.epoch,
                    job_id: job.id,
                    arrival: job.arrival.value(),
                    job_type: job.job_type,
                },
            );
        } else {
            server.queue.push_back(job);
        }
        let active_now = self.servers[target].active;
        if let Some(rec) = self.util_recording.as_mut() {
            rec.active[target] = active_now;
        }
    }

    fn apply_fault(&mut self, action: FaultAction, now: f64, queue: &mut EventQueue<Completion>) {
        match action {
            FaultAction::KillServer(s) => {
                if s >= self.servers.len() || self.servers[s].down {
                    return;
                }
                self.fault_events += 1;
                if let Some(rec) = self.util_recording.as_mut() {
                    rec.account(s, now, self.cores_per_server);
                    rec.active[s] = 0;
                }
                let server = &mut self.servers[s];
                server.account(now, self.cores_per_server);
                server.down = true;
                server.epoch += 1;
                server.active = 0;
                let mut displaced: Vec<Job> = server.running.drain(..).collect();
                displaced.extend(server.queue.drain(..));
                for job in displaced {
                    self.rescheduled += 1;
                    self.dispatch_job(job, now, queue);
                }
            }
            FaultAction::ReviveServer(s) => {
                if s >= self.servers.len() || !self.servers[s].down {
                    return;
                }
                self.fault_events += 1;
                let server = &mut self.servers[s];
                server.down = false;
                server.last_change = now;
                if let Some(rec) = self.util_recording.as_mut() {
                    rec.last_change[s] = now;
                }
                let parked: Vec<Job> = self.orphans.drain(..).collect();
                for job in parked {
                    self.dispatch_job(job, now, queue);
                }
            }
        }
    }

    /// Runs the job list (see
    /// [`crate::discrete::DiscreteClusterSim::run`]).
    ///
    /// # Panics
    /// Panics if jobs are not sorted by arrival time.
    pub fn run(&mut self, jobs: &[Job], horizon: Seconds) -> DiscreteMetrics {
        let mut queue: EventQueue<Completion> = EventQueue::new();
        let horizon = horizon.value();
        let mut job_iter = jobs.iter().peekable();
        let mut last_arrival = f64::NEG_INFINITY;
        let mut now = 0.0;

        loop {
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

            let (_, is_arrival) = job_next.expect("job turn has an event");
            if is_arrival {
                let job = *job_iter.next().expect("peeked job exists");
                assert!(
                    job.arrival.value() >= last_arrival,
                    "jobs must be sorted by arrival"
                );
                last_arrival = job.arrival.value();
                self.dispatch_job(job, now, &mut queue);
            } else {
                let (_, c) = queue.pop().expect("completion peeked");
                if self.servers[c.server].down || self.servers[c.server].epoch != c.epoch {
                    self.stale_completions += 1;
                    continue;
                }
                if let Some(rec) = self.util_recording.as_mut() {
                    rec.account(c.server, now, self.cores_per_server);
                }
                let server = &mut self.servers[c.server];
                server.account(now, self.cores_per_server);
                server.active -= 1;
                server.completed += 1;
                if let Some(pos) = server
                    .running
                    .iter()
                    .position(|j| j.id == c.job_id && j.arrival.value() == c.arrival)
                {
                    server.running.remove(pos);
                }
                self.response_times.push(now - c.arrival);
                self.response_by_type.push((c.job_type, now - c.arrival));
                if let Some(next) = server.queue.pop_front() {
                    server.active += 1;
                    server.running.push(next);
                    let epoch = server.epoch;
                    queue.push(
                        now + next.service_time.value(),
                        Completion {
                            server: c.server,
                            epoch,
                            job_id: next.id,
                            arrival: next.arrival.value(),
                            job_type: next.job_type,
                        },
                    );
                }
                let active_now = self.servers[c.server].active;
                if let Some(rec) = self.util_recording.as_mut() {
                    rec.active[c.server] = active_now;
                }
            }
        }

        let end = now.max(horizon.min(now + 1.0));
        if let Some(rec) = self.util_recording.as_mut() {
            for s in 0..self.servers.len() {
                rec.account(s, end, self.cores_per_server);
            }
        }
        let cores = self.cores_per_server;
        tts_exec::par_map_mut(&mut self.servers, |s| s.account(end, cores));
        self.metrics(end)
    }

    fn metrics(&self, end: f64) -> DiscreteMetrics {
        let completed: u64 = self.servers.iter().map(|s| s.completed).sum();
        let in_service: u64 = self
            .servers
            .iter()
            .map(|s| s.running.len() as u64)
            .sum::<u64>()
            + self.orphans.len() as u64;
        let queued: u64 = self.servers.iter().map(|s| s.queue.len() as u64).sum();
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
        let server_utilization: Vec<f64> = self.servers.iter().map(|s| s.busy_time / cap).collect();
        let rack_utilization: Vec<f64> = server_utilization
            .chunks(self.rack_size)
            .map(|rack| rack.iter().sum::<f64>() / rack.len() as f64)
            .collect();
        let cluster_utilization =
            server_utilization.iter().sum::<f64>() / server_utilization.len() as f64;
        let response_by_type = &self.response_by_type;
        let per_type: Vec<TypeQos> = tts_exec::par_map(&JobType::ALL, |&jt| {
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
