//! Discrete jobs and seeded Poisson job streams.
//!
//! DCSim is "an event-based simulator that models job arrival, load
//! balancing, and work completion". This module turns a utilization trace
//! into a concrete arrival stream: a non-homogeneous Poisson process whose
//! instantaneous rate makes the offered load match the trace.

use crate::series::TimeSeries;
use tts_rng::{Rng, SeedableRng, Xoshiro256pp};
use tts_units::Seconds;

/// The paper's three job types (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobType {
    /// Google Web Search.
    WebSearch,
    /// Social networking (Orkut).
    SocialNetworking,
    /// MapReduce batch work.
    MapReduce,
}

tts_units::derive_json! { enum JobType { WebSearch, SocialNetworking, MapReduce } }

impl JobType {
    /// All job types.
    pub const ALL: [JobType; 3] = [
        JobType::WebSearch,
        JobType::SocialNetworking,
        JobType::MapReduce,
    ];

    /// Mean service time of one job of this type on one server at nominal
    /// frequency. Interactive jobs are short; MapReduce tasks are long.
    pub fn mean_service_time(self) -> Seconds {
        match self {
            JobType::WebSearch => Seconds::new(0.5),
            JobType::SocialNetworking => Seconds::new(1.0),
            JobType::MapReduce => Seconds::new(30.0),
        }
    }
}

impl core::fmt::Display for JobType {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            JobType::WebSearch => "Web Search",
            JobType::SocialNetworking => "Social Networking",
            JobType::MapReduce => "MapReduce",
        };
        f.write_str(s)
    }
}

/// One job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Monotonically increasing id within a stream.
    pub id: u64,
    /// Job type.
    pub job_type: JobType,
    /// Arrival time.
    pub arrival: Seconds,
    /// Service demand on one server at nominal frequency.
    pub service_time: Seconds,
}

tts_units::derive_json! { struct Job { id, job_type, arrival, service_time } }

/// A seeded non-homogeneous Poisson job stream following a utilization
/// trace.
///
/// The arrival rate at time `t` is chosen so the offered load (arrival
/// rate × mean service time) equals `trace(t) × capacity`, where
/// `capacity` is the number of servers; service times are exponential.
/// Generation uses thinning against the trace's peak rate. The stream is
/// an [`Iterator`] in arrival order, so a consumer that walks it once
/// never holds the whole job list.
#[derive(Debug)]
pub struct JobStream {
    trace: TimeSeries,
    job_type: JobType,
    servers: usize,
    rng: Xoshiro256pp,
    next_id: u64,
    now: f64,
    /// Peak arrival rate (jobs/s) used as the thinning envelope.
    rate_max: f64,
}

impl JobStream {
    /// A stream of `job_type` jobs offered to `servers` servers following
    /// `trace`.
    ///
    /// # Panics
    /// Panics if `servers` is zero or the trace peak is non-positive.
    pub fn new(trace: TimeSeries, job_type: JobType, servers: usize, seed: u64) -> Self {
        assert!(servers > 0, "need at least one server");
        let peak = trace.peak();
        assert!(peak > 0.0, "trace must offer some load");
        let rate_max = peak * servers as f64 / job_type.mean_service_time().value();
        Self {
            trace,
            job_type,
            servers,
            rng: Xoshiro256pp::seed_from_u64(seed),
            next_id: 0,
            now: 0.0,
            rate_max,
        }
    }

    fn rate_at(&self, t: f64) -> f64 {
        self.trace.at(Seconds::new(t)) * self.servers as f64
            / self.job_type.mean_service_time().value()
    }

    /// Collects the entire stream.
    pub fn collect_all(self) -> Vec<Job> {
        self.collect()
    }
}

impl Iterator for JobStream {
    type Item = Job;

    /// The next job, or `None` once the trace is exhausted.
    fn next(&mut self) -> Option<Job> {
        let horizon = self.trace.duration().value();
        loop {
            // Thinning: candidate inter-arrival at the envelope rate.
            let u: f64 = self.rng.gen::<f64>().max(1e-300);
            self.now += -u.ln() / self.rate_max;
            if self.now >= horizon {
                return None;
            }
            let accept: f64 = self.rng.gen();
            if accept * self.rate_max <= self.rate_at(self.now) {
                let id = self.next_id;
                self.next_id += 1;
                let su: f64 = self.rng.gen::<f64>().max(1e-300);
                let service = -su.ln() * self.job_type.mean_service_time().value();
                return Some(Job {
                    id,
                    job_type: self.job_type,
                    arrival: Seconds::new(self.now),
                    service_time: Seconds::new(service),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_trace(util: f64, hours: f64) -> TimeSeries {
        let n = (hours * 60.0) as usize;
        TimeSeries::new(Seconds::new(60.0), vec![util; n])
    }

    #[test]
    fn offered_load_matches_trace() {
        // 100 servers at 60 % utilization with 1 s jobs → 60 jobs/s.
        let stream = JobStream::new(flat_trace(0.6, 2.0), JobType::SocialNetworking, 100, 7);
        let jobs = stream.collect_all();
        let duration = 2.0 * 3600.0;
        let rate = jobs.len() as f64 / duration;
        assert!((rate - 60.0).abs() < 2.0, "rate {rate} jobs/s");
        // Offered load = rate × mean service ≈ 60 server-equivalents.
        let total_work: f64 = jobs.iter().map(|j| j.service_time.value()).sum();
        let load = total_work / duration;
        assert!((load - 60.0).abs() < 3.0, "load {load}");
    }

    #[test]
    fn arrivals_are_ordered_and_ids_unique() {
        let stream = JobStream::new(flat_trace(0.5, 1.0), JobType::WebSearch, 10, 3);
        let jobs = stream.collect_all();
        for w in jobs.windows(2) {
            assert!(w[1].arrival.value() > w[0].arrival.value());
            assert_eq!(w[1].id, w[0].id + 1);
        }
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let a = JobStream::new(flat_trace(0.5, 1.0), JobType::MapReduce, 10, 42).collect_all();
        let b = JobStream::new(flat_trace(0.5, 1.0), JobType::MapReduce, 10, 42).collect_all();
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.arrival == y.arrival && x.service_time == y.service_time));
    }

    #[test]
    fn varying_trace_modulates_arrivals() {
        // First hour at 10 %, second at 90 %: the busy hour gets ~9× the
        // arrivals.
        let mut vals = vec![0.1; 60];
        vals.extend(vec![0.9; 60]);
        let trace = TimeSeries::new(Seconds::new(60.0), vals);
        let jobs = JobStream::new(trace, JobType::WebSearch, 50, 11).collect_all();
        let hour1 = jobs.iter().filter(|j| j.arrival.value() < 3600.0).count();
        let hour2 = jobs.len() - hour1;
        let ratio = hour2 as f64 / hour1.max(1) as f64;
        assert!((6.0..13.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn service_times_average_to_the_mean() {
        let jobs = JobStream::new(flat_trace(0.8, 1.0), JobType::MapReduce, 20, 5).collect_all();
        let mean: f64 =
            jobs.iter().map(|j| j.service_time.value()).sum::<f64>() / jobs.len() as f64;
        assert!((mean - 30.0).abs() < 3.0, "mean service {mean}");
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_panics() {
        JobStream::new(flat_trace(0.5, 1.0), JobType::WebSearch, 0, 1);
    }

    #[test]
    fn job_type_display_and_service_times() {
        assert_eq!(JobType::WebSearch.to_string(), "Web Search");
        assert!(
            JobType::MapReduce.mean_service_time().value()
                > JobType::WebSearch.mean_service_time().value()
        );
        assert_eq!(JobType::ALL.len(), 3);
    }
}
