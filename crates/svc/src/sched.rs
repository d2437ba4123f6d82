//! The partitioned thread-budget scheduler.
//!
//! Replaces the old global simulation lock: instead of serializing every
//! experiment run behind one mutex, runs acquire a [`Lease`] on a slice
//! of the host's worker budget and execute concurrently under
//! [`tts_exec::with_thread_budget`]. A lease is a real bound: a
//! `tts_exec` map fans out to at most its width, counting the calling
//! thread, and runs every fanned-out item at width 1, so a run's nested
//! sweeps never add threads. An 8-thread host can run a 4-thread `fleet`
//! next to two 2-thread `fig7`s on 8 compute threads. The repo-wide
//! determinism contract guarantees the response bytes cannot depend on
//! the split — only latency can (property-tested in `tests/sched_prop.rs`
//! and asserted end-to-end in `tests/serve_e2e.rs`).
//!
//! Policy, deliberately simple and starvation-free:
//!
//! * A run asks for `want` threads; the grant is `min(want, budget)`,
//!   never less than 1 — an oversized ask degrades to whole-budget
//!   execution rather than deadlocking.
//! * Leases are granted in strict FIFO ticket order. A wide ask at the
//!   head waits for enough budget to free up and narrower asks queue
//!   behind it, so every run's wait is bounded by the runs ahead of it —
//!   no lease can be starved by a stream of later arrivals.
//! * Admission control: [`Scheduler::lease`] rejects instead of queueing
//!   when the wait queue is full (the synchronous request path answers
//!   `429 Too Many Requests`). [`Scheduler::lease_queued`] always waits
//!   (the async job runner, whose admission is the job-store cap).
//! * Fairness between short cached and long cold requests falls out of
//!   the cache sitting *in front* of the scheduler: hits never take a
//!   lease, so a queue full of cold `fleet` runs cannot delay a cached
//!   answer.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

use tts_obs::{Counter, Determinism, Gauge, MetricsSink};

/// Rejection from [`Scheduler::lease`]: the bounded wait queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerFull;

/// FIFO lease queue over a fixed thread budget.
pub struct Scheduler {
    budget: usize,
    max_wait: usize,
    state: Mutex<SchedState>,
    cv: Condvar,
    leased_gauge: Gauge,
    waiting_gauge: Gauge,
    admitted: Counter,
    rejected: Counter,
}

#[derive(Debug)]
struct SchedState {
    /// Threads currently leased out.
    leased: usize,
    /// Tickets waiting for budget, in grant order.
    queue: VecDeque<u64>,
    next_ticket: u64,
}

impl Scheduler {
    /// A scheduler over `budget` worker threads (clamped to ≥ 1) with a
    /// wait queue bounded at `max_wait` admission-checked leases.
    #[must_use]
    pub fn new(budget: usize, max_wait: usize, sink: &MetricsSink) -> Self {
        Self {
            budget: budget.max(1),
            max_wait,
            state: Mutex::new(SchedState {
                leased: 0,
                queue: VecDeque::new(),
                next_ticket: 0,
            }),
            cv: Condvar::new(),
            leased_gauge: sink.gauge_tagged("svc.sched.leased", Determinism::BestEffort),
            waiting_gauge: sink.gauge_tagged("svc.sched.waiting", Determinism::BestEffort),
            admitted: sink.counter_tagged("svc.sched.admitted", Determinism::BestEffort),
            rejected: sink.counter_tagged("svc.sched.rejected", Determinism::BestEffort),
        }
    }

    /// The host budget this scheduler partitions.
    #[must_use]
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Threads currently leased out (diagnostic).
    #[must_use]
    pub fn leased(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .leased
    }

    /// Acquires `min(want, budget)` threads, waiting in FIFO order, but
    /// rejecting up front when the wait queue already holds `max_wait`
    /// leases — the admission-controlled path for synchronous requests.
    pub fn lease(&self, want: usize) -> Result<Lease<'_>, SchedulerFull> {
        self.acquire(want, true)
    }

    /// Acquires `min(want, budget)` threads, waiting in FIFO order
    /// without an admission bound — for callers that carry their own
    /// (the async job runner's job cap).
    pub fn lease_queued(&self, want: usize) -> Lease<'_> {
        self.acquire(want, false)
            .expect("unbounded lease cannot be rejected")
    }

    fn acquire(&self, want: usize, bounded: bool) -> Result<Lease<'_>, SchedulerFull> {
        let grant = want.clamp(1, self.budget);
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        // Admission control applies only to leases that would have to
        // wait: an immediately grantable ask is never rejected.
        let must_wait = !state.queue.is_empty() || state.leased + grant > self.budget;
        if bounded && must_wait && state.queue.len() >= self.max_wait {
            self.rejected.incr();
            return Err(SchedulerFull);
        }
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.queue.push_back(ticket);
        self.waiting_gauge.set(state.queue.len() as f64);
        while state.queue.front() != Some(&ticket) || state.leased + grant > self.budget {
            state = self.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        state.queue.pop_front();
        state.leased += grant;
        self.admitted.incr();
        self.leased_gauge.set(state.leased as f64);
        self.waiting_gauge.set(state.queue.len() as f64);
        // A narrower successor may fit alongside this grant: let the new
        // head re-evaluate.
        self.cv.notify_all();
        Ok(Lease { sched: self, grant })
    }

    /// Returns `grant` threads to the pool and wakes waiters.
    fn release(&self, grant: usize) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.leased = state.leased.saturating_sub(grant);
        self.leased_gauge.set(state.leased as f64);
        drop(state);
        self.cv.notify_all();
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("budget", &self.budget)
            .field("max_wait", &self.max_wait)
            .finish_non_exhaustive()
    }
}

/// A granted slice of the budget; returned to the pool on drop.
#[derive(Debug)]
pub struct Lease<'a> {
    sched: &'a Scheduler,
    grant: usize,
}

impl Lease<'_> {
    /// The number of threads this lease holds.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.grant
    }

    /// Runs `f` with the calling thread's executor budget pinned to this
    /// lease's grant: every `tts_exec` sweep inside `f` uses at most the
    /// leased worker count, whatever the environment says.
    pub fn run<R>(&self, f: impl FnOnce() -> R) -> R {
        tts_exec::with_thread_budget(self.grant, f)
    }
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        self.sched.release(self.grant);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn grants_clamp_to_the_budget() {
        let sched = Scheduler::new(4, 8, &MetricsSink::disabled());
        let lease = sched.lease(64).unwrap();
        assert_eq!(lease.threads(), 4);
        drop(lease);
        let lease = sched.lease(0).unwrap();
        assert_eq!(lease.threads(), 1, "zero asks degrade to one thread");
    }

    #[test]
    fn lease_run_pins_the_executor_budget() {
        let sched = Scheduler::new(8, 8, &MetricsSink::disabled());
        let lease = sched.lease(3).unwrap();
        lease.run(|| assert_eq!(tts_exec::thread_count(), 3));
    }

    #[test]
    fn concurrent_leases_never_exceed_the_budget() {
        let sched = Arc::new(Scheduler::new(4, 64, &MetricsSink::disabled()));
        let peak = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..16)
            .map(|i| {
                let (sched, peak) = (Arc::clone(&sched), Arc::clone(&peak));
                std::thread::spawn(move || {
                    let lease = sched.lease_queued(1 + i % 4);
                    let seen = sched.leased();
                    peak.fetch_max(seen, Ordering::Relaxed);
                    assert!(seen <= 4, "leased {seen} over budget");
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    drop(lease);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("lease thread");
        }
        assert_eq!(sched.leased(), 0, "all leases returned");
        assert!(peak.load(Ordering::Relaxed) >= 2, "some overlap happened");
    }

    #[test]
    fn admission_rejects_when_the_wait_queue_is_full() {
        let sched = Arc::new(Scheduler::new(2, 0, &MetricsSink::disabled()));
        let hold = sched.lease(2).unwrap();
        // Budget exhausted and the queue bounded at zero: an
        // admission-checked ask must bounce, a queued one must wait.
        assert_eq!(sched.lease(1).unwrap_err(), SchedulerFull);
        let waiter = {
            let sched = Arc::clone(&sched);
            std::thread::spawn(move || drop(sched.lease_queued(1)))
        };
        drop(hold);
        waiter.join().expect("queued lease completes");
    }
}
