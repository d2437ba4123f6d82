//! Deterministic parallel execution for embarrassingly parallel sweeps.
//!
//! Every headline experiment — the Figure 7 blockage sweeps, the
//! melting-point grid searches, the deployment-fraction sweeps — evaluates
//! many *independent* simulations. This crate provides the one primitive
//! they all need: an ordered [`par_map`] over a slice, built on
//! [`std::thread::scope`] with zero external dependencies.
//!
//! # Determinism contract
//!
//! `par_map(items, f)` returns `f` applied to every item **in input
//! order**, regardless of the thread count or OS scheduling. For a pure
//! `f` the returned `Vec` is therefore *byte-identical* to what the serial
//! loop `items.iter().map(f).collect()` produces — same values, same
//! order — so any consumer that folds the results **in input order**
//! (melting-point selection, JSON serialization of a sweep) observes no
//! difference between `TTS_THREADS=1` and `TTS_THREADS=64`. The
//! determinism tests in `tests/determinism.rs` enforce this end to end on
//! the figure pipelines.
//!
//! Work is distributed by an atomic index counter (dynamic load balancing:
//! a slow item does not stall the queue behind a fixed chunking), and each
//! worker tags results with their input index, so reassembly is exact.
//!
//! Every call spawns its workers afresh, which pays only for coarse items
//! (a class, a seed, a scenario cell). The fleet engine steps its shards
//! on workers it spawns once per run instead, because a spawn per 60-s
//! epoch cost more than the epoch's work.
//!
//! # Width
//!
//! [`thread_count`] resolves the width of a map on the thread that calls
//! it, in three steps:
//!
//! 1. the calling thread's lease, installed by [`with_thread_budget`]
//!    (`repro --threads N`, the serving layer's scheduler, perfbench),
//! 2. the `TTS_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! A map of n items runs at width w = min([`thread_count`], n). At
//! w ≤ 1 it is the plain serial loop on the calling thread — no spawn, no
//! atomics — and the caller's lease stays in force, so a map nested in a
//! narrow one can still fan out. At w > 1 it spawns w − 1 threads and the
//! caller runs worker 0, and every worker runs its items under
//! `with_thread_budget(1, …)`: a map nested in a fanned-out item, or a
//! fleet run inside one, runs serially, so one call never occupies more
//! than w threads. The determinism contract makes the width unobservable
//! in results.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use tts_obs::{Determinism, MetricsSink};

pub mod pool;

pub use pool::WorkerPool;

/// Fast-path flag mirroring whether [`METRICS`] holds an enabled sink, so
/// the disabled path never touches the mutex.
static METRICS_ON: AtomicBool = AtomicBool::new(false);

/// Process-wide metrics sink for the execution engine. The engine is
/// reached through free functions, so the sink is global rather than
/// threaded through every call site. Every metric it records is
/// [`Determinism::BestEffort`] — worker splits, drain times, and imbalance
/// are inherently thread-dependent — so a globally installed sink can
/// never leak into a deterministic snapshot.
static METRICS: Mutex<MetricsSink> = Mutex::new(MetricsSink::disabled());

/// Installs a process-wide sink for execution-engine telemetry (pass a
/// disabled sink to turn it back off). All exec metrics are best-effort;
/// see [`tts_obs::Determinism`].
pub fn set_metrics_sink(sink: MetricsSink) {
    METRICS_ON.store(sink.is_enabled(), Ordering::Relaxed);
    *METRICS.lock().expect("exec metrics sink poisoned") = sink;
}

/// The installed sink, or `None` when telemetry is off (the common case —
/// a single relaxed load).
fn metrics() -> Option<MetricsSink> {
    if !METRICS_ON.load(Ordering::Relaxed) {
        return None;
    }
    let sink = METRICS.lock().expect("exec metrics sink poisoned").clone();
    sink.is_enabled().then_some(sink)
}

/// Bucket edges for the per-worker task-count histogram (powers of two).
const TASKS_PER_WORKER_EDGES: [f64; 11] = [
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
];

thread_local! {
    /// Per-thread worker budget; 0 means "no lease on this thread".
    static THREAD_BUDGET: Cell<usize> = const { Cell::new(0) };
}

/// Runs `f` with this thread's worker budget pinned to `threads`: every
/// [`thread_count`]-resolving call made *on this thread* inside `f` uses
/// the leased count, taking precedence over the environment. Nested
/// leases shadow outer ones; the previous budget is restored on exit
/// (including unwinds). Being thread-local, a lease lets concurrent runs
/// hold independent slices of one host budget.
pub fn with_thread_budget<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_BUDGET.with(|b| b.set(self.0));
        }
    }
    let _restore = Restore(THREAD_BUDGET.with(|b| b.replace(threads.max(1))));
    f()
}

/// The budget leased to the current thread by [`with_thread_budget`], if
/// inside one.
pub fn thread_budget() -> Option<usize> {
    match THREAD_BUDGET.with(Cell::get) {
        0 => None,
        n => Some(n),
    }
}

/// The thread count used by [`par_map`]: the calling thread's
/// [`with_thread_budget`] lease if inside one, else `TTS_THREADS`, else
/// the machine's available parallelism. Always at least 1.
pub fn thread_count() -> usize {
    if let Some(leased) = thread_budget() {
        return leased;
    }
    if let Some(n) = std::env::var("TTS_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
    {
        return n.max(1);
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item, returning results **in input order**. Runs
/// at the width the crate docs describe; see them for the determinism
/// contract.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_with(thread_count(), items, f)
}

/// [`par_map`] with an explicit worker count (1 = guaranteed serial
/// execution on the calling thread).
fn par_map_with<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let obs = metrics();
    if let Some(sink) = &obs {
        sink.counter_tagged("exec.par_map_calls", Determinism::BestEffort)
            .incr();
        sink.counter_tagged("exec.items", Determinism::BestEffort)
            .add(items.len() as u64);
    }

    // Times the whole map (spawn → last join on the parallel path) on the
    // calling thread. Opened on the serial path too so the span's entry
    // count stays thread-invariant.
    let _drain = obs.as_ref().map(|sink| sink.span("exec.par_map"));

    let workers = threads.max(1).min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    // One worker's share: the items it claims, tagged with their index and
    // run at width 1.
    let drain = || {
        with_thread_budget(1, || {
            let mut out = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                out.push((i, f(&items[i])));
            }
            out
        })
    };
    let parts: Vec<Vec<(usize, U)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(drain)).collect();
        let mut parts = vec![drain()];
        for h in handles {
            match h.join() {
                Ok(part) => parts.push(part),
                // Re-raise a worker panic on the caller, preserving the
                // payload (mirrors what the serial loop would do).
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        parts
    });
    if let Some(sink) = &obs {
        let loads: Vec<u64> = parts.iter().map(|part| part.len() as u64).collect();
        record_worker_stats(sink, &loads);
    }

    // Reassemble in input order. Every index appears exactly once.
    let mut slots: Vec<Option<U>> = (0..items.len()).map(|_| None).collect();
    for (i, v) in parts.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "index {i} computed twice");
        slots[i] = Some(v);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index computed exactly once"))
        .collect()
}

/// Records how the dynamic queue split across workers: per-worker task
/// counts, the worker count, and the load imbalance (max / mean tasks per
/// worker, 1.0 = perfectly even). All best-effort.
fn record_worker_stats(sink: &MetricsSink, loads: &[u64]) {
    let hist = sink.histogram_tagged(
        "exec.tasks_per_worker",
        &TASKS_PER_WORKER_EDGES,
        Determinism::BestEffort,
    );
    for &n in loads {
        hist.record(n as f64);
    }
    sink.gauge_tagged("exec.workers", Determinism::BestEffort)
        .set(loads.len() as f64);
    let mean = loads.iter().sum::<u64>() as f64 / loads.len().max(1) as f64;
    let max = loads.iter().max().copied().unwrap_or(0) as f64;
    sink.gauge_tagged("exec.imbalance", Determinism::BestEffort)
        .set(if mean > 0.0 { max / mean } else { 0.0 });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn results_are_in_input_order() {
        let items: Vec<usize> = (0..97).collect();
        for threads in [1, 2, 3, 8, 64] {
            let out = par_map_with(threads, &items, |&i| i * i);
            let expected: Vec<usize> = items.iter().map(|&i| i * i).collect();
            assert_eq!(out, expected, "threads={threads}");
        }
    }

    #[test]
    fn parallel_matches_serial_bitwise_on_floats() {
        // The contract that makes the figure pipelines thread-invariant:
        // per-item results are computed independently, so parallel output
        // bits equal serial output bits.
        let items: Vec<f64> = (0..500).map(|i| 0.1 * i as f64).collect();
        let f = |x: &f64| (x.sin() * 1e6).exp().sqrt() + x / 3.0;
        let serial = par_map_with(1, &items, f);
        let parallel = par_map_with(7, &items, f);
        let s_bits: Vec<u64> = serial.iter().map(|v| v.to_bits()).collect();
        let p_bits: Vec<u64> = parallel.iter().map(|v| v.to_bits()).collect();
        assert_eq!(s_bits, p_bits);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_with(8, &empty, |&x| x).is_empty());
        assert_eq!(par_map_with(8, &[41u32], |&x| x + 1), vec![42]);
    }

    #[test]
    fn worker_count_never_exceeds_items() {
        // 3 items with 64 requested threads must still produce 3 results.
        let out = par_map_with(64, &[1, 2, 3], |&x| x * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let result = std::panic::catch_unwind(|| {
            par_map_with(4, &[1, 2, 3, 4, 5], |&x| {
                if x == 3 {
                    panic!("boom at {x}");
                }
                x
            })
        });
        assert!(result.is_err(), "worker panic must reach the caller");
    }

    #[test]
    fn thread_budget_nests_and_restores() {
        assert_eq!(thread_budget(), None);
        with_thread_budget(3, || {
            assert_eq!(thread_budget(), Some(3));
            assert_eq!(thread_count(), 3);
            with_thread_budget(5, || assert_eq!(thread_count(), 5));
            // Inner lease restored to the outer one, not cleared.
            assert_eq!(thread_count(), 3);
        });
        assert_eq!(thread_budget(), None);
    }

    #[test]
    fn thread_budget_restored_across_unwind() {
        let caught = std::panic::catch_unwind(|| {
            with_thread_budget(7, || panic!("inside lease"));
        });
        assert!(caught.is_err());
        assert_eq!(thread_budget(), None, "lease must not leak past unwind");
    }

    #[test]
    fn thread_budget_is_thread_local_not_inherited() {
        with_thread_budget(4, || {
            let other = std::thread::spawn(thread_budget)
                .join()
                .expect("spawned probe");
            assert_eq!(other, None, "lease must not leak to other threads");
            assert_eq!(thread_budget(), Some(4));
        });
    }

    /// Holds each of `n` items until all `n` have started, so a width-`n`
    /// map puts exactly one item on each of its workers.
    fn rendezvous(arrived: &AtomicUsize, n: usize) {
        arrived.fetch_add(1, Ordering::SeqCst);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while arrived.load(Ordering::SeqCst) < n {
            assert!(
                std::time::Instant::now() < deadline,
                "{n} items never ran at once"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_fanned_out_item_runs_at_width_one() {
        let caller = std::thread::current().id();
        let arrived = AtomicUsize::new(0);
        let inner: Vec<u32> = (0..16).collect();
        let seen = par_map_with(4, &[0, 1, 2, 3], |_| {
            rendezvous(&arrived, 4);
            let me = std::thread::current().id();
            let nested = par_map(&inner, |_| std::thread::current().id());
            (me, thread_budget(), nested)
        });
        assert!(
            seen.iter().any(|(id, _, _)| *id != caller),
            "no spawned worker"
        );
        for (id, budget, nested) in &seen {
            assert_eq!(*budget, Some(1), "an item runs under a width-1 lease");
            assert!(
                nested.iter().all(|inner_id| inner_id == id),
                "a nested map runs on its item's thread"
            );
        }
    }

    #[test]
    fn a_width_w_map_runs_on_w_threads_the_callers_included() {
        let caller = std::thread::current().id();
        for w in [2, 3, 5] {
            let arrived = AtomicUsize::new(0);
            let items: Vec<usize> = (0..w).collect();
            let ids = par_map_with(w, &items, |_| {
                rendezvous(&arrived, w);
                std::thread::current().id()
            });
            let distinct: HashSet<_> = ids.into_iter().collect();
            assert_eq!(distinct.len(), w, "width {w}");
            assert!(distinct.contains(&caller), "the caller runs worker 0");

            let many: Vec<usize> = (0..200).collect();
            let ids = par_map_with(w, &many, |_| std::thread::current().id());
            let distinct: HashSet<_> = ids.into_iter().collect();
            assert!(distinct.len() <= w, "width {w}: {} threads", distinct.len());
        }
    }

    #[test]
    fn a_serial_map_keeps_the_callers_lease() {
        with_thread_budget(3, || {
            // Width 1 by count, and width 1 by a single item.
            let narrow = par_map_with(1, &[0, 1], |_| thread_budget());
            assert_eq!(narrow, vec![Some(3), Some(3)]);
            assert_eq!(par_map(&[0], |_| thread_count()), vec![3]);
        });
    }

    #[test]
    fn metrics_sink_records_best_effort_worker_stats() {
        let sink = MetricsSink::fresh();
        set_metrics_sink(sink.clone());
        let items: Vec<u64> = (0..100).collect();
        let out = par_map_with(4, &items, |&x| x * 2);
        set_metrics_sink(MetricsSink::disabled());
        assert_eq!(out.len(), 100);
        // ">=" rather than "==": other tests in this binary may run
        // par_map concurrently while the global sink is installed.
        assert!(
            sink.counter_tagged("exec.par_map_calls", Determinism::BestEffort)
                .value()
                >= 1
        );
        assert!(
            sink.counter_tagged("exec.items", Determinism::BestEffort)
                .value()
                >= 100
        );
        // Exec counters/gauges/histograms are all best-effort: only the
        // span entry count (thread-invariant) may appear deterministically.
        let det = sink.snapshot(None, None).expect("sink is enabled");
        for section in ["counters", "gauges", "histograms"] {
            let rendered = det
                .get(section)
                .expect("section present")
                .to_string_pretty();
            assert!(!rendered.contains("exec."), "{section}: {rendered}");
        }
    }
}
