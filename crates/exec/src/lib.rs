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
//! (a class, a seed, a scenario cell). [`par_map_mut`], the in-place
//! sibling, has one caller left: the frozen `legacy` engine's per-server
//! accounting. The fleet engine steps its shards on workers it spawns
//! once per run instead, because a spawn per 60-s epoch cost more than
//! the epoch's work.
//!
//! # Thread-count resolution
//!
//! 1. a *thread-local* budget installed by [`with_thread_budget`] (used by
//!    the serving layer's partitioned scheduler to lease a slice of the
//!    host budget to one experiment run without perturbing its neighbors),
//! 2. a process-wide override set via [`set_thread_override`] (used by the
//!    `repro --threads N` flag and the determinism tests),
//! 3. the `TTS_THREADS` environment variable,
//! 4. [`std::thread::available_parallelism`].
//!
//! The thread-local budget is read on the thread that *calls* `par_map`;
//! worker threads spawned by it fall back to the process-wide resolution,
//! which is safe because the determinism contract makes worker counts
//! unobservable in results.
//!
//! At one thread every entry point degrades to the plain serial loop on
//! the calling thread — no pool, no atomics, no spawn.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use tts_obs::{Determinism, MetricsSink};

pub mod pool;

pub use pool::WorkerPool;

/// Process-wide thread-count override; 0 means "no override".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

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

/// Overrides the thread count for every subsequent call in this process
/// (`None` clears the override). Intended for CLI flags (`--threads N`)
/// and tests; concurrent sweeps observe the new value on their next call.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::Relaxed);
}

/// The current process-wide override set via [`set_thread_override`], if
/// any. Callers that override temporarily (e.g. a per-request `threads`
/// parameter in the serving layer) read this first so they can restore
/// the previous value afterwards.
pub fn thread_override() -> Option<usize> {
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => None,
        n => Some(n),
    }
}

thread_local! {
    /// Per-thread worker budget; 0 means "no lease on this thread".
    static THREAD_BUDGET: Cell<usize> = const { Cell::new(0) };
}

/// Runs `f` with this thread's worker budget pinned to `threads`: every
/// [`thread_count`]-resolving call made *on this thread* inside `f` uses
/// the leased count, taking precedence over the process-wide override and
/// the environment. Nested leases shadow outer ones; the previous budget
/// is restored on exit (including unwinds). This is what lets concurrent
/// experiment runs hold independent slices of one host budget without the
/// save/set/restore race a process-global override would force.
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

/// The thread count used by [`par_map`] / [`par_map_mut`]: the calling
/// thread's [`with_thread_budget`] lease if inside one, else the
/// [`set_thread_override`] value if set, else `TTS_THREADS`, else the
/// machine's available parallelism. Always at least 1.
pub fn thread_count() -> usize {
    let leased = THREAD_BUDGET.with(Cell::get);
    if leased > 0 {
        return leased;
    }
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
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

/// Applies `f` to every item, returning results **in input order**. Uses
/// [`thread_count`] workers; see the crate docs for the determinism
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
pub fn par_map_with<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
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
    let mut tagged: Vec<(usize, U)> = Vec::with_capacity(items.len());
    let mut worker_loads: Vec<u64> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
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
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(part) => {
                    worker_loads.push(part.len() as u64);
                    tagged.extend(part);
                }
                // Re-raise a worker panic on the caller, preserving the
                // payload (mirrors what the serial loop would do).
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    if let Some(sink) = &obs {
        record_worker_stats(sink, &worker_loads);
    }

    // Reassemble in input order. Every index appears exactly once.
    let mut slots: Vec<Option<U>> = (0..items.len()).map(|_| None).collect();
    for (i, v) in tagged {
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

/// Applies `f` to every element of a mutable slice in parallel and
/// returns the per-element results **in input order**. The in-place
/// sibling of [`par_map`]: each element is visited exactly once through a
/// disjoint `&mut`, so for a pure-per-element `f` the mutations *and* the
/// returned `Vec` are byte-identical to the serial loop at any thread
/// count. Used only by the `legacy` engine, for its per-server accounting.
pub fn par_map_mut<T, U, F>(items: &mut [T], f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(&mut T) -> U + Sync,
{
    par_map_mut_with(thread_count(), items, f)
}

/// [`par_map_mut`] with an explicit worker count (1 = guaranteed serial
/// execution on the calling thread).
pub fn par_map_mut_with<T, U, F>(threads: usize, items: &mut [T], f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(&mut T) -> U + Sync,
{
    let workers = threads.max(1).min(items.len());
    if workers <= 1 {
        return items.iter_mut().map(f).collect();
    }
    // Static chunking: contiguous chunks keep the borrow checker happy
    // with plain safe code, and chunk order equals input order, so
    // concatenating per-chunk results reassembles the serial output
    // exactly.
    let chunk = items.len().div_ceil(workers);
    let mut out = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks_mut(chunk)
            .map(|part| scope.spawn(|| part.iter_mut().map(&f).collect::<Vec<U>>()))
            .collect();
        for h in handles {
            match h.join() {
                Ok(part) => out.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn override_beats_env_and_is_clearable() {
        set_thread_override(Some(3));
        assert_eq!(thread_count(), 3);
        set_thread_override(None);
        assert!(thread_count() >= 1);
    }

    #[test]
    fn thread_budget_shadows_global_override_and_restores() {
        // Run on a dedicated thread so other tests' global-override calls
        // cannot interleave with the assertion on the global fallback.
        std::thread::spawn(|| {
            assert_eq!(thread_budget(), None);
            with_thread_budget(3, || {
                assert_eq!(thread_budget(), Some(3));
                assert_eq!(thread_count(), 3);
                with_thread_budget(5, || assert_eq!(thread_count(), 5));
                // Inner lease restored to the outer one, not cleared.
                assert_eq!(thread_count(), 3);
            });
            assert_eq!(thread_budget(), None);
        })
        .join()
        .expect("budget thread");
    }

    #[test]
    fn thread_budget_restored_across_unwind() {
        std::thread::spawn(|| {
            let caught = std::panic::catch_unwind(|| {
                with_thread_budget(7, || panic!("inside lease"));
            });
            assert!(caught.is_err());
            assert_eq!(thread_budget(), None, "lease must not leak past unwind");
        })
        .join()
        .expect("unwind thread");
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

    #[test]
    fn map_mut_mutates_and_returns_in_input_order() {
        // Includes a unit-result map: the in-place per-element update the
        // legacy engine runs through `par_map_mut`.
        for threads in [1, 2, 5, 16] {
            let mut data: Vec<u64> = (0..83).collect();
            let out = par_map_mut_with(threads, &mut data, |v| {
                *v += 1000;
                *v * 2
            });
            let mutated: Vec<u64> = (0..83).map(|v| v + 1000).collect();
            let expected: Vec<u64> = mutated.iter().map(|v| v * 2).collect();
            assert_eq!(data, mutated, "threads={threads}");
            assert_eq!(out, expected, "threads={threads}");

            let mut data: Vec<u64> = (0..83).collect();
            let unit = par_map_mut_with(threads, &mut data, |v| *v += 1000);
            assert_eq!(unit.len(), 83, "threads={threads}");
            assert_eq!(data, mutated, "threads={threads}");
        }
    }

    #[test]
    fn map_mut_matches_serial_bitwise_on_floats() {
        let base: Vec<f64> = (0..250).map(|i| 0.3 * i as f64).collect();
        let f = |x: &mut f64| {
            *x = (x.cos() * 1e3).abs().sqrt();
            *x / 7.0
        };
        let (mut a, mut b) = (base.clone(), base);
        let serial = par_map_mut_with(1, &mut a, f);
        let parallel = par_map_mut_with(7, &mut b, f);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
        assert_eq!(bits(&serial), bits(&parallel));
    }
}
