//! A minimal wall-clock benchmark harness (the `criterion` replacement).
//!
//! Exposes the slice of the criterion API the `benches/*.rs` targets use —
//! [`Criterion`], [`BenchmarkGroup`], [`Bencher::iter`]/[`iter_batched`](Bencher::iter_batched),
//! [`Throughput`] and the [`criterion_group!`]/[`criterion_main!`] macros
//! — hermetically. Unlike criterion's, `iter_batched` takes no batch-size
//! hint: it re-runs the setup closure for every timed call.
//!
//! Each benchmark is measured as `sample_size` wall-clock samples (default
//! 10, `TTS_BENCH_SAMPLES` overrides); fast routines are auto-batched so a
//! sample is never shorter than ~1 ms. Results print as one line per bench
//! and are written as a JSON report (via the in-repo `tts_units::json`
//! layer) to `TTS_BENCH_OUT`, defaulting to
//! `target/tts-bench/<binary>.json`.
//!
//! [`criterion_group!`]: crate::criterion_group
//! [`criterion_main!`]: crate::criterion_main

use std::time::{Duration, Instant};
use tts_units::json::{Json, ToJson};

pub use crate::{criterion_group, criterion_main};

/// Smallest target duration for one timed sample; fast routines are run in
/// batches of iterations until a sample reaches this.
const MIN_SAMPLE: Duration = Duration::from_millis(1);

/// Hard cap on auto-batched iterations per sample.
const MAX_ITERS: u64 = 100_000;

/// How a benchmark's reported quantity scales, for throughput lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// The routine processes this many logical elements per call.
    Elements(u64),
}

/// One benchmark's measured statistics, in nanoseconds per iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// `group/id` (or bare id for ungrouped benches).
    pub name: String,
    /// Samples actually taken.
    pub samples: u64,
    /// Iterations per sample (auto-batched).
    pub iters_per_sample: u64,
    /// Mean time per iteration, ns.
    pub mean_ns: f64,
    /// Fastest sample, ns per iteration.
    pub min_ns: f64,
    /// Slowest sample, ns per iteration.
    pub max_ns: f64,
    /// Median sample, ns per iteration.
    pub median_ns: f64,
    /// Elements (or bytes) per iteration when a throughput was declared.
    pub throughput_per_iter: Option<f64>,
}

tts_units::derive_json! { struct BenchResult {
    name, samples, iters_per_sample, mean_ns, min_ns, max_ns, median_ns, throughput_per_iter
} }

/// The harness entry point handed to every bench function.
#[derive(Debug, Default)]
pub struct Criterion {
    results: Vec<BenchResult>,
}

impl Criterion {
    /// An empty harness.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: default_samples(),
            throughput: None,
        }
    }

    /// Measures one ungrouped benchmark.
    pub fn bench_function(
        &mut self,
        id: impl Into<String>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let r = measure(id.into(), default_samples(), None, f);
        self.push(r);
        self
    }

    fn push(&mut self, r: BenchResult) {
        println!(
            "bench {:<48} mean {:>12}  (min {}, max {}, {}x{} iters){}",
            r.name,
            fmt_ns(r.mean_ns),
            fmt_ns(r.min_ns),
            fmt_ns(r.max_ns),
            r.samples,
            r.iters_per_sample,
            r.throughput_per_iter
                .map(|t| format!("  {:.0} elem/s", t * 1e9 / r.mean_ns))
                .unwrap_or_default(),
        );
        self.results.push(r);
    }

    /// All results measured so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Writes the JSON report. Called by [`criterion_main!`](crate::criterion_main).
    pub fn write_report(&self) {
        let path = report_path();
        if let Some(dir) = std::path::Path::new(&path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let doc = Json::Obj(vec![(
            "benchmarks".to_string(),
            self.results.to_vec().to_json(),
        )]);
        match std::fs::write(&path, doc.to_string_pretty()) {
            Ok(()) => println!("bench report written to {path}"),
            Err(e) => eprintln!("could not write bench report to {path}: {e}"),
        }
    }
}

fn default_samples() -> u64 {
    std::env::var("TTS_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10)
        .max(1)
}

fn report_path() -> String {
    if let Ok(p) = std::env::var("TTS_BENCH_OUT") {
        return p;
    }
    let argv0 = std::env::args().next().unwrap_or_default();
    let exe = std::path::Path::new(&argv0);
    let stem = exe
        .file_stem()
        .map(|s| strip_cargo_hash(&s.to_string_lossy()))
        .unwrap_or_else(|| "bench".to_string());
    // Anchor the report dir at the build's `target/` directory rather than
    // the process cwd (cargo runs benches from the package dir, which would
    // scatter reports across crates/*/target).
    let target_dir = std::env::var("CARGO_TARGET_DIR").ok().or_else(|| {
        exe.ancestors()
            .find(|a| a.file_name().is_some_and(|n| n == "target"))
            .map(|a| a.to_string_lossy().into_owned())
    });
    match target_dir {
        Some(t) => format!("{t}/tts-bench/{stem}.json"),
        None => format!("target/tts-bench/{stem}.json"),
    }
}

/// Drops cargo's `-<16 hex digit>` disambiguation suffix from a bench
/// executable's stem, so reports get stable names across rebuilds.
fn strip_cargo_hash(stem: &str) -> String {
    match stem.rsplit_once('-') {
        Some((base, hash)) if hash.len() == 16 && hash.chars().all(|c| c.is_ascii_hexdigit()) => {
            base.to_string()
        }
        _ => stem.to_string(),
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// A named collection of benchmarks sharing sample settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: u64,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = (n as u64).max(1);
        self
    }

    /// Declares the per-iteration throughput for subsequent benchmarks.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Measures one benchmark in this group.
    pub fn bench_function(
        &mut self,
        id: impl Into<String>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let name = format!("{}/{}", self.name, id.into());
        let r = measure(name, self.sample_size, self.throughput, f);
        self.criterion.push(r);
        self
    }

    /// Ends the group (accepted for criterion compatibility).
    pub fn finish(self) {}
}

/// Passed to the bench closure; runs and times the routine.
#[derive(Debug, Default)]
pub struct Bencher {
    /// Durations of timed samples, filled by `iter`/`iter_batched`.
    samples: Vec<Duration>,
    /// Samples requested.
    sample_size: u64,
    /// Iterations folded into each sample (decided during warm-up).
    iters_per_sample: u64,
}

impl Bencher {
    /// Times `routine`, called repeatedly.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        self.run(|| (), |()| routine());
    }

    /// Times `routine` on fresh input from `setup`, called before every
    /// timed call; the setup cost is excluded from the measurement.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
    ) {
        self.run(&mut setup, &mut routine);
    }

    fn run<I, O>(&mut self, mut setup: impl FnMut() -> I, mut routine: impl FnMut(I) -> O) {
        // Warm-up: one untimed call, also the auto-batching probe.
        let input = setup();
        let t0 = Instant::now();
        std::hint::black_box(routine(input));
        let probe = t0.elapsed();
        let iters = if probe >= MIN_SAMPLE {
            1
        } else {
            let est = probe.as_nanos().max(1) as u64;
            (MIN_SAMPLE.as_nanos() as u64 / est).clamp(1, MAX_ITERS)
        };
        self.iters_per_sample = iters;
        self.samples.clear();
        for _ in 0..self.sample_size {
            let mut elapsed = Duration::ZERO;
            for _ in 0..iters {
                let input = setup();
                let t0 = Instant::now();
                std::hint::black_box(routine(input));
                elapsed += t0.elapsed();
            }
            self.samples.push(elapsed);
        }
    }
}

fn measure(
    name: String,
    sample_size: u64,
    throughput: Option<Throughput>,
    mut f: impl FnMut(&mut Bencher),
) -> BenchResult {
    let mut b = Bencher {
        samples: Vec::new(),
        sample_size,
        iters_per_sample: 1,
    };
    f(&mut b);
    let iters = b.iters_per_sample.max(1);
    let mut per_iter: Vec<f64> = b
        .samples
        .iter()
        .map(|d| d.as_nanos() as f64 / iters as f64)
        .collect();
    if per_iter.is_empty() {
        // The closure never called iter/iter_batched; record a zero result
        // rather than panicking so a stub bench still reports.
        per_iter.push(0.0);
    }
    per_iter.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    let n = per_iter.len();
    let mean = per_iter.iter().sum::<f64>() / n as f64;
    let median = if n % 2 == 1 {
        per_iter[n / 2]
    } else {
        (per_iter[n / 2 - 1] + per_iter[n / 2]) / 2.0
    };
    BenchResult {
        name,
        samples: n as u64,
        iters_per_sample: iters,
        mean_ns: mean,
        min_ns: per_iter[0],
        max_ns: per_iter[n - 1],
        median_ns: median,
        throughput_per_iter: throughput.map(|Throughput::Elements(e)| e as f64),
    }
}

/// Declares a bench group runner: `criterion_group!(benches, fn_a, fn_b)`
/// defines `fn benches(c: &mut Criterion)` calling each bench function.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group(c: &mut $crate::harness::Criterion) {
            $($target(c);)+
        }
    };
}

/// Declares the bench binary's `main`, running every group and writing the
/// JSON report.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::harness::Criterion::new();
            $($group(&mut c);)+
            c.write_report();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_measures_something() {
        let r = measure("t/spin".to_string(), 3, None, |b| {
            b.iter(|| (0..1000u64).sum::<u64>())
        });
        assert_eq!(r.samples, 3);
        assert!(r.iters_per_sample >= 1);
        assert!(r.mean_ns > 0.0);
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
    }

    #[test]
    fn iter_batched_excludes_setup_from_iters() {
        let r = measure(
            "t/batched".to_string(),
            2,
            Some(Throughput::Elements(10)),
            |b| b.iter_batched(|| vec![1.0f64; 64], |v| v.iter().sum::<f64>()),
        );
        assert_eq!(r.samples, 2);
        assert_eq!(r.throughput_per_iter, Some(10.0));
    }

    #[test]
    fn results_serialize_to_json() {
        let r = BenchResult {
            name: "g/x".into(),
            samples: 5,
            iters_per_sample: 2,
            mean_ns: 1.5,
            min_ns: 1.0,
            max_ns: 2.0,
            median_ns: 1.4,
            throughput_per_iter: None,
        };
        let text = r.to_json_string();
        assert!(text.contains("\"name\":\"g/x\""));
        assert!(text.contains("\"samples\":5"));
    }
}
