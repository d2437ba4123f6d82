//! Latency of the `tts-design` search stack: the optimizer overhead alone
//! (CMA-ES + surrogate screening on an analytic objective, no simulator),
//! and the paper-space melting-point search end to end against the real
//! dcsim cooling-load oracle. Throughput is counted in paid simulator
//! evaluations, so the per-element rate in `BENCH_design.json` reads as
//! "time per design-point evaluation including all optimizer overhead".

use std::hint::black_box;
use thermal_time_shifting::design::{self, SearchConfig};
use tts_bench::harness::{criterion_group, criterion_main, Criterion, Throughput};
use tts_dcsim::ClusterConfig;
use tts_design::{minimize, DesignSpace, Dim, Objective};
use tts_obs::MetricsSink;
use tts_pcm::PcmMaterial;
use tts_server::{ServerClass, ServerWaxCharacteristics};
use tts_units::Celsius;
use tts_workload::GoogleTrace;

/// The analytic stand-in: a 3-D sphere, so the measurement is pure
/// optimizer overhead (ask/tell, RBF fits, EI ranking, memo bookkeeping).
struct Sphere;

impl Objective for Sphere {
    type Out = f64;
    fn evaluate(&self, x: &[f64]) -> f64 {
        x.iter().map(|v| (v - 0.4) * (v - 0.4)).sum()
    }
    fn value(&self, out: &f64) -> f64 {
        *out
    }
}

fn bench_design(c: &mut Criterion) {
    let mut group = c.benchmark_group("design_search");
    group.sample_size(10);

    // Optimizer overhead: 120 evaluations of a free objective.
    let space = DesignSpace::new(
        (0..3)
            .map(|_| Dim::Continuous {
                name: "x",
                lo: 0.0,
                hi: 1.0,
                step: 0.0,
            })
            .collect(),
    );
    let cfg = SearchConfig {
        budget: 120,
        max_generations: 80,
        screen: 2,
        ..SearchConfig::default()
    };
    group.throughput(Throughput::Elements(cfg.budget as u64));
    group.bench_function("overhead_sphere_3d_120_evals", |b| {
        b.iter_batched(
            || (),
            |()| black_box(minimize(&space, &Sphere, &cfg, &MetricsSink::disabled())),
        )
    });

    // End to end: the paper's melting-point space against the real dcsim
    // cooling-load oracle at the `design` experiment's default budget.
    let spec = ServerClass::LowPower1U.spec();
    let chars = ServerWaxCharacteristics::extract(
        &spec,
        &PcmMaterial::commercial_paraffin(Celsius::new(45.0)),
    );
    let config = ClusterConfig::paper_cluster(spec, chars);
    let trace = GoogleTrace::default_two_day().total().clone();
    let paper_cfg = SearchConfig {
        budget: 7,
        max_generations: 40,
        ..SearchConfig::default()
    };
    group.throughput(Throughput::Elements(paper_cfg.budget as u64));
    group.bench_function("paper_space_budget_7", |b| {
        b.iter(|| {
            black_box(design::search_melting_point(
                &config,
                &trace,
                &paper_cfg,
                &MetricsSink::disabled(),
            ))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_design);
criterion_main!(benches);
