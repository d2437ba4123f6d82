//! Figure 12 regeneration: constrained-throughput runs per server class,
//! and the 77-candidate melting-point sweep that `repro fig12` runs per
//! class (one shared no-wax arm, 77 with-wax arms).

use std::hint::black_box;
use tts_bench::harness::{criterion_group, criterion_main, Criterion};
use tts_dcsim::cluster::default_melting_candidates;
use tts_dcsim::throttle::{run_constrained, select_melting_point_constrained};
use tts_dcsim::ClusterConfig;
use tts_obs::MetricsSink;
use tts_pcm::PcmMaterial;
use tts_server::{ServerClass, ServerWaxCharacteristics};
use tts_units::{Celsius, Fraction};
use tts_workload::GoogleTrace;

fn bench_fig12(c: &mut Criterion) {
    let trace = GoogleTrace::default_two_day();
    let mut group = c.benchmark_group("fig12_constrained_throughput");
    for class in ServerClass::ALL {
        let spec = class.spec();
        let chars = ServerWaxCharacteristics::extract(
            &spec,
            &PcmMaterial::commercial_paraffin(Celsius::new(45.0)),
        );
        let config = ClusterConfig::paper_cluster(spec, chars);
        let limit = config.thermal_limit(Fraction::new(0.71));
        group.bench_function(format!("single_run_{class}"), |b| {
            b.iter(|| {
                black_box(run_constrained(
                    &config,
                    limit,
                    trace.total(),
                    &MetricsSink::disabled(),
                ))
            })
        });
        if class == ServerClass::LowPower1U {
            group.bench_function("select_sweep_1u", |b| {
                b.iter(|| {
                    black_box(select_melting_point_constrained(
                        &config,
                        limit,
                        trace.total(),
                        default_melting_candidates(),
                        &MetricsSink::disabled(),
                    ))
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig12);
criterion_main!(benches);
