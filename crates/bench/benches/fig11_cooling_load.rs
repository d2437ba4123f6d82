//! Figure 11 regeneration: two-day cooling-load runs per server class.
//!
//! Times (a) a single cluster run over the two-day trace and (b) the full
//! melting-point optimization behind each Figure 11 panel. Characteristics
//! extraction is hoisted out (it is a Figure-7-class workload, measured in
//! `fig7_blockage`).

use std::hint::black_box;
use tts_bench::harness::{criterion_group, criterion_main, Criterion};
use tts_dcsim::cluster::{
    default_melting_candidates, run_cooling_load, select_melting_point, ClusterConfig,
};
use tts_obs::MetricsSink;
use tts_pcm::PcmMaterial;
use tts_server::{ServerClass, ServerWaxCharacteristics};
use tts_units::Celsius;
use tts_workload::GoogleTrace;

fn bench_fig11(c: &mut Criterion) {
    let trace = GoogleTrace::default_two_day();
    let mut group = c.benchmark_group("fig11_cooling_load");
    for class in ServerClass::ALL {
        let spec = class.spec();
        let chars = ServerWaxCharacteristics::extract(
            &spec,
            &PcmMaterial::commercial_paraffin(Celsius::new(45.0)),
        );
        let config = ClusterConfig::paper_cluster(spec, chars);
        group.bench_function(format!("single_run_{class}"), |b| {
            b.iter(|| {
                black_box(run_cooling_load(
                    &config,
                    trace.total(),
                    &MetricsSink::disabled(),
                ))
            })
        });
        group.bench_function(format!("melting_point_search_{class}"), |b| {
            b.iter(|| {
                black_box(select_melting_point(
                    &config,
                    trace.total(),
                    default_melting_candidates(),
                    &MetricsSink::disabled(),
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig11);
criterion_main!(benches);
