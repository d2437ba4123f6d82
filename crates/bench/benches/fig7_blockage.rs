//! Figure 7 regeneration: the blockage sweeps for all three servers.
//!
//! The bench times one full 0–90 % sweep per server class (ten steady
//! states each) — the workload behind each Figure 7 panel.

use std::hint::black_box;
use tts_bench::harness::{criterion_group, criterion_main, Criterion};
use tts_obs::MetricsSink;
use tts_server::blockage::default_sweep;
use tts_server::ServerClass;

fn bench_fig7(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7_blockage_sweep");
    for class in ServerClass::ALL {
        let spec = class.spec();
        group.bench_function(format!("{class}"), |b| {
            b.iter(|| black_box(default_sweep(&spec, &MetricsSink::disabled())))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig7);
criterion_main!(benches);
