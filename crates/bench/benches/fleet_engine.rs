//! Throughput of the epoch-sharded fleet engine, in simulated
//! server-steps (servers × epochs) per second, against the legacy
//! job-level heap engine at the paper's 1008-server cluster scale.
//!
//! Every benchmark sets `Throughput::Elements` to servers × 60-second
//! epochs (for the legacy engine: the equivalent epoch count of its
//! horizon), so the per-element rates in `BENCH_fleet.json` are directly
//! comparable across engines.

use std::hint::black_box;
use tts_bench::harness::{criterion_group, criterion_main, Criterion, Throughput};
use tts_dcsim::balancer::RoundRobin;
use tts_dcsim::fleet::{DatacenterSpec, FleetConfig, FleetSim};
use tts_dcsim_oracle::LegacySim;
use tts_units::Seconds;
use tts_workload::series::TimeSeries;
use tts_workload::{JobStream, JobType};

fn diurnal() -> TimeSeries {
    TimeSeries::from_fn(Seconds::new(300.0), 288, |t| {
        0.5 + 0.3 * (core::f64::consts::TAU * (t / 86_400.0 - 0.25)).sin()
    })
}

fn fleet(servers: usize, horizon_h: f64) -> FleetSim {
    FleetConfig::new(diurnal())
        .datacenter(DatacenterSpec::new("east", servers / 2))
        .datacenter(
            DatacenterSpec::new("west", servers - servers / 2)
                .ambient_c(26.0)
                .utc_offset_h(-8.0),
        )
        .cores_per_server(16)
        .rack_size(48)
        .shards(64)
        .horizon(Seconds::new(horizon_h * 3600.0))
        .build()
}

fn bench_fleet(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_engine");

    // The headline scale point: 100k servers, six diurnal hours.
    let (servers, horizon_h) = (100_000usize, 6.0);
    group.throughput(Throughput::Elements(
        servers as u64 * (horizon_h * 60.0) as u64,
    ));
    group.bench_function("100k_servers_6h", |b| {
        b.iter_batched(|| fleet(servers, horizon_h), |mut sim| black_box(sim.run()))
    });

    // The paper's cluster scale, for the head-to-head ratio below.
    let (servers, horizon_h) = (1008usize, 0.5);
    group.throughput(Throughput::Elements(
        servers as u64 * (horizon_h * 60.0) as u64,
    ));
    group.bench_function("1008_servers_30min", |b| {
        b.iter_batched(|| fleet(servers, horizon_h), |mut sim| black_box(sim.run()))
    });

    // The old engine at the same scale: 1008 servers replaying 30 minutes
    // of job-level events through the binary-heap simulator. Same
    // element accounting (servers × equivalent 60 s epochs).
    let jobs = {
        let trace = TimeSeries::new(Seconds::new(60.0), vec![0.7; 30]);
        JobStream::new(trace, JobType::SocialNetworking, 1008, 42).collect_all()
    };
    group.throughput(Throughput::Elements(1008 * 30));
    group.bench_function("legacy_1008_servers_30min", |b| {
        b.iter_batched(
            || LegacySim::new(1008, 16, 48, RoundRobin::new()),
            |mut sim| black_box(sim.run(&jobs, Seconds::new(1800.0))),
        )
    });

    group.finish();
}

criterion_group!(benches, bench_fleet);
criterion_main!(benches);
