//! Ablation benches for the design choices called out in DESIGN.md.
//!
//! Beyond raw timing, each ablation prints the *quality* metric it trades
//! against (accuracy, peak reduction, response time) to stderr once, so
//! `cargo bench` output doubles as the ablation record.

use std::hint::black_box;
use std::sync::Once;
use tts_bench::harness::{criterion_group, criterion_main, Criterion};
use tts_dcsim::balancer::{LeastLoaded, RandomBalancer, RoundRobin};
use tts_dcsim::cluster::{run_cooling_load, select_melting_point, ClusterConfig};
use tts_dcsim::discrete::ClusterConfig as DiscreteConfig;
use tts_obs::MetricsSink;

/// The ablation cluster: 32 four-core servers in racks of eight.
fn discrete_32x4<B: tts_dcsim::balancer::Balancer>(
    balancer: B,
) -> tts_dcsim::discrete::DiscreteClusterSim<B> {
    DiscreteConfig::new(32)
        .cores_per_server(4)
        .rack_size(8)
        .build(balancer)
}
use tts_pcm::{ContainerBank, PcmMaterial};
use tts_server::{ServerClass, ServerWaxCharacteristics};
use tts_thermal::network::ThermalNetwork;
use tts_units::{
    Celsius, JoulesPerKelvin, Liters, Meters, Seconds, Watts, WattsPerKelvin,
    WattsPerSquareMeterKelvin,
};
use tts_workload::series::TimeSeries;
use tts_workload::{GoogleTrace, JobStream, JobType};

static REPORT: Once = Once::new();

/// A two-node RC rig with a known analytic endpoint.
fn rig() -> ThermalNetwork {
    let mut net = ThermalNetwork::new();
    let amb = net.add_boundary("ambient", Celsius::new(20.0));
    let a = net.add_capacitive("a", JoulesPerKelvin::new(1000.0), Celsius::new(80.0));
    let b = net.add_capacitive("b", JoulesPerKelvin::new(400.0), Celsius::new(20.0));
    net.connect(a, b, WattsPerKelvin::new(2.0));
    net.connect(b, amb, WattsPerKelvin::new(1.0));
    net.set_power(a, Watts::new(10.0));
    net
}

fn bench_balancers(c: &mut Criterion) {
    REPORT.call_once(report_quality_metrics);
    let trace = TimeSeries::new(Seconds::new(60.0), vec![0.7; 30]);
    let jobs = JobStream::new(trace, JobType::SocialNetworking, 32, 7).collect_all();
    let mut group = c.benchmark_group("ablation_balancer");
    group.sample_size(10);
    group.bench_function("round_robin", |b| {
        b.iter_batched(
            || discrete_32x4(RoundRobin::new()),
            |mut sim| black_box(sim.run(&jobs, Seconds::new(1800.0))),
        )
    });
    group.bench_function("least_loaded", |b| {
        b.iter_batched(
            || discrete_32x4(LeastLoaded::new()),
            |mut sim| black_box(sim.run(&jobs, Seconds::new(1800.0))),
        )
    });
    group.bench_function("random", |b| {
        b.iter_batched(
            || discrete_32x4(RandomBalancer::new(9)),
            |mut sim| black_box(sim.run(&jobs, Seconds::new(1800.0))),
        )
    });
    group.finish();
}

fn bench_melting_selection(c: &mut Criterion) {
    let trace = GoogleTrace::default_two_day();
    let spec = ServerClass::LowPower1U.spec();
    let chars = ServerWaxCharacteristics::extract(
        &spec,
        &PcmMaterial::commercial_paraffin(Celsius::new(45.0)),
    );
    let config = ClusterConfig::paper_cluster(spec, chars);
    let mut group = c.benchmark_group("ablation_melting_point");
    group.sample_size(10);
    group.bench_function("fixed_39C_retail_wax", |b| {
        let cfg = config.with_melting_point(Celsius::new(39.0));
        b.iter(|| {
            black_box(run_cooling_load(
                &cfg,
                trace.total(),
                &MetricsSink::disabled(),
            ))
        })
    });
    group.bench_function("optimized", |b| {
        b.iter(|| {
            black_box(select_melting_point(
                &config,
                trace.total(),
                (30..=60).map(f64::from),
                &MetricsSink::disabled(),
            ))
        })
    });
    group.finish();
}

/// One-time stderr report of the quality side of each ablation.
fn report_quality_metrics() {
    // Container subdivision: the paper's no-metal-mesh argument.
    let film = WattsPerSquareMeterKelvin::new(30.0);
    let one = ContainerBank::subdivide(Liters::new(4.0), 1, Meters::new(0.40), Meters::new(0.20));
    let four = ContainerBank::subdivide(Liters::new(4.0), 4, Meters::new(0.40), Meters::new(0.20));
    eprintln!(
        "[ablation] container subdivision: 1 box => {:.2} W/K, 4 boxes => {:.2} W/K ({}x)",
        one.total_conductance(film).value(),
        four.total_conductance(film).value(),
        four.total_conductance(film).value() / one.total_conductance(film).value()
    );

    // Melting point choice: retail 39 °C wax vs optimized, 1U cluster.
    let trace = GoogleTrace::default_two_day();
    let spec = ServerClass::LowPower1U.spec();
    let chars = ServerWaxCharacteristics::extract(
        &spec,
        &PcmMaterial::commercial_paraffin(Celsius::new(45.0)),
    );
    let config = ClusterConfig::paper_cluster(spec, chars);
    let fixed = run_cooling_load(
        &config.with_melting_point(Celsius::new(39.0)),
        trace.total(),
        &MetricsSink::disabled(),
    );
    let (_, best) = select_melting_point(
        &config,
        trace.total(),
        (30..=68).map(f64::from),
        &MetricsSink::disabled(),
    );
    eprintln!(
        "[ablation] melting point: fixed 39C => {:.2}% peak reduction, optimized ({:.0}C) => {:.2}%",
        fixed.peak_reduction.percent(),
        best.melting_point.value(),
        best.peak_reduction.percent()
    );

    // Balancer service quality under the same jobs.
    let jobs = {
        let trace = TimeSeries::new(Seconds::new(60.0), vec![0.85; 30]);
        JobStream::new(trace, JobType::MapReduce, 32, 7).collect_all()
    };
    let rr = discrete_32x4(RoundRobin::new())
        .run(&jobs, Seconds::new(1800.0))
        .mean_response_s;
    let ll = discrete_32x4(LeastLoaded::new())
        .run(&jobs, Seconds::new(1800.0))
        .mean_response_s;
    eprintln!("[ablation] balancer mean response: round-robin {rr:.2}s, least-loaded {ll:.2}s");
}

fn bench_steady_state(c: &mut Criterion) {
    // Direct linear solve vs. transient settling for the same equilibrium.
    // The direct solver serves `thermal::audit`; the characteristics and
    // blockage sweeps settle transiently.
    let mut group = c.benchmark_group("ablation_steady_state");
    group.bench_function("direct_solve", |b| {
        b.iter_batched(rig, |net| black_box(tts_thermal::solve_steady_state(&net)))
    });
    group.bench_function("transient_settling", |b| {
        b.iter_batched(rig, |mut net| {
            black_box(net.run_to_steady_state(Seconds::new(20.0), 1e-6, Seconds::new(1e7)))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_balancers,
    bench_melting_selection,
    bench_steady_state
);
criterion_main!(benches);
