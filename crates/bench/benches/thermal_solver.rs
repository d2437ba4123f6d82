//! Performance of the RC thermal-network solver (the Icepak substitute).

use std::hint::black_box;
use tts_bench::harness::{criterion_group, criterion_main, Criterion};
use tts_server::{ServerClass, ServerThermalModel};
use tts_thermal::network::ThermalNetwork;
use tts_units::{Celsius, Fraction, JoulesPerKelvin, Seconds, Watts, WattsPerKelvin};

/// A synthetic chain network with `n` air nodes and `n` solids.
fn chain_network(n: usize) -> ThermalNetwork {
    let mut net = ThermalNetwork::new();
    let inlet = net.add_boundary("inlet", Celsius::new(25.0));
    let outlet = net.add_boundary("outlet", Celsius::new(25.0));
    let mcp = WattsPerKelvin::new(10.0);
    let mut prev = inlet;
    for i in 0..n {
        let air = net.add_air(format!("air{i}"), Celsius::new(25.0));
        net.advect(prev, air, mcp);
        let solid = net.add_capacitive(
            format!("solid{i}"),
            JoulesPerKelvin::new(500.0),
            Celsius::new(25.0),
        );
        net.connect(solid, air, WattsPerKelvin::new(2.0));
        net.set_power(solid, Watts::new(20.0));
        prev = air;
    }
    net.advect(prev, outlet, mcp);
    net
}

fn bench_network_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("thermal_network_step");
    for n in [4usize, 16, 64] {
        group.bench_function(format!("chain_{n}_nodes"), |b| {
            b.iter_batched(
                || chain_network(n),
                |mut net| {
                    for _ in 0..100 {
                        net.step(Seconds::new(10.0));
                    }
                    black_box(net.time())
                },
            )
        });
    }
    group.finish();
}

fn bench_server_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("server_model");
    for class in ServerClass::ALL {
        group.bench_function(format!("steady_state_{class}"), |b| {
            b.iter_batched(
                || {
                    let mut m = ServerThermalModel::new(class.spec());
                    m.set_load(Fraction::ONE, Fraction::ONE);
                    m
                },
                |mut m| {
                    m.run_to_steady_state(Seconds::new(30.0), 1e-5, Seconds::new(1e6));
                    black_box(m.outlet_temp())
                },
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_network_step, bench_server_model);
criterion_main!(benches);
