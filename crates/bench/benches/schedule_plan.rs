//! Latency of the receding-horizon planner (`tts-opt`): one LP solve at
//! the `schedule` experiment's default shape (24 h + 3 h extension of
//! 15-minute slots, 4 delay classes), plus a short end-to-end
//! controller run. Throughput is counted in planning slots so the
//! per-element rate in `BENCH_schedule.json` reads as "time to plan one
//! slot".

use std::hint::black_box;
use tts_bench::harness::{criterion_group, criterion_main, Criterion, Throughput};
use tts_obs::MetricsSink;
use tts_opt::{run_schedule_on, HorizonModel, ScheduleConfig, SlotForecast};
use tts_units::Seconds;
use tts_workload::series::TimeSeries;

/// A default-shaped planning problem: diurnal firm load, peak/off-peak
/// tariff, melt-dynamics envelope mid-melt — representative of what the
/// controller solves every re-plan on the paper's 1008-server cluster.
fn default_model() -> HorizonModel {
    let slots = 108; // (24 h + 3 h) × 4 slots/h
    let tranches = 4;
    let dt_h = 0.25;
    let forecasts: Vec<SlotForecast> = (0..slots)
        .map(|k| {
            let hour = (k as f64 * dt_h) % 24.0;
            let util = 0.5 + 0.3 * (core::f64::consts::TAU * (hour / 24.0 - 0.25)).sin();
            let it_kw = 161.3 * util;
            SlotForecast {
                firm_kw: 0.75 * it_kw,
                arrivals_kw: vec![0.25 * it_kw / tranches as f64; tranches],
                rate_usd_per_kwh: if (7.0..19.0).contains(&hour) {
                    0.13
                } else {
                    0.08
                },
                charge_ub_kw: 12.0,
                discharge_ub_kw: 8.0,
                cooling_cap_kw: 170.0,
            }
        })
        .collect();
    HorizonModel {
        slots: forecasts,
        tranches,
        dt_h,
        deadline_slots: vec![2, 4, 8, 12],
        stored_kwh: 22.0,
        capacity_kwh: 44.0,
        cop: 4.0,
        backlog: vec![Vec::new(); tranches],
    }
}

fn bench_schedule(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_plan");
    group.sample_size(10);

    // One LP solve at the default horizon shape: the unit of work the
    // controller pays every `replan_every` slots.
    let model = default_model();
    group.throughput(Throughput::Elements(model.slots.len() as u64));
    group.bench_function("solve_108_slots_4_tranches", |b| {
        b.iter_batched(
            || model.clone(),
            |m| black_box(m.solve().expect("default-shaped plan is feasible")),
        )
    });

    // End-to-end controller: plan + execute + baseline over six diurnal
    // hours of 15-minute slots on a small cluster — the shape the chaos
    // schedule phase and the e2e tests exercise.
    let trace = TimeSeries::from_fn(Seconds::new(900.0), 24, |t| {
        0.5 + 0.3 * (core::f64::consts::TAU * (t / 86_400.0 - 0.25)).sin()
    });
    let cfg = ScheduleConfig {
        servers: 64,
        horizon_h: 6.0,
        extension_h: 1.0,
        ..ScheduleConfig::default()
    };
    group.throughput(Throughput::Elements(24));
    group.bench_function("controller_64_servers_6h", |b| {
        b.iter_batched(
            || (cfg.clone(), trace.clone()),
            |(cfg, trace)| {
                black_box(run_schedule_on(
                    &cfg,
                    &trace,
                    |_| 1.0,
                    |_| 1.0,
                    &MetricsSink::disabled(),
                ))
            },
        )
    });

    group.finish();
}

criterion_group!(benches, bench_schedule);
criterion_main!(benches);
