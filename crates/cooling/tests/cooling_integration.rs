//! Integration tests across the cooling crate: tariff edge cases, the
//! free-cooling crossover, and ride-through duration as a function of
//! the wax budget.

use tts_cooling::emergency::{ride_through, DegradedCooling, RoomModel};
use tts_cooling::freecooling::cooling_electricity_cost;
use tts_cooling::{CoolingSystem, Economizer, Site, Tariff, WeatherConfig, WeatherSeries};
use tts_units::{Celsius, Joules, KiloWatts, Seconds, Watts, WattsPerKelvin};

fn hours(h: f64) -> Seconds {
    Seconds::new(h * 3600.0)
}

#[test]
fn tariff_window_boundaries_are_half_open() {
    let t = Tariff::paper_default();
    // [7:00, 19:00): peak starts exactly at 7, ends exactly at 19.
    assert_eq!(t.rate_at(hours(6.999)).value(), 0.08);
    assert_eq!(t.rate_at(hours(7.0)).value(), 0.13);
    assert_eq!(t.rate_at(hours(18.999)).value(), 0.13);
    assert_eq!(t.rate_at(hours(19.0)).value(), 0.08);
    // Day wrap (rem_euclid): noon on day 10, and a time before t = 0.
    assert_eq!(t.rate_at(hours(9.0 * 24.0 + 12.0)).value(), 0.13);
    assert_eq!(t.rate_at(hours(-1.0)).value(), 0.08); // 23:00 the day before
    assert_eq!(t.rate_at(hours(-14.0)).value(), 0.13); // 10:00 the day before
}

#[test]
fn a_constant_load_pays_exactly_the_mean_rate() {
    let t = Tariff::paper_default();
    // One full day at a constant 1 kW, minute resolution.
    let dt = 60.0;
    let steps = 24 * 60;
    let mut total = 0.0;
    for i in 0..steps {
        let energy = Joules::new(1000.0 * dt);
        total += t.cost(energy, Seconds::new(i as f64 * dt)).value();
    }
    // 24 kWh at the window-weighted mean rate.
    let peak_frac = (t.peak_end_hour - t.peak_start_hour) / 24.0;
    let mean_rate = t.peak_rate.value() * peak_frac + t.offpeak_rate.value() * (1.0 - peak_frac);
    let expected = mean_rate * 24.0;
    assert!(
        (total - expected).abs() < 1e-9,
        "constant load: integrated {total} vs mean-rate {expected}"
    );
}

#[test]
fn free_cooling_crossover_blends_between_the_regimes() {
    let eco = Economizer::around(CoolingSystem::new(KiloWatts::new(200.0), 4.0));
    // At/below the free-cooling threshold: economizer COP exactly.
    assert_eq!(eco.effective_cop(Celsius::new(12.0)), 15.0);
    assert_eq!(eco.effective_cop(Celsius::new(-5.0)), 15.0);
    // At/above the mechanical threshold: the plant's COP exactly.
    assert_eq!(eco.effective_cop(Celsius::new(24.0)), 4.0);
    assert_eq!(eco.effective_cop(Celsius::new(40.0)), 4.0);
    // Mid-band: strictly between, and the blend midpoint is the average.
    let mid = eco.effective_cop(Celsius::new(18.0));
    assert!((mid - (15.0 + 4.0) / 2.0).abs() < 1e-12);
    // Monotone: warmer ambient never raises the effective COP.
    let mut prev = f64::INFINITY;
    for tenths in -100..500 {
        let cop = eco.effective_cop(Celsius::new(tenths as f64 / 10.0));
        assert!(cop <= prev + 1e-12, "COP rose with ambient at {tenths}");
        assert!((4.0..=15.0).contains(&cop));
        prev = cop;
    }
}

#[test]
fn colder_ambient_never_costs_more_electricity() {
    let eco = Economizer::around(CoolingSystem::new(KiloWatts::new(200.0), 4.0));
    let load = Watts::new(150_000.0);
    let mut prev = 0.0;
    for deg in -10..40 {
        let p = eco.electrical_power(load, Celsius::new(deg as f64)).value();
        assert!(p + 1e-9 >= prev, "electrical power fell as ambient warmed");
        prev = p;
    }
}

#[test]
fn night_shifted_cooling_is_cheaper_than_afternoon_cooling() {
    let eco = Economizer::around(CoolingSystem::new(KiloWatts::new(200.0), 4.0));
    let tariff = Tariff::paper_default();
    let ambient = WeatherSeries::generate(&WeatherConfig {
        site: Site::Temperate,
        seed: 1,
        days: 1,
    });
    // The same 6 h × 100 kW cooling burst, once overnight (midnight–6:00,
    // off-peak and cold) and once in the afternoon (12:00–18:00, peak and
    // warmer). 24 h of samples at 10-minute resolution.
    let dt = Seconds::new(600.0);
    let samples = 24 * 6;
    let burst = |start_h: usize| -> Vec<f64> {
        (0..samples)
            .map(|i| {
                let h = i / 6;
                if (start_h..start_h + 6).contains(&h) {
                    100_000.0
                } else {
                    0.0
                }
            })
            .collect()
    };
    let night = cooling_electricity_cost(&burst(0), dt, &eco, &tariff, &ambient, |_| 1.0);
    let afternoon = cooling_electricity_cost(&burst(12), dt, &eco, &tariff, &ambient, |_| 1.0);
    assert!(
        night.value() < afternoon.value(),
        "night {night:?} should undercut afternoon {afternoon:?}"
    );
    // And the gap is material: colder air *and* cheaper power compound.
    assert!(night.value() < 0.7 * afternoon.value());
}

#[test]
fn ride_through_duration_grows_monotonically_with_wax_budget() {
    let room = RoomModel::cluster_room();
    let it = Watts::new(150_000.0);
    let coupling = WattsPerKelvin::new(1008.0 * 5.0);
    let melt = Celsius::new(28.0);
    // The plant fully offline for up to a day.
    let outage = DegradedCooling {
        plant_capacity: Watts::ZERO,
        profile: &|_| 0.0,
    };
    let day = Seconds::new(86_400.0);
    let budgets = [0.0, 5.0e7, 1.0e8, 2.0e8, 4.0e8];
    let results: Vec<_> = budgets
        .iter()
        .map(|&b| ride_through(&room, it, outage, coupling, Joules::new(b), melt, day))
        .collect();
    // With no plant and finite room mass, the bare room must overheat.
    let bare = results[0].time_to_critical.expect("bare room overheats");
    let mut prev = bare.value();
    for (r, &b) in results.iter().zip(&budgets).skip(1) {
        let t = r.time_to_critical.map_or(f64::INFINITY, |t| t.value());
        assert!(
            t >= prev,
            "budget {b} J shortened ride-through: {prev} -> {t}"
        );
        assert!(r.wax_energy_absorbed.value() <= b + 1e-6);
        assert!(r.peak_room_temp.value() + 1e-9 >= room.start.value());
        prev = t;
    }
    // The largest budget buys a materially longer ride-through than none
    // (modest, not magical: absorption is rate-limited by the coupling).
    let richest = results.last().unwrap();
    let t_rich = richest
        .time_to_critical
        .map_or(f64::INFINITY, |t| t.value());
    assert!(
        t_rich > 1.25 * bare.value(),
        "bare {} vs richest {t_rich}",
        bare.value()
    );
    // Saturation report: a budget the outage fully spends is marked.
    if let Some(at) = results[1].wax_saturated_at {
        assert!(at.value() >= melt.value());
        assert!((results[1].wax_energy_absorbed.value() - budgets[1]).abs() < 1e-3 * budgets[1]);
    }
}
