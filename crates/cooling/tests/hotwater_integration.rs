//! Integration tests for the hot-water (energy-reuse) cooling backend:
//! credit physicality, COP monotonicity in the outlet temperature, the
//! reuse contract's effect on the bill, and the comparison principles of
//! degraded-cooling ride-through the pump-derate chaos fault relies on.

use tts_cooling::emergency::{ride_through, DegradedCooling, RoomModel};
use tts_cooling::{
    hot_water_bill, HotWaterLoop, ReuseContract, Site, Tariff, WeatherConfig, WeatherSeries,
};
use tts_units::{Celsius, Joules, Seconds, TempDelta, Watts, WattsPerKelvin};

/// A day of diurnal cluster load in watts at 5-minute resolution.
fn day_loads() -> (Vec<f64>, Seconds) {
    let dt = Seconds::new(300.0);
    let loads = (0..288)
        .map(|i| {
            let t = i as f64 * 300.0;
            160_000.0 * (1.0 + 0.3 * (std::f64::consts::TAU * t / 86_400.0).sin())
        })
        .collect();
    (loads, dt)
}

#[test]
fn reuse_credit_never_exceeds_the_heat_rejected() {
    let (loads, dt) = day_loads();
    let tariff = Tariff::paper_default();
    let weather = WeatherSeries::generate(&WeatherConfig::year(Site::Temperate, 1));
    let water = HotWaterLoop::idatacool();
    let bill = hot_water_bill(&loads, dt, &water, &tariff, &weather, |_| 1.0);
    assert!(bill.heat_rejected_kwh > 0.0);
    assert!(bill.heat_reused_kwh <= bill.heat_rejected_kwh);
    // Credit is exactly price × heat delivered — no bonus money.
    let contract = water.reuse.expect("idatacool has a contract");
    assert!(
        (bill.reuse_credit.value() - contract.price.value() * bill.heat_reused_kwh).abs() < 1e-9,
        "{bill:?}"
    );
    // At nominal demand the delivered fraction is the contract's.
    assert!(
        (bill.heat_reused_kwh / bill.heat_rejected_kwh - contract.demand_frac).abs() < 1e-9,
        "{bill:?}"
    );
}

#[test]
fn cop_is_monotone_in_outlet_temperature() {
    // A hotter loop sheds heat to ambient more easily: within the
    // unsaturated band the rejection COP rises with the outlet
    // temperature at every fixed ambient.
    for ambient_c in [-5.0, 10.0, 25.0, 35.0] {
        let ambient = Celsius::new(ambient_c);
        let mut prev = 0.0;
        for outlet_c in (40..=90).step_by(5) {
            let water = HotWaterLoop {
                inlet: Celsius::new(outlet_c as f64 - 15.0),
                ..HotWaterLoop::idatacool()
            };
            assert_eq!(water.outlet(), Celsius::new(outlet_c as f64));
            let cop = water.cop(ambient);
            assert!(
                cop + 1e-12 >= prev,
                "COP fell with outlet: {prev} -> {cop} at {outlet_c} °C outlet, {ambient_c} °C ambient"
            );
            assert!((2.0..=40.0).contains(&cop));
            prev = cop;
        }
    }
}

#[test]
fn the_bill_with_reuse_never_exceeds_the_bill_without() {
    let (loads, dt) = day_loads();
    let tariff = Tariff::paper_default();
    // The reuse credit is ambient-independent, so the inequality is
    // unconditional: any seeded weather year shows it.
    let weather = WeatherSeries::generate(&WeatherConfig::year(Site::Desert, 7));
    let with = HotWaterLoop::idatacool();
    let without = with.without_reuse();
    let a = hot_water_bill(&loads, dt, &with, &tariff, &weather, |_| 1.0);
    let b = hot_water_bill(&loads, dt, &without, &tariff, &weather, |_| 1.0);
    assert_eq!(
        a.energy_cost, b.energy_cost,
        "the contract does not change electricity bought"
    );
    assert!(a.net().value() < b.net().value(), "{a:?} vs {b:?}");
    assert_eq!(b.reuse_credit.value(), 0.0);
    assert_eq!(b.heat_reused_kwh, 0.0);
}

#[test]
fn a_cold_outlet_earns_nothing() {
    // Below the consumer's floor the heat is unsellable: same loop
    // geometry, inlet dropped so the outlet misses the 55 °C minimum.
    let (loads, dt) = day_loads();
    let tariff = Tariff::paper_default();
    let weather = WeatherSeries::generate(&WeatherConfig::year(Site::Temperate, 1));
    let tepid = HotWaterLoop {
        inlet: Celsius::new(35.0), // outlet 50 °C < 55 °C floor
        ..HotWaterLoop::idatacool()
    };
    let bill = hot_water_bill(&loads, dt, &tepid, &tariff, &weather, |_| 1.0);
    assert_eq!(bill.reuse_credit.value(), 0.0, "{bill:?}");
    assert_eq!(bill.heat_reused_kwh, 0.0, "{bill:?}");
}

#[test]
fn demand_dropout_scales_the_credit_but_not_the_energy_cost() {
    let (loads, dt) = day_loads();
    let tariff = Tariff::paper_default();
    let weather = WeatherSeries::generate(&WeatherConfig::year(Site::Temperate, 1));
    let water = HotWaterLoop::idatacool();
    let nominal = hot_water_bill(&loads, dt, &water, &tariff, &weather, |_| 1.0);
    // The consumer disappears for the middle third of the day.
    let dropout = |t: Seconds| -> f64 {
        if (28_800.0..57_600.0).contains(&t.value()) {
            0.0
        } else {
            1.0
        }
    };
    let faulted = hot_water_bill(&loads, dt, &water, &tariff, &weather, dropout);
    assert_eq!(nominal.energy_cost, faulted.energy_cost);
    assert!(faulted.reuse_credit.value() < nominal.reuse_credit.value());
    assert!(faulted.heat_reused_kwh < nominal.heat_reused_kwh);
    assert!(faulted.net().value() > nominal.net().value());
}

#[test]
fn pump_derate_comparison_principles_hold_for_ride_through() {
    // The chaos `PumpDerate` fault reduces available cooling capacity
    // during an episode; the comparison principles it checks must hold
    // for a representative sweep of derate depths: a weaker pump never
    // lengthens the ride-through and never lowers the peak temperature.
    let room = RoomModel::cluster_room();
    let it = Watts::new(150_000.0);
    let coupling = WattsPerKelvin::new(1008.0 * 5.0);
    let latent = Joules::new(1008.0 * 2.0e5);
    let melt = Celsius::new(28.0);
    let window = Seconds::new(4.0 * 3600.0);
    let run = |frac: f64| {
        let profile = move |_t: Seconds| frac;
        ride_through(
            &room,
            it,
            DegradedCooling {
                plant_capacity: Watts::new(140_000.0),
                profile: &profile,
            },
            coupling,
            latent,
            melt,
            window,
        )
    };
    let mut prev_ttc = f64::MIN;
    let mut prev_peak = f64::MAX;
    for frac in [0.2, 0.4, 0.6, 0.8, 1.0] {
        let r = run(frac);
        let ttc = r.time_to_critical.map_or(f64::INFINITY, |t| t.value());
        assert!(
            ttc >= prev_ttc,
            "more flow must not shorten ride-through: {prev_ttc} -> {ttc} at {frac}"
        );
        // Peak temperature is monotone up to one integration step's
        // overshoot past the critical threshold (runs that hit critical
        // stop mid-step, so the recorded peak wobbles by < 0.1 K).
        assert!(
            r.peak_room_temp.value() <= prev_peak + 0.1,
            "more flow must not run hotter: {prev_peak} -> {} at {frac}",
            r.peak_room_temp.value()
        );
        assert!(r.simulated.value() > 0.0);
        prev_ttc = ttc;
        prev_peak = r.peak_room_temp.value();
    }
}

#[test]
fn a_generous_contract_cannot_deliver_more_than_physics() {
    // demand_frac above 1 is clamped: even a contract promising 250 %
    // absorption delivers at most everything the racks rejected.
    let (loads, dt) = day_loads();
    let tariff = Tariff::paper_default();
    let weather = WeatherSeries::generate(&WeatherConfig::year(Site::Temperate, 1));
    let water = HotWaterLoop {
        reuse: Some(ReuseContract {
            demand_frac: 2.5,
            ..ReuseContract::idatacool()
        }),
        ..HotWaterLoop::idatacool()
    };
    let bill = hot_water_bill(&loads, dt, &water, &tariff, &weather, |_| 1.0);
    assert!(
        bill.heat_reused_kwh <= bill.heat_rejected_kwh + 1e-9,
        "{bill:?}"
    );
}

#[test]
fn outlet_is_inlet_plus_design_delta() {
    let water = HotWaterLoop::idatacool();
    assert_eq!(
        water.outlet(),
        water.inlet + TempDelta::new(water.design_delta_k)
    );
    assert_eq!(water.outlet(), Celsius::new(60.0));
}
