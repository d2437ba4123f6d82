//! Free cooling (economizer) and the night-shift OpEx advantage.
//!
//! Figure 1 lists the off-peak advantages of thermal time shifting:
//! "Nighttime: lower ambient temperature, more natural cooling
//! opportunities" and "Off-peak time: power is cheaper". This module
//! models both: a seeded [`WeatherSeries`] drives the plant's effective
//! COP (air-side economizers approach free cooling when the outside air
//! is cold), and a [`crate::Tariff`] prices the electricity. Shifting
//! cooling work from a hot, expensive afternoon to a cold, cheap night is
//! worth more than the plain kWh accounting suggests.

use crate::climate::WeatherSeries;
use crate::system::CoolingSystem;
use crate::tariff::Tariff;
use tts_units::{Celsius, Dollars, Seconds, Watts};

/// An economizer-equipped plant: effective COP rises as the outdoor air
/// cools below the return-air setpoint.
///
/// Model: mechanical COP at the design point, scaled by the approach to
/// free cooling — when ambient is `free_cooling_threshold` or colder,
/// the economizer carries the load at `free_cooling_cop` (fans only).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Economizer {
    /// The mechanical plant.
    pub plant: CoolingSystem,
    /// Ambient at/below which the load runs on the economizer alone.
    pub free_cooling_threshold: Celsius,
    /// Ambient at/above which the mechanical plant carries everything.
    pub mechanical_threshold: Celsius,
    /// COP when fully on free cooling (moving air is nearly free: 10–20).
    pub free_cooling_cop: f64,
}

tts_units::derive_json! { struct Economizer { plant, free_cooling_threshold, mechanical_threshold, free_cooling_cop } }

impl Economizer {
    /// A typical air-side economizer around a mechanical plant: free
    /// cooling below 12 °C, fully mechanical above 24 °C.
    pub fn around(plant: CoolingSystem) -> Self {
        Self {
            plant,
            free_cooling_threshold: Celsius::new(12.0),
            mechanical_threshold: Celsius::new(24.0),
            free_cooling_cop: 15.0,
        }
    }

    /// Effective COP at an outdoor temperature (linear blend between the
    /// free-cooling and mechanical regimes).
    pub fn effective_cop(&self, ambient: Celsius) -> f64 {
        let lo = self.free_cooling_threshold.value();
        let hi = self.mechanical_threshold.value();
        let t = ambient.value();
        if t <= lo {
            return self.free_cooling_cop;
        }
        if t >= hi {
            return self.plant.cop();
        }
        let f = (t - lo) / (hi - lo);
        self.free_cooling_cop + f * (self.plant.cop() - self.free_cooling_cop)
    }

    /// Electrical power to remove `load` at an outdoor temperature.
    pub fn electrical_power(&self, load: Watts, ambient: Celsius) -> Watts {
        Watts::new(load.value().max(0.0) / self.effective_cop(ambient))
    }

    /// Effective COP with the outside-air damper at `damper` ∈ [0, 1]:
    /// 1 is the nominal blend, 0 is a stuck-closed damper (fully
    /// mechanical regardless of ambient).
    fn effective_cop_damped(&self, ambient: Celsius, damper: f64) -> f64 {
        let nominal = self.effective_cop(ambient);
        self.plant.cop() + damper.clamp(0.0, 1.0) * (nominal - self.plant.cop())
    }
}

/// Integrates the electricity bill for a cooling-load trace under a tariff
/// and a weather series. `loads` are sampled every `dt` starting at t = 0
/// (midnight). `damper(t)` ∈ [0, 1] is the outside-air damper position
/// (the `EconomizerDamperStuck` fault seam): it scales the economizer's
/// approach to free cooling at each step, and `|_| 1.0` is the healthy
/// plant.
pub fn cooling_electricity_cost(
    loads_w: &[f64],
    dt: Seconds,
    economizer: &Economizer,
    tariff: &Tariff,
    weather: &WeatherSeries,
    damper: impl Fn(Seconds) -> f64,
) -> Dollars {
    let mut total = Dollars::ZERO;
    for (i, &load) in loads_w.iter().enumerate() {
        let t = Seconds::new(i as f64 * dt.value());
        let cop = economizer.effective_cop_damped(weather.at(t), damper(t));
        let power = Watts::new(load.max(0.0) / cop);
        let energy = power * dt;
        total += tariff.cost(energy, t);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::climate::{Site, WeatherConfig};
    use tts_units::KiloWatts;

    fn plant() -> CoolingSystem {
        CoolingSystem::new(KiloWatts::new(200.0), 4.0)
    }

    /// One seeded year of temperate weather.
    fn temperate_year() -> WeatherSeries {
        WeatherSeries::generate(&WeatherConfig::year(Site::Temperate, 1))
    }

    #[test]
    fn economizer_cop_blends_between_regimes() {
        let e = Economizer::around(plant());
        assert_eq!(e.effective_cop(Celsius::new(5.0)), 15.0);
        assert_eq!(e.effective_cop(Celsius::new(30.0)), 4.0);
        let mid = e.effective_cop(Celsius::new(18.0));
        assert!(mid > 4.0 && mid < 15.0);
    }

    #[test]
    fn night_cooling_is_cheaper_per_joule() {
        // An 11 °C night against a 25 °C afternoon.
        let e = Economizer::around(plant());
        let load = Watts::new(100_000.0);
        let day = e.electrical_power(load, Celsius::new(25.0));
        let night = e.electrical_power(load, Celsius::new(11.0));
        assert!(
            night.value() < 0.5 * day.value(),
            "night {night} vs day {day}"
        );
    }

    #[test]
    fn shifting_load_to_night_cuts_the_bill() {
        // Two 24 h load profiles with the same total energy: one peaks at
        // 14:00, one at 02:00, both on the summer crest day (day 196),
        // when nights are cool and afternoons hot. The night-shifted
        // profile must cost less under tariff + economizer.
        let e = Economizer::around(plant());
        let a = temperate_year();
        let t = Tariff::paper_default();
        let dt = Seconds::new(3600.0);
        let on_summer_day = |load: fn(f64) -> f64| -> Vec<f64> {
            let mut loads = vec![0.0; 196 * 24];
            loads.extend((0..24).map(|h| 50_000.0 + 50_000.0 * load(h as f64)));
            loads
        };
        let day_profile = on_summer_day(|h| gauss(h, 14.0));
        let night_profile = on_summer_day(|h| gauss_wrap(h, 2.0));
        let day_cost = cooling_electricity_cost(&day_profile, dt, &e, &t, &a, |_| 1.0);
        let night_cost = cooling_electricity_cost(&night_profile, dt, &e, &t, &a, |_| 1.0);
        assert!(
            night_cost.value() < 0.8 * day_cost.value(),
            "night {night_cost} vs day {day_cost}"
        );
    }

    #[test]
    fn stuck_damper_degrades_toward_mechanical() {
        let e = Economizer::around(plant());
        let cold = Celsius::new(5.0);
        // Damper fully open: the nominal blend. Fully stuck: the plant COP.
        assert_eq!(e.effective_cop_damped(cold, 1.0), e.effective_cop(cold));
        assert_eq!(e.effective_cop_damped(cold, 0.0), e.plant.cop());
        // Monotone in the damper position, and clamped outside [0, 1].
        let half = e.effective_cop_damped(cold, 0.5);
        assert!(half > e.plant.cop() && half < e.free_cooling_cop);
        assert_eq!(e.effective_cop_damped(cold, 2.0), e.effective_cop(cold));
        assert_eq!(e.effective_cop_damped(cold, -1.0), e.plant.cop());
    }

    #[test]
    fn stuck_damper_raises_the_bill() {
        let e = Economizer::around(plant());
        let a = temperate_year();
        let t = Tariff::paper_default();
        let dt = Seconds::new(3600.0);
        let loads = [80_000.0; 24];
        let nominal = cooling_electricity_cost(&loads, dt, &e, &t, &a, |_| 1.0);
        let stuck = cooling_electricity_cost(&loads, dt, &e, &t, &a, |_| 0.0);
        assert!(
            stuck.value() > nominal.value(),
            "stuck {stuck} vs nominal {nominal}"
        );
    }

    #[test]
    fn negative_loads_cost_nothing() {
        let e = Economizer::around(plant());
        let a = temperate_year();
        let t = Tariff::paper_default();
        let cost =
            cooling_electricity_cost(&[-100.0; 24], Seconds::new(3600.0), &e, &t, &a, |_| 1.0);
        assert_eq!(cost.value(), 0.0);
    }

    fn gauss(h: f64, center: f64) -> f64 {
        (-(h - center).powi(2) / 8.0).exp()
    }

    fn gauss_wrap(h: f64, center: f64) -> f64 {
        let mut d = (h - center).abs();
        if d > 12.0 {
            d = 24.0 - d;
        }
        (-d.powi(2) / 8.0).exp()
    }
}
