//! Hot-water (warm-liquid) cooling with energy reuse, after iDataCool
//! (arXiv 1309.4887).
//!
//! Direct-liquid cooling at deliberately *high* water temperatures flips
//! the cost calculus of the air-cooled plant: the chiller lift is small
//! (or absent — a dry cooler suffices in most climates), pumping replaces
//! fan power, and the outlet water is hot enough (≥ 55 °C in iDataCool's
//! adsorption-chiller demonstrator) to sell or reuse for district heat.
//! The bill therefore has two sides: electrical energy bought under the
//! ToU [`Tariff`], and a reuse credit for the heat actually delivered to
//! a consumer. [`HotWaterBill::net`] is what the scenario matrix compares
//! against the economizer and CRAC backends.
//!
//! Invariants the chaos engine checks live here by construction: the
//! reuse credit is `price × heat_reused`, and `heat_reused` is a clamped
//! fraction of `heat_rejected` — the credit can never exceed what the
//! servers physically emitted.

use crate::climate::WeatherSeries;
use crate::tariff::Tariff;
use tts_units::{Celsius, Dollars, DollarsPerKwh, KilowattHours, Seconds, TempDelta, Watts};

/// A warm-water cooling loop: inlet temperature, design temperature rise
/// across the racks, pumping overhead, and an optional heat-reuse
/// contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotWaterLoop {
    /// Water temperature entering the racks (iDataCool runs ~45 °C).
    pub inlet: Celsius,
    /// Design temperature rise across the racks (K); outlet = inlet + Δ.
    pub design_delta_k: f64,
    /// Pumping power per kW of heat moved (W/kW — pumps, not fans).
    pub pump_w_per_kw: f64,
    /// Heat-reuse contract, if a consumer is connected.
    pub reuse: Option<ReuseContract>,
}

/// Terms under which rejected heat earns a credit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReuseContract {
    /// Credit per kWh of heat actually delivered.
    pub price: DollarsPerKwh,
    /// Minimum outlet temperature the consumer accepts (an adsorption
    /// chiller or district-heat loop has a hard floor).
    pub min_outlet: Celsius,
    /// Fraction of rejected heat the consumer can absorb at nominal
    /// demand (the rest is dry-cooled away).
    pub demand_frac: f64,
}

impl ReuseContract {
    /// iDataCool-style contract: 4.5 ¢/kWh of delivered heat, consumer
    /// floor 55 °C, absorbing 60 % of the rejected heat at nominal
    /// demand.
    pub fn idatacool() -> Self {
        ReuseContract {
            price: DollarsPerKwh::new(0.045),
            min_outlet: Celsius::new(55.0),
            demand_frac: 0.6,
        }
    }
}

impl HotWaterLoop {
    /// The iDataCool operating point: 45 °C inlet, 15 K rise (60 °C
    /// outlet), 15 W of pumping per kW moved, with the reuse contract
    /// attached.
    pub fn idatacool() -> Self {
        HotWaterLoop {
            inlet: Celsius::new(45.0),
            design_delta_k: 15.0,
            pump_w_per_kw: 15.0,
            reuse: Some(ReuseContract::idatacool()),
        }
    }

    /// The same loop with no reuse consumer connected (all heat is
    /// dry-cooled away) — the baseline the reuse credit is measured
    /// against.
    pub fn without_reuse(self) -> Self {
        HotWaterLoop {
            reuse: None,
            ..self
        }
    }

    /// Water temperature leaving the racks.
    pub fn outlet(&self) -> Celsius {
        self.inlet + TempDelta::new(self.design_delta_k)
    }

    /// Effective COP of heat rejection at an outdoor temperature: the
    /// hotter the water relative to ambient, the easier a dry cooler
    /// sheds it. `0.8 · (outlet − ambient)`, clamped to [2, 40] — within
    /// the unsaturated band this is monotone increasing in the outlet
    /// temperature and decreasing in ambient.
    pub fn cop(&self, ambient: Celsius) -> f64 {
        (0.8 * (self.outlet().value() - ambient.value())).clamp(2.0, 40.0)
    }

    /// Electrical power to reject `load`: dry-cooler/chiller work at the
    /// ambient-dependent COP plus the pumping overhead.
    pub fn electrical_power(&self, load: Watts, ambient: Celsius) -> Watts {
        let load_w = load.value().max(0.0);
        Watts::new(load_w / self.cop(ambient) + load_w * self.pump_w_per_kw / 1000.0)
    }
}

/// The two-sided hot-water bill over a load trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotWaterBill {
    /// Electricity bought under the tariff (pumps + dry cooler/chiller).
    pub energy_cost: Dollars,
    /// Credit earned for heat delivered to the reuse consumer.
    pub reuse_credit: Dollars,
    /// Total heat rejected by the racks over the trace (kWh).
    pub heat_rejected_kwh: f64,
    /// Heat actually delivered to the reuse consumer (kWh).
    pub heat_reused_kwh: f64,
}

tts_units::derive_json! { struct HotWaterBill { energy_cost, reuse_credit, heat_rejected_kwh, heat_reused_kwh } }

impl HotWaterBill {
    /// Net cost: electricity bought minus the reuse credit.
    pub fn net(&self) -> Dollars {
        self.energy_cost - self.reuse_credit
    }
}

/// Integrates the hot-water bill for a cooling-load trace (`loads_w`
/// sampled every `dt` from t = 0) under a tariff and a weather series.
/// `demand(t)` ∈ [0, 1] is the reuse consumer's availability (the
/// `ReuseDropout` fault seam): it scales the contract's `demand_frac` at
/// each step, and `|_| 1.0` is nominal demand. With no contract attached
/// the closure is irrelevant and the credit is zero.
pub fn hot_water_bill(
    loads_w: &[f64],
    dt: Seconds,
    water: &HotWaterLoop,
    tariff: &Tariff,
    weather: &WeatherSeries,
    demand: impl Fn(Seconds) -> f64,
) -> HotWaterBill {
    let mut energy_cost = Dollars::ZERO;
    let mut reuse_credit = Dollars::ZERO;
    let mut heat_rejected_kwh = 0.0;
    let mut heat_reused_kwh = 0.0;
    for (i, &load) in loads_w.iter().enumerate() {
        let t = Seconds::new(i as f64 * dt.value());
        let heat_kwh = (Watts::new(load.max(0.0)) * dt).kilowatt_hours().value();
        heat_rejected_kwh += heat_kwh;
        let electricity = water.electrical_power(Watts::new(load), weather.at(t)) * dt;
        energy_cost += tariff.cost(electricity, t);
        if let Some(contract) = &water.reuse {
            if water.outlet().value() >= contract.min_outlet.value() {
                let frac = (contract.demand_frac * demand(t).clamp(0.0, 1.0)).clamp(0.0, 1.0);
                let reused = heat_kwh * frac;
                heat_reused_kwh += reused;
                reuse_credit += contract.price * KilowattHours::new(reused);
            }
        }
    }
    HotWaterBill {
        energy_cost,
        reuse_credit,
        heat_rejected_kwh,
        heat_reused_kwh,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::climate::{Site, WeatherConfig};

    /// Two seeded days of temperate weather.
    fn weather() -> WeatherSeries {
        WeatherSeries::generate(&WeatherConfig {
            site: Site::Temperate,
            seed: 1,
            days: 2,
        })
    }

    #[test]
    fn outlet_is_inlet_plus_design_rise() {
        let w = HotWaterLoop::idatacool();
        assert_eq!(w.outlet().value(), 60.0);
    }

    #[test]
    fn cop_is_monotone_in_outlet_temperature() {
        let ambient = Celsius::new(20.0);
        let mut last = 0.0;
        for delta in [5.0, 10.0, 15.0, 20.0] {
            let w = HotWaterLoop {
                design_delta_k: delta,
                ..HotWaterLoop::idatacool()
            };
            let cop = w.cop(ambient);
            assert!(cop > last, "COP must rise with outlet temp");
            last = cop;
        }
    }

    #[test]
    fn cop_saturates_at_the_clamp() {
        let w = HotWaterLoop::idatacool();
        assert_eq!(w.cop(Celsius::new(70.0)), 2.0);
        assert_eq!(w.cop(Celsius::new(-60.0)), 40.0);
    }

    #[test]
    fn reuse_credit_never_exceeds_heat_rejected_value() {
        let w = HotWaterLoop::idatacool();
        let bill = hot_water_bill(
            &[90_000.0; 48],
            Seconds::new(3600.0),
            &w,
            &Tariff::paper_default(),
            &weather(),
            |_| 1.0,
        );
        assert!(bill.heat_reused_kwh <= bill.heat_rejected_kwh);
        let max_credit = w.reuse.unwrap().price.value() * bill.heat_rejected_kwh;
        assert!(bill.reuse_credit.value() <= max_credit + 1e-9);
    }

    #[test]
    fn reuse_lowers_the_net_bill() {
        let loads = [90_000.0; 48];
        let dt = Seconds::new(3600.0);
        let tariff = Tariff::paper_default();
        let ambient = weather();
        let with = hot_water_bill(
            &loads,
            dt,
            &HotWaterLoop::idatacool(),
            &tariff,
            &ambient,
            |_| 1.0,
        );
        let without = hot_water_bill(
            &loads,
            dt,
            &HotWaterLoop::idatacool().without_reuse(),
            &tariff,
            &ambient,
            |_| 1.0,
        );
        assert_eq!(with.energy_cost.value(), without.energy_cost.value());
        assert!(with.net().value() < without.net().value());
        assert_eq!(without.heat_reused_kwh, 0.0);
    }

    #[test]
    fn cold_outlet_earns_no_credit() {
        let w = HotWaterLoop {
            inlet: Celsius::new(30.0),
            design_delta_k: 10.0, // outlet 40 °C < 55 °C floor
            ..HotWaterLoop::idatacool()
        };
        let bill = hot_water_bill(
            &[50_000.0; 24],
            Seconds::new(3600.0),
            &w,
            &Tariff::paper_default(),
            &weather(),
            |_| 1.0,
        );
        assert_eq!(bill.heat_reused_kwh, 0.0);
        assert_eq!(bill.reuse_credit.value(), 0.0);
    }

    #[test]
    fn demand_dropout_cuts_the_credit_but_not_below_zero() {
        let loads = [90_000.0; 24];
        let dt = Seconds::new(3600.0);
        let w = HotWaterLoop::idatacool();
        let tariff = Tariff::paper_default();
        let ambient = weather();
        let nominal = hot_water_bill(&loads, dt, &w, &tariff, &ambient, |_| 1.0);
        // Demand gone for the middle of the day.
        let faulted = hot_water_bill(&loads, dt, &w, &tariff, &ambient, |t| {
            let h = t.value() / 3600.0;
            if (8.0..16.0).contains(&h) {
                0.0
            } else {
                1.0
            }
        });
        assert!(faulted.reuse_credit.value() < nominal.reuse_credit.value());
        assert!(faulted.reuse_credit.value() >= 0.0);
        assert!(faulted.net().value() > nominal.net().value());
        assert_eq!(faulted.energy_cost.value(), nominal.energy_cost.value());
    }

    #[test]
    fn negative_loads_reject_no_heat() {
        let bill = hot_water_bill(
            &[-5_000.0; 24],
            Seconds::new(3600.0),
            &HotWaterLoop::idatacool(),
            &Tariff::paper_default(),
            &weather(),
            |_| 1.0,
        );
        assert_eq!(bill.heat_rejected_kwh, 0.0);
        assert_eq!(bill.energy_cost.value(), 0.0);
        assert_eq!(bill.net().value(), 0.0);
    }
}
