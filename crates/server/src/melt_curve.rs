//! Extraction of aggregate wax characteristics for the datacenter
//! simulator.
//!
//! The paper extends DCSim "to model thermal time shifting with PCM using
//! wax melting characteristics derived from extensive Icepak simulations of
//! each server". This module is that derivation step against our thermal
//! model: it sweeps the server's utilization, collects the steady-state
//! wax-zone air temperature as a function of wall power, fits the linear
//! characteristic, and packages it together with the air-to-wax coupling
//! and latent budget. `tts-dcsim` consumes the result to step thousands of
//! servers per tick without re-running the full network.

use crate::model::ServerThermalModel;
use crate::spec::ServerSpec;
use tts_pcm::PcmMaterial;
use tts_units::{Celsius, Fraction, Grams, Joules, Seconds, TempDelta, Watts, WattsPerKelvin};

/// A linear power → local-air-temperature characteristic, `T = T0 + k·P`.
///
/// At steady state the air temperature at the wax location rises linearly
/// with dissipated power for a fixed airflow; [`ServerWaxCharacteristics::extract`]
/// fits it from the thermal model's utilization sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearAirTemp {
    /// Air temperature at the wax location at zero server power.
    pub t_at_zero: Celsius,
    /// Slope, kelvin per watt of server power.
    pub k_per_watt: f64,
}

tts_units::derive_json! { struct LinearAirTemp { t_at_zero, k_per_watt } }

impl LinearAirTemp {
    /// Air temperature at the wax location for a given server power.
    #[inline]
    pub fn at(&self, power: Watts) -> Celsius {
        self.t_at_zero + TempDelta::new(self.k_per_watt * power.value())
    }

    /// The server power at which the local air reaches `t` (inverse map).
    pub fn power_for(&self, t: Celsius) -> Watts {
        Watts::new((t - self.t_at_zero).value() / self.k_per_watt)
    }
}

/// Least-squares fit of `y = a + b·x`.
///
/// # Panics
/// Panics if fewer than two points are supplied or all `x` are identical.
pub fn fit_linear(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    assert_eq!(xs.len(), ys.len(), "mismatched fit inputs");
    assert!(xs.len() >= 2, "need at least two points to fit a line");
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    assert!(sxx > 1e-12, "degenerate fit: all x identical");
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let b = sxy / sxx;
    (my - b * mx, b)
}

/// The aggregate wax characteristics of one server configuration, as
/// consumed by the datacenter simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerWaxCharacteristics {
    /// Steady-state wax-zone air temperature vs. *wall* power (fan-speed
    /// response to load is baked into the sweep).
    pub air_temp_model: LinearAirTemp,
    /// Lumped air-to-wax conductance at the loaded operating point.
    pub coupling: WattsPerKelvin,
    /// Heat-capacity rate (ṁ·cp) of the air stream crossing the wax plane
    /// at the loaded operating point. Caps how much heat the stream can
    /// surrender: the wax cannot absorb faster than the air delivers.
    pub stream_mcp: WattsPerKelvin,
    /// The wax material.
    pub material: PcmMaterial,
    /// Installed wax mass.
    pub mass: Grams,
    /// Latent energy budget (solidus → liquidus).
    pub latent_capacity: Joules,
    /// Wax-zone air temperature at idle (drives refreeze overnight).
    pub idle_air_temp: Celsius,
    /// Wax-zone air temperature at full load.
    pub loaded_air_temp: Celsius,
    /// Fit residual (max |model − simulated| across the sweep, K).
    pub fit_residual_k: f64,
}

tts_units::derive_json! { struct ServerWaxCharacteristics { air_temp_model, coupling, stream_mcp, material, mass, latent_capacity, idle_air_temp, loaded_air_temp, fit_residual_k } }

impl ServerWaxCharacteristics {
    /// Derives the characteristics for `spec` with `material` in the
    /// default placement.
    ///
    /// The utilization sweep runs on the *placebo* configuration (boxes
    /// present, so the airflow impact is included, but no latent storage,
    /// so the steady states are well-defined).
    pub fn extract(spec: &ServerSpec, material: &PcmMaterial) -> Self {
        let placement = spec.default_wax().clone();
        let mut placebo = ServerThermalModel::with_placebo_placement(spec.clone(), &placement);

        let levels = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
        let mut powers = Vec::with_capacity(levels.len());
        let mut temps = Vec::with_capacity(levels.len());
        for &u in &levels {
            placebo.set_load(Fraction::new(u), Fraction::ONE);
            placebo
                .run_to_steady_state(Seconds::new(30.0), 1e-5, Seconds::new(1e6))
                .expect("utilization sweep must reach steady state");
            powers.push(placebo.wall_power().value());
            temps.push(placebo.wax_air_temp().value());
        }
        let (intercept, slope) = fit_linear(&powers, &temps);
        let air_temp_model = LinearAirTemp {
            t_at_zero: Celsius::new(intercept),
            k_per_watt: slope,
        };
        let fit_residual_k = powers
            .iter()
            .zip(&temps)
            .map(|(&p, &t)| (air_temp_model.at(Watts::new(p)).value() - t).abs())
            .fold(0.0, f64::max);

        // Coupling and latent budget from the real wax configuration at the
        // loaded operating point.
        let mut waxed = ServerThermalModel::with_wax_placement(spec.clone(), material, &placement);
        waxed.set_load(Fraction::ONE, Fraction::ONE);
        let coupling = waxed.wax_coupling();
        // Stream capacity at the wax plane: boxes that block the duct span
        // its full width and meet the whole flow; blockage-free placements
        // (the Open Compute inserts) sit in the hot lane only.
        let op = waxed.operating_point();
        let mcp_total = tts_units::air_heat_capacity_flow(op.flow);
        let stream_mcp = if placement.added_blockage.value() > 0.0 {
            mcp_total
        } else {
            mcp_total * spec.hot_lane_fraction.value()
        };
        let bank = placement.bank();
        let mass = bank.total_wax_mass(material);
        let latent_capacity = waxed.wax_latent_capacity();

        Self {
            air_temp_model,
            coupling,
            stream_mcp,
            material: material.clone(),
            mass,
            latent_capacity,
            idle_air_temp: Celsius::new(temps[0]),
            loaded_air_temp: Celsius::new(*temps.last().expect("sweep is non-empty")),
            fit_residual_k,
        }
    }

    /// The aggregate air-to-wax coupling bounded by the stream's capacity
    /// to deliver heat (NTU heat-exchanger effectiveness):
    /// `ε·ṁcp` with `ε = 1 − exp(−G/ṁcp)`.
    ///
    /// This is the conductance the cluster-level simulators must use; the
    /// raw [`Self::coupling`] ignores that the air cools as it crosses the
    /// wax bank.
    pub fn effective_coupling(&self) -> WattsPerKelvin {
        let mcp = self.stream_mcp.value();
        if mcp <= 0.0 {
            return WattsPerKelvin::ZERO;
        }
        let ntu = self.coupling.value() / mcp;
        WattsPerKelvin::new(mcp * (1.0 - (-ntu).exp()))
    }

    /// The wall power at which the wax (solidus) begins to melt.
    pub fn melt_onset_power(&self) -> Watts {
        self.air_temp_model.power_for(self.material.solidus())
    }

    /// Maximum absorption rate with the server fully loaded and the wax
    /// mid-melt: `G_eff · (T_loaded_air − T_melt)`.
    pub fn max_absorption_rate(&self) -> Watts {
        let dt = (self.loaded_air_temp - self.material.melting_point())
            .value()
            .max(0.0);
        Watts::new(self.effective_coupling().value() * dt)
    }

    /// Re-targets the characteristics at a different melting point,
    /// preserving the thermal geometry (the commercial-paraffin catalogue
    /// spans 40–60 °C; the optimizer picks within it).
    pub fn with_melting_point(&self, melting_point: Celsius) -> Self {
        let material = PcmMaterial::commercial_paraffin(melting_point);
        Self {
            material,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ServerClass;

    #[test]
    fn linear_air_temp_round_trips() {
        let m = LinearAirTemp {
            t_at_zero: Celsius::new(25.0),
            k_per_watt: 0.1,
        };
        let t = m.at(Watts::new(150.0));
        assert!((t.value() - 40.0).abs() < 1e-9);
        assert!((m.power_for(t).value() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn fit_linear_recovers_exact_line() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [5.0, 7.0, 9.0, 11.0];
        let (a, b) = fit_linear(&xs, &ys);
        assert!((a - 5.0).abs() < 1e-12);
        assert!((b - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn fit_linear_rejects_single_point() {
        fit_linear(&[1.0], &[2.0]);
    }

    #[test]
    fn characteristics_are_sane_for_all_servers() {
        let material = PcmMaterial::commercial_paraffin(Celsius::new(45.0));
        for class in ServerClass::ALL {
            let spec = class.spec();
            let c = ServerWaxCharacteristics::extract(&spec, &material);
            assert!(
                c.air_temp_model.k_per_watt > 0.0,
                "{class}: hotter servers must have hotter wax zones"
            );
            assert!(
                c.loaded_air_temp > c.idle_air_temp,
                "{class}: load must heat the wax zone"
            );
            assert!(c.coupling.value() > 0.5, "{class}: coupling {}", c.coupling);
            assert!(
                c.latent_capacity.value() > 50_000.0,
                "{class}: latent {}",
                c.latent_capacity
            );
            assert!(
                c.fit_residual_k < 2.5,
                "{class}: near-linear power→temperature expected, residual {} K",
                c.fit_residual_k
            );
        }
    }

    #[test]
    fn melt_onset_power_is_between_idle_and_peak_for_good_wax() {
        // A 42 °C wax in the 1U: melts under load, not at idle.
        let spec = ServerClass::LowPower1U.spec();
        let material = PcmMaterial::commercial_paraffin(Celsius::new(42.0));
        let c = ServerWaxCharacteristics::extract(&spec, &material);
        let onset = c.melt_onset_power().value();
        assert!(
            onset > spec.idle_wall.value() && onset < spec.peak_wall.value(),
            "onset {onset} W outside ({}, {})",
            spec.idle_wall.value(),
            spec.peak_wall.value()
        );
        assert!(c.max_absorption_rate().value() > 0.0);
    }

    #[test]
    fn with_melting_point_changes_only_the_material() {
        let spec = ServerClass::LowPower1U.spec();
        let c = ServerWaxCharacteristics::extract(
            &spec,
            &PcmMaterial::commercial_paraffin(Celsius::new(45.0)),
        );
        let c2 = c.with_melting_point(Celsius::new(50.0));
        assert_eq!(c2.material.melting_point(), Celsius::new(50.0));
        assert_eq!(c2.coupling, c.coupling);
        assert_eq!(c2.air_temp_model, c.air_temp_model);
    }
}
