//! Melt/freeze hysteresis (supercooling).
//!
//! Real paraffins do not freeze where they melt: nucleation needs a few
//! kelvin of supercooling, so the freezing transition sits below the
//! melting one. The paper's first-order model ignores this; this extension
//! module quantifies how much the asymmetry erodes thermal time shifting —
//! a supercooled wax refreezes later and slower overnight, shrinking the
//! energy available for the next day's peak.

use crate::enthalpy::EnthalpyCurve;
use crate::material::PcmMaterial;
use tts_units::{Celsius, Fraction, Grams, Joules, JoulesPerGram, Seconds, Watts, WattsPerKelvin};

/// A PCM state with distinct melting and freezing curves.
///
/// While *absorbing* (air hotter than the wax) the wax follows the melting
/// curve; while *releasing* it follows a freezing curve shifted
/// `supercooling_k` lower. The enthalpy state is shared, so energy is
/// conserved across direction changes; only the temperature at which the
/// latent plateau sits differs.
///
/// ```
/// use tts_pcm::hysteresis::HystereticPcmState;
/// use tts_pcm::PcmMaterial;
/// use tts_units::{Celsius, Grams, Seconds, WattsPerKelvin};
///
/// let wax = PcmMaterial::validation_wax(); // melts at 39 °C
/// let mut s = HystereticPcmState::new(&wax, Grams::new(500.0), Celsius::new(25.0), 4.0);
///
/// // 42 °C air melts it (above the 39 °C melting point) ...
/// for _ in 0..2000 {
///     s.step(Celsius::new(42.0), WattsPerKelvin::new(5.0), Seconds::new(60.0));
/// }
/// assert!(s.melt_fraction().value() > 0.9);
///
/// // ... but 37.5 °C air cannot refreeze it: the freezing branch is fully
/// // below 37 °C (35 °C center, ±2 °C mushy band).
/// for _ in 0..2000 {
///     s.step(Celsius::new(37.5), WattsPerKelvin::new(5.0), Seconds::new(60.0));
/// }
/// assert!(s.melt_fraction().value() > 0.9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HystereticPcmState {
    melt_curve: EnthalpyCurve,
    freeze_curve: EnthalpyCurve,
    /// Shared specific enthalpy, J/g, referenced to the *melting* curve's
    /// scale.
    enthalpy: JoulesPerGram,
    enthalpy_ref: JoulesPerGram,
    mass: Grams,
    supercooling_k: f64,
}

tts_units::derive_json! { struct HystereticPcmState { melt_curve, freeze_curve, enthalpy, enthalpy_ref, mass, supercooling_k } }

impl HystereticPcmState {
    /// A mass of `material` at `initial` with `supercooling_k` kelvin of
    /// melt/freeze asymmetry (typical paraffins: 2–5 K).
    ///
    /// # Panics
    /// Panics on non-positive mass or negative supercooling.
    pub fn new(material: &PcmMaterial, mass: Grams, initial: Celsius, supercooling_k: f64) -> Self {
        assert!(mass.value() > 0.0, "PCM mass must be positive");
        assert!(supercooling_k >= 0.0, "supercooling cannot be negative");
        let melt_curve = EnthalpyCurve::for_material(material);
        let freeze_material = PcmMaterial::custom(
            format!("{} (freezing branch)", material.name()),
            material.class(),
            Celsius::new(material.melting_point().value() - supercooling_k),
            material.melting_range_k(),
            material.heat_of_fusion(),
            material.density(),
            material.specific_heat_solid(),
            material.specific_heat_liquid(),
            material.stability(),
            material.electrically_conductive(),
            material.corrosive(),
            material.bulk_price(),
        );
        let freeze_curve = EnthalpyCurve::for_material(&freeze_material);
        let h0 = melt_curve.enthalpy_at(initial);
        Self {
            melt_curve,
            freeze_curve,
            enthalpy: h0,
            enthalpy_ref: h0,
            mass,
            supercooling_k,
        }
    }

    /// The curve governing the current exchange direction against air at
    /// `air_temp`.
    fn active_curve(&self, air_temp: Celsius) -> &EnthalpyCurve {
        // Direction is set by where the state sits relative to the air:
        // hotter air → absorbing → melting branch; cooler air → releasing
        // → freezing branch.
        let t_melt_branch = self.melt_curve.temperature_at(self.enthalpy);
        if air_temp >= t_melt_branch {
            &self.melt_curve
        } else {
            &self.freeze_curve
        }
    }

    /// Advances the wax against air at `air_temp` through `coupling`,
    /// returning heat absorbed (positive) or released (negative).
    pub fn step(&mut self, air_temp: Celsius, coupling: WattsPerKelvin, dt: Seconds) -> Watts {
        if dt.value() <= 0.0 || coupling.value() <= 0.0 {
            return Watts::ZERO;
        }
        let curve = self.active_curve(air_temp).clone();
        let t_wax = curve.temperature_at(self.enthalpy);
        let cp_eff = curve.effective_heat_capacity(t_wax);
        let c_total = cp_eff * self.mass.value();
        let tau = c_total / coupling.value();
        let alpha = 1.0 - (-dt.value() / tau).exp();
        let mut delta_h = cp_eff * (air_temp - t_wax).value() * alpha;
        // Clamp at equilibrium with the air on the active branch.
        let h_eq = curve.enthalpy_at(air_temp).value();
        let h_new = self.enthalpy.value() + delta_h;
        let h_clamped = if delta_h >= 0.0 {
            h_new.min(h_eq.max(self.enthalpy.value()))
        } else {
            h_new.max(h_eq.min(self.enthalpy.value()))
        };
        delta_h = h_clamped - self.enthalpy.value();
        self.enthalpy = JoulesPerGram::new(h_clamped);
        Watts::new(delta_h * self.mass.value() / dt.value())
    }

    /// Melt fraction (on the melting curve's scale).
    pub fn melt_fraction(&self) -> Fraction {
        self.melt_curve.melt_fraction_at_enthalpy(self.enthalpy)
    }

    /// Energy stored relative to the initial state.
    pub fn stored_energy(&self) -> Joules {
        Joules::new((self.enthalpy.value() - self.enthalpy_ref.value()) * self.mass.value())
    }

    /// The supercooling offset, K.
    pub fn supercooling_k(&self) -> f64 {
        self.supercooling_k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tts_rng::prop::prelude::*;

    fn state(supercooling: f64) -> HystereticPcmState {
        HystereticPcmState::new(
            &PcmMaterial::validation_wax(),
            Grams::new(960.0),
            Celsius::new(25.0),
            supercooling,
        )
    }

    fn run(s: &mut HystereticPcmState, air: f64, minutes: usize) -> f64 {
        let mut q = 0.0;
        for _ in 0..minutes {
            q += s
                .step(
                    Celsius::new(air),
                    WattsPerKelvin::new(5.0),
                    Seconds::new(60.0),
                )
                .value()
                * 60.0;
        }
        q
    }

    #[test]
    fn zero_supercooling_matches_plain_state() {
        let mut hyst = state(0.0);
        let mut plain = crate::PcmState::new(
            &PcmMaterial::validation_wax(),
            Grams::new(960.0),
            Celsius::new(25.0),
        );
        for air in [45.0, 50.0, 30.0, 25.0, 55.0] {
            for _ in 0..200 {
                hyst.step(
                    Celsius::new(air),
                    WattsPerKelvin::new(5.0),
                    Seconds::new(60.0),
                );
                plain.step(
                    Celsius::new(air),
                    WattsPerKelvin::new(5.0),
                    Seconds::new(60.0),
                );
            }
            assert!(
                (hyst.melt_fraction().value() - plain.melt_fraction().value()).abs() < 1e-6,
                "at air {air}: {} vs {}",
                hyst.melt_fraction().value(),
                plain.melt_fraction().value()
            );
        }
    }

    #[test]
    fn supercooled_wax_refreezes_later() {
        // Melt both fully, then expose to 37.5 °C air — above the
        // supercooled wax's entire freezing band (33–37 °C at 4 K of
        // supercooling) but inside the sharp wax's (37–41 °C).
        let mut sharp = state(0.0);
        let mut super4 = state(4.0);
        run(&mut sharp, 55.0, 2000);
        run(&mut super4, 55.0, 2000);
        assert!(sharp.melt_fraction().value() > 0.99);
        assert!(super4.melt_fraction().value() > 0.99);

        run(&mut sharp, 37.5, 2000);
        run(&mut super4, 37.5, 2000);
        assert!(
            sharp.melt_fraction().value() < 0.2,
            "sharp wax mostly refreezes at 37.5 °C: {}",
            sharp.melt_fraction().value()
        );
        assert!(
            super4.melt_fraction().value() > 0.9,
            "supercooled wax must stay molten at 37.5 °C: {}",
            super4.melt_fraction().value()
        );
    }

    #[test]
    fn deep_cold_refreezes_even_supercooled_wax() {
        let mut s = state(4.0);
        run(&mut s, 55.0, 2000);
        run(&mut s, 25.0, 4000);
        assert!(s.melt_fraction().value() < 0.05);
    }

    #[test]
    fn melting_behaviour_is_unchanged_by_supercooling() {
        let mut a = state(0.0);
        let mut b = state(5.0);
        let qa = run(&mut a, 50.0, 500);
        let qb = run(&mut b, 50.0, 500);
        assert!((qa - qb).abs() < 1e-6 * qa.abs().max(1.0));
    }

    proptest! {
        #[test]
        fn energy_balance_holds_across_direction_changes(
            temps in collection::vec(20.0f64..60.0, 2..40),
            supercooling in 0.0f64..6.0,
        ) {
            let mut s = state(supercooling);
            let mut net = 0.0;
            for t in &temps {
                let q = s.step(Celsius::new(*t), WattsPerKelvin::new(4.0), Seconds::new(300.0));
                net += q.value() * 300.0;
            }
            let stored = s.stored_energy().value();
            prop_assert!(
                (net - stored).abs() < 1e-6 * (1.0 + net.abs()),
                "net {net} vs stored {stored}"
            );
        }

        #[test]
        fn melt_fraction_in_unit_interval(
            temps in collection::vec(0.0f64..90.0, 1..30),
        ) {
            let mut s = state(3.0);
            for t in &temps {
                s.step(Celsius::new(*t), WattsPerKelvin::new(8.0), Seconds::new(600.0));
                let f = s.melt_fraction().value();
                prop_assert!((0.0..=1.0).contains(&f));
            }
        }
    }
}
