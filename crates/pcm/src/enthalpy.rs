//! Invertible enthalpy–temperature curves (effective heat capacity method).
//!
//! The transient behaviour of a PCM is captured by its specific enthalpy
//! h(T): sensible heat below the solidus, latent + sensible heat across the
//! mushy region, sensible heat above the liquidus. Storing *enthalpy* as the
//! state variable (rather than temperature) makes melt/freeze integration
//! unconditionally energy-conserving; temperature and melt fraction are
//! recovered through the inverse map.

use crate::material::PcmMaterial;
use tts_units::{Celsius, Fraction, JoulesPerGram};

/// A piecewise-linear specific enthalpy curve for one PCM.
///
/// Enthalpy is measured in J/g relative to a reference temperature well
/// below any operating point (0 °C), so all values in the operating range
/// are positive.
///
/// ```
/// use tts_pcm::{EnthalpyCurve, PcmMaterial};
/// use tts_units::Celsius;
///
/// let wax = PcmMaterial::commercial_paraffin(Celsius::new(39.0));
/// let curve = EnthalpyCurve::for_material(&wax);
///
/// // Fully solid below the solidus, fully molten above the liquidus.
/// assert_eq!(curve.melt_fraction_at(Celsius::new(30.0)).value(), 0.0);
/// assert_eq!(curve.melt_fraction_at(Celsius::new(45.0)).value(), 1.0);
///
/// // The inverse map recovers the temperature.
/// let h = curve.enthalpy_at(Celsius::new(36.0));
/// assert!((curve.temperature_at(h).value() - 36.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EnthalpyCurve {
    /// Reference temperature for h = 0 (°C).
    t_ref: f64,
    /// Solidus temperature (°C).
    t_sol: f64,
    /// Liquidus temperature (°C).
    t_liq: f64,
    /// Solid specific heat (J/(g·K)).
    cp_s: f64,
    /// Liquid specific heat (J/(g·K)).
    cp_l: f64,
    /// Latent heat of fusion (J/g).
    latent: f64,
    /// Enthalpy at the solidus (J/g).
    h_sol: f64,
    /// Enthalpy at the liquidus (J/g).
    h_liq: f64,
}

tts_units::derive_json! { struct EnthalpyCurve { t_ref, t_sol, t_liq, cp_s, cp_l, latent, h_sol, h_liq } }

impl EnthalpyCurve {
    /// Reference temperature used for `h = 0`.
    pub const REFERENCE_C: f64 = 0.0;

    /// Builds the curve for a material.
    pub fn for_material(material: &PcmMaterial) -> Self {
        let t_sol = material.solidus().value();
        let t_liq = material.liquidus().value();
        let cp_s = material.specific_heat_solid().value();
        let cp_l = material.specific_heat_liquid().value();
        let latent = material.heat_of_fusion().value();
        let h_sol = cp_s * (t_sol - Self::REFERENCE_C);
        // Across the mushy region the material absorbs latent heat plus the
        // sensible heat of the average phase mixture.
        let cp_avg = 0.5 * (cp_s + cp_l);
        let h_liq = h_sol + latent + cp_avg * (t_liq - t_sol);
        Self {
            t_ref: Self::REFERENCE_C,
            t_sol,
            t_liq,
            cp_s,
            cp_l,
            latent,
            h_sol,
            h_liq,
        }
    }

    /// Specific enthalpy at a temperature, J/g relative to 0 °C.
    #[inline]
    pub fn enthalpy_at(&self, t: Celsius) -> JoulesPerGram {
        let t = t.value();
        let h = if t <= self.t_sol {
            self.cp_s * (t - self.t_ref)
        } else if t >= self.t_liq {
            self.h_liq + self.cp_l * (t - self.t_liq)
        } else {
            let frac = (t - self.t_sol) / (self.t_liq - self.t_sol);
            self.h_sol + frac * (self.h_liq - self.h_sol)
        };
        JoulesPerGram::new(h)
    }

    /// Temperature at a specific enthalpy — the inverse of
    /// [`Self::enthalpy_at`].
    pub fn temperature_at(&self, h: JoulesPerGram) -> Celsius {
        let h = h.value();
        let t = if h <= self.h_sol {
            self.t_ref + h / self.cp_s
        } else if h >= self.h_liq {
            self.t_liq + (h - self.h_liq) / self.cp_l
        } else {
            let frac = (h - self.h_sol) / (self.h_liq - self.h_sol);
            self.t_sol + frac * (self.t_liq - self.t_sol)
        };
        Celsius::new(t)
    }

    /// Melt fraction at a temperature (0 = solid, 1 = liquid).
    pub fn melt_fraction_at(&self, t: Celsius) -> Fraction {
        self.melt_fraction_at_enthalpy(self.enthalpy_at(t))
    }

    /// Melt fraction at a specific enthalpy.
    pub fn melt_fraction_at_enthalpy(&self, h: JoulesPerGram) -> Fraction {
        Fraction::new((h.value() - self.h_sol) / (self.h_liq - self.h_sol))
    }

    /// Effective specific heat dh/dT at a temperature, J/(g·K).
    ///
    /// Inside the mushy region this is large (latent heat spread over the
    /// melting range) — the "effective heat capacity" that lets a PCM soak
    /// up heat with little temperature rise.
    pub fn effective_heat_capacity(&self, t: Celsius) -> f64 {
        let t = t.value();
        if t < self.t_sol {
            self.cp_s
        } else if t > self.t_liq {
            self.cp_l
        } else {
            (self.h_liq - self.h_sol) / (self.t_liq - self.t_sol)
        }
    }

    /// Enthalpy at the liquidus (J/g).
    pub fn liquidus_enthalpy(&self) -> JoulesPerGram {
        JoulesPerGram::new(self.h_liq)
    }

    /// The latent storage available across the transition, J/g — latent heat
    /// plus the mushy-region sensible component.
    pub fn transition_storage(&self) -> JoulesPerGram {
        JoulesPerGram::new(self.h_liq - self.h_sol)
    }

    /// Solidus temperature.
    pub fn solidus(&self) -> Celsius {
        Celsius::new(self.t_sol)
    }

    /// Liquidus temperature.
    pub fn liquidus(&self) -> Celsius {
        Celsius::new(self.t_liq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::material::PcmMaterial;
    use tts_rng::prop::prelude::*;

    fn wax() -> EnthalpyCurve {
        EnthalpyCurve::for_material(&PcmMaterial::validation_wax())
    }

    #[test]
    fn enthalpy_is_monotone_across_regions() {
        let c = wax();
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=200 {
            let t = Celsius::new(10.0 + i as f64 * 0.3);
            let h = c.enthalpy_at(t).value();
            assert!(h > prev, "h(T) must be strictly increasing at {t}");
            prev = h;
        }
    }

    #[test]
    fn transition_storage_exceeds_latent_heat() {
        let m = PcmMaterial::validation_wax();
        let c = EnthalpyCurve::for_material(&m);
        assert!(c.transition_storage().value() >= m.heat_of_fusion().value());
        // ... but not by much for a narrow melting range.
        assert!(c.transition_storage().value() < m.heat_of_fusion().value() * 1.1);
    }

    #[test]
    fn melt_fraction_boundaries() {
        let c = wax();
        assert_eq!(c.melt_fraction_at(c.solidus()).value(), 0.0);
        assert_eq!(c.melt_fraction_at(c.liquidus()).value(), 1.0);
        let mid = Celsius::new((c.solidus().value() + c.liquidus().value()) / 2.0);
        assert!((c.melt_fraction_at(mid).value() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn effective_heat_capacity_spikes_in_mushy_region() {
        let c = wax();
        let m = PcmMaterial::validation_wax();
        let inside = c.effective_heat_capacity(m.melting_point());
        let below = c.effective_heat_capacity(Celsius::new(20.0));
        let above = c.effective_heat_capacity(Celsius::new(60.0));
        assert!(inside > 10.0 * below);
        assert!(inside > 10.0 * above);
    }

    #[test]
    fn eicosane_narrow_range_has_higher_effective_cp_than_blend() {
        let pure = EnthalpyCurve::for_material(&PcmMaterial::eicosane());
        let blend =
            EnthalpyCurve::for_material(&PcmMaterial::commercial_paraffin(Celsius::new(39.0)));
        let cp_pure = pure.effective_heat_capacity(PcmMaterial::eicosane().melting_point());
        let cp_blend = blend.effective_heat_capacity(Celsius::new(39.0));
        assert!(cp_pure > cp_blend);
    }

    proptest! {
        #[test]
        fn temperature_enthalpy_round_trip(t in -10.0f64..120.0) {
            let c = wax();
            let t0 = Celsius::new(t);
            let h = c.enthalpy_at(t0);
            let t1 = c.temperature_at(h);
            prop_assert!((t1.value() - t).abs() < 1e-9);
        }

        #[test]
        fn enthalpy_temperature_round_trip(h in 0.0f64..600.0) {
            let c = wax();
            let h0 = JoulesPerGram::new(h);
            let t = c.temperature_at(h0);
            let h1 = c.enthalpy_at(t);
            prop_assert!((h1.value() - h).abs() < 1e-9);
        }

        #[test]
        fn melt_fraction_is_monotone(a in 0.0f64..90.0, b in 0.0f64..90.0) {
            let c = wax();
            let fa = c.melt_fraction_at(Celsius::new(a)).value();
            let fb = c.melt_fraction_at(Celsius::new(b)).value();
            if a <= b {
                prop_assert!(fa <= fb + 1e-12);
            }
        }

        #[test]
        fn curve_is_consistent_for_all_library_materials(idx in 0usize..5) {
            let m = &PcmMaterial::table1()[idx];
            let c = EnthalpyCurve::for_material(m);
            let h_mid = c.enthalpy_at(m.melting_point());
            prop_assert!((c.melt_fraction_at_enthalpy(h_mid).value() - 0.5).abs() < 1e-9);
        }
    }
}
