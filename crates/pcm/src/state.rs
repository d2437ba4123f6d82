//! Transient melt/freeze state of a deployed quantity of PCM.
//!
//! The state variable is the wax's *specific enthalpy* — not its temperature
//! — so the latent plateau is handled without special cases and the
//! integration conserves energy exactly: every joule the state absorbs from
//! (or releases to) the air is accounted for in `stored_energy`.

use crate::enthalpy::EnthalpyCurve;
use crate::material::PcmMaterial;
use tts_units::{Celsius, Fraction, Grams, Joules, JoulesPerGram, Seconds, Watts, WattsPerKelvin};

/// The transient thermal state of a mass of PCM.
///
/// Coupled to an air temperature through a lumped conductance (film + wall +
/// wax bulk, see [`crate::container::WaxContainer::air_to_wax_conductance`]),
/// the wax exchanges heat `q = G · (T_air − T_wax)` and integrates it into
/// its enthalpy.
///
/// ```
/// use tts_pcm::{PcmMaterial, PcmState};
/// use tts_units::{Celsius, Grams, Seconds, WattsPerKelvin};
///
/// let wax = PcmMaterial::validation_wax();
/// let mut s = PcmState::new(&wax, Grams::new(960.0), Celsius::new(25.0));
/// let g = WattsPerKelvin::new(4.0);
///
/// // A hot afternoon melts the wax ...
/// for _ in 0..240 {
///     s.step(Celsius::new(55.0), g, Seconds::new(60.0));
/// }
/// assert!(s.melt_fraction().value() > 0.5);
///
/// // ... and the cool night refreezes it, releasing the stored heat.
/// for _ in 0..480 {
///     s.step(Celsius::new(25.0), g, Seconds::new(60.0));
/// }
/// assert!(s.melt_fraction().value() < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PcmState {
    curve: EnthalpyCurve,
    mass: Grams,
    /// Specific enthalpy, J/g (the state variable).
    enthalpy: JoulesPerGram,
    /// Enthalpy corresponding to the initial temperature, used as the zero
    /// point for `stored_energy`.
    enthalpy_ref: JoulesPerGram,
}

tts_units::derive_json! { struct PcmState { curve, mass, enthalpy, enthalpy_ref } }

impl PcmState {
    /// A mass of `material` equilibrated at `initial_temperature`.
    ///
    /// # Panics
    /// Panics if `mass` is not positive.
    pub fn new(material: &PcmMaterial, mass: Grams, initial_temperature: Celsius) -> Self {
        assert!(mass.value() > 0.0, "PCM mass must be positive");
        let curve = EnthalpyCurve::for_material(material);
        let h0 = curve.enthalpy_at(initial_temperature);
        Self {
            curve,
            mass,
            enthalpy: h0,
            enthalpy_ref: h0,
        }
    }

    /// Advances the wax by `dt` against air at `air_temp` through the lumped
    /// conductance `coupling`, returning the heat flow *absorbed by the wax*
    /// (positive while melting, negative while freezing/releasing).
    ///
    /// Uses an analytic exponential update within the step: over a step the
    /// wax temperature is approximately constant in the mushy region (large
    /// effective heat capacity) and relaxes exponentially outside it, so we
    /// integrate `dh/dt = G (T_air − T(h)) / m` with a semi-implicit
    /// exponential integrator that cannot overshoot the air temperature
    /// regardless of step size.
    pub fn step(&mut self, air_temp: Celsius, coupling: WattsPerKelvin, dt: Seconds) -> Watts {
        if dt.value() <= 0.0 || coupling.value() <= 0.0 {
            return Watts::ZERO;
        }
        let relax = self.relaxation(coupling, dt);
        let (h_new, q) = relax.settle(&self.curve, self.mass, air_temp);
        self.enthalpy = JoulesPerGram::new(h_new);
        q
    }

    /// The heat [`Self::step`] would return from this state, as a function
    /// of the air temperature, without advancing the state — for callers
    /// that try many candidate air temperatures against one wax state.
    ///
    /// The state-only part of the step (wax temperature, effective heat
    /// capacity, the relaxation `exp`) is computed once, here. Bit-identity
    /// contract: every call returns exactly the bits of
    /// `self.clone().step(air, coupling, dt)`, including the zero returned
    /// for `dt ≤ 0` or `coupling ≤ 0`; both run the one integrator in
    /// `Relaxation::settle`.
    pub fn probe(&self, coupling: WattsPerKelvin, dt: Seconds) -> impl Fn(Celsius) -> Watts + '_ {
        let relax =
            (dt.value() > 0.0 && coupling.value() > 0.0).then(|| self.relaxation(coupling, dt));
        move |air_temp| match &relax {
            Some(relax) => relax.settle(&self.curve, self.mass, air_temp).1,
            None => Watts::ZERO,
        }
    }

    /// The state-only coefficients of one step of length `dt` through
    /// `coupling` (both positive).
    fn relaxation(&self, coupling: WattsPerKelvin, dt: Seconds) -> Relaxation {
        let t_wax = self.curve.temperature_at(self.enthalpy);
        let cp_eff = self.curve.effective_heat_capacity(t_wax); // J/(g·K)
        let c_total = cp_eff * self.mass.value(); // J/K
        let tau = c_total / coupling.value(); // s

        // Exponential relaxation toward the air temperature over this step.
        let alpha = 1.0 - (-dt.value() / tau).exp();
        Relaxation {
            t_wax,
            cp_eff,
            alpha,
            h0: self.enthalpy.value(),
            dt: dt.value(),
        }
    }

    /// Like [`Self::step`], but limits the *release* rate (heat flowing
    /// from wax to air) to `max_release`.
    ///
    /// Physically: a refreezing wax bank dumps its heat into the air
    /// stream, and the cooling plant must remove it. When the plant has
    /// only `max_release` of headroom, the wax-facing air warms until the
    /// release throttles to match — which this method models by clamping
    /// the step's released energy. Absorption (positive heat into the wax)
    /// is never limited.
    pub fn step_with_release_cap(
        &mut self,
        air_temp: Celsius,
        coupling: WattsPerKelvin,
        dt: Seconds,
        max_release: Watts,
    ) -> Watts {
        let before = self.enthalpy;
        let q = self.step(air_temp, coupling, dt);
        let max_release = max_release.max(Watts::ZERO);
        if q.value() >= -max_release.value() {
            return q;
        }
        // Clamp: roll back to the bounded release.
        let allowed_delta_h = -max_release.value() * dt.value() / self.mass.value();
        self.enthalpy = JoulesPerGram::new(before.value() + allowed_delta_h);
        -max_release
    }

    /// Advances the wax by `dt` under an *active* heat-rate command, as
    /// issued by a scheduler that modulates a bypass valve in front of
    /// the wax bank.
    ///
    /// The valve can only throttle the passive exchange, never reverse
    /// or amplify it: the realized rate is `rate` clamped to the closed
    /// interval between zero (valve shut) and whatever [`Self::step`]
    /// would transfer passively (valve fully open). Returns the heat
    /// actually absorbed by the wax (positive charging, negative
    /// discharging), exactly consistent with the enthalpy update.
    pub fn command_rate(
        &mut self,
        rate: Watts,
        air_temp: Celsius,
        coupling: WattsPerKelvin,
        dt: Seconds,
    ) -> Watts {
        let before = self.enthalpy;
        let passive = self.step(air_temp, coupling, dt).value();
        let actual = rate.value().clamp(passive.min(0.0), passive.max(0.0));
        if dt.value() > 0.0 {
            let delta_h = actual * dt.value() / self.mass.value();
            self.enthalpy = JoulesPerGram::new(before.value() + delta_h);
        }
        Watts::new(actual)
    }

    /// Current wax temperature.
    pub fn temperature(&self) -> Celsius {
        self.curve.temperature_at(self.enthalpy)
    }

    /// Current melt fraction.
    pub fn melt_fraction(&self) -> Fraction {
        self.curve.melt_fraction_at_enthalpy(self.enthalpy)
    }

    /// Energy stored relative to the initial state (J); grows while the wax
    /// heats/melts, returns toward zero as it refreezes.
    pub fn stored_energy(&self) -> Joules {
        Joules::new((self.enthalpy.value() - self.enthalpy_ref.value()) * self.mass.value())
    }

    /// Latent storage still available before the wax is fully molten, J.
    pub fn remaining_latent_capacity(&self) -> Joules {
        let remaining = (self.curve.liquidus_enthalpy().value() - self.enthalpy.value()).max(0.0);
        Joules::new(remaining * self.mass.value())
    }

    /// Total latent capacity between solidus and liquidus, J.
    pub fn latent_capacity(&self) -> Joules {
        Joules::new(self.curve.transition_storage().value() * self.mass.value())
    }

    /// The wax mass.
    pub fn mass(&self) -> Grams {
        self.mass
    }

    /// The underlying enthalpy curve.
    pub fn curve(&self) -> &EnthalpyCurve {
        &self.curve
    }

    /// `true` when the wax can currently absorb latent heat (not yet fully
    /// molten).
    pub fn can_absorb(&self) -> bool {
        self.enthalpy < self.curve.liquidus_enthalpy()
    }

    /// Maximum instantaneous heat the wax can absorb from air at `air_temp`
    /// through `coupling` — zero once fully molten and at air temperature.
    pub fn max_absorption_rate(&self, air_temp: Celsius, coupling: WattsPerKelvin) -> Watts {
        let dt = (air_temp - self.temperature()).value().max(0.0);
        Watts::new(coupling.value() * dt)
    }
}

/// One step's state-only coefficients: the start-of-step wax temperature,
/// effective heat capacity and enthalpy, and the exponential relaxation
/// factor `α = 1 − exp(−dt/τ)`.
struct Relaxation {
    t_wax: Celsius,
    cp_eff: f64,
    alpha: f64,
    h0: f64,
    dt: f64,
}

impl Relaxation {
    /// The step's integrator: relaxes the wax toward `air_temp` and returns
    /// the end-of-step specific enthalpy and the heat absorbed (positive
    /// while melting, negative while releasing).
    #[inline]
    fn settle(&self, curve: &EnthalpyCurve, mass: Grams, air_temp: Celsius) -> (f64, Watts) {
        let dt_k = (air_temp - self.t_wax).value() * self.alpha;
        // Specific enthalpy absorbed this step, J/g. The relaxation's fixed
        // point is thermal equilibrium with the air; when a step crosses a
        // phase boundary the start-of-step effective heat capacity no
        // longer applies, so clamp at the equilibrium enthalpy to keep the
        // update monotone and overshoot-free.
        let delta_h = self.cp_eff * dt_k;
        let h_eq = curve.enthalpy_at(air_temp).value();
        let h_new = self.h0 + delta_h;
        let h_clamped = if delta_h >= 0.0 {
            h_new.min(h_eq.max(self.h0))
        } else {
            h_new.max(h_eq.min(self.h0))
        };
        let delta_h = h_clamped - self.h0;
        (h_clamped, Watts::new(delta_h * mass.value() / self.dt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tts_rng::prop::prelude::*;

    fn state(t0: f64) -> PcmState {
        PcmState::new(
            &PcmMaterial::validation_wax(),
            Grams::new(960.0),
            Celsius::new(t0),
        )
    }

    #[test]
    fn melts_under_hot_air_and_absorbs_heat() {
        let mut s = state(25.0);
        let g = WattsPerKelvin::new(5.0);
        let mut absorbed = 0.0;
        for _ in 0..1000 {
            let q = s.step(Celsius::new(55.0), g, Seconds::new(60.0));
            absorbed += q.value() * 60.0;
            assert!(q.value() >= -1e-9, "heating air cannot extract heat");
        }
        assert!(s.melt_fraction().value() > 0.99, "{}", s.melt_fraction());
        // Energy audit: absorbed heat equals stored energy.
        assert!(
            (absorbed - s.stored_energy().value()).abs() < 1e-6 * absorbed.abs().max(1.0),
            "energy balance violated: {absorbed} vs {}",
            s.stored_energy().value()
        );
    }

    #[test]
    fn refreezes_under_cool_air_and_releases_heat() {
        let mut s = state(55.0); // start molten
        assert_eq!(s.melt_fraction(), Fraction::ONE);
        let g = WattsPerKelvin::new(5.0);
        let mut released = 0.0;
        for _ in 0..2000 {
            let q = s.step(Celsius::new(25.0), g, Seconds::new(60.0));
            released -= q.value() * 60.0;
            assert!(q.value() <= 1e-9, "cooling air cannot add heat");
        }
        assert!(s.melt_fraction().value() < 0.01);
        assert!(released > 0.0);
    }

    #[test]
    fn temperature_plateaus_at_melting_point_while_melting() {
        let mut s = state(25.0);
        let g = WattsPerKelvin::new(5.0);
        // Step until mid-melt.
        while s.melt_fraction().value() < 0.5 {
            s.step(Celsius::new(55.0), g, Seconds::new(30.0));
        }
        let m = PcmMaterial::validation_wax();
        let t = s.temperature().value();
        assert!(
            t >= m.solidus().value() && t <= m.liquidus().value(),
            "mid-melt temperature {t} outside the mushy band"
        );
    }

    #[test]
    fn step_never_overshoots_air_temperature() {
        // Huge steps against a fixed air temp: the exponential integrator
        // must converge to the air temperature without oscillating past it.
        let mut s = state(25.0);
        let g = WattsPerKelvin::new(50.0);
        for _ in 0..100 {
            s.step(Celsius::new(48.0), g, Seconds::new(7200.0));
            assert!(s.temperature().value() <= 48.0 + 1e-9);
        }
        assert!((s.temperature().value() - 48.0).abs() < 0.1);
    }

    #[test]
    fn latent_capacity_matches_hand_computation() {
        // 960 g × ~206 J/g (200 latent + mushy sensible) ≈ 198 kJ.
        let s = state(25.0);
        let expected = s.curve().transition_storage().value() * 960.0;
        assert!((s.latent_capacity().value() - expected).abs() < 1e-9);
        assert!(s.latent_capacity().value() > 960.0 * 200.0);
    }

    #[test]
    fn remaining_capacity_decreases_monotonically_while_melting() {
        let mut s = state(25.0);
        let g = WattsPerKelvin::new(5.0);
        let mut prev = s.remaining_latent_capacity().value();
        for _ in 0..500 {
            s.step(Celsius::new(55.0), g, Seconds::new(60.0));
            let now = s.remaining_latent_capacity().value();
            assert!(now <= prev + 1e-9);
            prev = now;
        }
        assert_eq!(prev, 0.0);
        assert!(!s.can_absorb());
    }

    #[test]
    fn zero_dt_and_zero_coupling_are_noops() {
        let mut s = state(30.0);
        let before = s.clone();
        assert_eq!(
            s.step(Celsius::new(60.0), WattsPerKelvin::new(5.0), Seconds::ZERO),
            Watts::ZERO
        );
        assert_eq!(
            s.step(Celsius::new(60.0), WattsPerKelvin::ZERO, Seconds::new(60.0)),
            Watts::ZERO
        );
        assert_eq!(s, before);
    }

    #[test]
    fn max_absorption_rate_is_zero_when_air_is_cooler() {
        let s = state(45.0);
        let r = s.max_absorption_rate(Celsius::new(30.0), WattsPerKelvin::new(5.0));
        assert_eq!(r, Watts::ZERO);
    }

    #[test]
    fn release_cap_bounds_the_heat_dumped() {
        let mut s = state(55.0); // molten
        let q = s.step_with_release_cap(
            Celsius::new(25.0),
            WattsPerKelvin::new(50.0),
            Seconds::new(600.0),
            Watts::new(10.0),
        );
        assert!(
            (q.value() + 10.0).abs() < 1e-9,
            "release clamped to 10 W, got {q}"
        );
        // Energy accounting holds under the clamp.
        assert!((s.stored_energy().value() + 10.0 * 600.0).abs() < 1e-6);
    }

    #[test]
    fn release_cap_does_not_limit_absorption() {
        let mut s = state(25.0);
        let q = s.step_with_release_cap(
            Celsius::new(55.0),
            WattsPerKelvin::new(5.0),
            Seconds::new(60.0),
            Watts::ZERO,
        );
        assert!(q.value() > 0.0, "absorption must pass through the cap");
    }

    #[test]
    fn gentle_release_is_unaffected_by_a_loose_cap() {
        let mut a = state(55.0);
        let mut b = state(55.0);
        let qa = a.step(
            Celsius::new(50.0),
            WattsPerKelvin::new(1.0),
            Seconds::new(60.0),
        );
        let qb = b.step_with_release_cap(
            Celsius::new(50.0),
            WattsPerKelvin::new(1.0),
            Seconds::new(60.0),
            Watts::new(1e6),
        );
        assert_eq!(qa, qb);
        assert_eq!(a, b);
    }

    #[test]
    fn command_rate_throttles_but_never_exceeds_passive_exchange() {
        let g = WattsPerKelvin::new(5.0);
        let dt = Seconds::new(900.0);
        // Hot air: the valve can realize any charge rate up to passive.
        let mut passive = state(30.0);
        let q_open = passive.step(Celsius::new(50.0), g, dt);
        let mut s = state(30.0);
        let q = s.command_rate(Watts::new(10.0), Celsius::new(50.0), g, dt);
        assert!(
            (q.value() - 10.0).abs() < 1e-9,
            "throttled to 10 W, got {q:?}"
        );
        let stored = s.stored_energy().value();
        assert!(
            (stored - 10.0 * 900.0).abs() < 1e-6,
            "enthalpy consistent with realized rate, stored {stored}"
        );
        // Asking for more than passive clamps at passive.
        let mut s = state(30.0);
        let q = s.command_rate(Watts::new(1e9), Celsius::new(50.0), g, dt);
        assert!((q.value() - q_open.value()).abs() < 1e-9);
        // Asking to charge from cold air does nothing (valve cannot
        // reverse the gradient), and the wax is untouched.
        let mut s = state(40.0);
        let q = s.command_rate(Watts::new(50.0), Celsius::new(20.0), g, dt);
        assert_eq!(q.value(), 0.0);
        assert_eq!(s.stored_energy().value(), 0.0);
    }

    #[test]
    fn command_rate_discharge_is_bounded_by_passive_release() {
        let g = WattsPerKelvin::new(5.0);
        let dt = Seconds::new(900.0);
        let mut molten = state(25.0);
        for _ in 0..200 {
            molten.step(Celsius::new(60.0), g, Seconds::new(600.0));
        }
        let mut passive = molten.clone();
        let q_open = passive.step(Celsius::new(20.0), g, dt);
        assert!(q_open.value() < 0.0, "cold air must pull heat out");
        // A gentle discharge command is realized exactly.
        let want = q_open.value() / 2.0;
        let mut s = molten.clone();
        let q = s.command_rate(Watts::new(want), Celsius::new(20.0), g, dt);
        assert!((q.value() - want).abs() < 1e-9);
        // An aggressive one clamps at the passive rate.
        let mut s = molten.clone();
        let q = s.command_rate(Watts::new(-1e9), Celsius::new(20.0), g, dt);
        assert!((q.value() - q_open.value()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "mass must be positive")]
    fn zero_mass_panics() {
        PcmState::new(
            &PcmMaterial::validation_wax(),
            Grams::ZERO,
            Celsius::new(25.0),
        );
    }

    /// `probe(g, dt)(air)` against `clone().step(air, g, dt)`, bit for bit.
    fn assert_probe_matches_step(s: &PcmState, air: f64, g: f64, dt: f64) {
        let (air, g, dt) = (Celsius::new(air), WattsPerKelvin::new(g), Seconds::new(dt));
        let probed = s.probe(g, dt)(air);
        let stepped = s.clone().step(air, g, dt);
        assert_eq!(
            probed.value().to_bits(),
            stepped.value().to_bits(),
            "probe {probed} vs step {stepped} at air {air}, g {g}, dt {dt}"
        );
    }

    #[test]
    fn probe_is_bit_identical_to_a_cloned_step_in_every_phase() {
        let curve = state(25.0).curve().clone();
        let (sol, liq) = (curve.solidus().value(), curve.liquidus().value());
        let phases = [
            (sol - 5.0, 0.0..=0.0),
            (0.5 * (sol + liq), 0.01..=0.99),
            (liq + 5.0, 1.0..=1.0),
        ];
        for (t0, melt) in phases {
            let s = state(t0);
            assert!(
                melt.contains(&s.melt_fraction().value()),
                "phase at {t0} °C"
            );
            // Air well below, just below, at, just above and well above the wax.
            for air in [t0 - 20.0, t0 - 0.1, t0, t0 + 0.1, t0 + 20.0] {
                for (g, dt) in [
                    (4.0, 60.0),
                    (4.0, 300.0),
                    (0.0, 60.0),
                    (4.0, 0.0),
                    (-1.0, 60.0),
                ] {
                    assert_probe_matches_step(&s, air, g, dt);
                }
            }
        }
    }

    proptest! {
        #[test]
        fn probe_matches_step_for_arbitrary_states(
            t0 in 0.0f64..80.0,
            air in 0.0f64..90.0,
            g in 0.0f64..20.0,
            dt in 0.0f64..900.0,
            degenerate in 0usize..4,
        ) {
            // One case in four exercises each early return.
            let (g, dt) = match degenerate {
                0 => (g, 0.0),
                1 => (0.0, dt),
                _ => (g, dt),
            };
            assert_probe_matches_step(&state(t0), air, g, dt);
        }

        #[test]
        fn energy_balance_holds_for_arbitrary_air_traces(
            temps in collection::vec(15.0f64..70.0, 1..60),
            dt in 10.0f64..600.0,
        ) {
            let mut s = state(25.0);
            let g = WattsPerKelvin::new(4.0);
            let mut net = 0.0;
            for t in &temps {
                let q = s.step(Celsius::new(*t), g, Seconds::new(dt));
                net += q.value() * dt;
            }
            let stored = s.stored_energy().value();
            prop_assert!(
                (net - stored).abs() < 1e-6 * (1.0 + net.abs()),
                "net absorbed {net} != stored {stored}"
            );
        }

        #[test]
        fn melt_fraction_stays_in_unit_interval(
            temps in collection::vec(-10.0f64..100.0, 1..40),
        ) {
            let mut s = state(25.0);
            let g = WattsPerKelvin::new(10.0);
            for t in &temps {
                s.step(Celsius::new(*t), g, Seconds::new(300.0));
                let f = s.melt_fraction().value();
                prop_assert!((0.0..=1.0).contains(&f));
            }
        }
    }
}
