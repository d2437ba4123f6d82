//! Physical-quantity newtypes for the thermal time shifting simulator.
//!
//! Every quantity flowing through the simulation stack — temperatures, powers,
//! energies, masses, volumes, flows, money — is wrapped in a dedicated
//! newtype ([C-NEWTYPE]) so that unit mistakes (adding a temperature to an
//! energy, passing °C where a temperature *difference* is meant) are compile
//! errors rather than silently wrong datacenter models.
//!
//! The types are thin `f64` wrappers with zero runtime cost. Arithmetic is
//! only defined where it is physically meaningful:
//!
//! ```
//! use tts_units::{Celsius, TempDelta, Watts, Seconds, WattsPerKelvin};
//!
//! let inlet = Celsius::new(25.0);
//! let outlet = inlet + TempDelta::new(12.0);
//! let dt: TempDelta = outlet - inlet;          // temperatures subtract to a delta
//! let g = WattsPerKelvin::new(2.0);
//! let q: Watts = g * dt;                       // conductance × ΔT = heat flow
//! let e = q * Seconds::new(60.0);              // power × time = energy
//! assert!((e.joules() - 1440.0).abs() < 1e-9);
//! ```
//!
//! # Conventions
//!
//! * Absolute temperatures are [`Celsius`]; differences are [`TempDelta`]
//!   (kelvin-sized degrees).
//! * Time is [`Seconds`] internally; [`Hours`] converts at the boundary.
//! * All constructors accept any finite `f64`; quantities that are
//!   physically non-negative expose `is_valid`-style checks rather than
//!   panicking, except [`Fraction`], which is clamped on construction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[macro_use]
mod macros;

pub mod json;

/// FNV-1a 64-bit (Fowler–Noll–Vo) of `bytes`: the workspace's one stable,
/// non-cryptographic digest, used where a hash must be the same across
/// runs and platforms (cache file stems, result fingerprints); collision
/// resistance beyond 64 bits does not matter there.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

mod energy;
mod flow;
mod fraction;
mod geometry;
mod money;
mod temperature;
mod time;

pub use energy::{
    Joules, JoulesPerGram, JoulesPerGramKelvin, JoulesPerKelvin, KiloWatts, KilowattHours,
    MegaWatts, Watts, WattsPerKelvin, WattsPerSquareMeterKelvin,
};
pub use flow::{CubicMetersPerSecond, KilogramsPerSecond, MetersPerSecond, Pascals};
pub use fraction::Fraction;
pub use geometry::{
    CubicMeters, Grams, GramsPerMilliliter, Kilograms, Liters, Meters, SquareMeters,
};
pub use money::{Dollars, DollarsPerKwh, DollarsPerTon};
pub use temperature::{Celsius, TempDelta};
pub use time::{Hours, Seconds};

/// Density of air used throughout the airflow models, kg/m³ (at ~35 °C).
pub const AIR_DENSITY_KG_M3: f64 = 1.145;

/// Specific heat capacity of air, J/(kg·K).
pub const AIR_SPECIFIC_HEAT_J_KG_K: f64 = 1007.0;

/// Convenience: the heat capacity flow rate (W/K) carried by an air stream.
///
/// `m_dot * c_p` — multiplying by the inlet/outlet temperature difference
/// yields the advected heat in watts.
pub fn air_heat_capacity_flow(flow: CubicMetersPerSecond) -> WattsPerKelvin {
    WattsPerKelvin::new(flow.value() * AIR_DENSITY_KG_M3 * AIR_SPECIFIC_HEAT_J_KG_K)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn air_heat_capacity_flow_matches_hand_computation() {
        let f = CubicMetersPerSecond::new(0.05);
        let g = air_heat_capacity_flow(f);
        assert!((g.value() - 0.05 * AIR_DENSITY_KG_M3 * AIR_SPECIFIC_HEAT_J_KG_K).abs() < 1e-9);
    }

    #[test]
    fn fnv1a64_reference_vectors() {
        // Published test vectors of the 64-bit FNV-1a hash.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn readme_style_pipeline_compiles_and_is_consistent() {
        let cpu = Watts::new(46.0);
        let dt = Seconds::new(3600.0);
        let e = cpu * dt;
        assert!((e.kilowatt_hours().value() - 0.046).abs() < 1e-12);
    }
}
