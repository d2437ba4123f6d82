//! Datacenter cooling-system models.
//!
//! The *cooling load* of a datacenter "is the power that must be removed to
//! maintain a constant temperature" (§5.1, citing Patel et al.). Without
//! PCM it equals the IT heat output; with PCM it is the IT heat minus
//! whatever the wax is currently absorbing (or plus what it is releasing).
//! The cooling system must be provisioned for the *peak* of this load —
//! which is exactly the quantity thermal time shifting attacks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod climate;
pub mod emergency;
pub mod freecooling;
pub mod hotwater;
pub mod system;
pub mod tariff;

pub use climate::{Site, WeatherConfig, WeatherSeries};
pub use emergency::{ride_through, DegradedCooling, RideThrough, RoomModel};
pub use freecooling::Economizer;
pub use hotwater::{hot_water_bill, HotWaterBill, HotWaterLoop, ReuseContract};
pub use system::CoolingSystem;
pub use tariff::Tariff;

use tts_units::Watts;

/// Instantaneous cooling load: IT heat output minus the heat currently
/// being absorbed by PCM (negative absorption = release, which *adds* to
/// the load).
///
/// ```
/// use tts_units::Watts;
/// // A cluster emitting 180 kW while its wax absorbs 15 kW presents only
/// // 165 kW to the CRAC units.
/// let load = tts_cooling::cooling_load(Watts::new(180_000.0), Watts::new(15_000.0));
/// assert_eq!(load, Watts::new(165_000.0));
/// ```
pub fn cooling_load(it_heat: Watts, pcm_absorption: Watts) -> Watts {
    it_heat - pcm_absorption
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_increases_the_load() {
        // Refreezing wax (negative absorption) adds its heat to the load.
        let load = cooling_load(Watts::new(100.0), Watts::new(-20.0));
        assert_eq!(load, Watts::new(120.0));
    }

    #[test]
    fn idle_wax_is_neutral() {
        assert_eq!(
            cooling_load(Watts::new(100.0), Watts::ZERO),
            Watts::new(100.0)
        );
    }
}
