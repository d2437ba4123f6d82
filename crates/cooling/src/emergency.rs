//! Cooling-failure ride-through.
//!
//! The paper's related work cites Intel's use of thermal storage for
//! *emergency* datacenter cooling (Garday & Housley) and chilled-water
//! tanks for "peak demand or emergencies" (Zheng et al.). In-server PCM
//! provides the same service passively: when the plant trips, the room
//! heats at `IT power / room capacitance`, and every watt the wax absorbs
//! stretches the time until the critical temperature — the window for
//! generators to start or workloads to drain.
//!
//! [`ride_through`] integrates one boundary condition: a
//! [`DegradedCooling`] profile gives the *fraction of nominal plant
//! capacity* still available at each instant, so the classic total
//! outage (zero capacity), partial deratings, staged recoveries, and
//! repeated flaps (the fault-injection cases) share one integrator. It
//! returns a [`RideThrough`] report rather than ad-hoc values, so
//! invariant checkers can assert on time-to-threshold, peak room
//! temperature, and the wax energy actually absorbed.

use tts_units::{Celsius, Joules, JoulesPerKelvin, Seconds, Watts, WattsPerKelvin};

/// The thermal state of a machine room with the cooling plant offline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoomModel {
    /// Lumped heat capacity of the room air + racks + structure, J/K.
    /// A 1008-server room with containment: order 5–20 MJ/K.
    pub capacitance: JoulesPerKelvin,
    /// Room temperature when the failure starts.
    pub start: Celsius,
    /// Temperature at which servers must shut down (ASHRAE allowable
    /// excursions end around 40–45 °C).
    pub critical: Celsius,
    /// Passive losses through the building envelope, W/K (to outside air
    /// at `start` — conservative).
    pub envelope_loss: WattsPerKelvin,
}

tts_units::derive_json! { struct RoomModel { capacitance, start, critical, envelope_loss } }

impl RoomModel {
    /// A 1008-server machine room baseline.
    pub fn cluster_room() -> Self {
        Self {
            capacitance: JoulesPerKelvin::new(8.0e6),
            start: Celsius::new(25.0),
            critical: Celsius::new(42.0),
            envelope_loss: WattsPerKelvin::new(500.0),
        }
    }
}

/// The degraded cooling plant: nominal capacity plus the availability
/// profile applied to it — the boundary-condition fault seam the chaos
/// engine's scheduled outage/derating faults inject through.
#[derive(Clone, Copy)]
pub struct DegradedCooling<'a> {
    /// Heat-removal capacity of the healthy plant, W (zero for a total
    /// outage).
    pub plant_capacity: Watts,
    /// Fraction of that capacity available `t` seconds after the
    /// episode starts, clamped to `[0, 1]` by the integrator.
    pub profile: &'a dyn Fn(Seconds) -> f64,
}

impl std::fmt::Debug for DegradedCooling<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DegradedCooling")
            .field("plant_capacity", &self.plant_capacity)
            .finish_non_exhaustive()
    }
}

/// Outcome of a ride-through simulation: the full report chaos
/// invariants and tests assert on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RideThrough {
    /// Time until the room reached the critical temperature, or `None`
    /// if it never did within the simulated window.
    pub time_to_critical: Option<Seconds>,
    /// Hottest room temperature seen during the episode.
    pub peak_room_temp: Celsius,
    /// Room temperature when the wax saturated (`None` if its latent
    /// budget never ran out before the episode ended).
    pub wax_saturated_at: Option<Celsius>,
    /// Latent energy the wax actually absorbed, J.
    pub wax_energy_absorbed: Joules,
    /// Length of the simulated episode (ends early at the critical
    /// point).
    pub simulated: Seconds,
}

tts_units::derive_json! { struct RideThrough {
    time_to_critical, peak_room_temp, wax_saturated_at, wax_energy_absorbed, simulated
} }

/// Simulates a cooling failure: the room heats under `it_power` while a
/// wax bank of total `coupling` (W/K) and `latent_budget` (J, counted
/// from the failure moment) absorbs heat whenever the room is above
/// `wax_melting_point`, integrated in explicit 1 s steps of the lumped
/// room balance
///
/// `C dT/dt = IT − wax − envelope − plant·frac(t)`
///
/// where the plant term never cools the room below its setpoint
/// (`room.start`). Runs until the critical temperature or the end of
/// `window`, whichever comes first: if `time_to_critical` is `None`,
/// envelope losses, the plant and the wax balanced the IT power first.
pub fn ride_through(
    room: &RoomModel,
    it_power: Watts,
    cooling: DegradedCooling<'_>,
    coupling: WattsPerKelvin,
    latent_budget: Joules,
    wax_melting_point: Celsius,
    window: Seconds,
) -> RideThrough {
    let dt = 1.0; // s
    let mut t_room = room.start.value();
    let mut peak = t_room;
    let mut remaining = latent_budget.value().max(0.0);
    let budget = remaining;
    let mut saturated_at = None;
    let mut elapsed = 0.0;
    let mut critical_at = None;
    while elapsed < window.value() {
        let superheat = (t_room - wax_melting_point.value()).max(0.0);
        let mut q_wax = coupling.value() * superheat;
        if q_wax * dt > remaining {
            q_wax = remaining / dt;
        }
        let q_env = room.envelope_loss.value() * (t_room - room.start.value());
        let frac = (cooling.profile)(Seconds::new(elapsed)).clamp(0.0, 1.0);
        let q_plant = cooling.plant_capacity.value() * frac;
        let net = it_power.value() - q_wax - q_env - q_plant;
        // The plant chases its setpoint; it never undercools the room.
        t_room = (t_room + net * dt / room.capacitance.value()).max(room.start.value());
        remaining = (remaining - q_wax * dt).max(0.0);
        if remaining <= 0.0 && budget > 0.0 && saturated_at.is_none() {
            saturated_at = Some(Celsius::new(t_room));
        }
        elapsed += dt;
        peak = peak.max(t_room);
        if t_room >= room.critical.value() {
            critical_at = Some(Seconds::new(elapsed));
            break;
        }
    }
    RideThrough {
        time_to_critical: critical_at,
        peak_room_temp: Celsius::new(peak),
        wax_saturated_at: saturated_at,
        wax_energy_absorbed: Joules::new(budget - remaining),
        simulated: Seconds::new(elapsed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IT_POWER: f64 = 180_000.0; // a 1U cluster at full tilt

    /// The plant fully offline for the whole episode.
    const OUTAGE: DegradedCooling<'static> = DegradedCooling {
        plant_capacity: Watts::ZERO,
        profile: &|_| 0.0,
    };

    /// The classic total-outage window.
    const DAY: Seconds = Seconds::new(86_400.0);

    #[test]
    fn bare_room_reaches_critical_in_minutes() {
        let r = ride_through(
            &RoomModel::cluster_room(),
            Watts::new(IT_POWER),
            OUTAGE,
            WattsPerKelvin::ZERO,
            Joules::ZERO,
            Celsius::new(39.0),
            DAY,
        );
        let minutes = r.time_to_critical.expect("must overheat").value() / 60.0;
        assert!(
            (5.0..60.0).contains(&minutes),
            "bare ride-through {minutes} min"
        );
        assert!(r.peak_room_temp.value() >= RoomModel::cluster_room().critical.value());
        assert_eq!(r.wax_energy_absorbed, Joules::ZERO);
    }

    #[test]
    fn wax_extends_the_ride_through_modestly() {
        // The honest finding: although the fleet's wax holds *more* latent
        // energy (≈ 200 MJ) than the whole room excursion (≈ 136 MJ), the
        // passive air-to-wax coupling rate-limits it — unlike Intel's
        // pumped chilled-water tanks, in-server wax buys minutes, not
        // hours, against a full-power failure. A low-melting wax engaged
        // for the whole climb gains ~10–60 %.
        let room = RoomModel::cluster_room();
        let bare = ride_through(
            &room,
            Watts::new(IT_POWER),
            OUTAGE,
            WattsPerKelvin::ZERO,
            Joules::ZERO,
            Celsius::new(28.0),
            DAY,
        )
        .time_to_critical
        .unwrap();
        let waxed = ride_through(
            &room,
            Watts::new(IT_POWER),
            OUTAGE,
            WattsPerKelvin::new(1008.0 * 5.0),
            Joules::new(1008.0 * 2.0e5),
            Celsius::new(28.0),
            DAY,
        );
        let ratio = waxed.time_to_critical.unwrap().value() / bare.value();
        assert!(
            (1.08..2.0).contains(&ratio),
            "expected a modest, rate-limited extension: ratio {ratio} ({:?} vs {} s)",
            waxed.time_to_critical,
            bare.value()
        );
        // The budget never binds — the rate does.
        assert!(waxed.wax_saturated_at.is_none());
        assert!(waxed.wax_energy_absorbed.value() < 1008.0 * 2.0e5);
        assert!(waxed.wax_energy_absorbed.value() > 0.0);
    }

    #[test]
    fn low_melting_wax_engages_earlier_and_buys_more_time() {
        let room = RoomModel::cluster_room();
        let run = |melt_c: f64| {
            ride_through(
                &room,
                Watts::new(IT_POWER),
                OUTAGE,
                WattsPerKelvin::new(1008.0 * 3.0),
                Joules::new(1008.0 * 2.0e5),
                Celsius::new(melt_c),
                DAY,
            )
            .time_to_critical
            .unwrap()
            .value()
        };
        // A wax melting just above ambient engages for the whole climb; a
        // 41 °C wax only engages at the end.
        assert!(run(28.0) > run(41.0));
    }

    #[test]
    fn modest_it_load_never_reaches_critical() {
        // Envelope losses alone can hold 8 kW below the 17 K excursion
        // (500 W/K × 17 K = 8.5 kW).
        let room = RoomModel::cluster_room();
        let r = ride_through(
            &room,
            Watts::new(8_000.0),
            OUTAGE,
            WattsPerKelvin::ZERO,
            Joules::ZERO,
            Celsius::new(39.0),
            DAY,
        );
        assert!(r.time_to_critical.is_none(), "{r:?}");
        assert_eq!(r.simulated, DAY);
        // The peak is the 16 K equilibrium excursion, below critical.
        assert!(r.peak_room_temp.value() < room.critical.value());
        assert!(r.peak_room_temp.value() > room.start.value() + 10.0);
    }

    #[test]
    fn saturation_temperature_is_reported() {
        let budget = 1008.0 * 5.0e3; // tiny budget: saturates en route
        let r = ride_through(
            &RoomModel::cluster_room(),
            Watts::new(IT_POWER),
            OUTAGE,
            WattsPerKelvin::new(1008.0 * 5.0),
            Joules::new(budget),
            Celsius::new(28.0),
            DAY,
        );
        let sat = r.wax_saturated_at.expect("tiny budget must saturate");
        assert!(sat.value() < RoomModel::cluster_room().critical.value());
        assert!(sat.value() > 28.0);
        // The whole budget went into the room balance.
        assert!((r.wax_energy_absorbed.value() - budget).abs() < 1e-6);
    }

    #[test]
    fn healthy_plant_holds_the_setpoint() {
        // With full capacity ≥ IT power the room never leaves its start
        // temperature (the plant chases the setpoint, never undercools).
        let room = RoomModel::cluster_room();
        let r = ride_through(
            &room,
            Watts::new(IT_POWER),
            DegradedCooling {
                plant_capacity: Watts::new(IT_POWER),
                profile: &|_| 1.0,
            },
            WattsPerKelvin::ZERO,
            Joules::ZERO,
            Celsius::new(28.0),
            Seconds::new(3_600.0),
        );
        assert!(r.time_to_critical.is_none());
        assert!((r.peak_room_temp.value() - room.start.value()).abs() < 1e-9);
    }

    #[test]
    fn partial_derating_buys_time_over_total_outage() {
        // Half the plant surviving must strictly lengthen the climb.
        let room = RoomModel::cluster_room();
        let run = |frac: f64| {
            ride_through(
                &room,
                Watts::new(IT_POWER),
                DegradedCooling {
                    plant_capacity: Watts::new(IT_POWER),
                    profile: &|_| frac,
                },
                WattsPerKelvin::ZERO,
                Joules::ZERO,
                Celsius::new(28.0),
                Seconds::new(86_400.0),
            )
        };
        let outage = run(0.0).time_to_critical.expect("outage overheats");
        let derated = run(0.5).time_to_critical.expect("half plant overheats");
        assert!(derated.value() > 1.5 * outage.value());
        // 95 % capacity: envelope + plant carry the load forever.
        assert!(run(0.97).time_to_critical.is_none());
    }

    #[test]
    fn staged_recovery_profile_is_honoured() {
        // Plant returns after 10 min: the room climbs, then recovers to
        // the setpoint; the peak happens near the recovery moment.
        let room = RoomModel::cluster_room();
        let recovery = |t: Seconds| if t.value() < 600.0 { 0.0 } else { 1.0 };
        let r = ride_through(
            &room,
            Watts::new(IT_POWER),
            DegradedCooling {
                plant_capacity: Watts::new(2.0 * IT_POWER),
                profile: &recovery,
            },
            WattsPerKelvin::ZERO,
            Joules::ZERO,
            Celsius::new(28.0),
            Seconds::new(3_600.0),
        );
        assert!(r.time_to_critical.is_none(), "{r:?}");
        let expected_peak = room.start.value() + IT_POWER * 600.0 / room.capacitance.value();
        assert!(
            (r.peak_room_temp.value() - expected_peak).abs() < 1.0,
            "peak {} vs expected {}",
            r.peak_room_temp.value(),
            expected_peak
        );
    }
}
