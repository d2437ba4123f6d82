//! Cross-crate integration of the beyond-the-paper extensions: each study
//! pulls real characteristics from the server thermal model rather than
//! synthetic constants.

use thermal_time_shifting::extensions::{
    cooling_opex_study, flash_crowd_study, lifetime_study, partial_deployment_study,
    relocation_study,
};
use thermal_time_shifting::Scenario;
use tts_cooling::emergency::{ride_through, DegradedCooling, RoomModel};
use tts_server::ServerClass;
use tts_units::{Celsius, Joules, Seconds, Watts, WattsPerKelvin};

#[test]
fn ride_through_with_real_server_characteristics() {
    // Pull the 1U's actual coupling and latent budget out of the thermal
    // pipeline and feed them to the emergency model.
    let study = Scenario::new(ServerClass::LowPower1U).cooling_load_study();
    let n = 1008.0;
    let coupling = WattsPerKelvin::new(study.chars.effective_coupling().value() * n);
    let budget = Joules::new(study.chars.latent_capacity.value() * n);
    let it_power = Watts::new(
        ServerClass::LowPower1U
            .spec()
            .wall_power(tts_units::Fraction::ONE, tts_units::Fraction::ONE)
            .value()
            * n,
    );
    let room = RoomModel::cluster_room();
    // The plant fully offline for up to a day.
    let outage = DegradedCooling {
        plant_capacity: Watts::ZERO,
        profile: &|_| 0.0,
    };
    let day = Seconds::new(86_400.0);

    let bare = ride_through(
        &room,
        it_power,
        outage,
        WattsPerKelvin::ZERO,
        Joules::ZERO,
        Celsius::new(30.0),
        day,
    );
    let waxed = ride_through(
        &room,
        it_power,
        outage,
        coupling,
        budget,
        Celsius::new(30.0),
        day,
    );
    let bare_t = bare.time_to_critical.expect("bare room overheats");
    let waxed_t = waxed
        .time_to_critical
        .expect("waxed room overheats eventually");
    assert!(
        waxed_t.value() > bare_t.value(),
        "real-chars wax must extend ride-through"
    );
    // And the extension is bounded (the rate limit is real physics).
    assert!(waxed_t.value() < 5.0 * bare_t.value());
    // The report carries the peak the room actually saw.
    assert!(waxed.peak_room_temp.value() >= room.critical.value());
    assert!(waxed.wax_energy_absorbed.value() > 0.0);
}

#[test]
fn extension_studies_cover_all_server_classes() {
    // The extension suite must not be 1U-only: spot-check the other two
    // classes through the same entry points.
    for class in [ServerClass::HighThroughput2U, ServerClass::OpenComputeBlade] {
        let opex = cooling_opex_study(class);
        assert!(
            opex.with_pcm_per_year.value() < opex.without_pcm_per_year.value(),
            "{class}: opex"
        );
        let life = lifetime_study(class);
        assert!(
            life.capacity_after_server_life.value() > 0.85,
            "{class}: lifetime"
        );
        let deploy = partial_deployment_study(class, 3);
        assert!(
            deploy[2].peak_reduction.value() > deploy[0].peak_reduction.value(),
            "{class}: deployment"
        );
    }
}

#[test]
fn flash_crowd_is_consistent_for_the_2u() {
    let f = flash_crowd_study(ServerClass::HighThroughput2U);
    assert!(f.surge_reduction.value() > 0.0);
}

#[test]
fn relocation_bills_are_per_machine_hour_not_per_watt() {
    // Both clusters have 1008 machines, the same trace shape and the same
    // oversubscription level, so at a flat $/server-hour rate their no-wax
    // relocation bills coincide — the machine-hours of displaced work are
    // identical even though a 2U hour carries more computation. (Pricing
    // relocated *computation* would need a per-class rate; the default
    // models WAN/SLA costs, which follow sessions, not FLOPs.)
    let one_u = relocation_study(ServerClass::LowPower1U);
    let two_u = relocation_study(ServerClass::HighThroughput2U);
    let rel = (two_u.without_pcm_per_year.value() - one_u.without_pcm_per_year.value()).abs()
        / one_u.without_pcm_per_year.value();
    assert!(rel < 0.05, "bills should nearly coincide: {rel}");
    // The wax, however, helps the two classes by different amounts.
    let helped_1u = one_u.without_pcm_per_year.value() - one_u.with_pcm_per_year.value();
    let helped_2u = two_u.without_pcm_per_year.value() - two_u.with_pcm_per_year.value();
    assert!(helped_1u > 0.0 && helped_2u > 0.0);
    assert!(
        (helped_1u - helped_2u).abs() > 1.0,
        "wax benefits should differ across classes"
    );
}
