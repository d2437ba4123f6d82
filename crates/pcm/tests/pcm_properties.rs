//! Integration tests for the PCM extension models: hysteresis loop
//! closure and degradation monotonicity.

use tts_pcm::{DegradationModel, HystereticPcmState, PcmMaterial};
use tts_units::{Celsius, Fraction, Grams, Seconds, WattsPerKelvin};

const STEP: Seconds = Seconds::new(60.0);
const G: WattsPerKelvin = WattsPerKelvin::new(5.0);

/// Steps the wax against constant air until its state stops moving.
fn soak(s: &mut HystereticPcmState, air: Celsius) {
    for _ in 0..5_000 {
        if s.step(air, G, STEP).value().abs() < 1e-9 {
            break;
        }
    }
}

#[test]
fn hysteresis_loop_closes_and_conserves_energy() {
    let wax = PcmMaterial::validation_wax(); // melts at 39 °C
    let start = Celsius::new(25.0);
    let mut s = HystereticPcmState::new(&wax, Grams::new(500.0), start, 4.0);
    let e0 = s.stored_energy().value();
    assert!(s.melt_fraction().value() < 1e-9);

    // Leg 1: melt completely against hot air.
    soak(&mut s, Celsius::new(50.0));
    assert!(
        s.melt_fraction().value() > 0.999,
        "hot soak must fully melt"
    );
    let e_melted = s.stored_energy().value();
    assert!(e_melted > e0);

    // Hysteresis: air between the freezing branch and the melting point
    // cannot refreeze the wax (nucleation needs supercooling).
    soak(&mut s, Celsius::new(37.5));
    assert!(
        s.melt_fraction().value() > 0.9,
        "37.5 °C air refroze a wax whose freezing branch tops out at 37 °C"
    );

    // Leg 2: cold air closes the loop back to the starting temperature.
    soak(&mut s, start);
    assert!(
        s.melt_fraction().value() < 1e-6,
        "cold soak must fully refreeze"
    );
    // Loop closure: back at the start temperature, the stored energy
    // returns to its initial value — the hysteresis shifts *where* the
    // latent plateau sits, never how much energy it holds.
    let e_closed = s.stored_energy().value();
    assert!(
        (e_closed - e0).abs() < 1e-6 * (e_melted - e0).abs().max(1.0),
        "loop did not close: {e0} -> {e_closed} (peak {e_melted})"
    );
}

#[test]
fn wider_supercooling_delays_the_refreeze() {
    let wax = PcmMaterial::validation_wax();
    let mut narrow = HystereticPcmState::new(&wax, Grams::new(500.0), Celsius::new(25.0), 1.0);
    let mut wide = HystereticPcmState::new(&wax, Grams::new(500.0), Celsius::new(25.0), 6.0);
    soak(&mut narrow, Celsius::new(50.0));
    soak(&mut wide, Celsius::new(50.0));
    // Air at 36 °C: 2 K below the melting point. The 1 K-supercooled wax
    // can refreeze against it; the 6 K-supercooled one barely starts.
    soak(&mut narrow, Celsius::new(36.0));
    soak(&mut wide, Celsius::new(36.0));
    assert!(
        narrow.melt_fraction().value() < wide.melt_fraction().value(),
        "more supercooling must leave more of the wax molten: narrow {} vs wide {}",
        narrow.melt_fraction().value(),
        wide.melt_fraction().value()
    );
}

#[test]
fn degradation_is_monotone_and_bounded() {
    for material in [
        PcmMaterial::validation_wax(),
        PcmMaterial::eicosane(),
        PcmMaterial::commercial_paraffin(Celsius::new(34.0)),
    ] {
        let model = DegradationModel::for_material(&material);
        assert!((model.capacity_after(0).value() - 1.0).abs() < 1e-12);
        let mut prev = 1.0;
        for cycles in (0..=5_000).step_by(100) {
            let cap = model.capacity_after(cycles).value();
            assert!(
                cap <= prev + 1e-12,
                "{}: capacity rose with cycling at {cycles}",
                material.name()
            );
            assert!(
                (0.0..=1.0).contains(&cap),
                "{}: capacity {cap} out of [0,1]",
                material.name()
            );
            prev = cap;
        }
        // cycles_to_threshold inverts capacity_after (within a cycle).
        let cycles = model.cycles_to_threshold(Fraction::new(0.8));
        assert!(model.capacity_after(cycles).value() <= 0.8 + 1e-9);
        if cycles > 0 {
            assert!(model.capacity_after(cycles - 1).value() > 0.8);
        }
    }
}
