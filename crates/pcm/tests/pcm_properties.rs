//! Integration tests for the PCM degradation model: capacity is monotone
//! and bounded under cycling.

use tts_pcm::{DegradationModel, PcmMaterial};
use tts_units::{Celsius, Fraction};

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
