//! Property tests for the seeded weather generator, on the in-repo
//! deterministic prop harness: every run prints its master seed on
//! failure and replays exactly with `TTS_PROP_SEED=0x…`.

use tts_cooling::{Site, WeatherConfig, WeatherSeries};
use tts_rng::prop::prelude::*;
use tts_units::Seconds;

fn site_from(i: u64) -> Site {
    Site::ALL[(i % Site::ALL.len() as u64) as usize]
}

proptest! {
    #![cases(24)]

    #[test]
    fn samples_stay_inside_the_hard_bounds(
        seed in 0u64..1 << 48,
        site_i in 0u64..3,
        days in 1usize..400,
    ) {
        let site = site_from(site_i);
        let w = WeatherSeries::generate(&WeatherConfig { site, seed, days });
        let (lo, hi) = w.bounds();
        prop_assert_eq!(w.samples().len(), days * 24);
        for (h, &c) in w.samples().iter().enumerate() {
            prop_assert!(c.is_finite(), "{site:?} h{h} not finite");
            prop_assert!(
                (lo.value()..=hi.value()).contains(&c),
                "{site:?} h{h}: {c} outside [{}, {}]",
                lo.value(),
                hi.value()
            );
        }
    }

    #[test]
    fn same_seed_is_byte_identical_and_different_seeds_diverge(
        seed in 0u64..1 << 48,
        site_i in 0u64..3,
    ) {
        let site = site_from(site_i);
        let cfg = WeatherConfig { site, seed, days: 30 };
        let a = WeatherSeries::generate(&cfg);
        let b = WeatherSeries::generate(&cfg);
        let bits = |w: &WeatherSeries| -> Vec<u64> {
            w.samples().iter().map(|c| c.to_bits()).collect()
        };
        prop_assert_eq!(bits(&a), bits(&b));
        let c = WeatherSeries::generate(&WeatherConfig { seed: seed ^ 1, ..cfg });
        prop_assert_ne!(bits(&a), bits(&c), "seed must move the fronts");
    }

    #[test]
    fn hourly_slew_respects_the_advertised_bound(
        seed in 0u64..1 << 48,
        site_i in 0u64..3,
    ) {
        let site = site_from(site_i);
        let w = WeatherSeries::generate(&WeatherConfig { site, seed, days: 90 });
        let max_slew = w.slew_bound_k_per_hour();
        for (h, pair) in w.samples().windows(2).enumerate() {
            let step = (pair[1] - pair[0]).abs();
            prop_assert!(
                step <= max_slew,
                "{site:?} h{h}: slew {step} K/h exceeds bound {max_slew}"
            );
        }
    }

    #[test]
    fn seasons_order_the_monthly_means(seed in 0u64..1 << 48, site_i in 0u64..3) {
        // Summer (around the day-196 seasonal crest) must average warmer
        // than winter. A month of hourly samples averages the AR(1) front
        // noise far below the peak-to-trough seasonal swing, even for the
        // nearly-flat tropical site.
        let site = site_from(site_i);
        let w = WeatherSeries::generate(&WeatherConfig::year(site, seed));
        let month_mean = |start_day: usize| -> f64 {
            let s = &w.samples()[start_day * 24..(start_day + 30) * 24];
            s.iter().sum::<f64>() / s.len() as f64
        };
        let winter = month_mean(0); // January
        let summer = month_mean(181); // July
        prop_assert!(
            summer > winter,
            "{site:?}: July mean {summer} not above January mean {winter}"
        );
    }

    #[test]
    fn interpolation_is_continuous_and_wraps(seed in 0u64..1 << 48, site_i in 0u64..3) {
        let site = site_from(site_i);
        let w = WeatherSeries::generate(&WeatherConfig { site, seed, days: 10 });
        // Query between two hourly samples: linear interpolation keeps the
        // value inside the sample pair's envelope.
        for h in 0..(10 * 24 - 1) {
            let a = w.samples()[h];
            let b = w.samples()[h + 1];
            let mid = w.at(Seconds::new((h as f64 + 0.5) * 3600.0)).value();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!((lo - 1e-9..=hi + 1e-9).contains(&mid), "h{h}: {mid} outside [{lo},{hi}]");
        }
        // Wrapping: one full period later reads the same value.
        let t = Seconds::new(12.25 * 3600.0);
        let wrapped = Seconds::new(12.25 * 3600.0 + 10.0 * 24.0 * 3600.0);
        prop_assert_eq!(w.at(t), w.at(wrapped));
    }
}
