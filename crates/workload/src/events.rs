//! Trace perturbations: flash crowds.
//!
//! The Google trace the paper uses is a calm diurnal pattern; operators
//! also face flash crowds (a news event doubles search traffic for an
//! hour). These perturbations let the PCM experiments probe behaviour the
//! two-day trace never exercises:
//! a spike landing on an already-molten wax bank, or a spike at dawn when
//! the bank is full of cold capacity.

use crate::series::TimeSeries;
use tts_units::{Fraction, Seconds};

/// A transient surge added on top of a base trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowd {
    /// When the surge starts.
    pub start: Seconds,
    /// How long it lasts.
    pub duration: Seconds,
    /// Extra utilization at the surge's center (added, then the result is
    /// clamped into `[0, 1]`).
    pub magnitude: f64,
}

tts_units::derive_json! { struct FlashCrowd { start, duration, magnitude } }

impl FlashCrowd {
    /// The surge's contribution at time `t`: a raised-cosine pulse.
    pub fn at(&self, t: Seconds) -> f64 {
        let x = (t - self.start).value();
        if x < 0.0 || x > self.duration.value() {
            return 0.0;
        }
        let phase = std::f64::consts::TAU * x / self.duration.value();
        self.magnitude * 0.5 * (1.0 - phase.cos())
    }

    /// Applies the surge to a trace, clamping utilization into `[0, 1]`.
    pub fn apply(&self, trace: &TimeSeries) -> TimeSeries {
        let dt = trace.dt();
        let values: Vec<f64> = trace
            .iter()
            .map(|(t, v)| Fraction::new(v + self.at(t)).value())
            .collect();
        TimeSeries::new(dt, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(v: f64, samples: usize) -> TimeSeries {
        TimeSeries::new(Seconds::new(300.0), vec![v; samples])
    }

    #[test]
    fn flash_crowd_peaks_at_its_center() {
        let f = FlashCrowd {
            start: Seconds::new(3600.0),
            duration: Seconds::new(3600.0),
            magnitude: 0.3,
        };
        assert_eq!(f.at(Seconds::new(0.0)), 0.0);
        assert!((f.at(Seconds::new(5400.0)) - 0.3).abs() < 1e-12); // center
        assert!(f.at(Seconds::new(3600.0 + 3600.0)).abs() < 1e-12); // end
        assert_eq!(f.at(Seconds::new(1e9)), 0.0);
    }

    #[test]
    fn applied_surge_is_clamped_to_unit_interval() {
        let f = FlashCrowd {
            start: Seconds::new(0.0),
            duration: Seconds::new(7200.0),
            magnitude: 0.8,
        };
        let spiked = f.apply(&flat(0.6, 48));
        assert!(spiked.peak() <= 1.0);
        assert!(spiked.peak() > 0.95);
        // Off-surge samples unchanged.
        assert_eq!(spiked.values()[47], 0.6);
    }

    #[test]
    fn surge_conserves_baseline_outside_its_window() {
        let base = flat(0.4, 100);
        let f = FlashCrowd {
            start: Seconds::new(6000.0),
            duration: Seconds::new(3000.0),
            magnitude: 0.2,
        };
        let spiked = f.apply(&base);
        let changed = spiked
            .values()
            .iter()
            .zip(base.values())
            .filter(|(a, b)| (**a - **b).abs() > 1e-12)
            .count();
        // Only samples inside the 3000 s window (10 samples at 300 s) move.
        assert!(changed <= 11, "{changed} samples changed");
    }
}
