//! Time-of-use electricity pricing.
//!
//! §4.3: "We assume a peak electricity cost of $0.13 per kWh and an
//! off-peak electricity cost of $0.08 per kWh." Thermal time shifting
//! moves cooling work from peak to off-peak hours, so the tariff shape
//! matters to the OpEx story.

use tts_units::{Dollars, DollarsPerKwh, Joules, Seconds};

/// A two-rate time-of-use tariff with a daily peak window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tariff {
    /// Rate during the peak window.
    pub peak_rate: DollarsPerKwh,
    /// Rate outside the peak window.
    pub offpeak_rate: DollarsPerKwh,
    /// Peak window start, local hour.
    pub peak_start_hour: f64,
    /// Peak window end, local hour.
    pub peak_end_hour: f64,
}

tts_units::derive_json! { struct Tariff { peak_rate, offpeak_rate, peak_start_hour, peak_end_hour } }

impl Tariff {
    /// The paper's tariff: $0.13 peak / $0.08 off-peak, with the peak
    /// window matching Figure 1's 7 AM – 7 PM day.
    pub fn paper_default() -> Self {
        Self {
            peak_rate: DollarsPerKwh::new(0.13),
            offpeak_rate: DollarsPerKwh::new(0.08),
            peak_start_hour: 7.0,
            peak_end_hour: 19.0,
        }
    }

    /// The applicable rate at simulation time `t` (day wraps every 24 h).
    pub fn rate_at(&self, t: Seconds) -> DollarsPerKwh {
        let hour = (t.value().rem_euclid(86_400.0)) / 3600.0;
        if hour >= self.peak_start_hour && hour < self.peak_end_hour {
            self.peak_rate
        } else {
            self.offpeak_rate
        }
    }

    /// Cost of consuming `energy` at time `t`.
    pub fn cost(&self, energy: Joules, t: Seconds) -> Dollars {
        self.rate_at(t) * energy.kilowatt_hours()
    }

    /// Samples the tariff over `n` consecutive slots of length `dt`
    /// starting at `start`, evaluating each slot at its midpoint so a
    /// slot straddling the window boundary takes its majority rate.
    /// This is the forecast vector a slot-indexed planner consumes.
    pub fn rates_over(&self, start: Seconds, dt: Seconds, n: usize) -> Vec<DollarsPerKwh> {
        (0..n)
            .map(|k| self.rate_at(Seconds::new(start.value() + (k as f64 + 0.5) * dt.value())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_follow_the_window() {
        let t = Tariff::paper_default();
        assert_eq!(t.rate_at(Seconds::new(12.0 * 3600.0)).value(), 0.13);
        assert_eq!(t.rate_at(Seconds::new(3.0 * 3600.0)).value(), 0.08);
        // Boundary behaviour: peak at 7:00 sharp, off-peak at 19:00 sharp.
        assert_eq!(t.rate_at(Seconds::new(7.0 * 3600.0)).value(), 0.13);
        assert_eq!(t.rate_at(Seconds::new(19.0 * 3600.0)).value(), 0.08);
    }

    #[test]
    fn wraps_across_days() {
        let t = Tariff::paper_default();
        let noon_day3 = Seconds::new((2.0 * 24.0 + 12.0) * 3600.0);
        assert_eq!(t.rate_at(noon_day3).value(), 0.13);
    }

    #[test]
    fn cost_uses_the_right_rate() {
        let t = Tariff::paper_default();
        let one_kwh = Joules::new(3.6e6);
        assert!((t.cost(one_kwh, Seconds::new(12.0 * 3600.0)).value() - 0.13).abs() < 1e-12);
        assert!((t.cost(one_kwh, Seconds::new(2.0 * 3600.0)).value() - 0.08).abs() < 1e-12);
    }

    #[test]
    fn rates_over_samples_slot_midpoints() {
        let t = Tariff::paper_default();
        // Four 15-minute slots bracketing the 7:00 peak edge: midpoints
        // at 6:37.5, 6:52.5, 7:07.5, 7:22.5.
        let rates = t.rates_over(Seconds::new(6.5 * 3600.0), Seconds::new(900.0), 4);
        let vals: Vec<f64> = rates.iter().map(|r| r.value()).collect();
        assert_eq!(vals, vec![0.08, 0.08, 0.13, 0.13]);
        // And it wraps across days like `rate_at`.
        let rates = t.rates_over(
            Seconds::new(86_400.0 * 3.0 + 12.0 * 3600.0),
            Seconds::new(900.0),
            1,
        );
        assert_eq!(rates[0].value(), 0.13);
    }
}
