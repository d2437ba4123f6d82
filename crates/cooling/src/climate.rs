//! Seeded ambient-weather generation for site-diverse cooling studies.
//!
//! Free-cooling economics hinge on *where* the datacenter sits, which a
//! single idealized sinusoid cannot show: a desert site swings hard
//! between cold nights and hot afternoons, a tropical site barely moves
//! but never gets cold, a temperate site has a deep seasonal cycle. This
//! module generates deterministic year-scale hourly temperature series
//! per [`Site`]:
//!
//! ```text
//! T(t) = mean
//!      + seasonal · cos(2π · (day − peak_day) / 365.25)
//!      + diurnal  · cos(2π · (hour − peak_hour) / 24)
//!      + front(t)                  (AR(1) weather-front process)
//! ```
//!
//! The front term is a first-order autoregressive process driven by a
//! bounded pseudo-normal innovation, so consecutive hours are correlated
//! (weather fronts last days, not hours) and the series stays inside
//! provable bounds — see [`WeatherSeries::bounds`] and
//! [`WeatherSeries::slew_bound_k_per_hour`], which the property tests
//! pin. Same seed, same bytes, on any machine. The economizer bill in
//! [`crate::freecooling`] and the hot-water bill in [`crate::hotwater`]
//! read the outdoor temperature from a series through
//! [`WeatherSeries::at`].

use tts_rng::{Rng, SeedableRng, Xoshiro256pp};
use tts_units::{Celsius, Seconds};

/// Seconds per hour.
const HOUR_S: f64 = 3_600.0;
/// Hours per (tropical) year, matching the seasonal period.
const YEAR_H: f64 = 365.25 * 24.0;

/// A climate preset: the site archetypes the scenario matrix sweeps.
///
/// Parameters are chosen so the orderings the property tests pin hold by
/// construction: the desert has the largest total swing (seasonal +
/// diurnal), the tropics the smallest; the tropical annual mean exceeds
/// the temperate one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Site {
    /// Mid-latitude continental: cold winters, warm summers, moderate
    /// day-night swing. The best free-cooling economics of the three.
    Temperate,
    /// Equatorial: hot year-round, tiny seasonal cycle, modest diurnal
    /// swing; the economizer almost never opens.
    Tropical,
    /// High desert: hot summers, cool winters, and the largest
    /// day-night swing — free cooling at night even in summer.
    Desert,
}

impl Site {
    /// Every site, in canonical (matrix) order.
    pub const ALL: [Site; 3] = [Site::Temperate, Site::Tropical, Site::Desert];

    /// Stable lowercase name used in schemas, JSON keys, and reports.
    pub fn name(self) -> &'static str {
        match self {
            Site::Temperate => "temperate",
            Site::Tropical => "tropical",
            Site::Desert => "desert",
        }
    }

    /// Annual mean temperature (°C).
    pub fn annual_mean_c(self) -> f64 {
        match self {
            Site::Temperate => 12.0,
            Site::Tropical => 27.0,
            Site::Desert => 25.0,
        }
    }

    /// Half-amplitude of the seasonal (annual) cycle (K).
    pub fn seasonal_amplitude_k(self) -> f64 {
        match self {
            Site::Temperate => 10.0,
            Site::Tropical => 2.0,
            Site::Desert => 12.0,
        }
    }

    /// Half-amplitude of the diurnal (day-night) cycle (K).
    pub fn diurnal_amplitude_k(self) -> f64 {
        match self {
            Site::Temperate => 6.0,
            Site::Tropical => 4.0,
            Site::Desert => 9.0,
        }
    }

    /// Standard deviation of the stochastic weather-front process (K).
    pub fn front_sigma_k(self) -> f64 {
        match self {
            Site::Temperate => 3.0,
            Site::Tropical => 1.5,
            Site::Desert => 2.0,
        }
    }

    /// Hour-to-hour autocorrelation of the front process. 0.97 gives an
    /// e-folding time of ~33 h — fronts last days, as they should.
    pub fn front_rho(self) -> f64 {
        0.97
    }
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration for [`WeatherSeries::generate`].
#[derive(Clone, Copy, Debug)]
pub struct WeatherConfig {
    /// Climate preset supplying means, amplitudes, and front statistics.
    pub site: Site,
    /// PRNG seed for the front process; same seed → byte-identical series.
    pub seed: u64,
    /// Series length in days (hourly samples; default a full year).
    pub days: usize,
}

impl WeatherConfig {
    /// A full-year series for `site` from `seed`.
    pub fn year(site: Site, seed: u64) -> Self {
        WeatherConfig {
            site,
            seed,
            days: 365,
        }
    }
}

/// A generated hourly outdoor-temperature series. Query with
/// [`at`](WeatherSeries::at) (linear interpolation, wrapping), or walk
/// the raw samples via [`samples`](WeatherSeries::samples).
#[derive(Clone, Debug)]
pub struct WeatherSeries {
    site: Site,
    samples_c: Vec<f64>,
}

/// Bounded pseudo-normal innovation: the Irwin–Hall sum of 12 uniforms
/// minus 6 has zero mean, unit variance, and is hard-bounded in ±6 —
/// which is what makes the series bounds provable rather than merely
/// probable.
fn bounded_normal(rng: &mut Xoshiro256pp) -> f64 {
    (0..12).map(|_| rng.gen_range(0.0..1.0)).sum::<f64>() - 6.0
}

impl WeatherSeries {
    /// Generates the series for `cfg`. Deterministic: the entire front
    /// trajectory is a pure function of `(site, seed, days)`.
    pub fn generate(cfg: &WeatherConfig) -> Self {
        let site = cfg.site;
        let hours = cfg.days.max(1) * 24;
        let sigma = site.front_sigma_k();
        let rho = site.front_rho();
        // Stationary-variance innovation scale: front variance stays
        // sigma² regardless of rho.
        let innovation = sigma * (1.0 - rho * rho).sqrt();
        let clamp = 3.0 * sigma;
        let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed);
        let mut front = 0.0f64;
        let mut samples_c = Vec::with_capacity(hours);
        for h in 0..hours {
            front = (rho * front + innovation * bounded_normal(&mut rng)).clamp(-clamp, clamp);
            samples_c.push(Self::deterministic_at(site, h as f64) + front);
        }
        WeatherSeries { site, samples_c }
    }

    /// The seasonal + diurnal skeleton (no front) at hour `h` from the
    /// series start. Season peaks mid-July (day 196), days peak at 15:00.
    fn deterministic_at(site: Site, h: f64) -> f64 {
        let day = h / 24.0;
        let hour = h.rem_euclid(24.0);
        site.annual_mean_c()
            + site.seasonal_amplitude_k() * (std::f64::consts::TAU * (day - 196.0) / 365.25).cos()
            + site.diurnal_amplitude_k() * (std::f64::consts::TAU * (hour - 15.0) / 24.0).cos()
    }

    /// The raw hourly samples (°C), one per hour from t = 0.
    pub fn samples(&self) -> &[f64] {
        &self.samples_c
    }

    /// Temperature at simulation time `t`, linearly interpolated between
    /// hourly samples and wrapping beyond the series length (so a
    /// multi-year query replays the generated year).
    pub fn at(&self, t: Seconds) -> Celsius {
        let n = self.samples_c.len();
        let h = (t.value() / HOUR_S).rem_euclid(n as f64);
        let i = h.floor() as usize % n;
        let frac = h - h.floor();
        let a = self.samples_c[i];
        let b = self.samples_c[(i + 1) % n];
        Celsius::new(a + frac * (b - a))
    }

    /// Hard bounds every sample provably respects:
    /// `mean ± (seasonal + diurnal + 3σ)`.
    pub fn bounds(&self) -> (Celsius, Celsius) {
        let s = self.site;
        let swing = s.seasonal_amplitude_k() + s.diurnal_amplitude_k() + 3.0 * s.front_sigma_k();
        (
            Celsius::new(s.annual_mean_c() - swing),
            Celsius::new(s.annual_mean_c() + swing),
        )
    }

    /// An upper bound on the hour-to-hour temperature change (K/h):
    /// the sum of the worst-case seasonal slope, diurnal slope, and
    /// front innovation (mean-reversion pull plus a ±6σ′ shock).
    pub fn slew_bound_k_per_hour(&self) -> f64 {
        let s = self.site;
        let seasonal = s.seasonal_amplitude_k() * std::f64::consts::TAU / YEAR_H;
        let diurnal = s.diurnal_amplitude_k() * std::f64::consts::TAU / 24.0;
        let rho = s.front_rho();
        let front = (1.0 - rho) * 3.0 * s.front_sigma_k()
            + 6.0 * s.front_sigma_k() * (1.0 - rho * rho).sqrt();
        seasonal + diurnal + front + 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes() {
        let cfg = WeatherConfig::year(Site::Temperate, 42);
        let a = WeatherSeries::generate(&cfg);
        let b = WeatherSeries::generate(&cfg);
        let bits =
            |s: &WeatherSeries| -> Vec<u64> { s.samples().iter().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn different_seeds_differ() {
        let a = WeatherSeries::generate(&WeatherConfig::year(Site::Desert, 1));
        let b = WeatherSeries::generate(&WeatherConfig::year(Site::Desert, 2));
        assert_ne!(a.samples(), b.samples());
    }

    #[test]
    fn samples_respect_bounds() {
        for site in Site::ALL {
            let s = WeatherSeries::generate(&WeatherConfig::year(site, 7));
            let (lo, hi) = s.bounds();
            for &v in s.samples() {
                assert!(
                    (lo.value()..=hi.value()).contains(&v),
                    "{site}: {v} outside [{}, {}]",
                    lo.value(),
                    hi.value()
                );
            }
        }
    }

    #[test]
    fn interpolation_matches_samples_on_the_hour() {
        let s = WeatherSeries::generate(&WeatherConfig::year(Site::Tropical, 3));
        for h in [0usize, 1, 24, 1000] {
            let t = Seconds::new(h as f64 * HOUR_S);
            assert_eq!(s.at(t).value(), s.samples()[h]);
        }
    }

    #[test]
    fn query_wraps_beyond_the_series() {
        let s = WeatherSeries::generate(&WeatherConfig::year(Site::Temperate, 9));
        let year_s = s.samples().len() as f64 * HOUR_S;
        let t = Seconds::new(12.5 * HOUR_S);
        let wrapped = Seconds::new(12.5 * HOUR_S + year_s);
        assert_eq!(s.at(t).value(), s.at(wrapped).value());
    }
}
