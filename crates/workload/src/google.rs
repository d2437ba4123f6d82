//! The synthetic two-day Google-like trace (Figure 10).
//!
//! Three job-type components (Web Search, Orkut social networking,
//! MapReduce) with distinct diurnal phases, mixed in the proportions that
//! give interactive traffic the dominant daytime peak, plus day-to-day
//! variation and seeded jitter, normalized to exactly 50 % average / 95 %
//! peak utilization for a 1008-server cluster.

use crate::diurnal::{DiurnalShape, DAY_S};
use crate::jobs::JobType;
use crate::normalize::normalize_mean_peak;
use crate::series::TimeSeries;
use tts_rng::{Rng, SeedableRng, Xoshiro256pp};
use tts_units::Seconds;

/// Cluster size the paper normalizes for.
pub const CLUSTER_SERVERS: usize = 1008;

/// Mix weights for (search, social, mapreduce); the weekly trace uses the
/// same proportions.
pub(crate) const JOB_MIX: [f64; 3] = [0.45, 0.30, 0.25];

/// Configuration of the synthetic trace generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoogleTraceConfig {
    /// Number of days to generate (paper: 2).
    pub days: usize,
    /// Sample period (default: 5 minutes).
    pub sample_period: Seconds,
    /// Target mean utilization (paper: 0.50).
    pub target_mean: f64,
    /// Target peak utilization (paper: 0.95).
    pub target_peak: f64,
    /// RNG seed for jitter and day-to-day variation.
    pub seed: u64,
    /// Relative jitter amplitude on each sample.
    pub jitter: f64,
}

tts_units::derive_json! { struct GoogleTraceConfig { days, sample_period, target_mean, target_peak, seed, jitter } }

impl Default for GoogleTraceConfig {
    fn default() -> Self {
        Self {
            days: 2,
            sample_period: Seconds::from_minutes(5.0),
            target_mean: 0.50,
            target_peak: 0.95,
            seed: 11172010, // 11/17/2010 — the trace's first day
            jitter: 0.015,
        }
    }
}

/// The composite trace plus its per-job-type components, all normalized
/// consistently (components sum to the total).
#[derive(Debug, Clone, PartialEq)]
pub struct GoogleTrace {
    total: TimeSeries,
    search: TimeSeries,
    social: TimeSeries,
    mapreduce: TimeSeries,
    config: GoogleTraceConfig,
}

tts_units::derive_json! { struct GoogleTrace { total, search, social, mapreduce, config } }

impl GoogleTrace {
    /// Generates a trace from a configuration.
    ///
    /// # Panics
    /// Panics if `days` is zero.
    pub fn generate(config: GoogleTraceConfig) -> Self {
        assert!(config.days > 0, "need at least one day");

        let n = (config.days as f64 * DAY_S / config.sample_period.value()).round() as usize;
        let mut rng = Xoshiro256pp::seed_from_u64(config.seed);

        // Day-to-day variation: each day gets a small multiplicative factor
        // and a small phase shift per component (the two days of Figure 10
        // resemble but do not repeat each other).
        let day_scale: Vec<[f64; 3]> = (0..config.days)
            .map(|_| {
                [
                    1.0 + rng.gen_range(-0.06..0.06),
                    1.0 + rng.gen_range(-0.06..0.06),
                    1.0 + rng.gen_range(-0.06..0.06),
                ]
            })
            .collect();
        let day_shift_h: Vec<[f64; 3]> = (0..config.days)
            .map(|_| {
                [
                    rng.gen_range(-0.5..0.5),
                    rng.gen_range(-0.5..0.5),
                    rng.gen_range(-0.5..0.5),
                ]
            })
            .collect();

        let shapes = [
            DiurnalShape::search(),
            DiurnalShape::social(),
            DiurnalShape::mapreduce(),
        ];
        let dt = config.sample_period.value();
        let mut comp_raw: [Vec<f64>; 3] = [
            Vec::with_capacity(n),
            Vec::with_capacity(n),
            Vec::with_capacity(n),
        ];
        for i in 0..n {
            let t = i as f64 * dt;
            let day = ((t / DAY_S) as usize).min(config.days - 1);
            for (c, shape) in shapes.iter().enumerate() {
                let shifted = t - day_shift_h[day][c] * 3600.0;
                let jitter = 1.0 + rng.gen_range(-config.jitter..config.jitter);
                let v = shape.at(shifted) * day_scale[day][c] * JOB_MIX[c] * jitter;
                comp_raw[c].push(v.max(0.0));
            }
        }

        let raw_total: Vec<f64> = (0..n)
            .map(|i| comp_raw[0][i] + comp_raw[1][i] + comp_raw[2][i])
            .collect();
        let raw_series = TimeSeries::new(config.sample_period, raw_total);
        let total = normalize_mean_peak(&raw_series, config.target_mean, config.target_peak)
            .expect("composite diurnal trace is never constant");
        // Utilization is physical: an aggressive mean/peak target can map a
        // deep trough below zero through the affine renormalization, so
        // clamp (the realized mean shifts imperceptibly).
        let total = TimeSeries::new(
            config.sample_period,
            total.values().iter().map(|v| v.max(0.0)).collect(),
        );

        // Scale the components consistently: the affine map applies to the
        // total; components get the multiplicative part plus their share of
        // the offset (proportional to their local contribution).
        let a = {
            // Recover the affine coefficients from two distinct samples.
            let raw = raw_series.values();
            let norm = total.values();
            let (i, j) = {
                let mut i = 0;
                let mut j = 1;
                for k in 1..raw.len() {
                    if (raw[k] - raw[0]).abs() > (raw[j] - raw[i]).abs() {
                        j = k;
                    }
                }
                if raw[i] > raw[j] {
                    core::mem::swap(&mut i, &mut j);
                }
                (i, j)
            };
            (norm[j] - norm[i]) / (raw[j] - raw[i])
        };
        let mk_component = |raw: &[f64]| -> TimeSeries {
            let vals: Vec<f64> = raw
                .iter()
                .enumerate()
                .map(|(i, &v)| {
                    let share = if raw_series.values()[i] > 0.0 {
                        v / raw_series.values()[i]
                    } else {
                        1.0 / 3.0
                    };
                    let offset = total.values()[i] - a * raw_series.values()[i];
                    (a * v + offset * share).max(0.0)
                })
                .collect();
            TimeSeries::new(config.sample_period, vals)
        };
        let search = mk_component(&comp_raw[0]);
        let social = mk_component(&comp_raw[1]);
        let mapreduce = mk_component(&comp_raw[2]);

        Self {
            total,
            search,
            social,
            mapreduce,
            config,
        }
    }

    /// The paper's default: two days at 5-minute resolution, 50 %/95 %.
    pub fn default_two_day() -> Self {
        Self::generate(GoogleTraceConfig::default())
    }

    /// Total cluster utilization trace.
    pub fn total(&self) -> &TimeSeries {
        &self.total
    }

    /// One job type's contribution to the total.
    pub fn component(&self, job_type: JobType) -> &TimeSeries {
        match job_type {
            JobType::WebSearch => &self.search,
            JobType::SocialNetworking => &self.social,
            JobType::MapReduce => &self.mapreduce,
        }
    }

    /// The generator configuration.
    pub fn config(&self) -> &GoogleTraceConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_trace_meets_paper_normalization() {
        let t = GoogleTrace::default_two_day();
        assert!((t.total().mean() - 0.50).abs() < 1e-9);
        assert!((t.total().peak() - 0.95).abs() < 1e-9);
        assert_eq!(t.total().duration(), Seconds::new(2.0 * DAY_S));
    }

    #[test]
    fn utilization_stays_in_unit_interval() {
        let t = GoogleTrace::default_two_day();
        for &v in t.total().values() {
            assert!((0.0..=1.0).contains(&v), "utilization {v} out of range");
        }
    }

    #[test]
    fn components_sum_to_total() {
        let t = GoogleTrace::default_two_day();
        let sum = t
            .component(JobType::WebSearch)
            .zip_add(t.component(JobType::SocialNetworking))
            .zip_add(t.component(JobType::MapReduce));
        for (s, tot) in sum.values().iter().zip(t.total().values()) {
            assert!((s - tot).abs() < 1e-6, "components must sum to total");
        }
    }

    #[test]
    fn trace_is_diurnal_with_daytime_peak() {
        let t = GoogleTrace::default_two_day();
        // Peak lands during the daytime/evening interactive window.
        let peak_h = (t.total().peak_time().value() / 3600.0) % 24.0;
        assert!(
            (9.0..23.0).contains(&peak_h),
            "daily peak at hour {peak_h}, expected daytime/evening"
        );
        // The overnight trough is materially below the mean.
        let night = t.total().at(Seconds::new(7.0 * 3600.0));
        assert!(
            night < 0.5,
            "night-time load {night} should sit below the mean"
        );
    }

    #[test]
    fn two_days_are_similar_but_not_identical() {
        let t = GoogleTrace::default_two_day();
        let day = (DAY_S / t.config().sample_period.value()) as usize;
        let v = t.total().values();
        let mut diff = 0.0;
        let mut count = 0;
        for i in 0..day {
            diff += (v[i] - v[i + day]).abs();
            count += 1;
        }
        let mean_abs_diff = diff / count as f64;
        assert!(
            mean_abs_diff > 1e-4,
            "days must differ (got {mean_abs_diff})"
        );
        assert!(
            mean_abs_diff < 0.15,
            "days must resemble each other (got {mean_abs_diff})"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = GoogleTrace::default_two_day();
        let b = GoogleTrace::default_two_day();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = GoogleTrace::default_two_day();
        let b = GoogleTrace::generate(GoogleTraceConfig {
            seed: 99,
            ..GoogleTraceConfig::default()
        });
        assert_ne!(a.total().values(), b.total().values());
    }

    #[test]
    fn search_peaks_earlier_than_social() {
        let t = GoogleTrace::default_two_day();
        let h = |s: &TimeSeries| (s.peak_time().value() / 3600.0) % 24.0;
        let search_h = h(t.component(JobType::WebSearch));
        let social_h = h(t.component(JobType::SocialNetworking));
        assert!(
            search_h < social_h,
            "search ({search_h}) should peak before social ({social_h})"
        );
    }

    #[test]
    #[should_panic(expected = "at least one day")]
    fn zero_days_panics() {
        GoogleTrace::generate(GoogleTraceConfig {
            days: 0,
            ..GoogleTraceConfig::default()
        });
    }
}
