//! A one-week trace with weekday/weekend structure.
//!
//! The paper's trace covers two weekdays (Nov 17–18, 2010 — a Wednesday
//! and a Thursday). Real datacenters also cycle weekly: interactive
//! traffic sags on weekends while batch backfill rises. The weekly trace
//! lets the PCM experiments ask week-scale questions — e.g. whether the
//! wax spends Saturday fully frozen (it should: refreeze headroom grows
//! when the peak shrinks).

use crate::diurnal::{DiurnalShape, DAY_S};
use crate::google::JOB_MIX;
use crate::normalize::normalize_mean_peak;
use crate::series::TimeSeries;
use tts_rng::{Rng, SeedableRng, Xoshiro256pp};
use tts_units::Seconds;

/// Configuration of the weekly generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeeklyTraceConfig {
    /// Sample period (default 5 minutes).
    pub sample_period: Seconds,
    /// Target mean over the whole week.
    pub target_mean: f64,
    /// Target peak over the whole week.
    pub target_peak: f64,
    /// Seed for per-sample jitter.
    pub seed: u64,
    /// Relative jitter amplitude.
    pub jitter: f64,
}

tts_units::derive_json! { struct WeeklyTraceConfig { sample_period, target_mean, target_peak, seed, jitter } }

impl Default for WeeklyTraceConfig {
    fn default() -> Self {
        Self {
            sample_period: Seconds::from_minutes(5.0),
            target_mean: 0.50,
            target_peak: 0.95,
            seed: 7,
            jitter: 0.015,
        }
    }
}

/// Interactive-traffic multiplier on Saturday/Sunday.
const WEEKEND_INTERACTIVE_SCALE: f64 = 0.65;

/// Batch-traffic multiplier on Saturday/Sunday (backfill).
const WEEKEND_BATCH_SCALE: f64 = 1.25;

/// Generates a 7-day trace starting on a Monday.
///
/// Days 5 and 6 (Saturday, Sunday) apply the weekend scales to the
/// interactive (search + social) and batch (MapReduce) components.
pub fn weekly_trace(config: &WeeklyTraceConfig) -> TimeSeries {
    let dt = config.sample_period.value();
    let n = (7.0 * DAY_S / dt).round() as usize;
    let mut rng = Xoshiro256pp::seed_from_u64(config.seed);
    let shapes = [
        (DiurnalShape::search(), true),
        (DiurnalShape::social(), true),
        (DiurnalShape::mapreduce(), false),
    ];

    let values: Vec<f64> = (0..n)
        .map(|i| {
            let t = i as f64 * dt;
            let day = ((t / DAY_S) as usize).min(6);
            let weekend = day >= 5;
            let jitter = 1.0 + rng.gen_range(-config.jitter..config.jitter);
            let mut v = 0.0;
            for ((shape, interactive), w) in shapes.iter().zip(JOB_MIX) {
                let scale = if weekend {
                    if *interactive {
                        WEEKEND_INTERACTIVE_SCALE
                    } else {
                        WEEKEND_BATCH_SCALE
                    }
                } else {
                    1.0
                };
                v += shape.at(t) * w * scale;
            }
            (v * jitter).max(0.0)
        })
        .collect();
    let raw = TimeSeries::new(config.sample_period, values);
    // Normalize, clamp into [0, 1], and renormalize once: clamping after
    // the first pass can nudge the mean, the second pass absorbs it.
    let pass1 = normalize_mean_peak(&raw, config.target_mean, config.target_peak)
        .expect("weekly composite is never constant")
        .map(|v| v.clamp(0.0, 1.0));
    normalize_mean_peak(&pass1, config.target_mean, config.target_peak)
        .expect("clamped composite is never constant")
        .map(|v| v.clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn day_mean(trace: &TimeSeries, day: usize) -> f64 {
        let per_day = (DAY_S / trace.dt().value()) as usize;
        let vals = &trace.values()[day * per_day..(day + 1) * per_day];
        vals.iter().sum::<f64>() / vals.len() as f64
    }

    #[test]
    fn covers_seven_days_and_meets_targets() {
        let t = weekly_trace(&WeeklyTraceConfig::default());
        assert_eq!(t.duration(), Seconds::new(7.0 * DAY_S));
        assert!((t.mean() - 0.50).abs() < 0.01, "mean {}", t.mean());
        assert!((t.peak() - 0.95).abs() < 0.02, "peak {}", t.peak());
        assert!(t.values().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn weekend_days_are_quieter() {
        let t = weekly_trace(&WeeklyTraceConfig::default());
        let weekday_mean = (0..5).map(|d| day_mean(&t, d)).sum::<f64>() / 5.0;
        let weekend_mean = (5..7).map(|d| day_mean(&t, d)).sum::<f64>() / 2.0;
        assert!(
            weekend_mean < 0.95 * weekday_mean,
            "weekend {weekend_mean} vs weekday {weekday_mean}"
        );
    }

    #[test]
    fn weekend_peak_is_lower_than_weekday_peak() {
        let t = weekly_trace(&WeeklyTraceConfig::default());
        let per_day = (DAY_S / t.dt().value()) as usize;
        let day_peak = |d: usize| {
            t.values()[d * per_day..(d + 1) * per_day]
                .iter()
                .cloned()
                .fold(f64::MIN, f64::max)
        };
        let weekday_peak = (0..5).map(day_peak).fold(f64::MIN, f64::max);
        let weekend_peak = (5..7).map(day_peak).fold(f64::MIN, f64::max);
        assert!(weekend_peak < weekday_peak);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = weekly_trace(&WeeklyTraceConfig::default());
        let b = weekly_trace(&WeeklyTraceConfig::default());
        assert_eq!(a, b);
        let c = weekly_trace(&WeeklyTraceConfig {
            seed: 8,
            ..Default::default()
        });
        assert_ne!(a.values(), c.values());
    }
}
