//! Demand-variation traces beyond the two-day diurnal: AI-training
//! batch-burst schedules and flash-crowd days.
//!
//! The paper evaluates PCM time shifting against one calm diurnal trace;
//! thermal-aware scheduling under demand variation (arXiv 2308.12559)
//! motivates the shapes that actually stress the wax: AI-training fleets
//! that run near-flat-out with periodic checkpoint dips (almost no
//! diurnal trough to refreeze in), and flash-crowd days where the surge
//! lands on an already-molten bank.
//! All generators are seeded and deterministic: same config, same bytes.

use crate::diurnal::{DiurnalShape, DAY_S};
use crate::events::FlashCrowd;
use crate::series::TimeSeries;
use tts_rng::{Rng, SeedableRng, Xoshiro256pp};
use tts_units::Seconds;

/// Configuration for [`training_burst_trace`]: an AI-training fleet
/// running near-saturation with periodic synchronous checkpoint dips.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingBurstConfig {
    /// Sample period (default 5 minutes).
    pub sample_period: Seconds,
    /// Series length in days.
    pub days: usize,
    /// Utilization between checkpoints (training runs hot: ~0.92).
    pub base_util: f64,
    /// Relative per-sample jitter amplitude.
    pub jitter: f64,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for TrainingBurstConfig {
    fn default() -> Self {
        Self {
            sample_period: Seconds::from_minutes(5.0),
            days: 2,
            base_util: 0.92,
            jitter: 0.01,
            seed: 13,
        }
    }
}

/// Interval between checkpoint starts.
const CHECKPOINT_PERIOD: Seconds = Seconds::new(4.0 * 3600.0);

/// Utilization drop while checkpointing (GPUs stall on I/O).
const CHECKPOINT_DIP: f64 = 0.55;

/// How long each checkpoint stall lasts.
const CHECKPOINT_DURATION: Seconds = Seconds::new(20.0 * 60.0);

/// Generates the training-fleet trace: flat near `base_util`, dropping by
/// [`CHECKPOINT_DIP`] for [`CHECKPOINT_DURATION`] at every multiple of
/// [`CHECKPOINT_PERIOD`], with seeded multiplicative jitter. The near-zero
/// diurnal swing is the point — the wax gets almost no nightly refreeze
/// window.
pub fn training_burst_trace(config: &TrainingBurstConfig) -> TimeSeries {
    let dt = config.sample_period.value();
    let n = (config.days.max(1) as f64 * DAY_S / dt).round() as usize;
    let mut rng = Xoshiro256pp::seed_from_u64(config.seed);
    let period = CHECKPOINT_PERIOD.value().max(dt);
    let values: Vec<f64> = (0..n)
        .map(|i| {
            let t = i as f64 * dt;
            let in_checkpoint = t.rem_euclid(period) < CHECKPOINT_DURATION.value();
            let level = if in_checkpoint {
                config.base_util - CHECKPOINT_DIP
            } else {
                config.base_util
            };
            let jitter = 1.0 + rng.gen_range(-config.jitter..config.jitter);
            (level * jitter).clamp(0.0, 1.0)
        })
        .collect();
    TimeSeries::new(config.sample_period, values)
}

/// Configuration for [`flash_crowd_trace`]: a diurnal base day with
/// seeded surge events layered on top.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowdTraceConfig {
    /// Sample period (default 5 minutes).
    pub sample_period: Seconds,
    /// Series length in days.
    pub days: usize,
    /// Number of surges scattered over the series.
    pub events: usize,
    /// Largest per-surge added utilization; each surge draws in
    /// `[magnitude/2, magnitude]`.
    pub magnitude: f64,
    /// Seed for surge timing and sizes.
    pub seed: u64,
}

impl Default for FlashCrowdTraceConfig {
    fn default() -> Self {
        Self {
            sample_period: Seconds::from_minutes(5.0),
            days: 2,
            events: 3,
            magnitude: 0.35,
            seed: 17,
        }
    }
}

/// Generates a search-shaped diurnal base with `events` seeded
/// [`FlashCrowd`] surges (random start, 30–120 min duration, random
/// magnitude) applied on top, clamped into `[0, 1]`.
pub fn flash_crowd_trace(config: &FlashCrowdTraceConfig) -> TimeSeries {
    let dt = config.sample_period.value();
    let days = config.days.max(1) as f64;
    let n = (days * DAY_S / dt).round() as usize;
    let shape = DiurnalShape::search();
    let base = TimeSeries::new(
        config.sample_period,
        (0..n).map(|i| 0.55 * shape.at(i as f64 * dt)).collect(),
    );
    let mut rng = Xoshiro256pp::seed_from_u64(config.seed);
    let mut trace = base;
    for _ in 0..config.events {
        let surge = FlashCrowd {
            start: Seconds::new(rng.gen_range(0.0..days * DAY_S * 0.9)),
            duration: Seconds::new(rng.gen_range(1_800.0..7_200.0)),
            magnitude: rng.gen_range(config.magnitude * 0.5..config.magnitude),
        };
        trace = surge.apply(&trace);
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_trace_is_hot_with_checkpoint_dips() {
        let t = training_burst_trace(&TrainingBurstConfig::default());
        assert!(t.mean() > 0.85, "training mean {}", t.mean());
        let min = t.values().iter().cloned().fold(f64::MAX, f64::min);
        assert!(min < 0.45, "checkpoint dips must appear: min {min}");
        // Dips recur: both days contain at least one.
        let per_day = (DAY_S / t.dt().value()) as usize;
        for day in 0..2 {
            let day_min = t.values()[day * per_day..(day + 1) * per_day]
                .iter()
                .cloned()
                .fold(f64::MAX, f64::min);
            assert!(day_min < 0.45, "day {day} has no dip");
        }
    }

    #[test]
    fn training_trace_is_deterministic() {
        let a = training_burst_trace(&TrainingBurstConfig::default());
        let b = training_burst_trace(&TrainingBurstConfig::default());
        assert_eq!(a, b);
        let c = training_burst_trace(&TrainingBurstConfig {
            seed: 99,
            ..Default::default()
        });
        assert_ne!(a.values(), c.values());
    }

    #[test]
    fn flash_crowd_trace_spikes_above_its_base() {
        let cfg = FlashCrowdTraceConfig::default();
        let spiked = flash_crowd_trace(&cfg);
        let calm = flash_crowd_trace(&FlashCrowdTraceConfig { events: 0, ..cfg });
        assert!(spiked.peak() > calm.peak() + 0.05);
        assert!(spiked.values().iter().all(|&v| (0.0..=1.0).contains(&v)));
        // Identical seeds replay identically.
        assert_eq!(spiked, flash_crowd_trace(&cfg));
    }
}
