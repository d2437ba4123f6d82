//! Beyond-the-paper studies built from the extension substrates.
//!
//! Each function here answers a question the paper raises but does not
//! evaluate: the relocation alternative of §5.2, partial (rack-by-rack)
//! deployment, flash-crowd response, and the wax's multi-year degradation
//! outlook. Figure 1's off-peak tariff/free-cooling advantage is the
//! scenario matrix's (temperate, economizer, diurnal) cell
//! ([`crate::scenarios`]).
//!
//! The deployment, flash-crowd and lifetime studies all start from a
//! class's Figure 11 melting-point sweep; each takes that
//! [`CoolingLoadStudy`] by reference, so a caller running several of them
//! sweeps once.

use tts_dcsim::relocation::{wax_vs_relocation, yearly_saving};
use tts_dcsim::{deployment_sweep, DeploymentPoint};
use tts_pcm::degradation::DegradationModel;
use tts_server::ServerClass;
use tts_units::{Dollars, Fraction, Seconds};
use tts_workload::{FlashCrowd, GoogleTrace};

use crate::scenario::{CoolingLoadStudy, Scenario};

/// The relocation comparison: yearly WAN/SLA spend avoided by wax in the
/// §5.2 oversubscribed setting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelocationStudy {
    /// Relocation bill without wax, $/yr per cluster.
    pub without_pcm_per_year: Dollars,
    /// Relocation bill with wax, $/yr per cluster.
    pub with_pcm_per_year: Dollars,
}

tts_units::derive_json! { struct RelocationStudy { without_pcm_per_year, with_pcm_per_year } }

/// Runs the relocation comparison for one class at the default WAN rate,
/// pricing the constrained study's own run (its grid-selected wax, so the
/// comparison is fair).
pub fn relocation_study(class: ServerClass) -> RelocationStudy {
    let scenario = Scenario::new(class);
    let constrained = scenario.constrained_study();
    let trace = GoogleTrace::default_two_day();
    let rate = Dollars::new(tts_dcsim::relocation::DEFAULT_RELOCATION_COST_PER_SERVER_HOUR);
    let (without, with) = wax_vs_relocation(
        &constrained.run,
        scenario.server_count(),
        trace.total().dt(),
        rate,
    );
    RelocationStudy {
        without_pcm_per_year: yearly_saving(without, trace.total()),
        with_pcm_per_year: yearly_saving(with, trace.total()),
    }
}

/// Rack-by-rack deployment curve for one class, with the wax that
/// `study`, the class's [`Scenario::cooling_load_study`], selected.
pub fn partial_deployment_study(
    class: ServerClass,
    study: &CoolingLoadStudy,
    steps: usize,
) -> Vec<DeploymentPoint> {
    let scenario = Scenario::new(class);
    let config = scenario
        .cluster()
        .with_melting_point(study.material.melting_point());
    let trace = GoogleTrace::default_two_day();
    deployment_sweep(&config, trace.total(), steps)
}

/// Flash-crowd response: peak cooling load when a surge lands on the
/// daily peak, with and without wax.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowdStudy {
    /// Peak reduction on the calm trace.
    pub calm_reduction: Fraction,
    /// Peak reduction with the surge applied.
    pub surge_reduction: Fraction,
}

tts_units::derive_json! { struct FlashCrowdStudy { calm_reduction, surge_reduction } }

/// Applies a one-hour, +20 % surge at the first day's peak and re-runs the
/// cooling-load study; `calm` is the class's
/// [`Scenario::cooling_load_study`] on the unsurged trace.
pub fn flash_crowd_study(class: ServerClass, calm: &CoolingLoadStudy) -> FlashCrowdStudy {
    let trace = GoogleTrace::default_two_day();
    let peak_time = trace.total().peak_time();
    let surge = FlashCrowd {
        start: Seconds::new(peak_time.value() - 1800.0),
        duration: Seconds::new(3600.0),
        magnitude: 0.20,
    };
    let spiked = surge.apply(trace.total());
    let surged = Scenario::new(class).trace(spiked).cooling_load_study();
    FlashCrowdStudy {
        calm_reduction: calm.run.peak_reduction,
        surge_reduction: surged.run.peak_reduction,
    }
}

/// The degradation outlook for the selected wax over a deployment horizon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifetimeStudy {
    /// Remaining latent capacity after the 4-year server generation.
    pub capacity_after_server_life: Fraction,
    /// Remaining capacity after the 10-year cooling-plant life.
    pub capacity_after_plant_life: Fraction,
    /// Daily cycles until the 80 % end-of-life criterion.
    pub cycles_to_80pct: u32,
}

tts_units::derive_json! { struct LifetimeStudy { capacity_after_server_life, capacity_after_plant_life, cycles_to_80pct } }

/// Evaluates the cycling endurance of the material `study` selected.
pub fn lifetime_study(study: &CoolingLoadStudy) -> LifetimeStudy {
    let model = DegradationModel::for_material(&study.material);
    LifetimeStudy {
        capacity_after_server_life: model.capacity_after_years_daily(4.0),
        capacity_after_plant_life: model.capacity_after_years_daily(10.0),
        cycles_to_80pct: model.cycles_to_threshold(Fraction::new(0.8)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relocation_study_shows_wax_value() {
        let s = relocation_study(ServerClass::LowPower1U);
        assert!(s.with_pcm_per_year.value() < s.without_pcm_per_year.value());
        assert!(s.without_pcm_per_year.value() > 1000.0);
    }

    fn study_1u() -> CoolingLoadStudy {
        Scenario::new(ServerClass::LowPower1U).cooling_load_study()
    }

    #[test]
    fn partial_deployment_curve_is_monotone() {
        let points = partial_deployment_study(ServerClass::LowPower1U, &study_1u(), 4);
        assert_eq!(points.len(), 4);
        for w in points.windows(2) {
            assert!(w[1].peak_reduction.value() >= w[0].peak_reduction.value() - 1e-9);
        }
    }

    #[test]
    fn flash_crowd_erodes_but_does_not_destroy_the_benefit() {
        let s = flash_crowd_study(ServerClass::LowPower1U, &study_1u());
        assert!(s.surge_reduction.value() > 0.0, "{s:?}");
        // A surge re-optimized against still yields most of the calm
        // benefit.
        assert!(
            s.surge_reduction.value() > 0.4 * s.calm_reduction.value(),
            "{s:?}"
        );
    }

    #[test]
    fn weekly_trace_drives_the_full_pipeline() {
        // One week with weekends: the scenario still finds a wax that
        // shaves the (weekday) peak, and the weekend lets it refreeze.
        let trace = tts_workload::weekly_trace(&tts_workload::WeeklyTraceConfig::default());
        let study = Scenario::new(ServerClass::LowPower1U)
            .trace(trace)
            .cooling_load_study();
        assert!(
            study.run.peak_reduction.value() > 0.02,
            "{}",
            study.run.peak_reduction
        );
        assert!(study.run.refrozen_at_end);
        // At some point during the weekend (Saturday 00:00 – Sunday 24:00)
        // the wax rests essentially solid.
        let sat_start_h = 5.0 * 24.0;
        let weekend_min_melt = study
            .run
            .times_h
            .iter()
            .zip(&study.run.melt_fraction)
            .filter(|(t, _)| **t >= sat_start_h)
            .map(|(_, m)| *m)
            .fold(f64::INFINITY, f64::min);
        assert!(
            weekend_min_melt < 0.3,
            "wax should rest on the weekend: min melt {weekend_min_melt}"
        );
    }

    #[test]
    fn lifetime_outlook_is_healthy_for_commercial_paraffin() {
        let s = lifetime_study(&study_1u());
        assert!(s.capacity_after_server_life.value() > 0.9);
        assert!(s.capacity_after_plant_life.value() > 0.75);
        assert!(s.cycles_to_80pct > 1460, "{}", s.cycles_to_80pct);
    }
}
