//! Beyond-the-paper studies built from the extension substrates.
//!
//! Each function here answers a question the paper raises but does not
//! evaluate: the off-peak tariff/free-cooling advantage of Figure 1, the
//! relocation alternative of §5.2, partial (rack-by-rack) deployment,
//! flash-crowd response, and the wax's multi-year degradation outlook.

use tts_cooling::freecooling::{cooling_electricity_cost, Economizer};
use tts_cooling::{CoolingSystem, Site, Tariff, WeatherConfig, WeatherSeries};
use tts_dcsim::relocation::{wax_vs_relocation, yearly_saving};
use tts_dcsim::{deployment_sweep, DeploymentPoint};
use tts_pcm::degradation::DegradationModel;
use tts_server::ServerClass;
use tts_units::{Dollars, Fraction, Seconds, Watts};
use tts_workload::{FlashCrowd, GoogleTrace};

use crate::scenario::Scenario;

/// The weather seed [`cooling_opex_study`] bills against: one fixed
/// temperate year so the study (and its golden artifacts) stay
/// deterministic.
pub const OPEX_WEATHER_SEED: u64 = 42;

/// The Figure 1 "additional advantages", quantified: yearly cooling
/// electricity bill for one cluster with and without PCM, under the
/// paper's tariff and a temperate-climate economizer driven by a seeded
/// weather year (diurnal + seasonal + stochastic fronts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoolingOpexStudy {
    /// Bill without wax, $/yr.
    pub without_pcm_per_year: Dollars,
    /// Bill with wax, $/yr.
    pub with_pcm_per_year: Dollars,
    /// Relative saving.
    pub saving: Fraction,
}

tts_units::derive_json! { struct CoolingOpexStudy { without_pcm_per_year, with_pcm_per_year, saving } }

/// Computes the cooling-electricity comparison for one server class.
pub fn cooling_opex_study(class: ServerClass) -> CoolingOpexStudy {
    let study = Scenario::new(class).cooling_load_study();
    let plant = CoolingSystem::sized_for(Watts::new(study.run.peak_no_wax.value() * 1000.0));
    let economizer = Economizer::around(plant);
    let tariff = Tariff::paper_default();
    let ambient = WeatherSeries::generate(&WeatherConfig::year(Site::Temperate, OPEX_WEATHER_SEED));
    let dt = Seconds::new((study.run.times_h[1] - study.run.times_h[0]) * 3600.0);
    let to_watts = |kw: &[f64]| -> Vec<f64> { kw.iter().map(|v| v * 1000.0).collect() };
    let cost_nw = cooling_electricity_cost(
        &to_watts(&study.run.load_no_wax_kw),
        dt,
        &economizer,
        &tariff,
        &ambient,
        |_| 1.0,
    );
    let cost_w = cooling_electricity_cost(
        &to_watts(&study.run.load_with_wax_kw),
        dt,
        &economizer,
        &tariff,
        &ambient,
        |_| 1.0,
    );
    let days = study.run.times_h.last().expect("non-empty run") / 24.0;
    let scale = 365.25 / days;
    CoolingOpexStudy {
        without_pcm_per_year: cost_nw * scale,
        with_pcm_per_year: cost_w * scale,
        saving: Fraction::new(1.0 - cost_w.value() / cost_nw.value()),
    }
}

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

/// Rack-by-rack deployment curve for one class.
pub fn partial_deployment_study(class: ServerClass, steps: usize) -> Vec<DeploymentPoint> {
    let scenario = Scenario::new(class);
    let study = scenario.cooling_load_study();
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
/// cooling-load study.
pub fn flash_crowd_study(class: ServerClass) -> FlashCrowdStudy {
    let calm = Scenario::new(class).cooling_load_study();
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

/// Evaluates the selected material's cycling endurance.
pub fn lifetime_study(class: ServerClass) -> LifetimeStudy {
    let study = Scenario::new(class).cooling_load_study();
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
    fn cooling_opex_study_shows_a_saving() {
        let s = cooling_opex_study(ServerClass::LowPower1U);
        assert!(
            s.with_pcm_per_year.value() < s.without_pcm_per_year.value(),
            "PCM must cut the cooling bill: {s:?}"
        );
        // The saving is modest (energy is conserved; only tariff/COP
        // arbitrage remains) but real: 0.1–10 %.
        assert!(
            (0.001..0.10).contains(&s.saving.value()),
            "saving {}",
            s.saving
        );
    }

    #[test]
    fn opex_weather_sweeps_the_economizer_through_all_three_regimes() {
        // A fixed 18 ± 7 °C sinusoid never dips under the 12 °C
        // free-cooling threshold, so it would exercise only the
        // blend/mechanical corner. The seeded temperate weather year must
        // cross the full crossover blend: free (< 12 °C), blended, and
        // mechanical (≥ 24 °C) hours all present, with the blend strictly
        // between the endpoints.
        let weather =
            WeatherSeries::generate(&WeatherConfig::year(Site::Temperate, OPEX_WEATHER_SEED));
        let economizer =
            Economizer::around(CoolingSystem::sized_for(tts_units::Watts::new(200_000.0)));
        let (mut free, mut blend, mut mech) = (0usize, 0usize, 0usize);
        for &c in weather.samples() {
            if c < 12.0 {
                free += 1;
            } else if c < 24.0 {
                blend += 1;
            } else {
                mech += 1;
            }
            let cop = economizer.effective_cop(tts_units::Celsius::new(c));
            let free_cop = economizer.effective_cop(tts_units::Celsius::new(0.0));
            let mech_cop = economizer.effective_cop(tts_units::Celsius::new(30.0));
            assert!(
                (mech_cop..=free_cop).contains(&cop),
                "blend must interpolate: {c} °C → COP {cop}"
            );
        }
        assert!(free > 0, "no free-cooling hours in the temperate year");
        assert!(blend > 0, "no blended hours in the temperate year");
        assert!(mech > 0, "no mechanical hours in the temperate year");
    }

    #[test]
    fn relocation_study_shows_wax_value() {
        let s = relocation_study(ServerClass::LowPower1U);
        assert!(s.with_pcm_per_year.value() < s.without_pcm_per_year.value());
        assert!(s.without_pcm_per_year.value() > 1000.0);
    }

    #[test]
    fn partial_deployment_curve_is_monotone() {
        let points = partial_deployment_study(ServerClass::LowPower1U, 4);
        assert_eq!(points.len(), 4);
        for w in points.windows(2) {
            assert!(w[1].peak_reduction.value() >= w[0].peak_reduction.value() - 1e-9);
        }
    }

    #[test]
    fn flash_crowd_erodes_but_does_not_destroy_the_benefit() {
        let s = flash_crowd_study(ServerClass::LowPower1U);
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
        let s = lifetime_study(ServerClass::LowPower1U);
        assert!(s.capacity_after_server_life.value() > 0.9);
        assert!(s.capacity_after_plant_life.value() > 0.75);
        assert!(s.cycles_to_80pct > 1460, "{}", s.cycles_to_80pct);
    }
}
