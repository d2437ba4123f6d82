//! The scenario matrix: cooling backend × climate site × demand trace.
//!
//! The paper evaluates one cooling plant (a fixed-COP chiller), one
//! climate (implicit) and one workload (the calm two-day diurnal trace).
//! This module sweeps the cross product the paper leaves open:
//!
//! * **backends** — the paper's chiller, a temperate-style airside
//!   [`Economizer`], and the iDataCool-style [`HotWaterLoop`] with an
//!   energy-reuse contract (arXiv 1309.4887);
//! * **sites** — seeded deterministic [`WeatherSeries`] years for the
//!   temperate / tropical / desert [`Site`] catalogue;
//! * **traces** — the diurnal baseline plus the demand-variation shapes
//!   of [`tts_workload::demand`] (weekly seasonality, flash crowds,
//!   AI-training checkpoint bursts).
//!
//! Every cell runs the same pipeline: resolve the demand trace, run the
//! Figure 11 cooling-load study (wax melting point optimized per trace),
//! then integrate the backend's electricity bill over the with-wax and
//! no-wax load series under the paper tariff and the site's weather.
//! Cells are independent, so the matrix fans out through
//! [`tts_exec::par_map`] in a fixed order — the result is byte-identical
//! at any `TTS_THREADS`.

use tts_cooling::freecooling::{cooling_electricity_cost, Economizer};
use tts_cooling::{
    hot_water_bill, CoolingSystem, HotWaterBill, HotWaterLoop, Site, Tariff, WeatherConfig,
    WeatherSeries,
};
use tts_server::ServerClass;
use tts_units::{Dollars, Seconds, Watts};
use tts_workload::{
    flash_crowd_trace, training_burst_trace, weekly_trace, FlashCrowdTraceConfig, GoogleTrace,
    TimeSeries, TrainingBurstConfig, WeeklyTraceConfig,
};

use crate::scenario::{CoolingLoadStudy, Scenario};

/// Canonical backend order; the `backends` parameter selects a prefix.
pub const BACKENDS: &[&str] = &["chiller", "economizer", "hotwater"];

/// Canonical trace order; the `traces` parameter selects a prefix.
pub const TRACES: &[&str] = &["diurnal", "weekly", "flash", "training"];

/// What to sweep: prefix lengths into the three catalogues plus the
/// weather seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixConfig {
    /// Climate sites, a prefix of [`Site::ALL`] (1–3).
    pub sites: usize,
    /// Cooling backends, a prefix of [`BACKENDS`] (1–3).
    pub backends: usize,
    /// Demand traces, a prefix of [`TRACES`] (1–4).
    pub traces: usize,
    /// Base weather seed; site *i* draws from `seed ^ i`.
    pub seed: u64,
}

impl Default for MatrixConfig {
    fn default() -> Self {
        Self {
            sites: Site::ALL.len(),
            backends: BACKENDS.len(),
            traces: TRACES.len(),
            seed: 42,
        }
    }
}

/// One cell of the matrix: a (site, backend, trace) triple with its
/// yearly-scaled cooling bills and the PCM delta.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixCell {
    /// Site name (`temperate` / `tropical` / `desert`).
    pub site: String,
    /// Backend name (`chiller` / `economizer` / `hotwater`).
    pub backend: String,
    /// Trace name (`diurnal` / `weekly` / `flash` / `training`).
    pub trace: String,
    /// Yearly cooling bill without wax, $. On the hot-water backend this
    /// is the *net* bill (electricity minus the reuse credit), which can
    /// go negative: a loop whose 60 °C outlet sells most of the rejected
    /// heat out-earns its own pump-and-lift electricity.
    pub cost_no_wax: Dollars,
    /// Yearly cooling bill with wax, $ (net, like `cost_no_wax`).
    pub cost_with_wax: Dollars,
    /// The TCO delta the wax buys: `cost_no_wax − cost_with_wax`, $/yr.
    pub delta: Dollars,
    /// The delta as a fraction of the no-wax bill's magnitude.
    pub delta_frac: f64,
    /// Yearly energy-reuse credit on the with-wax run (hot water only).
    pub reuse_credit: Dollars,
    /// Whether reuse strictly lowered the with-wax bill vs. the same
    /// loop with no contract (always `false` off the hot-water backend).
    pub reuse_win: bool,
}

tts_units::derive_json! { struct MatrixCell { site, backend, trace, cost_no_wax, cost_with_wax, delta, delta_frac, reuse_credit, reuse_win } }

/// The full matrix run.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixResult {
    /// Every cell, in site-major (site → backend → trace) order.
    pub cells: Vec<MatrixCell>,
    /// Hot-water cells where the reuse contract strictly lowered the
    /// with-wax bill.
    pub hotwater_reuse_win_cells: usize,
}

tts_units::derive_json! { struct MatrixResult { cells, hotwater_reuse_win_cells } }

impl MatrixResult {
    /// Looks up a cell by its (site, backend, trace) names.
    pub fn cell(&self, site: &str, backend: &str, trace: &str) -> Option<&MatrixCell> {
        self.cells
            .iter()
            .find(|c| c.site == site && c.backend == backend && c.trace == trace)
    }
}

/// Resolves one catalogue trace by name.
pub fn demand_trace(name: &str) -> TimeSeries {
    match name {
        "diurnal" => GoogleTrace::default_two_day().total().clone(),
        "weekly" => weekly_trace(&WeeklyTraceConfig::default()),
        "flash" => flash_crowd_trace(&FlashCrowdTraceConfig::default()),
        "training" => training_burst_trace(&TrainingBurstConfig::default()),
        other => panic!("unknown demand trace {other:?} (catalogue: {TRACES:?})"),
    }
}

/// The per-trace intermediate: the Figure 11 study plus its load series
/// lifted to watts, shared by every (site, backend) pair on that trace.
struct TraceStudy {
    name: &'static str,
    study: CoolingLoadStudy,
    loads_no_wax_w: Vec<f64>,
    loads_with_wax_w: Vec<f64>,
    dt: Seconds,
    days: f64,
}

impl TraceStudy {
    fn run(name: &'static str) -> Self {
        let study = Scenario::new(ServerClass::LowPower1U)
            .trace(demand_trace(name))
            .cooling_load_study();
        let to_watts = |kw: &[f64]| -> Vec<f64> { kw.iter().map(|v| v * 1000.0).collect() };
        let dt = Seconds::new((study.run.times_h[1] - study.run.times_h[0]) * 3600.0);
        let days = study.run.times_h.last().expect("non-empty run") / 24.0;
        Self {
            name,
            loads_no_wax_w: to_watts(&study.run.load_no_wax_kw),
            loads_with_wax_w: to_watts(&study.run.load_with_wax_kw),
            study,
            dt,
            days,
        }
    }
}

/// One backend's yearly bill plus the hot-water extras.
struct BackendBill {
    cost: Dollars,
    reuse_credit: Dollars,
    /// The same loads billed with the reuse contract detached (hot water
    /// only; `None` elsewhere).
    without_reuse: Option<Dollars>,
}

/// Integrates one backend's bill over a load series under a site's
/// weather, scaled to a year.
fn backend_bill(
    backend: &str,
    loads_w: &[f64],
    dt: Seconds,
    peak_no_wax_w: f64,
    tariff: &Tariff,
    weather: &WeatherSeries,
    scale: f64,
) -> BackendBill {
    match backend {
        "chiller" => {
            let plant = CoolingSystem::sized_for(Watts::new(peak_no_wax_w));
            let mut cost = Dollars::ZERO;
            for (i, &load) in loads_w.iter().enumerate() {
                let t = Seconds::new(i as f64 * dt.value());
                cost += tariff.cost(plant.electrical_energy(Watts::new(load), dt), t);
            }
            BackendBill {
                cost: cost * scale,
                reuse_credit: Dollars::ZERO,
                without_reuse: None,
            }
        }
        "economizer" => {
            let plant = CoolingSystem::sized_for(Watts::new(peak_no_wax_w));
            let economizer = Economizer::around(plant);
            let cost = cooling_electricity_cost(loads_w, dt, &economizer, tariff, weather, |_| 1.0);
            BackendBill {
                cost: cost * scale,
                reuse_credit: Dollars::ZERO,
                without_reuse: None,
            }
        }
        "hotwater" => {
            let water = HotWaterLoop::idatacool();
            let bill: HotWaterBill = hot_water_bill(loads_w, dt, &water, tariff, weather, |_| 1.0);
            let plain =
                hot_water_bill(loads_w, dt, &water.without_reuse(), tariff, weather, |_| {
                    1.0
                });
            BackendBill {
                cost: bill.net() * scale,
                reuse_credit: bill.reuse_credit * scale,
                without_reuse: Some(plain.net() * scale),
            }
        }
        other => panic!("unknown cooling backend {other:?} (catalogue: {BACKENDS:?})"),
    }
}

/// Runs the matrix: every (site, backend, trace) cell of the configured
/// prefixes, fanned out in a fixed order. Deterministic at any thread
/// count.
pub fn run_matrix(config: &MatrixConfig) -> MatrixResult {
    let sites = &Site::ALL[..config.sites.clamp(1, Site::ALL.len())];
    let backends = &BACKENDS[..config.backends.clamp(1, BACKENDS.len())];
    let traces = &TRACES[..config.traces.clamp(1, TRACES.len())];

    // The expensive per-trace studies (melting-point search + cluster
    // run) are shared across every site × backend pair on that trace.
    let studies: Vec<TraceStudy> = tts_exec::par_map(traces, |name| TraceStudy::run(name));
    // A year of hourly weather per site; the series wraps, so traces
    // shorter than a year just read a prefix.
    let weathers: Vec<WeatherSeries> = tts_exec::par_map(
        &sites.iter().enumerate().collect::<Vec<_>>(),
        |&(i, &site)| WeatherSeries::generate(&WeatherConfig::year(site, config.seed ^ i as u64)),
    );

    let mut specs: Vec<(usize, usize, usize)> = Vec::new();
    for s in 0..sites.len() {
        for b in 0..backends.len() {
            for t in 0..traces.len() {
                specs.push((s, b, t));
            }
        }
    }
    let tariff = Tariff::paper_default();
    let cells = tts_exec::par_map(&specs, |&(s, b, t)| {
        let ts = &studies[t];
        let weather = &weathers[s];
        let scale = 365.25 / ts.days;
        let peak_w = ts.study.run.peak_no_wax.value() * 1000.0;
        let backend = backends[b];
        let nw = backend_bill(
            backend,
            &ts.loads_no_wax_w,
            ts.dt,
            peak_w,
            &tariff,
            weather,
            scale,
        );
        let ww = backend_bill(
            backend,
            &ts.loads_with_wax_w,
            ts.dt,
            peak_w,
            &tariff,
            weather,
            scale,
        );
        let delta = nw.cost - ww.cost;
        MatrixCell {
            site: sites[s].name().to_string(),
            backend: backend.to_string(),
            trace: ts.name.to_string(),
            cost_no_wax: nw.cost,
            cost_with_wax: ww.cost,
            delta,
            delta_frac: if nw.cost.value().abs() > f64::EPSILON {
                delta.value() / nw.cost.value().abs()
            } else {
                0.0
            },
            reuse_credit: ww.reuse_credit,
            reuse_win: ww
                .without_reuse
                .is_some_and(|plain| ww.cost.value() < plain.value()),
        }
    });
    let hotwater_reuse_win_cells = cells.iter().filter(|c| c.reuse_win).count();
    MatrixResult {
        cells,
        hotwater_reuse_win_cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MatrixConfig {
        MatrixConfig {
            sites: 1,
            backends: 3,
            traces: 1,
            seed: 42,
        }
    }

    #[test]
    fn matrix_covers_the_cross_product_in_order() {
        let r = run_matrix(&MatrixConfig {
            sites: 2,
            backends: 2,
            traces: 2,
            seed: 42,
        });
        assert_eq!(r.cells.len(), 8);
        let names: Vec<(&str, &str, &str)> = r
            .cells
            .iter()
            .map(|c| (c.site.as_str(), c.backend.as_str(), c.trace.as_str()))
            .collect();
        assert_eq!(names[0], ("temperate", "chiller", "diurnal"));
        assert_eq!(names[1], ("temperate", "chiller", "weekly"));
        assert_eq!(names[2], ("temperate", "economizer", "diurnal"));
        assert_eq!(names[7], ("tropical", "economizer", "weekly"));
    }

    #[test]
    fn every_cell_bills_are_physical_and_wax_never_hurts_the_chiller() {
        let r = run_matrix(&small());
        for c in &r.cells {
            assert!(c.cost_no_wax.value().is_finite(), "{c:?}");
            assert!(c.cost_with_wax.value().is_finite(), "{c:?}");
            assert!(c.delta_frac.abs() < 0.5, "delta should be modest: {c:?}");
            // Gross electricity spend (net + credit) is always positive,
            // even when heat sales push the hot-water *net* negative.
            assert!(
                c.cost_with_wax.value() + c.reuse_credit.value() > 0.0,
                "{c:?}"
            );
            if c.backend != "hotwater" {
                assert!(c.cost_no_wax.value() > 0.0, "{c:?}");
                assert_eq!(c.reuse_credit, Dollars::ZERO, "{c:?}");
            }
        }
        // Under the flat-COP chiller the wax saving is pure tariff
        // arbitrage and must not be negative.
        let chiller = r.cell("temperate", "chiller", "diurnal").unwrap();
        assert!(chiller.delta.value() >= 0.0, "{chiller:?}");
    }

    #[test]
    fn temperate_economizer_cell_shows_a_cooling_opex_saving() {
        // Figure 1's "additional advantages", quantified on the 1U cluster.
        let r = run_matrix(&small());
        let c = r.cell("temperate", "economizer", "diurnal").unwrap();
        assert!(
            c.cost_with_wax.value() < c.cost_no_wax.value(),
            "PCM must cut the cooling bill: {c:?}"
        );
        // The saving is modest (energy is conserved; only tariff/COP
        // arbitrage remains) but real: 0.1–10 %.
        assert!(
            (0.001..0.10).contains(&c.delta_frac),
            "saving {}",
            c.delta_frac
        );
    }

    #[test]
    fn temperate_weather_sweeps_the_economizer_through_all_three_regimes() {
        // A fixed 18 ± 7 °C sinusoid never dips under the 12 °C
        // free-cooling threshold, so it would exercise only the
        // blend/mechanical corner. The temperate weather year the matrix
        // bills against (site 0 draws `seed ^ 0`) must cross the full
        // crossover blend: free (< 12 °C), blended, and mechanical
        // (≥ 24 °C) hours all present, with the blend strictly between the
        // endpoints.
        assert_eq!(Site::ALL[0], Site::Temperate);
        let weather = WeatherSeries::generate(&WeatherConfig::year(
            Site::Temperate,
            MatrixConfig::default().seed,
        ));
        let economizer = Economizer::around(CoolingSystem::sized_for(Watts::new(200_000.0)));
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
    fn hotwater_reuse_strictly_lowers_the_bill() {
        let r = run_matrix(&small());
        let hw = r.cell("temperate", "hotwater", "diurnal").unwrap();
        assert!(hw.reuse_win, "{hw:?}");
        assert!(hw.reuse_credit.value() > 0.0, "{hw:?}");
        assert!(r.hotwater_reuse_win_cells >= 1);
    }

    #[test]
    fn matrix_is_deterministic_for_a_seed() {
        let cfg = MatrixConfig {
            sites: 3,
            backends: 3,
            traces: 1,
            seed: 42,
        };
        let a = run_matrix(&cfg);
        let b = run_matrix(&cfg);
        assert_eq!(a, b);
        let c = run_matrix(&MatrixConfig { seed: 7, ..cfg });
        // A different weather seed changes weather-dependent cells. (The
        // desert economizer sits in the crossover blend, so its COP — and
        // bill — track the stochastic fronts; the temperate January start
        // can pin the economizer at the free-cooling clamp.)
        let econ_a = a.cell("desert", "economizer", "diurnal").unwrap();
        let econ_c = c.cell("desert", "economizer", "diurnal").unwrap();
        assert_ne!(econ_a.cost_no_wax, econ_c.cost_no_wax);
        // …but never the weather-blind chiller.
        let ch_a = a.cell("desert", "chiller", "diurnal").unwrap();
        let ch_c = c.cell("desert", "chiller", "diurnal").unwrap();
        assert_eq!(ch_a.cost_no_wax, ch_c.cost_no_wax);
    }
}
