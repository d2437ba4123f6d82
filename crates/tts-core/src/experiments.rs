//! Paper-vs-measured helpers for the hand-rendered artifacts.
//!
//! The figures with a registry entry (Figures 7, 11, 12 — see
//! [`crate::experiment`]) build their [`Comparison`]s from the paper
//! values here ([`paper_fig11_reduction`], [`paper_fig12`]); the
//! hand-rendered artifacts read Table 1, the Figure 1 concept curves, and
//! the §5 TCO analyses from this module. Artifacts that are a single
//! library call (the Figure 4 protocol, the Figure 10 trace, Table 2) are
//! called directly.

use tts_pcm::{PcmMaterial, Stability};
use tts_server::ServerClass;
use tts_tco::{
    added_servers, cooling_downsize_savings_per_year, retrofit_savings_per_year, tco_efficiency,
    Table2, TcoInput,
};
use tts_units::Fraction;

use crate::scenario::Scenario;

/// A paper-vs-measured record for one reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// What the number is.
    pub metric: String,
    /// The paper's reported value.
    pub paper: f64,
    /// Our measured value.
    pub measured: f64,
    /// Unit label.
    pub unit: String,
}

tts_units::derive_json! { struct Comparison { metric, paper, measured, unit } }

impl Comparison {
    /// Builds a record.
    pub fn new(metric: &str, paper: f64, measured: f64, unit: &str) -> Self {
        Self {
            metric: metric.into(),
            paper,
            measured,
            unit: unit.into(),
        }
    }

    /// Relative deviation from the paper's value (NaN-safe).
    pub fn relative_error(&self) -> f64 {
        if self.paper.abs() < 1e-12 {
            return 0.0;
        }
        (self.measured - self.paper) / self.paper
    }
}

/// One row of Table 1 as rendered by the repro harness.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// PCM family name.
    pub name: String,
    /// Melting temperature, °C.
    pub melting_temp_c: f64,
    /// Heat of fusion, J/g.
    pub heat_of_fusion_j_g: f64,
    /// Density, g/mL.
    pub density_g_ml: f64,
    /// Stability rating.
    pub stability: String,
    /// Electrically conductive?
    pub electrically_conductive: bool,
    /// Corrosive?
    pub corrosive: bool,
    /// Passes the datacenter deployment screen?
    pub datacenter_suitable: bool,
}

tts_units::derive_json! { struct Table1Row { name, melting_temp_c, heat_of_fusion_j_g, density_g_ml, stability, electrically_conductive, corrosive, datacenter_suitable } }

/// Table 1: the PCM comparison.
pub fn table1() -> Vec<Table1Row> {
    PcmMaterial::table1()
        .into_iter()
        .map(|m| Table1Row {
            name: m.class().to_string(),
            melting_temp_c: m.melting_point().value(),
            heat_of_fusion_j_g: m.heat_of_fusion().value(),
            density_g_ml: m.density().value(),
            stability: m.stability().to_string(),
            electrically_conductive: m.electrically_conductive(),
            corrosive: m.corrosive(),
            datacenter_suitable: m.is_datacenter_suitable(),
        })
        .collect()
}

/// Sanity check reused by the harness: only paraffins pass the screen.
pub fn table1_screen_matches_paper() -> bool {
    PcmMaterial::table1().iter().all(|m| {
        let paraffin = m.stability() >= Stability::VeryGood && !m.corrosive();
        m.is_datacenter_suitable() == paraffin
    })
}

/// The paper's Figure 11 peak cooling-load reductions, percent.
pub fn paper_fig11_reduction(class: ServerClass) -> f64 {
    match class {
        ServerClass::LowPower1U => 8.9,
        ServerClass::HighThroughput2U => 12.0,
        ServerClass::OpenComputeBlade => 8.3,
    }
}

/// The paper's Figure 12 numbers: (gain %, hours).
pub fn paper_fig12(class: ServerClass) -> (f64, f64) {
    match class {
        ServerClass::LowPower1U => (33.0, 5.1),
        ServerClass::HighThroughput2U => (69.0, 3.1),
        ServerClass::OpenComputeBlade => (34.0, 3.1),
    }
}

/// The §5.1/§5.2 TCO summary for one server class.
#[derive(Debug, Clone, PartialEq)]
pub struct TcoSummary {
    /// Server class.
    pub class: ServerClass,
    /// Measured peak cooling reduction driving the analyses.
    pub peak_reduction_pct: f64,
    /// Cooling-system downsizing savings, $/yr (paper: $174k–254k).
    pub downsize_savings_per_year: Comparison,
    /// Extra servers under the same cooling (paper: 2,770–4,940).
    pub added_servers: Comparison,
    /// Retrofit savings, $/yr (paper: $3.0M–3.2M).
    pub retrofit_savings_per_year: Comparison,
    /// TCO efficiency improvement in the constrained case, % (paper:
    /// 23–39 %).
    pub tco_efficiency_pct: Comparison,
}

tts_units::derive_json! { struct TcoSummary { class, peak_reduction_pct, downsize_savings_per_year, added_servers, retrofit_savings_per_year, tco_efficiency_pct } }

/// Paper values for the TCO analyses: (downsize $/yr, added servers,
/// retrofit $/yr, efficiency %).
pub fn paper_tco(class: ServerClass) -> (f64, f64, f64, f64) {
    match class {
        ServerClass::LowPower1U => (187_000.0, 4_940.0, 3.0e6, 23.0),
        ServerClass::HighThroughput2U => (254_000.0, 2_920.0, 3.2e6, 39.0),
        ServerClass::OpenComputeBlade => (174_000.0, 2_770.0, 3.1e6, 24.0),
    }
}

/// Runs the four §5 cost analyses from the two scalars that drive them:
/// the measured Figure 11 peak cooling-load reduction and the Figure 12
/// peak throughput gain (e.g. an
/// [`Experiment`](crate::experiment::Experiment) figure's key/values).
pub fn tco_summary(class: ServerClass, reduction: Fraction, gain: Fraction) -> TcoSummary {
    let table = Table2::paper();
    let dc = TcoInput::paper_10mw(class, true);
    let (p_downsize, p_added, p_retrofit, p_eff) = paper_tco(class);

    let downsize = cooling_downsize_savings_per_year(&table, dc.critical_kw, reduction);
    let added = added_servers(dc.servers, reduction);
    let retrofit = retrofit_savings_per_year(&table, dc.critical_kw, reduction);
    let efficiency = tco_efficiency(class, gain);

    TcoSummary {
        class,
        peak_reduction_pct: reduction.percent(),
        downsize_savings_per_year: Comparison::new(
            "cooling downsize savings",
            p_downsize,
            downsize.value(),
            "$/yr",
        ),
        added_servers: Comparison::new("added servers", p_added, added as f64, "servers"),
        retrofit_savings_per_year: Comparison::new(
            "retrofit savings",
            p_retrofit,
            retrofit.value(),
            "$/yr",
        ),
        tco_efficiency_pct: Comparison::new(
            "TCO efficiency improvement",
            p_eff,
            efficiency * 100.0,
            "%",
        ),
    }
}

/// Figure 1: the conceptual thermal time shift, rendered from a real run —
/// returns `(heat output kW, cooling load with PCM kW)` over the first day
/// of the 1U cluster.
pub fn concept_figure() -> (Vec<f64>, Vec<f64>) {
    let study = Scenario::new(ServerClass::LowPower1U).cooling_load_study();
    let day: Vec<usize> = study
        .run
        .times_h
        .iter()
        .enumerate()
        .filter(|(_, t)| **t < 24.0)
        .map(|(i, _)| i)
        .collect();
    (
        day.iter().map(|&i| study.run.load_no_wax_kw[i]).collect(),
        day.iter().map(|&i| study.run.load_with_wax_kw[i]).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_paper_rows_and_screen() {
        let rows = table1();
        assert_eq!(rows.len(), 5);
        assert!(table1_screen_matches_paper());
        assert!(rows.iter().any(|r| r.name.contains("Paraffin")));
    }

    #[test]
    fn comparison_relative_error() {
        let c = Comparison::new("x", 10.0, 9.0, "%");
        assert!((c.relative_error() + 0.1).abs() < 1e-12);
        let z = Comparison::new("x", 0.0, 9.0, "%");
        assert_eq!(z.relative_error(), 0.0);
    }

    #[test]
    fn tco_summary_is_complete() {
        let class = ServerClass::LowPower1U;
        let s = tco_summary(class, Fraction::new(0.073), Fraction::new(0.41));
        assert!(s.downsize_savings_per_year.measured > 0.0);
        assert!(s.added_servers.measured > 0.0);
        assert!(s.retrofit_savings_per_year.measured > 1e6);
        assert!(s.tco_efficiency_pct.measured > 0.0);
    }

    #[test]
    fn concept_figure_shows_the_shift() {
        let (no_wax, with_wax) = concept_figure();
        // The shifted peak is lower ...
        let peak_nw = no_wax.iter().cloned().fold(f64::MIN, f64::max);
        let peak_w = with_wax.iter().cloned().fold(f64::MIN, f64::max);
        assert!(peak_w < peak_nw);
        // ... and some off-peak sample carries more load (the released
        // heat).
        assert!(no_wax.iter().zip(&with_wax).any(|(nw, w)| w > nw));
    }
}
