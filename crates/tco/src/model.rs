//! Equation 1: the monthly TCO of one datacenter configuration.

use crate::params::{Table2, SQFT_PER_KW};
use tts_server::ServerClass;
use tts_units::Dollars;

/// One datacenter configuration to be priced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcoInput {
    /// Server class deployed.
    pub class: ServerClass,
    /// Number of servers.
    pub servers: usize,
    /// Critical power, kW.
    pub critical_kw: f64,
    /// Whether the fleet carries wax.
    pub with_wax: bool,
}

tts_units::derive_json! { struct TcoInput { class, servers, critical_kw, with_wax } }

impl TcoInput {
    /// The paper's 10 MW datacenter of a class (§4.3 cluster counts).
    pub fn paper_10mw(class: ServerClass, with_wax: bool) -> Self {
        let clusters = match class {
            ServerClass::LowPower1U => 55,
            ServerClass::HighThroughput2U => 19,
            ServerClass::OpenComputeBlade => 29,
        };
        Self {
            class,
            servers: clusters * 1008,
            critical_kw: 10_000.0,
            with_wax,
        }
    }
}

/// The Equation 1 breakdown, dollars per month.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonthlyTco {
    /// Facility + UPS + power + cooling + rest capital.
    pub infrastructure_capex: Dollars,
    /// Interest on datacenter capital.
    pub dc_interest: Dollars,
    /// Server + wax capital.
    pub server_capex: Dollars,
    /// Interest on server capital.
    pub server_interest: Dollars,
    /// All operating expenses.
    pub opex: Dollars,
}

tts_units::derive_json! { struct MonthlyTco { infrastructure_capex, dc_interest, server_capex, server_interest, opex } }

impl MonthlyTco {
    /// Prices a configuration with the given parameter table.
    pub fn compute(input: &TcoInput, table: &Table2) -> Self {
        let r = table.resolved_for(input.class);
        let kw = input.critical_kw;
        let n = input.servers as f64;
        let sqft = kw * SQFT_PER_KW;

        let infrastructure_capex = Dollars::new(
            r.facility_space_capex_per_sqft * sqft
                + r.ups_capex_per_server * n
                + r.power_infra_capex_per_kw * kw
                + r.cooling_infra_capex_per_kw * kw
                + r.rest_capex_per_kw * kw,
        );
        let dc_interest = Dollars::new(r.dc_interest_per_kw * kw);
        let wax = if input.with_wax {
            r.wax_capex_per_server
        } else {
            0.0
        };
        let server_capex = Dollars::new((r.server_capex_per_server + wax) * n);
        let server_interest = Dollars::new(r.server_interest_per_server * n);
        let opex = Dollars::new(
            (r.datacenter_opex_per_kw
                + r.server_energy_opex_per_kw
                + r.server_power_opex_per_kw
                + r.cooling_energy_opex_per_kw
                + r.rest_opex_per_kw)
                * kw,
        );
        Self {
            infrastructure_capex,
            dc_interest,
            server_capex,
            server_interest,
            opex,
        }
    }

    /// Total monthly cost (Equation 1's left-hand side).
    pub fn total(&self) -> Dollars {
        self.infrastructure_capex
            + self.dc_interest
            + self.server_capex
            + self.server_interest
            + self.opex
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tts_units::Fraction;

    #[test]
    fn paper_cluster_counts() {
        // §4.3: 55 clusters of 1U, 19 of 2U, 29 of Open Compute blades,
        // 1008 servers each, under 10 MW of critical power.
        for (class, clusters) in [
            (ServerClass::LowPower1U, 55),
            (ServerClass::HighThroughput2U, 19),
            (ServerClass::OpenComputeBlade, 29),
        ] {
            let dc = TcoInput::paper_10mw(class, true);
            assert_eq!(dc.servers, clusters * 1008, "{class}");
            assert_eq!(dc.critical_kw, 10_000.0, "{class}");
        }
    }

    #[test]
    fn cluster_counts_respect_critical_power() {
        // Each configuration's peak IT power must come in at or under the
        // 10 MW critical budget (the paper sizes cluster counts this way).
        for class in ServerClass::ALL {
            let dc = TcoInput::paper_10mw(class, false);
            let per_server = class.spec().wall_power(Fraction::ONE, Fraction::ONE);
            let peak_mw = per_server.value() * dc.servers as f64 / 1e6;
            assert!(
                peak_mw <= 10.3,
                "{class}: peak IT power {peak_mw} MW exceeds critical power"
            );
            assert!(
                peak_mw > 5.0,
                "{class}: datacenter implausibly empty: {peak_mw} MW"
            );
        }
    }

    #[test]
    fn ten_megawatt_tco_is_tens_of_millions_per_year() {
        // Sanity: warehouse-scale TCO for 10 MW runs $40M–$100M/yr in this
        // cost era (server-dominated).
        for class in ServerClass::ALL {
            let tco = MonthlyTco::compute(&TcoInput::paper_10mw(class, false), &Table2::paper());
            let yearly = tco.total().value() * 12.0;
            assert!(
                (2.0e7..1.5e8).contains(&yearly),
                "{class}: {yearly:.3e} $/yr"
            );
        }
    }

    #[test]
    fn wax_adds_almost_nothing() {
        // §4.3: WaxCapEx is "almost negligible representing less than
        // 0.1 % of the ServerCapEx".
        for class in ServerClass::ALL {
            let base = MonthlyTco::compute(&TcoInput::paper_10mw(class, false), &Table2::paper());
            let waxed = MonthlyTco::compute(&TcoInput::paper_10mw(class, true), &Table2::paper());
            let delta = waxed.total().value() - base.total().value();
            assert!(delta > 0.0, "{class}: wax must cost something");
            assert!(
                delta / base.server_capex.value() < 0.002,
                "{class}: wax share {}",
                delta / base.server_capex.value()
            );
        }
    }

    #[test]
    fn servers_dominate_the_tco() {
        // The widely-reported structure of WSC economics: the machines
        // (capital + interest) are the single largest slice.
        let tco = MonthlyTco::compute(
            &TcoInput::paper_10mw(ServerClass::HighThroughput2U, false),
            &Table2::paper(),
        );
        let share = (tco.server_capex + tco.server_interest) / tco.total();
        assert!(share > 0.35, "server share {share}");
    }

    #[test]
    fn breakdown_sums_to_total() {
        let tco = MonthlyTco::compute(
            &TcoInput::paper_10mw(ServerClass::LowPower1U, true),
            &Table2::paper(),
        );
        let sum = tco.infrastructure_capex
            + tco.dc_interest
            + tco.server_capex
            + tco.server_interest
            + tco.opex;
        assert!((sum.value() - tco.total().value()).abs() < 1e-9);
        let opex_share = tco.opex / tco.total();
        assert!(opex_share > 0.0 && opex_share < 1.0);
    }

    #[test]
    fn denser_servers_cost_more_per_box_but_fewer_boxes() {
        let t1u = MonthlyTco::compute(
            &TcoInput::paper_10mw(ServerClass::LowPower1U, false),
            &Table2::paper(),
        );
        let t2u = MonthlyTco::compute(
            &TcoInput::paper_10mw(ServerClass::HighThroughput2U, false),
            &Table2::paper(),
        );
        // 55×1008 cheap servers vs 19×1008 expensive ones: totals land in
        // the same regime (within 2×).
        let ratio = t1u.total() / t2u.total();
        assert!((0.5..2.0).contains(&ratio), "ratio {ratio}");
    }
}
