//! Total cost of ownership modeling (§4.3 / Table 2 / Equation 1).
//!
//! The paper bases its TCO on Kontorinis et al., modified for its
//! datacenter and server configurations, with the interest calculation from
//! Barroso & Hölzle. Equation 1:
//!
//! ```text
//! TCO = (FacilitySpaceCapEx + UPSCapEx + PowerInfraCapEx
//!        + CoolingInfraCapEx + RestCapEx)
//!     + DCInterest + (ServerCapEx + WaxCapEx) + ServerInterest
//!     + (DatacenterOpEx + ServerEnergyOpEx + ServerPowerOpEx
//!        + CoolingEnergyOpEx + RestOpEx)
//! ```
//!
//! All Table 2 rows are monthly rates; "$/kWatt" rows are per kilowatt of
//! datacenter *critical power*, "$/server" rows per server.
//!
//! Four analyses from §5 are implemented in [`analyses`]:
//!
//! 1. **Cooling-system downsizing** — a PCM-shaved peak lets the operator
//!    install a proportionally smaller plant ($174 k–254 k/yr for 10 MW).
//! 2. **Added servers** — alternatively, keep the plant and add
//!    `r/(1−r)` more (wax-equipped) servers under the same peak.
//! 3. **Retrofit** — §5.1's scenario: servers age out after 4 years while
//!    the cooling plant has 6 useful years left; PCM on the replacement
//!    fleet avoids buying a larger plant ($3.0 M–3.2 M/yr).
//! 4. **TCO efficiency** — §5.2: the ratio of TCO with PCM's extra peak
//!    throughput to the TCO of buying that throughput as extra machines
//!    (23 %–39 %).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyses;
pub mod model;
pub mod params;

pub use analyses::{
    added_servers, cooling_downsize_savings_per_year, retrofit_savings_per_year, tco_efficiency,
};
pub use model::{MonthlyTco, TcoInput};
pub use params::{Range, Table2};
