//! A lumped-parameter thermal/airflow simulator — the CFD surrogate.
//!
//! The paper models servers (and wax inside them) with ANSYS Icepak, a
//! commercial computational fluid dynamics package. This crate is the
//! open substitute: a compact-model simulator in the HotSpot tradition that
//! reproduces the aggregate quantities the paper's scale-out study actually
//! consumes:
//!
//! * steady-state air and component temperatures vs. dissipated power,
//! * transient heat-up / cool-down behaviour with and without wax,
//! * outlet/CPU temperature response to airflow blockage (fan operating
//!   points against system impedance),
//! * melt/freeze rates of wax enclosures coupled to the air stream.
//!
//! # Architecture
//!
//! * [`network`] — the RC **thermal network**: capacitive nodes (solids),
//!   quasi-steady air nodes solved algebraically each step (removing the
//!   stiffness of tiny air heat capacities), fixed-temperature boundary
//!   nodes, conductance edges, directional advection (ṁ·cp) edges along the
//!   air path, and attached PCM elements. Solids advance by exponential
//!   Euler; boundary conditions (inlet temperature, flows, powers,
//!   couplings) change through the network's setters between steps.
//! * [`linalg`] — the small dense LU solver behind the air solve.
//! * [`airflow`] — fan P–Q curves vs. system impedance: computes the
//!   operating point as blockage (wax boxes, grilles) is inserted, and the
//!   local air velocity through the constriction.
//! * [`convection`] — forced-convection film coefficients h(v).
//! * [`trace`] — time-series comparison (RMSE, mean difference) used by
//!   the model-validation experiment (Figure 4).
//! * [`reference`](mod@reference) — parameter perturbation and sensor-noise utilities for
//!   building the high-resolution "real server" stand-in.
//!
//! # Example: a heater in an air stream
//!
//! ```
//! use tts_thermal::network::ThermalNetwork;
//! use tts_units::{Celsius, CubicMetersPerSecond, JoulesPerKelvin, Seconds,
//!                 Watts, WattsPerKelvin, air_heat_capacity_flow};
//!
//! let mut net = ThermalNetwork::new();
//! let inlet = net.add_boundary("inlet", Celsius::new(25.0));
//! let air = net.add_air("air", Celsius::new(25.0));
//! let outlet = net.add_boundary("outlet", Celsius::new(25.0));
//! let cpu = net.add_capacitive("cpu", JoulesPerKelvin::new(500.0), Celsius::new(25.0));
//!
//! let mcp = air_heat_capacity_flow(CubicMetersPerSecond::new(0.02));
//! net.advect(inlet, air, mcp);
//! net.advect(air, outlet, mcp);
//! net.connect(cpu, air, WattsPerKelvin::new(2.0));
//! net.set_power(cpu, Watts::new(46.0));
//!
//! for _ in 0..5000 { net.step(Seconds::new(10.0)); }
//!
//! // At steady state all 46 W leave through the air stream:
//! // T_air = 25 + 46/mcp, T_cpu = T_air + 46/2.
//! let t_air = net.temperature(air).value();
//! let t_cpu = net.temperature(cpu).value();
//! assert!((t_air - (25.0 + 46.0 / mcp.value())).abs() < 0.05);
//! assert!((t_cpu - (t_air + 23.0)).abs() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod airflow;
pub mod audit;
pub mod convection;
pub mod linalg;
pub mod network;
pub mod reference;
pub mod steady;
pub mod trace;

pub use airflow::{FanCurve, FlowPath, OperatingPoint};
pub use audit::{audit, AuditFinding};
pub use network::{AdvectionId, EdgeId, NodeId, PcmId, ThermalNetwork};
pub use steady::{solve_steady_state, SteadyState};
pub use trace::{compare, TraceComparison};
