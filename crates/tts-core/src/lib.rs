//! # Thermal Time Shifting
//!
//! A from-scratch Rust reproduction of *"Thermal Time Shifting: Leveraging
//! Phase Change Materials to Reduce Cooling Costs in Warehouse-Scale
//! Computers"* (Skach, Arora, Hsu, Li, Tullsen, Tang, Mars — ISCA 2015).
//!
//! The paper's idea: put paraffin wax inside servers. During the daily
//! utilization peak the wax melts, absorbing heat the cooling system would
//! otherwise have to remove *right then*; overnight it refreezes, releasing
//! the heat when the plant has spare capacity. The thermal load of the
//! datacenter is *time shifted*, so the peak — which sizes the cooling
//! plant — shrinks, or equivalently more servers fit under the same plant,
//! or a thermally constrained datacenter can sprint for hours past its
//! nominal limit.
//!
//! This crate is the front door; the substrate crates do the work:
//!
//! | Crate | Role |
//! |---|---|
//! | [`tts_units`] | physical-quantity newtypes |
//! | [`tts_pcm`] | PCM materials, enthalpy curves, containers, melt dynamics |
//! | [`tts_thermal`] | RC thermal network + airflow solver (the CFD surrogate) |
//! | [`tts_server`] | the 1U / 2U / Open Compute server models |
//! | [`tts_workload`] | the synthetic two-day Google-like trace |
//! | [`tts_dcsim`] | the event-driven / aggregate datacenter simulator |
//! | [`tts_cooling`] | cooling load, plant capacity, tariffs |
//! | [`tts_tco`] | Table 2 / Equation 1 cost model |
//!
//! # Quickstart
//!
//! ```
//! use thermal_time_shifting::Scenario;
//! use tts_server::ServerClass;
//!
//! // A 1008-server cluster of 1U machines over the two-day trace.
//! let scenario = Scenario::new(ServerClass::LowPower1U);
//! let study = scenario.cooling_load_study();
//! println!(
//!     "peak cooling load: {:.0} kW → {:.0} kW ({} shaved) with {}",
//!     study.run.peak_no_wax.value(),
//!     study.run.peak_with_wax.value(),
//!     study.run.peak_reduction,
//!     study.material.name(),
//! );
//! assert!(study.run.peak_reduction.value() > 0.0);
//! ```
//!
//! Every table and figure of the paper is regenerated through the
//! [`experiment`] registry (one entry per simulated figure) and the
//! paper-vs-measured helpers in [`experiments`];
//! `cargo run -p tts-bench --bin repro` prints them all.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chart;
pub mod design;
pub mod experiment;
pub mod experiments;
pub mod extensions;
pub mod params;
pub mod report;
pub mod scenario;
pub mod scenarios;

pub use experiment::{ExecCtx, Experiment, Figure};
pub use scenario::{ConstrainedStudy, CoolingLoadStudy, Scenario};

// Re-export the substrate crates so downstream users need one dependency.
pub use tts_cooling as cooling;
pub use tts_dcsim as dcsim;
pub use tts_pcm as pcm;
pub use tts_server as server;
pub use tts_tco as tco;
pub use tts_thermal as thermal;
pub use tts_units as units;
pub use tts_workload as workload;
