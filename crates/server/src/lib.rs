//! Server models for the thermal time shifting study.
//!
//! The paper's scale-out study (§4) evaluates three homogeneous datacenters
//! built from three very different machines:
//!
//! * **1U low-power commodity server** — the Lenovo RD330 validated against
//!   a real machine in §3: two 6-core Sandy Bridge Xeons, 90 W idle / 185 W
//!   loaded at the wall, ~$2,000. Wax configuration: 1.2 L in aluminum
//!   boxes blocking 70 % of the airflow downwind of the CPUs.
//! * **2U high-throughput commodity server** — a Sun X4470-class box with
//!   four 8-core Xeons, ~500 W peak, ~$7,000. Wax: 4 × 1 L boxes blocking
//!   69 % of airflow.
//! * **Open Compute blade** — Microsoft's published 1U half-width blade,
//!   two 6-core Xeons, 100 W idle / 300 W cap, ~$4,000. Wax: 0.5 L
//!   replacing the stock airflow inserts (production) or 1.5 L in the
//!   SSD-swapped reconfiguration, both adding no blockage.
//!
//! For each machine this crate provides:
//!
//! * [`components`] — CPU (with the paper's 2.4 → 1.6 GHz thermal
//!   throttle), DRAM, PSU efficiency, drives and fan power models;
//! * [`spec`] — the calibrated [`ServerSpec`] presets;
//! * [`model`] — assembly of a [`tts_thermal::ThermalNetwork`] for a spec
//!   (the "Icepak model" of each server) with or without wax;
//! * [`blockage`] — the Figure 7 airflow-blockage sweeps;
//! * [`melt_curve`] — extraction of the aggregate wax characteristics
//!   (power → wax-air temperature, air-to-wax conductance, latent budget)
//!   that the datacenter simulator consumes, mirroring the paper's
//!   "wax melting characteristics derived from extensive Icepak
//!   simulations of each server";
//! * [`validation`] — the §3/Figure 4 validation experiment: coarse
//!   production model vs. a perturbed high-resolution reference with noisy
//!   sensors, wax vs. placebo.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blockage;
pub mod components;
pub mod melt_curve;
pub mod model;
pub mod spec;
pub mod validation;

pub use components::{CpuSpec, DrivesSpec, FansSpec, MemorySpec, PsuSpec};
pub use melt_curve::ServerWaxCharacteristics;
pub use model::ServerThermalModel;
pub use spec::{ServerClass, ServerSpec, WaxPlacement};
