//! An event-driven datacenter simulator with PCM thermal time shifting.
//!
//! The paper uses DCSim (Kontorinis et al.), "an event-based simulator that
//! models job arrival, load balancing, and work completion for the input
//! job distribution traces at the server, rack, and cluster levels, then
//! extrapolates the cluster model out for the whole datacenter", extended
//! "to model thermal time shifting with PCM using wax melting
//! characteristics derived from extensive Icepak simulations of each
//! server". DCSim was never released; this crate implements that
//! description:
//!
//! * [`calendar`] — the bucketed calendar queue behind the discrete
//!   engine (deterministic `(time, insertion)` order, O(1) amortized);
//! * [`fleet`] — the epoch-sharded fleet engine: struct-of-arrays fluid
//!   state for 1M+ servers across multiple datacenters, byte-identical
//!   across thread *and* shard counts;
//! * [`balancer`] — round-robin (the paper's policy) plus least-loaded and
//!   random, for the load-balancing ablation;
//! * [`discrete`] — the discrete job-level cluster simulator (server, rack
//!   and cluster metrics);
//! * [`cluster`] — the aggregate (fluid) cluster model that couples the
//!   utilization trace to server power and the wax state: one
//!   [`ClusterConfig`] and one tick loop behind the Figure 11 cooling-load
//!   study, its melting-temperature search, and partial (rack-by-rack)
//!   wax deployment;
//! * [`throttle`] — the thermally constrained scenario of Figure 12: the
//!   same cluster under a cooling limit, with DVFS downclocking to
//!   1.6 GHz, utilization capping, and the wax's extra thermal headroom;
//! * [`relocation`] — job relocation to another site, the other lever
//!   against the Figure 12 limit, priced against the wax.
//!
//! The extrapolation from one 1008-server cluster to the 10 MW
//! datacenters of §4.3 lives with the cost model, in
//! `tts_tco::TcoInput::paper_10mw`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balancer;
pub mod calendar;
pub mod cluster;
pub mod discrete;
pub mod fleet;
pub mod relocation;
pub mod throttle;

pub use balancer::{Balancer, LeastLoaded, RandomBalancer, RoundRobin};
pub use calendar::CalendarQueue;
pub use cluster::{
    deployment_sweep, run_partial_deployment, select_melting_point, ClusterConfig, CoolingLoadRun,
    DeploymentPoint,
};
pub use discrete::{DiscreteClusterSim, DiscreteMetrics, FaultAction, FaultHook};
pub use fleet::{DatacenterSpec, FleetConfig, FleetMetrics, FleetSim};
pub use relocation::wax_vs_relocation;
pub use throttle::ConstrainedRun;
