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
//! * [`event`] — the deterministic event queue;
//! * [`calendar`] — the bucketed calendar queue behind the discrete
//!   engine's hot path (same total order, O(1) amortized);
//! * [`fleet`] — the epoch-sharded fleet engine: struct-of-arrays fluid
//!   state for 1M+ servers across multiple datacenters, byte-identical
//!   across thread *and* shard counts;
//! * [`balancer`] — round-robin (the paper's policy) plus least-loaded and
//!   random, for the load-balancing ablation;
//! * [`discrete`] — the discrete job-level cluster simulator (server, rack
//!   and cluster metrics);
//! * [`cluster`] — the aggregate (fluid) cluster model that couples the
//!   utilization trace to server power and the wax state: the engine
//!   behind the Figure 11 cooling-load study, including the
//!   melting-temperature search;
//! * [`throttle`] — the thermally constrained scenario of Figure 12:
//!   DVFS downclocking to 1.6 GHz, utilization capping, and the wax's
//!   extra thermal headroom;
//! * [`datacenter`] — extrapolation from one 1008-server cluster to the
//!   10 MW datacenter configurations of §4.3.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balancer;
pub mod calendar;
pub mod cluster;
pub mod datacenter;
pub mod discrete;
pub mod event;
pub mod fleet;
pub mod heterogeneous;
#[doc(hidden)]
pub mod legacy;
pub mod relocation;
pub mod throttle;

pub use balancer::{Balancer, LeastLoaded, RandomBalancer, RoundRobin};
pub use calendar::CalendarQueue;
pub use cluster::{select_melting_point, ClusterConfig, CoolingLoadRun};
pub use datacenter::Datacenter;
pub use discrete::{DiscreteClusterSim, DiscreteMetrics, FaultAction, FaultHook};
pub use fleet::{DatacenterSpec, FleetConfig, FleetMetrics, FleetSim};
pub use heterogeneous::{deployment_sweep, run_partial_deployment, DeploymentPoint};
pub use relocation::wax_vs_relocation;
pub use throttle::{ConstrainedConfig, ConstrainedRun};
