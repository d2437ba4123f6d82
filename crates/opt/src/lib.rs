//! `tts-opt` — receding-horizon PCM/job co-optimizer.
//!
//! The paper's wax is *passive*: it melts when the aisle is hot and
//! refreezes overnight, whatever the workload does. This crate adds the
//! first **control** layer on top of the simulation platform: a
//! zero-dependency LP solver plus a planning model that, every planning
//! slot, jointly decides
//!
//! 1. how much of each *deferrable tranche* (30/60/120/180-minute delay
//!    classes) to run now vs. push toward its deadline,
//! 2. the PCM charge/discharge rate, inside the melt-dynamics envelope
//!    exposed by the `pcm` crate, and
//! 3. the implied grid draw under the `cooling` crate's time-of-use
//!    tariff,
//!
//! minimizing energy cost subject to job-conservation, state-of-charge,
//! cooling-capacity, and deadline constraints.
//!
//! # Layers
//!
//! * [`simplex`] — a bounded-variable primal simplex solver (dense
//!   tableau values indexed by row and column bitsets, Dantzig pricing with
//!   a Bland's-rule anti-cycling fallback, deterministic pivoting). No
//!   clocks, no allocator tricks, no randomness: the same `Lp` always
//!   produces the same pivot sequence and the same solution bytes.
//! * [`model`] — translates a forecast horizon (slot-indexed firm load,
//!   deferrable arrivals, tariff rates, PCM envelope) into an `Lp` and
//!   reads the optimal basis back out as a [`model::Plan`].
//! * [`controller`] — the receding-horizon loop: re-plan every
//!   `replan_every` slots, execute against the *actual* plant (which
//!   faults may have perturbed since the forecast), clamp commands to
//!   physics, and fall back to run-on-arrival when a perturbed LP goes
//!   infeasible. Also hosts the passive baseline used for the cost
//!   comparison reported by the `schedule` experiment.
//!
//! # Determinism contract
//!
//! Everything that lands in result bytes is a pure function of the
//! configuration and seed. Wall-clock latency is observed only through
//! best-effort (tagged) metrics which are excluded from deterministic
//! snapshots.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
pub mod model;
pub mod simplex;

pub use controller::{run_schedule, run_schedule_on, ScheduleConfig, ScheduleOutcome};
pub use model::{HorizonModel, Plan, SlotForecast};
pub use simplex::{Lp, Outcome, Solution};
