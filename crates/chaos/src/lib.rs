//! Deterministic, seed-replayable fault injection for the thermal
//! time-shifting stack.
//!
//! A warehouse-scale computer's worst days are the interesting ones:
//! servers die mid-burst, CRAC units derate, fans stall, sensors lie,
//! load spikes. The paper's PCM thesis (§6, emergency thermal
//! management) is strongest exactly there — so this crate stress-tests
//! every simulation layer under a typed fault taxonomy and checks
//! machine-verifiable invariants after every event.
//!
//! Design rules:
//!
//! * **Everything replays from a seed.** A [`FaultPlan`] is a pure
//!   function of `(seed, PlanConfig)`; a scenario is a pure function of
//!   `(seed, ScenarioConfig)`. Failing seeds print a one-line
//!   `repro chaos --seed 0x…` replay, mirroring `tts_rng::prop`'s
//!   `TTS_PROP_SEED` machinery.
//! * **Faults enter through typed seams, not forks.** dcsim takes a
//!   [`tts_dcsim::discrete::FaultHook`], the thermal network takes a
//!   [`tts_thermal::BoundaryFault`], the ride-through solver takes a
//!   [`tts_cooling::DegradedCooling`] profile. The production code paths
//!   are the ones under test.
//! * **Summaries are byte-deterministic** at any `TTS_THREADS`, so the
//!   CI gate can `cmp` them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod harness;
pub mod invariant;
pub mod scenario;

pub use fault::{Fault, FaultPlan, PlanConfig};
pub use harness::{run_batch, seed_chain, summarize, BatchConfig, ChaosSummary};
pub use invariant::{Checker, Violation};
pub use scenario::{
    replay_command, run_plan, run_scenario, PlanFaultHook, ScenarioConfig, ScenarioReport,
};
