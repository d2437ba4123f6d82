//! `tts-design`: deterministic surrogate-assisted design search.
//!
//! The paper picks PCM melting points by walking an exhaustive candidate
//! grid through the cluster simulator (fig11 does, in
//! `tts_dcsim::cluster::select_melting_point`). That is fine for one
//! dimension and fatal for the joint spaces that actually matter
//! (material × mass × tariff × climate × server class). This crate is a
//! derivative-free optimizer that typically matches the grid optimum in an
//! order of magnitude fewer simulator evaluations:
//!
//! * a typed [`DesignSpace`] (continuous, integer, and categorical
//!   dimensions with box bounds and lattice snapping) and an [`Objective`]
//!   seam that separates the expensive simulator output from the scalar
//!   being minimized, so a search returns full outputs;
//! * a (μ/μ_w, λ)-CMA-ES core ([`cmaes::CmaEs`]) working in the unit cube;
//! * an RBF-surrogate / expected-improvement screening layer
//!   ([`surrogate`]) that ranks each CMA-ES population on the model and
//!   pays for simulator runs only on the most promising candidates;
//! * a byte-keyed evaluation memo, private to each [`minimize`] run, so no
//!   design point is simulated twice within a search;
//! * a lattice-polish phase that certifies grid-local optimality of the
//!   incumbent within the remaining budget.
//!
//! Everything is deterministic: no external dependencies, randomness only
//! from seeded `tts-rng` streams, all optimizer math serial, and evaluation
//! batches fanned out through `tts_exec::par_map` which preserves order —
//! results are byte-identical at any `TTS_THREADS` and replayable from a
//! single seed.

pub mod cmaes;
pub mod search;
pub mod space;
pub mod surrogate;

pub use search::{minimize, Objective, SearchConfig, SearchResult, INFEASIBLE};
pub use space::{DesignSpace, Dim};
