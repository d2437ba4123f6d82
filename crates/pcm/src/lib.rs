//! Phase change material (PCM) models for thermal time shifting.
//!
//! This crate implements everything the paper needs to know about the wax:
//!
//! * [`material`] — a library of candidate PCMs reproducing **Table 1** of
//!   the paper (salt hydrates, metal alloys, fatty acids, n-paraffins,
//!   commercial paraffins) plus the specific waxes discussed in §2.1
//!   (eicosane at $75,000/ton, commercial-grade paraffin at $1,000–2,000/ton,
//!   the 39 °C retail wax measured in §3).
//! * [`enthalpy`] — invertible enthalpy–temperature curves using the
//!   effective-heat-capacity method, with a configurable melting range so
//!   both molecularly pure n-paraffins (sharp transition) and commercial
//!   blends (broad transition) are representable.
//! * [`container`] — sealed aluminum wax enclosures: geometry, expansion
//!   headspace, surface area exposed to the air stream, wall conductance.
//! * [`state`] — the transient melt/freeze state machine used by both the
//!   server-level thermal network and the datacenter simulator.
//! * [`cost`] — wax + container CapEx (the paper's `WaxCapEx`, < 0.1 % of
//!   `ServerCapEx`).
//!
//! # Quick example
//!
//! ```
//! use tts_pcm::material::PcmMaterial;
//! use tts_pcm::state::PcmState;
//! use tts_units::{Celsius, Grams, Seconds, WattsPerKelvin};
//!
//! // A kilogram of commercial paraffin melting at 39 °C, coupled to the
//! // server's exhaust air through a 5 W/K conductance.
//! let wax = PcmMaterial::commercial_paraffin(Celsius::new(39.0));
//! let mut state = PcmState::new(&wax, Grams::new(1000.0), Celsius::new(25.0));
//! let coupling = WattsPerKelvin::new(5.0);
//!
//! // Hot air melts the wax; the wax absorbs heat.
//! let q = state.step(Celsius::new(50.0), coupling, Seconds::new(60.0));
//! assert!(q.value() > 0.0);
//! assert!(state.melt_fraction().value() >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod container;
pub mod cost;
pub mod degradation;
pub mod enthalpy;
pub mod material;
pub mod state;

pub use container::{ContainerBank, WaxContainer};
pub use degradation::DegradationModel;
pub use enthalpy::EnthalpyCurve;
pub use material::{PcmClass, PcmMaterial, Stability};
pub use state::PcmState;
