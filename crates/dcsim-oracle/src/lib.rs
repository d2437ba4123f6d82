//! Test oracles for `tts_dcsim`'s discrete engine:
//!
//! * [`EventQueue`] — the binary-heap event queue, the ordering oracle for
//!   `tts_dcsim::CalendarQueue`;
//! * [`LegacySim`] — the frozen heap-based job-level engine, the
//!   byte-equivalence oracle for `tts_dcsim::discrete`.
//!
//! Nothing in production depends on this crate: it is a dev-dependency of
//! the tests and benchmarks that compare against it, and `ci.sh` fails if
//! any crate reaches it through a normal dependency edge.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod legacy;

pub use event::EventQueue;
pub use legacy::LegacySim;
