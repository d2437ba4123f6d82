//! Shared helpers for the benchmark/repro harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod harness;
