//! Host package for the workspace-level examples (`examples/`) and
//! integration tests (`tests/`). It has no code of its own: the command
//! line front end is `repro` (`crates/bench`), which regenerates every
//! table and figure from the experiment registry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
