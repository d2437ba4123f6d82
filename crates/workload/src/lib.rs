//! Datacenter workload traces for the thermal time shifting study.
//!
//! The paper (§4.2) drives its scale-out study with a two-day Google trace
//! (November 17–18, 2010) containing three job types — Web Search, Social
//! Networking (Orkut) and MapReduce — "normalized for a 50 % average load
//! and 95 % peak load for a cluster of 1008 servers". The original trace is
//! no longer obtainable (Google changed its transparency-report format
//! after 2011; the paper itself notes newer data is unavailable), so this
//! crate generates a synthetic equivalent with the documented properties:
//!
//! * three diurnal components with distinct phases (search peaks midday,
//!   social traffic peaks in the evening, MapReduce batch work runs
//!   overnight),
//! * two days of near-repeating (not identical) daily cycles,
//! * deterministic seeded jitter,
//! * exact 50 % average / 95 % peak normalization.
//!
//! ```
//! use tts_workload::google::GoogleTrace;
//!
//! let trace = GoogleTrace::default_two_day();
//! let total = trace.total();
//! assert!((total.mean() - 0.50).abs() < 1e-9);
//! assert!((total.peak() - 0.95).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod demand;
pub mod diurnal;
pub mod events;
pub mod google;
pub mod jobs;
pub mod normalize;
pub mod series;
pub mod weekly;

pub use demand::{
    flash_crowd_trace, training_burst_trace, FlashCrowdTraceConfig, TrainingBurstConfig,
};
pub use events::FlashCrowd;
pub use google::GoogleTrace;
pub use jobs::{Job, JobStream, JobType};
pub use series::TimeSeries;
pub use weekly::{weekly_trace, WeeklyTraceConfig};
