//! The repo's benchmark: 5 workloads, 3 end-to-end metrics, per-layer
//! attribution measured from outside the program. See `README.md`.

#![warn(missing_docs)]

pub mod drives;
pub mod json;
pub mod metrics;
pub mod rss;
pub mod run;
pub mod span;
pub mod stats;
pub mod suite;
pub mod workloads;
