//! lwbench — the private-GET and page-view benchmark of the lightweb
//! reproduction. See `README.md` for the workloads, the metrics and how each
//! bound was derived.
//!
//! The benchmark owns its load generators, percentiles, span recorder and
//! counting allocator, and reaches the product only through public functions.

pub mod alloc;
pub mod cli;
pub mod fixture;
pub mod host;
pub mod json;
pub mod layers;
pub mod manifest;
pub mod pages;
pub mod pipeline;
pub mod rng;
pub mod span;
pub mod stats;
pub mod tap;
pub mod traced;
pub mod workloads;
