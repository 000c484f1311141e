//! Query engines: the per-mode private-read backends behind the ZLTP server.
//!
//! The paper's server speaks one protocol over three interchangeable
//! private-read substrates (§2.2): two-server DPF PIR, single-server LWE
//! PIR, and a (simulated) enclave with Path ORAM. This crate defines the
//! [`QueryEngine`] trait those substrates implement and hosts the three
//! backends, so the core server routes requests through `Box<dyn
//! QueryEngine>` instead of hand-rolled per-mode branches.
//!
//! It also owns the [`ScanPool`] — a pool of parked workers that partitions
//! the record range so the DPF full-domain evaluation and the linear XOR
//! scan (the two halves of per-request server compute, §5.1) run across
//! cores, and the §5.2 sharded deployment, which reuses the same pool.
#![warn(missing_docs)]

pub mod error;
pub mod pool;
pub mod query;
pub mod sharded;
pub mod traits;

mod enclave;
mod lwe;
mod two_server;

pub use enclave::EnclaveOramEngine;
pub use error::EngineError;
pub use lwe::SingleServerLweEngine;
pub use pool::{ScanPool, SCAN_THREADS_ENV};
pub use query::PreparedQuery;
pub use sharded::{DataShard, DeploymentEntries, ShardedDeployment, ShardedQueryStats};
pub use traits::{EngineSetup, QueryEngine};
pub use two_server::TwoServerDpfEngine;
