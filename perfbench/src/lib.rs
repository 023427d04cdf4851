//! The repository benchmark: closed-loop TCP workloads against an
//! in-process `tc-service` server, plus a traced replay that times each
//! layer through its public functions.
//!
//! The binary (`src/main.rs`) is the one entry point; this library holds
//! the parts the generator tests (`tests/script.rs`) reach:
//!
//! - [`script`] — the seeded request scripts each workload replays;
//! - [`stats`] — percentiles and the tail rule;
//! - [`workload`] — server setup and the closed-loop drivers;
//! - [`trace`] — the in-process per-layer replay;
//! - [`fingerprint`] — the runner description printed with every run.

pub mod fingerprint;
pub mod script;
pub mod stats;
pub mod trace;
pub mod workload;
