//! # sc-parallel — the distributed-memory runtime (MPI substitute)
//!
//! The paper's benchmarks run on MPI clusters; this crate reproduces the
//! *algorithmic* content of that parallelization as a message-passing runtime
//! whose ranks are plain Rust values exchanging explicit messages:
//!
//! * spatial decomposition of the periodic box over a [`RankGrid`]
//!   (paper §3.1.3: each processor owns a cell domain Ω);
//! * **halo exchange with forwarded routing** — SC-MD imports ghost atoms
//!   from its 7 first-octant neighbour ranks in 3 communication steps
//!   (+x, +y, +z, §4.2), FS/Hybrid from all 26 in 6 steps;
//! * **reverse force reduction** — forces accumulated on ghost atoms travel
//!   back along the reversed routes to their owner ranks (the owner-compute
//!   relaxation of the eighth-shell scheme applied to arbitrary n);
//! * **atom migration** — after each drift, atoms that left their rank's
//!   box are handed to the new owner in 3 axis-ordered exchanges.
//!
//! Two executors drive one exchange schedule — the same phase bodies,
//! framing, accounting and delivery checks over the same
//! [`rank::RankState`] logic — and differ only in the wire a unit travels:
//!
//! * [`DistributedSim`] — bulk-synchronous, deterministic: every message is
//!   delivered in a fixed order between phases. This is the reference
//!   executor the correctness tests compare against serial `sc-md`.
//! * [`ThreadedSim`] — each rank on its own OS thread with
//!   `crossbeam-channel` mailboxes, exercising true concurrent message
//!   passing (as close to MPI as a single process gets).
//!
//! Both count every message and byte ([`CommCounters`]), which is what the
//! `sc-netmodel` crate calibrates the paper's communication model against.
//!
//! ## Fault tolerance
//!
//! Every payload travels as a stamped [`Message`] (step epoch, channel,
//! FNV-1a checksum) and is verified on receipt; failures surface as typed
//! [`RuntimeError`]s after a bounded per-delivery retry. The BSP executor
//! additionally routes all deliveries through a scriptable, deterministic
//! [`FaultPlan`] so tests can inject drops, delays, corruption, and rank
//! stalls per `(step, rank, channel)`. Recovery (checkpoint/rollback) is
//! orchestrated by the `Supervisor` in `sc-md`, for which
//! [`DistributedSim`] implements the `Recoverable` trait.
//!
//! Permanent rank death ([`fault::FaultKind::Crash`]) is detected by a
//! per-rank [`health`] state machine (deadline watchdog + flap circuit
//! breaker) and surfaces as [`RuntimeError::RankDead`]; the supervisor then
//! re-decomposes the last checkpoint over the surviving ranks
//! ([`DistributedSim::restore_excluding`]) instead of rolling back forever.

#![warn(missing_docs)]

pub mod comm;
pub mod error;
pub mod fault;
pub mod grid;
pub mod health;
pub mod msg;
pub mod rank;
pub mod transport;

mod exec_bsp;
mod exec_threads;
mod schedule;

pub use comm::{CommCounters, GhostPlan};
pub use error::{RuntimeError, SetupError};
pub use exec_bsp::DistributedSim;
pub use exec_threads::ThreadedSim;
pub use fault::{Delivery, Fault, FaultEvent, FaultKind, FaultPlan};
pub use grid::RankGrid;
pub use health::{HealthConfig, HealthCounters, HealthTracker, RankHealth};
pub use msg::{AtomMsg, Channel, GhostMsg, Message, Payload};
pub use transport::CommConfig;
