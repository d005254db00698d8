//! # sc-cell — atom storage and the linked-cell data structure
//!
//! The cell method (paper §2.2, §3.1.1) is the substrate every pattern-based
//! n-tuple search runs on: the periodic simulation volume is divided into a
//! lattice of cells with edge ≥ the interaction cutoff, so that every
//! chain-cutoff n-tuple lives on a nearest-neighbour cell chain.
//!
//! * [`AtomStore`] — structure-of-arrays storage for atom ids, species,
//!   positions, velocities, and forces, with the bulk thermodynamic
//!   observables MD needs (kinetic energy, temperature, net momentum).
//! * [`CellLattice`] — the global periodic cell lattice with CSR binning:
//!   `O(N)` rebuild per step, contiguous `&[u32]` atom slices per cell.
//! * [`GhostLattice`] — a rank-local lattice over an owned cell region plus
//!   ghost margins, used by the distributed runtime: owned atoms first,
//!   imported ghosts appended, non-periodic local indexing.
//! * [`CellBins`] — a flat, borrowed view of either lattice's bins, so one
//!   sweep kernel serves both.
//! * [`Species`] — a compact species id with per-species mass lookup.
//! * [`morton_key`] — Z-order keys for cell coordinates; backs the
//!   data-sorted atom layout (`AtomStore::sort_by_cell`) that keeps cell
//!   neighbours adjacent in memory for the batched distance kernels.

#![warn(missing_docs)]

mod bins;
mod ghost;
mod lattice;
mod morton;
mod species;
mod store;

pub use bins::CellBins;
pub use ghost::GhostLattice;
pub use lattice::CellLattice;
pub use morton::morton_key;
pub use species::Species;
pub use store::AtomStore;
