//! Directed social-network graphs for influence maximization.
//!
//! The influence-maximization algorithms in this workspace traverse a graph
//! in two directions: forward Monte Carlo simulation walks *out*-edges,
//! while reverse-reachable (RR) set sampling walks *in*-edges of the
//! transpose graph `G^T` (Definition 1 of the paper). [`Graph`] therefore
//! stores both adjacency directions as CSR (compressed sparse row) arrays
//! with edge probabilities kept CSR-aligned, so both traversals are cache
//! friendly and allocation free.
//!
//! The crate also provides:
//!
//! - [`GraphBuilder`] — incremental edge-list construction with dedup and
//!   self-loop removal;
//! - [`weights`] — the edge-probability models used in the paper's §7.1
//!   (weighted-cascade `1/indeg`, constant, trivalency, normalised LT
//!   weights);
//! - [`gen`] — deterministic synthetic generators (Erdős–Rényi G(n,m),
//!   directed Barabási–Albert, Watts–Strogatz, power-law configuration
//!   model) used as stand-ins for the paper's datasets;
//! - [`io`] — a SNAP-style whitespace edge-list reader/writer, plus
//!   [`io::load_graph`] which transparently dispatches between text and
//!   binary inputs;
//! - [`snapshot`] — versioned, checksummed binary graph snapshots
//!   (`.timg`): the heap-oriented v1 layout plus the page-aligned,
//!   mmap-able v2 layout;
//! - [`MmapCsr`] / [`GraphStore`] — zero-copy out-of-core serving: a v2
//!   snapshot mapped read-only behind the same [`CsrAccess`] trait the
//!   heap [`Graph`] implements, dispatched once per operation through a
//!   backing-agnostic store handle.

pub mod analysis;
mod builder;
pub mod catalog;
mod csr;
mod error;
pub mod gen;
pub mod io;
pub mod mmap;
pub mod snapshot;
mod store;
pub mod weights;

#[cfg(test)]
#[path = "../tests/fixtures/v1.rs"]
mod v1_fixture;

pub use builder::GraphBuilder;
pub use csr::{CsrAccess, DegreeStats, Graph};
pub use error::GraphError;
pub use mmap::{Mmap, MmapCsr};
pub use store::{CsrView, GraphStore};

/// A node identifier. Dense in `[0, n)`.
pub type NodeId = u32;
