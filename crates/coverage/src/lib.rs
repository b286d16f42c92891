//! Set storage and greedy maximum coverage.
//!
//! Step 2 of RIS/TIM is a **maximum coverage** instance (§2.3): given the
//! sampled RR sets, pick `k` nodes covering as many sets as possible. The
//! classic greedy algorithm achieves the `(1 − 1/e)` factor that, combined
//! with the concentration argument of Lemma 3, yields TIM's
//! `(1 − 1/e − ε)` guarantee (Theorem 1).
//!
//! - [`SetCollection`] — a flat arena of node sets over a universe
//!   `0..n`, with an inverted index (node → sets containing it). The arena
//!   layout is what makes TIM's node-selection phase memory-bound rather
//!   than allocator-bound; its size is exactly what the paper's Figure 12
//!   measures.
//! - [`greedy_max_cover`] — the one greedy solver: a lazy max-heap
//!   (CELF-style; exact for submodular coverage).
//! - [`greedy_max_cover_indexed_stats`] — the same solver plus its
//!   [`EvalStats`] work counters (rounds, gain evaluations, re-pushes).
//!
//! The `&mut` in [`greedy_max_cover`] exists only to build the lazy
//! inverted index; once [`SetCollection::has_inverted_index`] holds, the
//! `*_indexed` entry points solve the same instance through a shared `&`
//! reference — which is what lets `tim_engine`/`tim_server` answer many
//! queries concurrently against one immutable pool.
//!
//! The `*_indexed` entry points are generic over the [`SetsAccess`] backing
//! seam: [`SetCollection`] serves from the heap, [`MmapSets`] serves
//! zero-copy from a mapped `.timp` v2 pool file whose inverted index was
//! persisted at spill time, and [`SetsStore`]/[`SetsView`] carry the
//! dispatch (mirroring `tim_graph::GraphStore`/`CsrView`). Selection
//! never mutates a collection, so a read-only mapping answers the same
//! queries — byte-identically — without loading the pool onto the heap.

mod collection;
mod greedy;
mod mmap_sets;
#[cfg(test)]
mod reference;
mod store;

pub use collection::{build_inverted_index, count_covered_indexed, SetCollection, SetsAccess};
pub use greedy::{
    greedy_max_cover, greedy_max_cover_indexed, greedy_max_cover_indexed_stats, CoverResult,
    EvalStats,
};
pub use mmap_sets::{MmapSets, MmapSetsLayout, SETS_SECTION_COUNT, SETS_SECTION_NAMES};
pub use store::{SetsStore, SetsView};
