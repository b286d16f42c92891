//! **TIM / TIM+** — Two-phase Influence Maximization.
//!
//! This crate implements the paper's contribution: an influence
//! maximization algorithm that returns a `(1 − 1/e − ε)`-approximate
//! seed set with probability at least `1 − n^(−ℓ)` in
//! `O((k + ℓ)(m + n) log n / ε²)` expected time, under any triggering
//! model (Theorems 1–3).
//!
//! Structure, mirroring the paper:
//!
//! | Paper | Module | Entry point |
//! |---|---|---|
//! | Algorithm 2, `KptEstimation` | [`kpt`] | [`kpt::estimate_kpt`] |
//! | Algorithm 3, `RefineKPT` (the TIM+ heuristic, §4.1) | [`refine`] | [`refine::refine_kpt`] |
//! | Algorithm 1, `NodeSelection` | [`select`] | [`select::node_selection`] |
//! | λ, θ, ε′, `ln C(n, k)` (Equations 4, 9; §4.1) | [`math`] | — |
//! | End-to-end drivers (§3.3) | [`tim`] | [`Tim`], [`TimPlus`] |
//!
//! ```
//! use tim_core::TimPlus;
//! use tim_diffusion::IndependentCascade;
//! use tim_graph::{gen, weights};
//!
//! let mut g = gen::barabasi_albert(500, 4, 0.1, 1);
//! weights::assign_weighted_cascade(&mut g);
//! let result = TimPlus::new(IndependentCascade)
//!     .epsilon(0.5)
//!     .seed(7)
//!     .run(&g, 5);
//! assert_eq!(result.seeds.len(), 5);
//! assert!(result.kpt_plus.unwrap() >= result.kpt_star);
//! ```

pub mod imm;
pub mod kpt;
pub mod math;
pub mod parallel;
pub mod refine;
pub mod select;
pub mod tim;

pub use imm::{Imm, ImmResult};
pub use tim::{
    select_stream_seed, GreedyImpl, PhaseTimings, SamplingPlan, Tim, TimPlus, TimResult,
};
