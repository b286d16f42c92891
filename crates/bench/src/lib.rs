//! Shared plumbing for the experiment harness (`experiments` binary) and
//! the criterion benches.
//!
//! Every figure/table of the paper maps to one harness subcommand; the
//! `experiments` binary's module docs list them.

pub mod json;

use tim_diffusion::{IndependentCascade, LinearThreshold};
use tim_eval::Dataset;
use tim_graph::{weights, Graph};

/// Which propagation model an experiment runs under (§7.1 settings).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// IC with weighted-cascade probabilities `1/indeg`.
    Ic,
    /// LT with random per-node-normalised weights.
    Lt,
}

impl Model {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Model::Ic => "IC",
            Model::Lt => "LT",
        }
    }

    /// The IC instance (panics if this is the LT variant) — helper for
    /// monomorphised call sites.
    pub fn ic(&self) -> IndependentCascade {
        assert_eq!(*self, Model::Ic);
        IndependentCascade
    }

    /// The LT instance (panics if this is the IC variant).
    pub fn lt(&self) -> LinearThreshold {
        assert_eq!(*self, Model::Lt);
        LinearThreshold
    }
}

/// Builds a dataset stand-in and assigns the §7.1 weights for `model`.
///
/// `scale` of `None` uses the dataset's default scale. The weight seed is
/// fixed so every experiment sees the same weighted graph.
pub fn prepare(dataset: Dataset, scale: Option<f64>, model: Model) -> Graph {
    let scale = scale.unwrap_or_else(|| dataset.default_scale());
    let mut g = dataset.build(scale, 0xDA7A ^ dataset.paper_n());
    match model {
        Model::Ic => weights::assign_weighted_cascade(&mut g),
        Model::Lt => weights::assign_lt_normalized(&mut g, 0x17),
    }
    g
}

/// The paper's k sweep for most figures.
pub fn k_sweep(quick: bool) -> Vec<usize> {
    if quick {
        vec![1, 10, 50]
    } else {
        vec![1, 10, 20, 30, 40, 50]
    }
}

/// The paper's ε sweep for Figure 7.
pub fn eps_sweep(quick: bool) -> Vec<f64> {
    if quick {
        vec![0.2, 0.4]
    } else {
        vec![0.1, 0.2, 0.3, 0.4]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_assigns_model_weights() {
        let g = prepare(Dataset::NetHept, Some(0.05), Model::Ic);
        // WC weights: in-probabilities of any node with in-edges sum to 1.
        let v = (0..g.n() as u32).find(|&v| g.in_degree(v) > 0).unwrap();
        let sum: f64 = g.in_probabilities(v).iter().map(|&p| p as f64).sum();
        assert!((sum - 1.0).abs() < 1e-4);
    }

    #[test]
    fn prepare_is_deterministic() {
        let a = prepare(Dataset::Epinions, Some(0.02), Model::Lt);
        let b = prepare(Dataset::Epinions, Some(0.02), Model::Lt);
        assert_eq!(a.m(), b.m());
    }

    #[test]
    fn sweeps_match_paper_ranges() {
        assert_eq!(k_sweep(false), vec![1, 10, 20, 30, 40, 50]);
        assert_eq!(eps_sweep(false), vec![0.1, 0.2, 0.3, 0.4]);
        assert!(k_sweep(true).len() < 6);
    }

    #[test]
    fn model_names() {
        assert_eq!(Model::Ic.name(), "IC");
        assert_eq!(Model::Lt.name(), "LT");
    }
}
