//! Synthetic stand-ins for the paper's datasets (Table 2).
//!
//! | Paper dataset | n | m | type | avg degree |
//! |---|---|---|---|---|
//! | NetHEPT | 15 K | 31 K | undirected | 4.1 |
//! | Epinions | 76 K | 509 K | directed | 13.4 |
//! | DBLP | 655 K | 2 M | undirected | 6.1 |
//! | LiveJournal | 4.8 M | 69 M | directed | 28.5 |
//! | Twitter | 41.6 M | 1.5 G | directed | 70.5 |
//!
//! The crawls themselves are not redistributable, so each dataset is
//! replaced by a deterministic generator matching its shape: node count,
//! arcs-per-node ratio, heavy-tailed degree distribution, directedness
//! (undirected benchmarks become arc pairs, as in the authors' code).
//! `default_scale` shrinks the largest graphs so the full experiment suite
//! finishes on a laptop; the harness prints the actual n and m used.

use tim_graph::{gen, Graph};

/// One of the paper's five benchmark datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// High-energy-physics collaboration network (undirected).
    NetHept,
    /// Epinions trust network (directed).
    Epinions,
    /// DBLP co-authorship network (undirected).
    Dblp,
    /// LiveJournal friendship network (directed).
    LiveJournal,
    /// Twitter follower network (directed), the paper's billion-edge graph.
    Twitter,
}

impl Dataset {
    /// All five datasets in the paper's Table 2 order.
    pub fn all() -> [Dataset; 5] {
        [
            Dataset::NetHept,
            Dataset::Epinions,
            Dataset::Dblp,
            Dataset::LiveJournal,
            Dataset::Twitter,
        ]
    }

    /// The four "large" datasets of Figures 6–7.
    pub fn large() -> [Dataset; 4] {
        [
            Dataset::Epinions,
            Dataset::Dblp,
            Dataset::LiveJournal,
            Dataset::Twitter,
        ]
    }

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::NetHept => "NetHEPT",
            Dataset::Epinions => "Epinions",
            Dataset::Dblp => "DBLP",
            Dataset::LiveJournal => "LiveJournal",
            Dataset::Twitter => "Twitter",
        }
    }

    /// Node count of the real dataset.
    pub fn paper_n(&self) -> u64 {
        match self {
            Dataset::NetHept => 15_000,
            Dataset::Epinions => 76_000,
            Dataset::Dblp => 655_000,
            Dataset::LiveJournal => 4_800_000,
            Dataset::Twitter => 41_600_000,
        }
    }

    /// Edge count of the real dataset (undirected counted once, as in
    /// Table 2).
    pub fn paper_m(&self) -> u64 {
        match self {
            Dataset::NetHept => 31_000,
            Dataset::Epinions => 509_000,
            Dataset::Dblp => 2_000_000,
            Dataset::LiveJournal => 69_000_000,
            Dataset::Twitter => 1_468_000_000,
        }
    }

    /// Whether the original dataset is undirected.
    pub fn undirected(&self) -> bool {
        matches!(self, Dataset::NetHept | Dataset::Dblp)
    }

    /// Default shrink factor applied to `paper_n` so the whole suite runs
    /// on commodity hardware; 1.0 means full size.
    pub fn default_scale(&self) -> f64 {
        match self {
            Dataset::NetHept => 1.0,
            Dataset::Epinions => 1.0,
            Dataset::Dblp => 0.1,
            Dataset::LiveJournal => 0.01,
            Dataset::Twitter => 0.002,
        }
    }

    /// Builds the stand-in graph at `scale × paper_n` nodes (structure
    /// only; assign a weight model afterwards).
    ///
    /// # Panics
    /// Panics if `scale` is not positive.
    pub fn build(&self, scale: f64, seed: u64) -> Graph {
        assert!(scale > 0.0, "scale must be positive");
        let n = ((self.paper_n() as f64 * scale) as usize).max(1_000);
        match self {
            // Collaboration networks: power-law configuration model,
            // symmetrised. Directed avg degree before symmetrisation is
            // half the paper's Table-2 average degree.
            Dataset::NetHept => {
                let g = gen::powerlaw_configuration(n, 2.6, 2.05, n / 4, seed);
                gen::symmetrize(&g)
            }
            Dataset::Dblp => {
                let g = gen::powerlaw_configuration(n, 2.5, 3.05, n / 4, seed);
                gen::symmetrize(&g)
            }
            // Follower/trust networks: directed preferential attachment
            // with m_per chosen to hit the paper's arcs-per-node ratio.
            Dataset::Epinions => gen::barabasi_albert(n, 6, 0.12, seed),
            Dataset::LiveJournal => gen::barabasi_albert(n, 13, 0.10, seed),
            Dataset::Twitter => gen::barabasi_albert(n, 32, 0.10, seed),
        }
    }

    /// Builds at the dataset's [`default_scale`](Self::default_scale).
    pub fn build_default(&self, seed: u64) -> Graph {
        self.build(self.default_scale(), seed)
    }

    /// Arcs-per-node ratio of the real dataset (undirected edges count
    /// twice), the shape target for the stand-in.
    pub fn paper_arcs_per_node(&self) -> f64 {
        let arcs = if self.undirected() {
            2 * self.paper_m()
        } else {
            self.paper_m()
        };
        arcs as f64 / self.paper_n() as f64
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_five_datasets() {
        assert_eq!(Dataset::all().len(), 5);
        assert_eq!(Dataset::large().len(), 4);
        assert_eq!(Dataset::all()[0].to_string(), "NetHEPT");
    }

    #[test]
    fn nethept_standin_matches_paper_shape() {
        let d = Dataset::NetHept;
        let g = d.build(1.0, 1);
        assert_eq!(g.n(), 15_000);
        let arcs_per_node = g.m() as f64 / g.n() as f64;
        let target = d.paper_arcs_per_node(); // 4.13
        assert!(
            (arcs_per_node - target).abs() / target < 0.25,
            "arcs/node {arcs_per_node} vs paper {target}"
        );
        // Undirected stand-in: every arc has its reverse.
        for (u, v, _) in g.edges().take(500) {
            assert!(g.out_neighbors(v).contains(&u));
        }
    }

    #[test]
    fn epinions_standin_matches_paper_shape() {
        let d = Dataset::Epinions;
        let g = d.build(1.0, 2);
        assert_eq!(g.n(), 76_000);
        let ratio = g.m() as f64 / g.n() as f64;
        let target = d.paper_arcs_per_node(); // 6.7
        assert!(
            (ratio - target).abs() / target < 0.25,
            "arcs/node {ratio} vs paper {target}"
        );
    }

    #[test]
    fn scaled_builds_shrink_node_count() {
        let g = Dataset::Dblp.build(0.02, 3);
        assert_eq!(g.n(), 13_100);
        let ratio = g.m() as f64 / g.n() as f64;
        let target = Dataset::Dblp.paper_arcs_per_node();
        assert!(
            (ratio - target).abs() / target < 0.3,
            "arcs/node {ratio} vs paper {target}"
        );
    }

    #[test]
    fn scale_floor_keeps_graphs_testable() {
        let g = Dataset::Twitter.build(0.000001, 4);
        assert_eq!(g.n(), 1_000);
        assert!(g.m() > 10_000, "Twitter stand-in must stay dense");
    }

    #[test]
    fn builds_are_deterministic() {
        let a = Dataset::LiveJournal.build(0.001, 5);
        let b = Dataset::LiveJournal.build(0.001, 5);
        assert_eq!(a.m(), b.m());
        let ea: Vec<_> = a.edges().take(100).collect();
        let eb: Vec<_> = b.edges().take(100).collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn heavy_tail_present_in_standins() {
        for d in [Dataset::NetHept, Dataset::Epinions] {
            let g = d.build(0.2, 6);
            let stats = g.degree_stats();
            assert!(
                stats.max_in_degree as f64 > 5.0 * stats.avg_degree,
                "{d}: max in-degree {} vs avg {}",
                stats.max_in_degree,
                stats.avg_degree
            );
        }
    }

    #[test]
    fn default_scales_are_laptop_sized() {
        // Summed default-scale node counts stay under 300k.
        let total: usize = Dataset::all()
            .iter()
            .map(|d| ((d.paper_n() as f64 * d.default_scale()) as usize).max(1_000))
            .sum();
        assert!(total < 300_000, "total default nodes {total}");
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_panics() {
        Dataset::NetHept.build(0.0, 1);
    }
}
