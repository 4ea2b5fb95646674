//! Erdős–Rényi random graphs (test topology).

use super::GraphBuilder;
use crate::graph::Graph;
use crate::node::NodeId;
use rand::Rng;

/// `G(n, m)`: `n` nodes and exactly `m` distinct uniform random edges.
///
/// Not used by the paper itself, but a handy calibration topology: its
/// mixing/expansion properties are textbook, which makes it the cleanest
/// substrate for validating the random-walk sampler.
#[derive(Clone, Copy, Debug)]
pub struct ErdosRenyi {
    /// Number of nodes.
    pub n: usize,
    /// Number of edges.
    pub m: usize,
}

impl ErdosRenyi {
    /// Creates a `G(n, m)` builder.
    ///
    /// # Panics
    /// Panics if `m` exceeds the number of possible edges.
    pub fn new(n: usize, m: usize) -> Self {
        let max = n.saturating_mul(n.saturating_sub(1)) / 2;
        assert!(m <= max, "{m} edges requested but only {max} possible");
        ErdosRenyi { n, m }
    }

    /// `G(n, p)` flavor: expected degree `avg_degree`.
    pub fn with_avg_degree(n: usize, avg_degree: f64) -> Self {
        let m = (n as f64 * avg_degree / 2.0).round() as usize;
        Self::new(n, m)
    }
}

impl GraphBuilder for ErdosRenyi {
    fn build<R: Rng + ?Sized>(&self, rng: &mut R) -> Graph {
        let mut g = Graph::with_nodes(self.n);
        let mut placed = 0;
        while placed < self.m {
            let a = NodeId(rng.gen_range(0..self.n as u32));
            let b = NodeId(rng.gen_range(0..self.n as u32));
            if g.add_edge(a, b) {
                placed += 1;
            }
        }
        g.compact_adjacency();
        g
    }

    fn name(&self) -> &'static str {
        "erdos-renyi"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn exact_edge_count() {
        let mut rng = SmallRng::seed_from_u64(31);
        let g = ErdosRenyi::new(500, 2_000).build(&mut rng);
        g.check_invariants().unwrap();
        assert_eq!(g.edge_count(), 2_000);
    }

    #[test]
    fn avg_degree_constructor() {
        let mut rng = SmallRng::seed_from_u64(32);
        let g = ErdosRenyi::with_avg_degree(1_000, 8.0).build(&mut rng);
        let avg = 2.0 * g.edge_count() as f64 / g.alive_count() as f64;
        assert!((avg - 8.0).abs() < 0.1, "avg degree {avg}");
    }

    #[test]
    #[should_panic(expected = "possible")]
    fn rejects_impossible_edge_count() {
        ErdosRenyi::new(3, 10);
    }
}
