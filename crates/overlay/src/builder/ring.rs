//! Ring lattices and Watts–Strogatz small worlds (test topologies).

use super::GraphBuilder;
use crate::graph::Graph;
use crate::node::NodeId;
use rand::Rng;

/// A ring where each node links to its `k/2` nearest neighbors on each side.
///
/// The worst topology for random-walk mixing (diameter Θ(n/k)) — used in
/// tests to show how walk budget `T` must grow on poorly-expanding graphs,
/// the caveat §III-A raises ("expansion properties of the graph influence how
/// large T should be selected").
#[derive(Clone, Copy, Debug)]
pub struct RingLattice {
    /// Number of nodes.
    pub n: usize,
    /// Even number of lattice links per node.
    pub k: usize,
}

impl RingLattice {
    /// Creates the builder. `k` must be even, positive and `< n`.
    pub fn new(n: usize, k: usize) -> Self {
        assert!(k >= 2 && k.is_multiple_of(2), "k must be even and >= 2");
        assert!(k < n, "k must be smaller than n");
        RingLattice { n, k }
    }
}

impl GraphBuilder for RingLattice {
    fn build<R: Rng + ?Sized>(&self, _rng: &mut R) -> Graph {
        let mut g = Graph::with_nodes(self.n);
        for i in 0..self.n {
            for d in 1..=(self.k / 2) {
                let j = (i + d) % self.n;
                g.add_edge(NodeId::from_index(i), NodeId::from_index(j));
            }
        }
        g.compact_adjacency();
        g
    }

    fn name(&self) -> &'static str {
        "ring-lattice"
    }
}

/// Watts–Strogatz small world: a [`RingLattice`] whose links are re-wired to
/// a uniform random endpoint with probability `beta`.
#[derive(Clone, Copy, Debug)]
pub struct WattsStrogatz {
    /// Number of nodes.
    pub n: usize,
    /// Even number of lattice links per node.
    pub k: usize,
    /// Re-wiring probability in `[0, 1]`.
    pub beta: f64,
}

impl WattsStrogatz {
    /// Creates the builder; same constraints as [`RingLattice`], plus
    /// `beta ∈ [0, 1]`.
    pub fn new(n: usize, k: usize, beta: f64) -> Self {
        assert!((0.0..=1.0).contains(&beta), "beta must be in [0,1]");
        let _ = RingLattice::new(n, k); // validate n/k
        WattsStrogatz { n, k, beta }
    }
}

impl GraphBuilder for WattsStrogatz {
    fn build<R: Rng + ?Sized>(&self, rng: &mut R) -> Graph {
        let mut g = RingLattice {
            n: self.n,
            k: self.k,
        }
        .build(rng);
        for i in 0..self.n {
            let a = NodeId::from_index(i);
            for d in 1..=(self.k / 2) {
                if rng.gen::<f64>() >= self.beta {
                    continue;
                }
                let b = NodeId::from_index((i + d) % self.n);
                // Re-wire a–b to a–random, keeping degree bounded and simple.
                let target = NodeId(rng.gen_range(0..self.n as u32));
                if target != a && !g.has_edge(a, target) && g.remove_edge(a, b) {
                    g.add_edge(a, target);
                }
            }
        }
        g.compact_adjacency();
        g
    }

    fn name(&self) -> &'static str {
        "watts-strogatz"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn ring_is_k_regular_and_connected() {
        let mut rng = SmallRng::seed_from_u64(41);
        let g = RingLattice::new(100, 4).build(&mut rng);
        g.check_invariants().unwrap();
        for n in g.alive_nodes() {
            assert_eq!(g.degree(n), 4);
        }
        assert!(connectivity::is_connected(&g));
    }

    #[test]
    fn ws_preserves_edge_count_and_connectivity_mostly() {
        let mut rng = SmallRng::seed_from_u64(42);
        let g = WattsStrogatz::new(500, 6, 0.2).build(&mut rng);
        g.check_invariants().unwrap();
        // Rewiring never creates or destroys edges (only moves endpoints),
        // except when the re-wire target collides and the move is skipped.
        assert_eq!(g.edge_count(), 500 * 3);
    }

    #[test]
    fn ws_beta_zero_is_the_lattice() {
        let mut rng = SmallRng::seed_from_u64(43);
        let ws = WattsStrogatz::new(64, 4, 0.0).build(&mut rng);
        let ring = RingLattice::new(64, 4).build(&mut rng);
        for i in 0..64 {
            let a = NodeId::from_index(i);
            let mut x: Vec<_> = ws.neighbors(a).to_vec();
            let mut y: Vec<_> = ring.neighbors(a).to_vec();
            x.sort_unstable();
            y.sort_unstable();
            assert_eq!(x, y);
        }
    }
}
