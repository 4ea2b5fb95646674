//! The paper's heterogeneous random graph (§IV-A, "Graphs construction").

use super::{pick_below_max, GraphBuilder};
use crate::graph::Graph;
use rand::Rng;

/// The construction used for every non-scale-free experiment in the paper:
///
/// > "each node has a number of neighbors varying between 1 and a fixed max
/// > value. At the beginning of the construction process, all nodes are
/// > present in the overlay. Nodes are taken one by one to be wired: the
/// > current node first chooses uniformly at random its current number of
/// > neighbors, and fills its view with again uniformly at random selected
/// > nodes as neighbors, that do not already have the max fixed value."
///
/// Because links are bidirectional, nodes keep receiving passive links after
/// their own turn, so the emergent average degree exceeds the mean target of
/// `(1+max)/2`; with `max = 10` the paper (and this implementation) lands at
/// ≈ 7.2 — above `log10(N)`, which keeps the overlay connected w.h.p.
#[derive(Clone, Copy, Debug)]
pub struct HeterogeneousRandom {
    /// Number of nodes.
    pub n: usize,
    /// Maximum degree (paper: 10).
    pub max_degree: usize,
}

impl HeterogeneousRandom {
    /// Creates the builder. `max_degree` must be ≥ 1.
    pub fn new(n: usize, max_degree: usize) -> Self {
        assert!(max_degree >= 1, "max_degree must be at least 1");
        HeterogeneousRandom { n, max_degree }
    }

    /// The paper's configuration: max 10 neighbors.
    pub fn paper(n: usize) -> Self {
        Self::new(n, 10)
    }
}

impl GraphBuilder for HeterogeneousRandom {
    fn build<R: Rng + ?Sized>(&self, rng: &mut R) -> Graph {
        let mut g = Graph::with_nodes(self.n);
        // No degree exceeds `max_degree`: reserving every region at that
        // size, in slot order, means no link relocates one, and the
        // closing compaction slides them down in place.
        let cap = self.max_degree.min(self.n.saturating_sub(1));
        g.reserve_arena(self.n * cap);
        for i in 0..self.n {
            g.reserve_neighbors(crate::NodeId::from_index(i), cap);
        }
        for i in 0..self.n {
            let node = crate::NodeId::from_index(i);
            let target = rng.gen_range(1..=self.max_degree);
            // The node may already have gained passive links from earlier
            // nodes' turns; only top up to its own target.
            while g.degree(node) < target {
                match pick_below_max(&g, node, self.max_degree, rng) {
                    Some(partner) => {
                        g.add_edge(node, partner);
                    }
                    None => break, // everyone else saturated; paper's process also stops here
                }
            }
        }
        g.compact_adjacency();
        g
    }

    fn name(&self) -> &'static str {
        "heterogeneous-random"
    }
}

/// Wires one *new* node into an existing overlay using the same rule as the
/// construction: uniform target degree in `1..=max_degree`, partners chosen
/// uniformly among below-max nodes. Used for arrivals under churn.
///
/// The node's arena region is reserved at `max_degree` entries (at most one
/// per other alive node) before any partner is picked: its own links and
/// the passive links later arrivals add stay in place. The reservation
/// draws nothing, so the wiring is the same draw for draw.
///
/// The partner search's first draws are uniform alive nodes from `rng`
/// itself, so a clone of the stream names them in advance: their lists
/// are read ahead ([`Graph::read_ahead`]) before the search starts. The
/// clone is dropped; `rng` advances exactly as without it.
pub fn wire_new_node<R: Rng + Clone>(
    g: &mut Graph,
    max_degree: usize,
    rng: &mut R,
) -> crate::NodeId {
    let node = g.add_node();
    g.reserve_neighbors(node, max_degree.min(g.alive_count() - 1));
    let target = rng.gen_range(1..=max_degree);
    let mut ahead = rng.clone();
    for _ in 0..=target {
        if let Some(cand) = g.random_alive(&mut ahead) {
            g.read_ahead(cand);
        }
    }
    while g.degree(node) < target {
        match pick_below_max(g, node, max_degree, rng) {
            Some(partner) => g.add_vetted_edge(node, partner),
            None => break,
        }
    }
    node
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn respects_max_degree() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = HeterogeneousRandom::new(2_000, 10).build(&mut rng);
        g.check_invariants().unwrap();
        for n in g.alive_nodes() {
            assert!(g.degree(n) <= 10, "degree {} exceeds max", g.degree(n));
        }
    }

    #[test]
    fn every_node_gets_at_least_one_link() {
        let mut rng = SmallRng::seed_from_u64(2);
        let g = HeterogeneousRandom::new(2_000, 10).build(&mut rng);
        let isolated = g.alive_nodes().filter(|&n| g.degree(n) == 0).count();
        assert_eq!(isolated, 0, "{} isolated nodes", isolated);
    }

    #[test]
    fn average_degree_matches_paper() {
        // Paper §IV-A: max 10 neighbors leads "in both overlay sizes to an
        // average of approximatively 7.2".
        let mut rng = SmallRng::seed_from_u64(3);
        let g = HeterogeneousRandom::paper(20_000).build(&mut rng);
        let avg = 2.0 * g.edge_count() as f64 / g.alive_count() as f64;
        assert!(
            (6.5..8.0).contains(&avg),
            "average degree {avg} outside paper range"
        );
    }

    #[test]
    fn wire_new_node_links_into_overlay() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut g = HeterogeneousRandom::new(500, 10).build(&mut rng);
        let before = g.alive_count();
        let n = wire_new_node(&mut g, 10, &mut rng);
        assert_eq!(g.alive_count(), before + 1);
        assert!(g.degree(n) >= 1);
        assert!(g.degree(n) <= 10);
        g.check_invariants().unwrap();
    }

    #[test]
    fn tiny_overlays_build() {
        let mut rng = SmallRng::seed_from_u64(5);
        for n in [1usize, 2, 3, 5] {
            let g = HeterogeneousRandom::new(n, 10).build(&mut rng);
            g.check_invariants().unwrap();
            assert_eq!(g.alive_count(), n);
        }
    }
}
