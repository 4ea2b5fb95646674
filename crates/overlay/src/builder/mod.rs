//! Random overlay constructions.
//!
//! The paper's evaluation (§IV-A) uses two topologies:
//!
//! * [`HeterogeneousRandom`] — each node draws a target degree uniformly from
//!   `1..=max` and wires to uniform random partners that are still below
//!   `max`. With `max = 10` this yields the paper's reported average degree
//!   of ≈ 7.2. This is the *worst case* topology the paper standardizes on.
//! * [`BarabasiAlbert`] — scale-free graph with growth and preferential
//!   attachment (Fig 7), 3 links minimum per arriving node.
//!
//! We additionally provide [`ErdosRenyi`], [`RingLattice`] and
//! [`WattsStrogatz`] as extra test topologies, since the algorithms are
//! "generally applicable irrespective of the underlying structure".

mod erdos_renyi;
pub(crate) mod heterogeneous;
mod ring;
mod scale_free;

pub use erdos_renyi::ErdosRenyi;
pub use heterogeneous::{wire_new_node, HeterogeneousRandom};
pub use ring::{RingLattice, WattsStrogatz};
pub use scale_free::BarabasiAlbert;

use crate::graph::Graph;
use rand::Rng;

/// A recipe that constructs an overlay graph from randomness.
pub trait GraphBuilder {
    /// Builds the overlay. Its edge arena is handed over compacted:
    /// slot-ordered, exact-fit regions.
    fn build<R: Rng + ?Sized>(&self, rng: &mut R) -> Graph;

    /// Human-readable topology name (used in experiment reports).
    fn name(&self) -> &'static str;
}

/// Picks an alive partner for `node`, uniformly among nodes with degree
/// `< max_degree`, excluding `node` itself and current neighbors.
///
/// Strategy: rejection-sample a few times (cheap in the common case), then
/// fall back to an exhaustive scan so construction terminates even when only
/// a handful of below-max candidates remain.
pub(crate) fn pick_below_max<R: Rng + ?Sized>(
    graph: &Graph,
    node: crate::NodeId,
    max_degree: usize,
    rng: &mut R,
) -> Option<crate::NodeId> {
    const REJECTION_TRIES: usize = 64;
    for _ in 0..REJECTION_TRIES {
        let cand = graph.random_alive(rng)?;
        if cand != node && graph.degree(cand) < max_degree && !graph.has_edge(node, cand) {
            return Some(cand);
        }
    }
    // Exhaustive fallback: collect all eligible candidates and pick one.
    let eligible: Vec<crate::NodeId> = graph
        .alive_nodes()
        .filter(|&c| c != node && graph.degree(c) < max_degree && !graph.has_edge(node, c))
        .collect();
    if eligible.is_empty() {
        None
    } else {
        Some(eligible[rng.gen_range(0..eligible.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn pick_below_max_respects_constraints() {
        let mut g = Graph::with_nodes(5);
        // Saturate nodes 1 and 2 at degree 2 (max we will use below).
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(1), NodeId(3));
        g.add_edge(NodeId(2), NodeId(4));
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..200 {
            let p = pick_below_max(&g, NodeId(0), 2, &mut rng).unwrap();
            // 1 and 2 are at max degree; 0 is self; so only 3 or 4 qualify.
            assert!(p == NodeId(3) || p == NodeId(4), "got {p:?}");
        }
    }

    #[test]
    fn pick_below_max_exhaustive_fallback() {
        // Only one eligible candidate: rejection sampling will likely miss it,
        // forcing the exhaustive path.
        let mut g = Graph::with_nodes(300);
        for i in 1..299 {
            // saturate nodes 1..299 at degree 1 by pairing them up
            if i % 2 == 1 {
                g.add_edge(NodeId(i), NodeId(i + 1));
            }
        }
        let mut rng = SmallRng::seed_from_u64(5);
        // node 0 and node 299 are the only ones below max degree 1.
        let p = pick_below_max(&g, NodeId(0), 1, &mut rng).unwrap();
        assert_eq!(p, NodeId(299));
    }

    #[test]
    fn pick_below_max_returns_none_when_saturated() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId(1), NodeId(2));
        let mut rng = SmallRng::seed_from_u64(5);
        assert_eq!(pick_below_max(&g, NodeId(0), 1, &mut rng), None);
    }
}
