//! Barabási–Albert scale-free graphs (growth + preferential attachment).

use super::GraphBuilder;
use crate::graph::Graph;
use crate::node::NodeId;
use rand::Rng;

/// The Barabási–Albert model \[1\] used for Fig 7/8 of the paper: the graph
/// grows one node at a time and each arriving node attaches to `m` distinct
/// existing nodes with probability proportional to their current degree.
///
/// The paper's instance: 100,000 nodes, "3 neighbors min per node" (`m = 3`),
/// which produced max degree 1177 and average degree ≈ 6 (`≈ 2m`).
#[derive(Clone, Copy, Debug)]
pub struct BarabasiAlbert {
    /// Final number of nodes.
    pub n: usize,
    /// Links created by each arriving node (also the seed-clique size).
    pub m: usize,
}

impl BarabasiAlbert {
    /// Creates the builder. Requires `n > m` and `m ≥ 1`.
    pub fn new(n: usize, m: usize) -> Self {
        assert!(m >= 1, "m must be at least 1");
        assert!(n > m, "need more nodes than links per arrival");
        BarabasiAlbert { n, m }
    }

    /// The paper's Fig 7 configuration (minus scale): `m = 3`.
    pub fn paper(n: usize) -> Self {
        Self::new(n, 3)
    }
}

impl GraphBuilder for BarabasiAlbert {
    fn build<R: Rng + ?Sized>(&self, rng: &mut R) -> Graph {
        let mut g = Graph::with_capacity(self.n);
        // `endpoints` holds every half-edge endpoint; sampling a uniform
        // element of it is exactly degree-proportional sampling.
        let mut endpoints: Vec<NodeId> = Vec::with_capacity(2 * self.m * self.n);

        // Seed: a small clique of m+1 nodes so that every seed node has
        // degree ≥ m and preferential attachment has mass to work with.
        let seed = self.m + 1;
        for _ in 0..seed {
            g.add_node();
        }
        for i in 0..seed {
            for j in (i + 1)..seed {
                let (a, b) = (NodeId::from_index(i), NodeId::from_index(j));
                if g.add_edge(a, b) {
                    endpoints.push(a);
                    endpoints.push(b);
                }
            }
        }

        let mut chosen: Vec<NodeId> = Vec::with_capacity(self.m);
        while g.alive_count() < self.n {
            let node = g.add_node();
            chosen.clear();
            // Draw m distinct targets by degree-proportional sampling.
            while chosen.len() < self.m {
                let target = endpoints[rng.gen_range(0..endpoints.len())];
                if target != node && !chosen.contains(&target) {
                    chosen.push(target);
                }
            }
            for &t in &chosen {
                if g.add_edge(node, t) {
                    endpoints.push(node);
                    endpoints.push(t);
                }
            }
        }
        drop(endpoints);
        g.compact_adjacency();
        g
    }

    fn name(&self) -> &'static str {
        "barabasi-albert"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::degree_stats;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn node_and_edge_counts() {
        let mut rng = SmallRng::seed_from_u64(21);
        let b = BarabasiAlbert::new(5_000, 3);
        let g = b.build(&mut rng);
        g.check_invariants().unwrap();
        assert_eq!(g.alive_count(), 5_000);
        // Seed clique has m(m+1)/2 edges; each arrival adds m.
        let expected = 3 * 4 / 2 + (5_000 - 4) * 3;
        assert_eq!(g.edge_count(), expected);
    }

    #[test]
    fn minimum_degree_is_m() {
        let mut rng = SmallRng::seed_from_u64(22);
        let g = BarabasiAlbert::paper(5_000).build(&mut rng);
        let min = g.alive_nodes().map(|n| g.degree(n)).min().unwrap();
        assert_eq!(min, 3, "paper: 3 neighbors min per node");
    }

    #[test]
    fn average_degree_close_to_2m() {
        let mut rng = SmallRng::seed_from_u64(23);
        let g = BarabasiAlbert::paper(10_000).build(&mut rng);
        let avg = degree_stats(&g).mean;
        assert!(
            (5.5..6.5).contains(&avg),
            "avg degree {avg}, paper reports ≈6"
        );
    }

    #[test]
    fn produces_heavy_tail() {
        // A hub should emerge whose degree dwarfs the average — the paper saw
        // max 1177 vs average 6 at 100k nodes.
        let mut rng = SmallRng::seed_from_u64(24);
        let g = BarabasiAlbert::paper(20_000).build(&mut rng);
        let stats = degree_stats(&g);
        assert!(
            stats.max as f64 > 20.0 * stats.mean,
            "max {} not heavy-tailed vs mean {}",
            stats.max,
            stats.mean
        );
    }

    #[test]
    fn power_law_slope_roughly_minus_three() {
        // BA graphs have P(k) ~ k^-3. Fit a slope on the log-log CCDF over a
        // decade and accept a broad band — this guards the distribution shape
        // that Fig 7 plots, not the exact exponent.
        let mut rng = SmallRng::seed_from_u64(25);
        let g = BarabasiAlbert::paper(30_000).build(&mut rng);
        let mut degrees: Vec<usize> = g.alive_nodes().map(|n| g.degree(n)).collect();
        degrees.sort_unstable();
        let n = degrees.len() as f64;
        // CCDF at k = fraction of nodes with degree ≥ k; sample at k=5 and k=50.
        let ccdf = |k: usize| degrees.iter().filter(|&&d| d >= k).count() as f64 / n;
        let (c5, c50) = (ccdf(5), ccdf(50));
        assert!(c5 > 0.0 && c50 > 0.0);
        let slope = (c50.ln() - c5.ln()) / (50f64.ln() - 5f64.ln());
        // CCDF slope for P(k) ~ k^-3 is ≈ -2; accept [-3.0, -1.2].
        assert!((-3.0..-1.2).contains(&slope), "CCDF log-log slope {slope}");
    }
}
