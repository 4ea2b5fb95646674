//! Node churn: arrivals, departures, catastrophic failures.
//!
//! Semantics follow §IV-A/§IV-D of the paper:
//!
//! * departures remove all of the victim's links; survivors do **not**
//!   re-wire ("nodes that have lost one or several neighbors do not create
//!   new links with other nodes") — so sustained departures degrade overlay
//!   connectivity, which is what breaks Aggregation past ~30% losses;
//! * arrivals wire like the original construction (uniform target degree,
//!   below-max partners).

use crate::builder::wire_new_node;
use crate::graph::Graph;
use crate::node::NodeId;
use rand::Rng;

/// A single churn action applied atomically to the overlay.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ChurnOp {
    /// `count` new nodes join, each wired with `max_degree`.
    Join { count: usize, max_degree: usize },
    /// `count` alive nodes, chosen uniformly, leave (no-repair).
    Leave { count: usize },
    /// A catastrophic failure: `fraction` of the *current* alive nodes die
    /// simultaneously (paper: −25%).
    Catastrophe { fraction: f64 },
}

impl ChurnOp {
    /// Applies the operation; returns how many nodes joined (+) or left (−).
    pub fn apply<R: Rng + Clone>(&self, g: &mut Graph, rng: &mut R) -> i64 {
        match *self {
            ChurnOp::Join { count, max_degree } => {
                join_nodes(g, count, max_degree, rng);
                count as i64
            }
            ChurnOp::Leave { count } => -(remove_random_nodes(g, count, rng).len() as i64),
            ChurnOp::Catastrophe { fraction } => {
                -(catastrophic_failure(g, fraction, rng).len() as i64)
            }
        }
    }

    /// [`apply`](Self::apply) with identity tracking: joined node ids are
    /// appended to `delta.joined` and victims to `delta.left`, so workload
    /// models can maintain per-node session state across arbitrary churn.
    /// Consumes exactly the same RNG draws as `apply`.
    pub fn apply_into<R: Rng + Clone>(&self, g: &mut Graph, rng: &mut R, delta: &mut ChurnDelta) {
        match *self {
            ChurnOp::Join { count, max_degree } => {
                // Collect the actual minted ids (identical draws to
                // `join_nodes`): under slot reuse an arrival may re-let a
                // dead slot, so "the new slots" is not a range.
                for _ in 0..count {
                    delta.joined.push(wire_new_node(g, max_degree, rng));
                }
            }
            ChurnOp::Leave { count } => {
                delta.left.extend(remove_random_nodes(g, count, rng));
            }
            ChurnOp::Catastrophe { fraction } => {
                delta.left.extend(catastrophic_failure(g, fraction, rng));
            }
        }
    }
}

/// The identities a batch of churn ops touched: which nodes joined and which
/// left, in application order. Produced by [`ChurnOp::apply_into`] and
/// consumed by workload models that track per-node session state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChurnDelta {
    /// Nodes that joined, in wiring order.
    pub joined: Vec<NodeId>,
    /// Nodes that departed (uniform victims, catastrophe victims, or
    /// targeted departures), in removal order.
    pub left: Vec<NodeId>,
}

impl ChurnDelta {
    /// Clears both lists, keeping their allocations.
    pub fn clear(&mut self) {
        self.joined.clear();
        self.left.clear();
    }

    /// Net population change of the batch.
    pub fn net(&self) -> i64 {
        self.joined.len() as i64 - self.left.len() as i64
    }
}

/// Adds `count` nodes, each wired into the overlay like the paper's
/// construction process with the given `max_degree`.
pub fn join_nodes<R: Rng + Clone>(g: &mut Graph, count: usize, max_degree: usize, rng: &mut R) {
    for _ in 0..count {
        wire_new_node(g, max_degree, rng);
    }
}

/// Removes up to `count` uniformly chosen alive nodes (bounded by the
/// current population). Returns the victims' ids in removal order, so
/// callers — workload models above all — can track per-node session state.
///
/// This is the churn hot path: one scratch buffer absorbs every victim's
/// neighbor list ([`Graph::remove_node_with`]), so a catastrophe removing
/// tens of thousands of nodes performs one allocation for the victim list
/// and none per removal.
pub fn remove_random_nodes<R: Rng + ?Sized>(
    g: &mut Graph,
    count: usize,
    rng: &mut R,
) -> Vec<NodeId> {
    let count = count.min(g.alive_count());
    let mut victims = Vec::with_capacity(count);
    let mut scratch = Vec::new();
    for _ in 0..count {
        let victim = g
            .random_alive(rng)
            .expect("count bounded by alive population");
        g.remove_node_with(victim, &mut scratch);
        victims.push(victim);
    }
    victims
}

/// Kills `fraction` (rounded) of the current alive population at once.
/// Returns the victims' ids in removal order.
pub fn catastrophic_failure<R: Rng + ?Sized>(
    g: &mut Graph,
    fraction: f64,
    rng: &mut R,
) -> Vec<NodeId> {
    assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
    let victims = (g.alive_count() as f64 * fraction).round() as usize;
    remove_random_nodes(g, victims, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{GraphBuilder, HeterogeneousRandom};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn overlay(n: usize, seed: u64) -> (Graph, SmallRng) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = HeterogeneousRandom::paper(n).build(&mut rng);
        (g, rng)
    }

    #[test]
    fn join_grows_population_and_stays_valid() {
        let (mut g, mut rng) = overlay(500, 51);
        join_nodes(&mut g, 100, 10, &mut rng);
        assert_eq!(g.alive_count(), 600);
        g.check_invariants().unwrap();
    }

    #[test]
    fn leave_shrinks_population_no_repair() {
        let (mut g, mut rng) = overlay(500, 52);
        let edges_before = g.edge_count();
        let removed = remove_random_nodes(&mut g, 200, &mut rng);
        assert_eq!(removed.len(), 200);
        assert_eq!(g.alive_count(), 300);
        assert!(g.edge_count() < edges_before);
        // The returned ids are the actual victims: all dead, all distinct.
        for &v in &removed {
            assert!(!g.is_alive(v));
        }
        let mut dedup = removed.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), removed.len(), "victims must be distinct");
        g.check_invariants().unwrap();
    }

    #[test]
    fn leave_caps_at_population() {
        let (mut g, mut rng) = overlay(50, 53);
        let removed = remove_random_nodes(&mut g, 1_000, &mut rng);
        assert_eq!(removed.len(), 50);
        assert_eq!(g.alive_count(), 0);
    }

    #[test]
    fn catastrophe_removes_fraction_of_current_size() {
        let (mut g, mut rng) = overlay(1_000, 54);
        let removed = catastrophic_failure(&mut g, 0.25, &mut rng);
        assert_eq!(removed.len(), 250);
        assert_eq!(g.alive_count(), 750);
        // a second -25% applies to the *current* size
        let removed = catastrophic_failure(&mut g, 0.25, &mut rng);
        assert_eq!(removed.len(), 188); // round(750 * 0.25)
        g.check_invariants().unwrap();
    }

    #[test]
    fn apply_into_tracks_identities_and_matches_apply() {
        // Same seed: apply and apply_into must consume identical draws and
        // produce identical overlays, with the delta naming every id.
        let (mut a, mut rng_a) = overlay(400, 58);
        let (mut b, mut rng_b) = overlay(400, 58);
        let ops = [
            ChurnOp::Leave { count: 60 },
            ChurnOp::Join {
                count: 25,
                max_degree: 10,
            },
            ChurnOp::Catastrophe { fraction: 0.25 },
        ];
        let mut delta = ChurnDelta::default();
        let mut net = 0i64;
        for op in &ops {
            net += op.apply(&mut a, &mut rng_a);
            op.apply_into(&mut b, &mut rng_b, &mut delta);
        }
        assert_eq!(delta.net(), net);
        assert_eq!(delta.joined.len(), 25);
        assert_eq!(delta.left.len(), 60 + 91); // round(365 * 0.25) = 91
        assert_eq!(a.alive_count(), b.alive_count());
        assert_eq!(a.edge_count(), b.edge_count());
        // Joined ids are the new slots; a joiner may later die (the final
        // catastrophe draws uniformly), so "alive" is not guaranteed — but
        // anyone not named in `left` must still be alive.
        for &j in &delta.joined {
            assert!(j.index() >= 400 && j.index() < b.num_slots());
            if !delta.left.contains(&j) {
                assert!(b.is_alive(j));
            }
        }
        for &l in &delta.left {
            assert!(!b.is_alive(l));
        }
        delta.clear();
        assert!(delta.joined.is_empty() && delta.left.is_empty());
        b.check_invariants().unwrap();
    }

    #[test]
    fn churn_op_reports_net_change() {
        let (mut g, mut rng) = overlay(400, 55);
        assert_eq!(
            ChurnOp::Join {
                count: 40,
                max_degree: 10
            }
            .apply(&mut g, &mut rng),
            40
        );
        assert_eq!(ChurnOp::Leave { count: 140 }.apply(&mut g, &mut rng), -140);
        assert_eq!(
            ChurnOp::Catastrophe { fraction: 0.5 }.apply(&mut g, &mut rng),
            -150
        );
        assert_eq!(g.alive_count(), 150);
    }
}
