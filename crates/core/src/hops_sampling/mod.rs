//! HopsSampling (§III-B) — the probabilistic-polling candidate.
//!
//! From Kostoulas, Psaltoulis, Gupta, Birman & Demers (\[11\], \[17\]),
//! using the `minHopsReporting` reply heuristic (the variant the paper
//! selected after reproducing both heuristics and consulting the authors).
//!
//! One estimation has two phases:
//!
//! 1. **Spread** ([`gossip_spread`]): the initiator gossips a message
//!    carrying a hop counter (`gossipTo` fan-out, `gossipFor` rounds per
//!    node, nodes mute after hearing the message more than `gossipUntil`
//!    times). Every node remembers the *minimum* hop count it saw — its
//!    believed distance to the initiator.
//! 2. **Poll** ([`poll_replies`]): each reached node replies with
//!    probability 1 if its distance `d` is below `minHopsReporting` `m`, and
//!    with probability `gossipTo^−(d−m)` otherwise. The initiator multiplies
//!    each reply back by the inverse probability and sums.
//!
//! The spread misses a fraction of the overlay (fan-out 2 reaches ≈ 80–90%),
//! and that miss is exactly the *consistent underestimation* the paper
//! observes (§IV-C, §V(o)) — with oracle BFS distances and full reach, the
//! poll is unbiased, which [`HopsSampling::estimate_with_oracle_distances`]
//! lets you verify, reproducing the paper's §V(o) experiment.

mod spread;

pub(crate) use spread::pick_target;
pub use spread::{gossip_spread, SpreadOutcome};

use crate::SizeEstimator;
use p2p_overlay::{connectivity, Graph, NodeId};
use p2p_sim::{MessageCounter, MessageKind};
use rand::rngs::SmallRng;
use rand::Rng;

/// Where a forwarding node draws its gossip targets from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TargetMode {
    /// Uniform random alive peers — the setting of the source papers
    /// \[11\]/\[17\], whose gossip runs over a membership/peer-sampling
    /// substrate. This is the default: it reproduces the coverage (≈80–90%)
    /// and the bounded distance profile behind the paper's Figs 3/4.
    #[default]
    Membership,
    /// Uniform random *overlay neighbors*. Restricting fan-out-2 gossip to a
    /// ≈7-neighbor view makes early extinction likely (≈1/6 of spreads die
    /// near the initiator) and grows a long straggler tail of huge believed
    /// distances whose exponential reply weights destroy the estimator's
    /// variance. The paper-literal reading, kept beside the default so
    /// `spread::tests::neighbor_mode_reaches_fewer_nodes_and_longer_distances`
    /// can assert the difference.
    Neighbors,
}

/// HopsSampling parameters. Defaults are the values used in the paper
/// (§IV-C: "gossipTo = 2, gossipFor = 1, gossipUntil = 1,
/// minHopsReporting = 5").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HopsSamplingConfig {
    /// Gossip fan-out: targets per forwarding turn.
    pub gossip_to: u32,
    /// Forwarding turns a node takes after first hearing the message.
    pub gossip_for: u32,
    /// A node goes silent once it has heard the message more than this many
    /// times.
    pub gossip_until: u32,
    /// Distance threshold below which nodes reply deterministically.
    pub min_hops_reporting: u32,
    /// Where gossip targets come from.
    pub target_mode: TargetMode,
}

impl Default for HopsSamplingConfig {
    fn default() -> Self {
        Self::paper()
    }
}

impl HopsSamplingConfig {
    /// The paper's parameterization.
    pub fn paper() -> Self {
        HopsSamplingConfig {
            gossip_to: 2,
            gossip_for: 1,
            gossip_until: 1,
            min_hops_reporting: 5,
            target_mode: TargetMode::Membership,
        }
    }

    /// Same configuration with another `minHopsReporting` (the §V(m) sweep).
    pub fn with_min_hops(self, m: u32) -> Self {
        HopsSamplingConfig {
            min_hops_reporting: m,
            ..self
        }
    }

    /// Same configuration with overlay-neighbor targets (the ablation mode).
    pub fn with_neighbor_targets(self) -> Self {
        HopsSamplingConfig {
            target_mode: TargetMode::Neighbors,
            ..self
        }
    }
}

/// The HopsSampling size estimator.
#[derive(Clone, Copy, Debug, Default)]
pub struct HopsSampling {
    /// Protocol parameters.
    pub config: HopsSamplingConfig,
}

impl HopsSampling {
    /// The paper's configuration.
    pub fn paper() -> Self {
        HopsSampling {
            config: HopsSamplingConfig::paper(),
        }
    }

    /// Runs one estimation from a specific initiator.
    pub fn estimate_from(
        &self,
        graph: &Graph,
        initiator: NodeId,
        rng: &mut SmallRng,
        msgs: &mut MessageCounter,
    ) -> Option<f64> {
        if !graph.is_alive(initiator) {
            return None;
        }
        let outcome = gossip_spread(graph, initiator, &self.config, rng, msgs);
        Some(poll_replies(
            graph,
            initiator,
            &outcome.min_hops,
            &self.config,
            rng,
            msgs,
        ))
    }

    /// The paper's §V(o) control experiment: run the poll phase with exact
    /// BFS distances handed to every node ("we verified our intuition by
    /// giving the accurate distance from the initiator to all nodes in the
    /// overlay, and the resulting size estimation was correct").
    pub fn estimate_with_oracle_distances(
        &self,
        graph: &Graph,
        initiator: NodeId,
        rng: &mut SmallRng,
        msgs: &mut MessageCounter,
    ) -> Option<f64> {
        if !graph.is_alive(initiator) {
            return None;
        }
        let dist = connectivity::bfs_distances(graph, initiator);
        Some(poll_replies(
            graph,
            initiator,
            &dist,
            &self.config,
            rng,
            msgs,
        ))
    }
}

impl SizeEstimator for HopsSampling {
    fn name(&self) -> &'static str {
        "HopsSampling"
    }

    fn estimate(
        &mut self,
        graph: &Graph,
        rng: &mut SmallRng,
        msgs: &mut MessageCounter,
    ) -> Option<f64> {
        let initiator = graph.random_alive(rng)?;
        self.estimate_from(graph, initiator, rng, msgs)
    }
}

/// The poll phase: probabilistic replies, inverse-probability extrapolation.
///
/// §III-B: *"if hopCount < minHopsReporting, a response is set with
/// probability 1, else the response is sent with probability
/// `1/gossipTo^(hopCount−minHopsReporting)`. For each message count received
/// from nodes at a certain distance, the initiator needs to multiply it by
/// the percentage of peers in the network they represent."*
///
/// `distances[slot]` = believed hop distance (`u32::MAX` = never reached,
/// does not reply). Each actual reply is one [`MessageKind::PollReply`].
/// The initiator counts itself, hence the `1 +`.
pub fn poll_replies(
    graph: &Graph,
    initiator: NodeId,
    distances: &[u32],
    config: &HopsSamplingConfig,
    rng: &mut SmallRng,
    msgs: &mut MessageCounter,
) -> f64 {
    let m = config.min_hops_reporting;
    let base = config.gossip_to as f64;
    let mut sum = 1.0; // the initiator itself
    for node in graph.alive_nodes() {
        if node == initiator {
            continue;
        }
        let d = distances[node.index()];
        if d == u32::MAX {
            continue; // never reached: cannot reply
        }
        let excess = d.saturating_sub(m);
        if excess == 0 {
            msgs.count(MessageKind::PollReply);
            sum += 1.0;
        } else {
            let p = base.powi(-(excess as i32));
            if rng.gen::<f64>() < p {
                msgs.count(MessageKind::PollReply);
                sum += 1.0 / p; // = gossipTo^(d − m)
            }
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_overlay::builder::{GraphBuilder, HeterogeneousRandom};
    use p2p_sim::rng::small_rng;

    #[test]
    fn underestimates_but_reasonable_on_static_overlay() {
        let mut rng = small_rng(200);
        let graph = HeterogeneousRandom::paper(20_000).build(&mut rng);
        let mut hs = HopsSampling::paper();
        let mut msgs = MessageCounter::new();
        let mut qualities = Vec::new();
        for _ in 0..10 {
            let est = hs.estimate(&graph, &mut rng, &mut msgs).unwrap();
            qualities.push(est / 20_000.0);
        }
        let mean = qualities.iter().sum::<f64>() / qualities.len() as f64;
        // Paper: last10runs within 20% of truth, consistently under.
        assert!((0.55..1.15).contains(&mean), "mean quality {mean}");
    }

    #[test]
    fn oracle_distances_remove_the_bias() {
        // §V(o): with exact distances the poll is unbiased.
        let mut rng = small_rng(201);
        let graph = HeterogeneousRandom::paper(20_000).build(&mut rng);
        let hs = HopsSampling::paper();
        let mut msgs = MessageCounter::new();
        let mut mean = 0.0;
        let runs = 10;
        for _ in 0..runs {
            let init = graph.random_alive(&mut rng).unwrap();
            mean += hs
                .estimate_with_oracle_distances(&graph, init, &mut rng, &mut msgs)
                .unwrap();
        }
        mean /= runs as f64;
        let q = mean / 20_000.0;
        assert!((0.9..1.1).contains(&q), "oracle-distance quality {q}");
    }

    #[test]
    fn oracle_is_higher_than_gossip_estimate_on_average() {
        // The gossip spread misses nodes and inflates distances; §V(o) says
        // the miss is the underestimation mechanism. Compare the two modes.
        let mut rng = small_rng(202);
        let graph = HeterogeneousRandom::paper(10_000).build(&mut rng);
        let hs = HopsSampling::paper();
        let mut msgs = MessageCounter::new();
        let (mut g_sum, mut o_sum) = (0.0, 0.0);
        for _ in 0..8 {
            let init = graph.random_alive(&mut rng).unwrap();
            g_sum += hs.estimate_from(&graph, init, &mut rng, &mut msgs).unwrap();
            o_sum += hs
                .estimate_with_oracle_distances(&graph, init, &mut rng, &mut msgs)
                .unwrap();
        }
        assert!(
            g_sum < o_sum,
            "gossip-spread estimate ({g_sum}) should sit below oracle ({o_sum})"
        );
    }

    #[test]
    fn poll_replies_with_exact_distances_on_a_star() {
        // Star: hub initiator, k leaves at distance 1 < minHops → all reply,
        // estimate = k + 1 exactly and deterministically.
        let mut graph = Graph::with_nodes(11);
        for i in 1..11u32 {
            graph.add_edge(NodeId(0), NodeId(i));
        }
        let dist = connectivity::bfs_distances(&graph, NodeId(0));
        let mut rng = small_rng(203);
        let mut msgs = MessageCounter::new();
        let est = poll_replies(
            &graph,
            NodeId(0),
            &dist,
            &HopsSamplingConfig::paper(),
            &mut rng,
            &mut msgs,
        );
        assert_eq!(est, 11.0);
        assert_eq!(msgs.get(MessageKind::PollReply), 10);
    }

    #[test]
    fn far_nodes_reply_with_scaled_weight() {
        // A path 0—1—…—8 with m = 2: node at distance d > 2 replies with
        // probability 2^-(d-2) and weight 2^(d-2); expectation is exact.
        let mut graph = Graph::with_nodes(9);
        for i in 0..8u32 {
            graph.add_edge(NodeId(i), NodeId(i + 1));
        }
        let dist = connectivity::bfs_distances(&graph, NodeId(0));
        let cfg = HopsSamplingConfig::paper().with_min_hops(2);
        let mut rng = small_rng(204);
        let mut msgs = MessageCounter::new();
        let runs = 20_000;
        let mut sum = 0.0;
        for _ in 0..runs {
            sum += poll_replies(&graph, NodeId(0), &dist, &cfg, &mut rng, &mut msgs);
        }
        let mean = sum / runs as f64;
        assert!(
            (8.6..9.4).contains(&mean),
            "unbiased extrapolation should give ≈9, got {mean}"
        );
    }

    #[test]
    fn lower_min_hops_saves_little_and_degrades_accuracy() {
        // §V(m): lowering minHopsReporting "does not significantly reduce
        // the overhead, while degrading accuracy" — the gossip spread
        // dominates the cost, and fewer deterministic replies leave more of
        // the sum to high-weight lottery tickets.
        let mut rng = small_rng(207);
        let graph = HeterogeneousRandom::paper(5_000).build(&mut rng);
        let runs = 200;
        let mut measure = |m: u32| {
            let mut hs = HopsSampling {
                config: HopsSamplingConfig::paper().with_min_hops(m),
            };
            let mut msgs = MessageCounter::new();
            let mut abs_err = 0.0;
            for _ in 0..runs {
                let est = hs.estimate(&graph, &mut rng, &mut msgs).unwrap();
                abs_err += (est / 5_000.0 - 1.0).abs();
            }
            (msgs.total() as f64, abs_err / runs as f64)
        };
        let (cost_2, err_2) = measure(2);
        let (cost_5, err_5) = measure(5);
        assert!(
            cost_2 <= cost_5 && cost_2 > 0.9 * cost_5,
            "m=2 should cost slightly less: {cost_2} vs {cost_5}"
        );
        assert!(
            err_2 > 1.3 * err_5,
            "m=2 should be clearly less accurate: {err_2} vs {err_5}"
        );
    }

    #[test]
    fn dead_initiator_returns_none() {
        let mut graph = Graph::with_nodes(10);
        graph.remove_node(NodeId(0));
        let mut rng = small_rng(205);
        let mut msgs = MessageCounter::new();
        let hs = HopsSampling::paper();
        assert!(hs
            .estimate_from(&graph, NodeId(0), &mut rng, &mut msgs)
            .is_none());
    }

    #[test]
    fn singleton_overlay_estimates_one() {
        let graph = Graph::with_nodes(1);
        let mut rng = small_rng(206);
        let mut msgs = MessageCounter::new();
        let hs = HopsSampling::paper();
        let est = hs
            .estimate_from(&graph, NodeId(0), &mut rng, &mut msgs)
            .unwrap();
        assert_eq!(est, 1.0);
    }
}
