//! The op vocabulary workload models emit.

use p2p_overlay::churn::{ChurnDelta, ChurnOp};
use p2p_overlay::{Graph, NodeId};
use rand::Rng;

/// One churn action a workload model emits for a step.
///
/// [`Churn`](WorkloadOp::Churn) covers the count-based vocabulary the
/// paper's schedules use (uniform victims drawn at application time);
/// [`LeaveNodes`](WorkloadOp::LeaveNodes) names its victims — the form
/// session-tracking models need, where *which* node departs is decided by
/// its assigned lifetime, not by a draw at departure time.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadOp {
    /// A count-based op; victims/wiring resolved at application time.
    Churn(ChurnOp),
    /// Targeted departures: exactly these nodes leave (already-dead ids are
    /// skipped, so independently generated ops compose).
    LeaveNodes(Vec<NodeId>),
}

impl WorkloadOp {
    /// Applies the op, appending joined/left identities to `delta`.
    ///
    /// Draws (victim sampling, join wiring) come from `rng` — the run's
    /// *main* stream, exactly like scheduled ops, which is what makes a
    /// recorded op sequence replayable without the generating model.
    pub fn apply<R: Rng + Clone>(&self, g: &mut Graph, rng: &mut R, delta: &mut ChurnDelta) {
        let mut scratch = Vec::new();
        self.apply_with(g, rng, delta, &mut scratch);
    }

    /// [`apply`](Self::apply) with a caller-owned scratch buffer for the
    /// departing nodes' neighbor lists: drivers that apply a stream of ops
    /// every step reuse one buffer instead of allocating per op.
    pub fn apply_with<R: Rng + Clone>(
        &self,
        g: &mut Graph,
        rng: &mut R,
        delta: &mut ChurnDelta,
        scratch: &mut Vec<NodeId>,
    ) {
        match self {
            WorkloadOp::Churn(op) => op.apply_into(g, rng, delta),
            WorkloadOp::LeaveNodes(nodes) => {
                for (i, &n) in nodes.iter().enumerate() {
                    // Read ahead of the removals: the list of the victim
                    // after next, and the lists the next victim's removal
                    // will scan.
                    if let Some(&later) = nodes.get(i + 2) {
                        g.read_ahead(later);
                    }
                    if let Some(&next) = nodes.get(i + 1).filter(|&&v| g.is_alive(v)) {
                        for &w in g.neighbors(next) {
                            g.read_ahead(w);
                        }
                    }
                    if g.remove_node_with(n, scratch) {
                        delta.left.push(n);
                    }
                }
            }
        }
    }

    /// Net population change if the op executed in full (targeted
    /// departures may remove fewer if some victims are already dead).
    pub fn nominal_net(&self) -> i64 {
        match self {
            WorkloadOp::Churn(ChurnOp::Join { count, .. }) => *count as i64,
            WorkloadOp::Churn(ChurnOp::Leave { count }) => -(*count as i64),
            // Fraction of the then-current size: unknown statically.
            WorkloadOp::Churn(ChurnOp::Catastrophe { .. }) => 0,
            WorkloadOp::LeaveNodes(nodes) => -(nodes.len() as i64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_overlay::builder::{GraphBuilder, HeterogeneousRandom};
    use p2p_sim::rng::small_rng;

    #[test]
    fn leave_nodes_removes_exactly_the_named_alive_nodes() {
        let mut rng = small_rng(11);
        let mut g = HeterogeneousRandom::paper(100).build(&mut rng);
        let mut delta = ChurnDelta::default();
        let targets = vec![NodeId(3), NodeId(40), NodeId(77)];
        WorkloadOp::LeaveNodes(targets.clone()).apply(&mut g, &mut rng, &mut delta);
        assert_eq!(delta.left, targets);
        assert_eq!(g.alive_count(), 97);
        // Re-applying skips the now-dead ids without error or delta noise.
        delta.clear();
        WorkloadOp::LeaveNodes(targets).apply(&mut g, &mut rng, &mut delta);
        assert!(delta.left.is_empty());
        assert_eq!(g.alive_count(), 97);
        g.check_invariants().unwrap();
    }

    #[test]
    fn targeted_departures_draw_nothing_from_the_stream() {
        // Replay correctness hinges on this: a LeaveNodes op must leave the
        // application stream untouched.
        let mut rng_a = small_rng(12);
        let mut rng_b = small_rng(12);
        let mut g = HeterogeneousRandom::paper(50).build(&mut small_rng(13));
        let mut delta = ChurnDelta::default();
        WorkloadOp::LeaveNodes(vec![NodeId(1), NodeId(2)]).apply(&mut g, &mut rng_a, &mut delta);
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
    }

    #[test]
    fn apply_with_matches_apply() {
        let build = || HeterogeneousRandom::paper(80).build(&mut small_rng(14));
        let mut a = build();
        let mut b = build();
        let mut rng_a = small_rng(15);
        let mut rng_b = small_rng(15);
        let mut delta_a = ChurnDelta::default();
        let mut delta_b = ChurnDelta::default();
        let mut scratch = Vec::new();
        let ops = [
            WorkloadOp::LeaveNodes(vec![NodeId(5), NodeId(9), NodeId(5)]),
            WorkloadOp::Churn(ChurnOp::Leave { count: 7 }),
            WorkloadOp::Churn(ChurnOp::Join {
                count: 4,
                max_degree: 10,
            }),
        ];
        for op in &ops {
            op.apply(&mut a, &mut rng_a, &mut delta_a);
            op.apply_with(&mut b, &mut rng_b, &mut delta_b, &mut scratch);
        }
        assert_eq!(delta_a, delta_b);
        assert_eq!(a.alive_count(), b.alive_count());
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
    }

    #[test]
    fn nominal_net_signs() {
        assert_eq!(
            WorkloadOp::Churn(ChurnOp::Join {
                count: 4,
                max_degree: 10
            })
            .nominal_net(),
            4
        );
        assert_eq!(WorkloadOp::LeaveNodes(vec![NodeId(0)]).nominal_net(), -1);
    }
}
