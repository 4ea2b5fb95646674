//! Peer sampling primitives.
//!
//! Sample&Collide's correctness "heavily relies on the correctness of the
//! sampling method used" (§III-A). This module isolates the samplers:
//!
//! * [`RandomWalkSampler`] — the continuous-time random walk of Massoulié et
//!   al.: asymptotically *unbiased on arbitrary graphs*, including the
//!   heterogeneous and scale-free overlays of the study;
//! * [`FixedHopSampler`] — a plain uniform-neighbor walk of fixed length,
//!   whose samples are biased towards high-degree nodes (the flaw of earlier
//!   birthday-paradox estimators \[2\]); kept for the bias ablation;
//! * [`OracleSampler`] — true uniform sampling via global knowledge.
//!   Impossible in a real deployment; used to validate the walk sampler and
//!   to isolate estimator error from sampling error.

use p2p_overlay::{Graph, NodeId};
use p2p_sim::{MessageCounter, MessageKind};
use rand::rngs::SmallRng;
use rand::Rng;

/// Something that can produce one sampled peer per call.
pub trait PeerSampler {
    /// Draws one sample starting from `initiator`.
    ///
    /// Charges walk traffic to `msgs`. Returns `None` when sampling is
    /// impossible (isolated initiator, empty overlay).
    fn sample(
        &self,
        graph: &Graph,
        initiator: NodeId,
        rng: &mut SmallRng,
        msgs: &mut MessageCounter,
    ) -> Option<NodeId>;

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

/// The continuous-time random-walk sampler of \[15\] (§III-A):
///
/// > "the initiator node sets a predefined value `T > 0`. This value is then
/// > sent to a neighbor chosen uniformly at random. Each node receiving the
/// > message first picks a random number `U`, uniformly distributed on
/// > `[0,1]`; it then simply decrements `T` by `−log(U)/dᵢ` (`dᵢ` is the
/// > degree of the current node), and forwards the message to a neighbor, if
/// > `T > 0`. Otherwise the current node is the sample node, and it returns
/// > its id to the initiator."
///
/// Each forward (including the initiator's first send) is one
/// [`MessageKind::WalkStep`]; the id return is one
/// [`MessageKind::SampleReply`]. Expected walk length is ≈ `T · d̄` hops
/// (`d̄` = mean degree), ≈ 72 on the paper's overlay at `T = 10`.
///
/// Bias decays as `T` grows, at a rate set by the overlay's expansion; the
/// paper uses `T = 10` as "sufficient for an accurate sampling".
#[derive(Clone, Copy, Debug)]
pub struct RandomWalkSampler {
    /// The walk budget `T`.
    pub timer: f64,
}

impl RandomWalkSampler {
    /// Creates a sampler with walk budget `timer` (must be positive).
    pub fn new(timer: f64) -> Self {
        assert!(timer > 0.0, "walk timer must be positive");
        RandomWalkSampler { timer }
    }

    /// The paper's configuration, `T = 10`.
    pub fn paper() -> Self {
        Self::new(10.0)
    }
}

impl PeerSampler for RandomWalkSampler {
    fn sample(
        &self,
        graph: &Graph,
        initiator: NodeId,
        rng: &mut SmallRng,
        msgs: &mut MessageCounter,
    ) -> Option<NodeId> {
        let mut current = graph.random_neighbor(initiator, rng)?;
        msgs.count(MessageKind::WalkStep);
        let mut t = self.timer;
        loop {
            let degree = graph.degree(current);
            debug_assert!(degree >= 1, "walk reached an unlinked node");
            // U ∈ (0, 1]: −ln(U)/d is an Exp(d) holding time.
            let u: f64 = 1.0 - rng.gen::<f64>();
            t -= -u.ln() / degree as f64;
            if t <= 0.0 {
                break;
            }
            current = graph
                .random_neighbor(current, rng)
                .expect("node with degree >= 1 has a neighbor");
            msgs.count(MessageKind::WalkStep);
        }
        msgs.count(MessageKind::SampleReply);
        Some(current)
    }

    fn name(&self) -> &'static str {
        "ctrw"
    }
}

/// A fixed-length uniform-neighbor walk: take `hops` steps, return the
/// endpoint.
///
/// On graphs with heterogeneous degrees the endpoint distribution converges
/// to the *degree-biased* stationary distribution, over-sampling hubs — the
/// weakness of the original inverted-birthday-paradox scheme \[2\] that
/// Sample&Collide fixes (`tests::ctrw_beats_fixed_hop_on_scale_free`
/// measures the gap).
#[derive(Clone, Copy, Debug)]
pub struct FixedHopSampler {
    /// Number of uniform-neighbor hops per sample.
    pub hops: usize,
}

impl FixedHopSampler {
    /// Creates a sampler walking `hops` steps (must be ≥ 1).
    pub fn new(hops: usize) -> Self {
        assert!(hops >= 1, "need at least one hop");
        FixedHopSampler { hops }
    }
}

impl PeerSampler for FixedHopSampler {
    fn sample(
        &self,
        graph: &Graph,
        initiator: NodeId,
        rng: &mut SmallRng,
        msgs: &mut MessageCounter,
    ) -> Option<NodeId> {
        let mut current = graph.random_neighbor(initiator, rng)?;
        msgs.count(MessageKind::WalkStep);
        for _ in 1..self.hops {
            current = graph
                .random_neighbor(current, rng)
                .expect("reached node has at least the incoming link");
            msgs.count(MessageKind::WalkStep);
        }
        msgs.count(MessageKind::SampleReply);
        Some(current)
    }

    fn name(&self) -> &'static str {
        "fixed-hop"
    }
}

/// True uniform sampling over alive nodes via global knowledge.
///
/// A validation instrument only: it cannot exist in a decentralized system.
/// Costs one [`MessageKind::SampleReply`] per sample so estimator-only
/// overhead remains comparable.
#[derive(Clone, Copy, Debug, Default)]
pub struct OracleSampler;

impl PeerSampler for OracleSampler {
    fn sample(
        &self,
        graph: &Graph,
        _initiator: NodeId,
        rng: &mut SmallRng,
        msgs: &mut MessageCounter,
    ) -> Option<NodeId> {
        let n = graph.random_alive(rng)?;
        msgs.count(MessageKind::SampleReply);
        Some(n)
    }

    fn name(&self) -> &'static str {
        "oracle"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_overlay::builder::{BarabasiAlbert, GraphBuilder, HeterogeneousRandom};
    use p2p_sim::rng::small_rng;

    /// Chi-square-ish uniformity check: sample many times from a fixed
    /// initiator and verify per-node frequencies stay near 1/N.
    fn sampling_spread(
        graph: &Graph,
        sampler: &impl PeerSampler,
        draws: usize,
        seed: u64,
    ) -> Vec<f64> {
        let mut rng = small_rng(seed);
        let mut msgs = MessageCounter::new();
        let initiator = graph.random_alive(&mut rng).unwrap();
        let mut counts = vec![0u32; graph.num_slots()];
        for _ in 0..draws {
            let s = sampler
                .sample(graph, initiator, &mut rng, &mut msgs)
                .unwrap();
            counts[s.index()] += 1;
        }
        let expect = draws as f64 / graph.alive_count() as f64;
        counts.iter().map(|&c| c as f64 / expect).collect()
    }

    #[test]
    fn ctrw_is_nearly_uniform_on_paper_overlay() {
        let mut rng = small_rng(1);
        let graph = HeterogeneousRandom::paper(300).build(&mut rng);
        let ratios = sampling_spread(&graph, &RandomWalkSampler::paper(), 60_000, 2);
        // mean ratio 1.0 by construction; check dispersion is small
        let maxr = ratios.iter().cloned().fold(0.0, f64::max);
        let minr = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(maxr < 1.8, "some node oversampled: {maxr}");
        assert!(minr > 0.3, "some node undersampled: {minr}");
    }

    #[test]
    fn ctrw_beats_fixed_hop_on_scale_free() {
        // On a BA graph the degree-biased sampler should oversample the hub
        // far more than the CTRW sampler does.
        let mut rng = small_rng(3);
        let graph = BarabasiAlbert::paper(400).build(&mut rng);
        let hub = graph
            .alive_nodes()
            .max_by_key(|&n| graph.degree(n))
            .unwrap();
        let expect = |counts: &[u32], draws: usize| {
            counts[hub.index()] as f64 / (draws as f64 / graph.alive_count() as f64)
        };

        let mut msgs = MessageCounter::new();
        let draws = 40_000;
        let initiator = graph.random_alive(&mut rng).unwrap();
        let mut ctrw_counts = vec![0u32; graph.num_slots()];
        let mut hop_counts = vec![0u32; graph.num_slots()];
        let ctrw = RandomWalkSampler::paper();
        let hop = FixedHopSampler::new(30);
        for _ in 0..draws {
            let a = ctrw.sample(&graph, initiator, &mut rng, &mut msgs).unwrap();
            ctrw_counts[a.index()] += 1;
            let b = hop.sample(&graph, initiator, &mut rng, &mut msgs).unwrap();
            hop_counts[b.index()] += 1;
        }
        let ctrw_ratio = expect(&ctrw_counts, draws);
        let hop_ratio = expect(&hop_counts, draws);
        // Hub degree is ~d̄·x oversampled under the biased walk.
        assert!(
            hop_ratio > 3.0 * ctrw_ratio,
            "biased {hop_ratio:.2} vs ctrw {ctrw_ratio:.2}"
        );
        assert!(ctrw_ratio < 2.0, "ctrw hub ratio {ctrw_ratio:.2}");
    }

    #[test]
    fn walk_length_scales_with_timer_and_degree() {
        // E[steps] ≈ T · d̄: on the paper overlay (d̄ ≈ 7.2), T = 10 → ≈ 72.
        let mut rng = small_rng(4);
        let graph = HeterogeneousRandom::paper(2_000).build(&mut rng);
        let mut msgs = MessageCounter::new();
        let initiator = graph.random_alive(&mut rng).unwrap();
        let sampler = RandomWalkSampler::paper();
        let draws = 2_000;
        for _ in 0..draws {
            sampler
                .sample(&graph, initiator, &mut rng, &mut msgs)
                .unwrap();
        }
        let steps_per_sample = msgs.get(MessageKind::WalkStep) as f64 / draws as f64;
        assert!(
            (50.0..95.0).contains(&steps_per_sample),
            "walk length {steps_per_sample}, expected ≈ 72"
        );
        assert_eq!(msgs.get(MessageKind::SampleReply), draws as u64);
    }

    #[test]
    fn isolated_initiator_yields_none() {
        let graph = Graph::with_nodes(3); // no edges at all
        let mut rng = small_rng(5);
        let mut msgs = MessageCounter::new();
        for s in [
            &RandomWalkSampler::paper() as &dyn PeerSampler,
            &FixedHopSampler::new(3),
        ] {
            assert!(s.sample(&graph, NodeId(0), &mut rng, &mut msgs).is_none());
        }
        assert_eq!(msgs.total(), 0, "failed sampling must not charge messages");
    }

    #[test]
    fn oracle_sampler_is_uniform_and_cheap() {
        let mut rng = small_rng(6);
        let graph = HeterogeneousRandom::paper(100).build(&mut rng);
        let mut msgs = MessageCounter::new();
        let s = OracleSampler;
        let initiator = NodeId(0);
        let mut counts = vec![0u32; graph.num_slots()];
        for _ in 0..50_000 {
            counts[s
                .sample(&graph, initiator, &mut rng, &mut msgs)
                .unwrap()
                .index()] += 1;
        }
        let expect = 50_000.0 / 100.0;
        for (i, &c) in counts.iter().enumerate() {
            let ratio = c as f64 / expect;
            assert!((0.7..1.3).contains(&ratio), "node {i} ratio {ratio}");
        }
        assert_eq!(msgs.get(MessageKind::WalkStep), 0);
    }

    #[test]
    fn two_node_overlay_always_samples_the_peer_or_self() {
        let mut graph = Graph::with_nodes(2);
        graph.add_edge(NodeId(0), NodeId(1));
        let mut rng = small_rng(7);
        let mut msgs = MessageCounter::new();
        let sampler = RandomWalkSampler::new(1.0);
        for _ in 0..100 {
            let s = sampler
                .sample(&graph, NodeId(0), &mut rng, &mut msgs)
                .unwrap();
            assert!(s == NodeId(0) || s == NodeId(1));
        }
    }
}
