//! Epoch-tagged restartable aggregation for dynamic networks (§IV-D(k)).
//!
//! A single [`AveragingRun`](super::AveragingRun) cannot follow churn: its
//! value mass is fixed when the process starts ("there is a conservative
//! effect, as removed nodes no longer participate and as new nodes do not
//! get synchronized information"). The paper's fix:
//!
//! > "To track size variations, the solution is to reinitialize an
//! > aggregation process at regular time intervals. By using tags (unique
//! > identifiers) on each new counting process, the algorithm can be
//! > reinitialized on demand: a node which is reached by a counting message
//! > with a new tag will create a 0 initial value and will start to
//! > participate to the active process."
//!
//! [`EpochedAggregation`] implements exactly that: each epoch has a fresh
//! initiator holding value 1; participation (and therefore message cost)
//! spreads with the tag; estimates are read at the end of each epoch.
//!
//! As a [`NodeProtocol`] one step is one gossip round: drivers and
//! [`SizeMonitor`](crate::SizeMonitor) run the epidemic class through the
//! same contract as the other two.

use p2p_overlay::{Graph, NodeId};
use p2p_sim::{MessageCounter, MessageKind};
use rand::rngs::SmallRng;

use super::AggregationConfig;
use crate::net_protocol::{Cx, NodeProtocol};
use crate::protocol::StepOutcome;

/// Restartable aggregation over a changing overlay.
///
/// Drive it with [`start_epoch`](Self::start_epoch) every
/// `config.rounds_per_estimate` rounds and [`run_round`](Self::run_round)
/// once per round, interleaved with overlay churn. Read
/// [`current_estimate`](Self::current_estimate) at epoch boundaries.
#[derive(Clone, Debug)]
pub struct EpochedAggregation {
    /// Protocol parameters (rounds per epoch).
    pub config: AggregationConfig,
    values: Vec<f64>,
    /// Epoch tag each slot last joined (0 = never participated).
    epoch_of: Vec<u32>,
    /// Round (within the current epoch) at which each slot joined; a node
    /// starts initiating exchanges the round *after* it joined.
    joined_at: Vec<u32>,
    epoch: u32,
    rounds_done: u32,
    initiator: Option<NodeId>,
}

impl EpochedAggregation {
    /// Creates an idle instance (no epoch running).
    pub fn new(config: AggregationConfig) -> Self {
        EpochedAggregation {
            config,
            values: Vec::new(),
            epoch_of: Vec::new(),
            joined_at: Vec::new(),
            epoch: 0,
            rounds_done: 0,
            initiator: None,
        }
    }

    /// The current epoch number (0 before the first start).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Rounds executed within the current epoch.
    pub fn rounds_done(&self) -> u32 {
        self.rounds_done
    }

    /// Forgets every epoch: values, tags and the running epoch counter all
    /// return to the idle state. Call when the monitored overlay is replaced
    /// wholesale — per-slot state must not leak onto an unrelated graph
    /// whose slot indices happen to alias the old one's.
    pub fn reset(&mut self) {
        self.values.clear();
        self.epoch_of.clear();
        self.joined_at.clear();
        self.epoch = 0;
        self.rounds_done = 0;
        self.initiator = None;
    }

    /// The current epoch's initiator, if an epoch is running.
    pub fn initiator(&self) -> Option<NodeId> {
        self.initiator
    }

    fn ensure_capacity(&mut self, slots: usize) {
        if self.values.len() < slots {
            self.values.resize(slots, 0.0);
            self.epoch_of.resize(slots, 0);
            self.joined_at.resize(slots, 0);
        }
    }

    /// Starts a new counting epoch with a fresh tag: a uniformly chosen
    /// alive node becomes the initiator with value 1; everyone else joins
    /// lazily (value 0) when first contacted by a tagged message.
    ///
    /// Returns the chosen initiator, or `None` on an empty overlay.
    pub fn start_epoch(&mut self, graph: &Graph, rng: &mut SmallRng) -> Option<NodeId> {
        self.ensure_capacity(graph.num_slots());
        let init = graph.random_alive(rng)?;
        self.epoch += 1;
        self.rounds_done = 0;
        self.initiator = Some(init);
        self.values[init.index()] = 1.0;
        self.epoch_of[init.index()] = self.epoch;
        self.joined_at[init.index()] = 0;
        Some(init)
    }

    /// Executes one synchronous round: every alive node that joined the
    /// current epoch *in an earlier round* initiates one push-pull exchange
    /// with a uniform random neighbor. A contacted node with a stale tag
    /// joins the epoch with value 0 before the exchange and starts
    /// initiating its own exchanges from the next round on.
    pub fn run_round(&mut self, graph: &Graph, rng: &mut SmallRng, msgs: &mut MessageCounter) {
        self.ensure_capacity(graph.num_slots());
        if self.initiator.is_none() {
            return;
        }
        let epoch = self.epoch;
        let round = self.rounds_done + 1; // 1-based index of the round we run now
        for v in graph.alive_nodes() {
            if self.epoch_of[v.index()] != epoch || self.joined_at[v.index()] >= round {
                continue; // not participating yet this round
            }
            let Some(w) = graph.random_neighbor(v, rng) else {
                continue;
            };
            msgs.count(MessageKind::AggregationPush);
            msgs.count(MessageKind::AggregationPull);
            if self.epoch_of[w.index()] != epoch {
                // Reached by a new tag: reset to 0 and join (paper §IV-D(k)).
                self.epoch_of[w.index()] = epoch;
                self.values[w.index()] = 0.0;
                self.joined_at[w.index()] = round;
            }
            let avg = 0.5 * (self.values[v.index()] + self.values[w.index()]);
            self.values[v.index()] = avg;
            self.values[w.index()] = avg;
        }
        self.rounds_done = round;
    }

    /// Number of alive nodes participating in the current epoch.
    pub fn participants(&self, graph: &Graph) -> usize {
        graph
            .alive_nodes()
            .filter(|&n| self.epoch_of[n.index()] == self.epoch)
            .count()
    }

    /// Local estimate at `node` — `1 / value`, or `None` if the node is not
    /// a participant (or its value is still 0).
    pub fn estimate_at(&self, node: NodeId) -> Option<f64> {
        if self.epoch_of.get(node.index()).copied() != Some(self.epoch) {
            return None;
        }
        let v = self.values[node.index()];
        (v > 0.0).then(|| 1.0 / v)
    }

    /// The estimate the monitoring application would read at the end of an
    /// epoch: at the epoch initiator if it survived, otherwise at a random
    /// surviving participant (§V(p): "eventually the size estimation is
    /// available at each node of the network").
    pub fn current_estimate(&self, graph: &Graph, rng: &mut SmallRng) -> Option<f64> {
        if let Some(init) = self.initiator {
            if graph.is_alive(init) {
                if let Some(e) = self.estimate_at(init) {
                    return Some(e);
                }
            }
        }
        // Initiator gone (or value exhausted): sample a few alive nodes and
        // read the first participating one.
        for _ in 0..64 {
            let n = graph.random_alive(rng)?;
            if let Some(e) = self.estimate_at(n) {
                return Some(e);
            }
        }
        None
    }
}

/// The epidemic class as a round-driven protocol: one step = one push-pull
/// gossip round; a fresh epoch (new tag, new initiator) starts lazily on the
/// first step and after each completed epoch; the epoch's estimate is
/// reported at its final round, read per §V(p) at the initiator or a
/// surviving participant. The round is atomic — its exchanges are charged
/// to the network's counter, never routed — so no network model reaches it.
impl NodeProtocol for EpochedAggregation {
    type Msg = ();

    fn name(&self) -> &'static str {
        "Aggregation"
    }

    fn reset(&mut self) {
        EpochedAggregation::reset(self);
    }

    fn estimate_at(&self, node: NodeId) -> Option<f64> {
        EpochedAggregation::estimate_at(self, node)
    }

    fn on_step(&mut self, _step: u64, cx: &mut Cx<'_, ()>) {
        let epoch_len = self.config.rounds_per_estimate;
        if self.epoch() == 0 || self.rounds_done() >= epoch_len {
            // First step ever, or the previous epoch completed (or could not
            // be opened on a dead overlay — retried here): start a new tag.
            if self.start_epoch(cx.graph, cx.rng).is_none() && self.epoch() == 0 {
                // No epoch has ever run and none can start (empty overlay):
                // there is no state to keep gossiping, so each step is a
                // failed reporting period — mirroring the one-shot classes
                // on the same timeline instead of pending forever.
                cx.report(StepOutcome::Failed);
                return;
            }
        }
        self.run_round(cx.graph, cx.rng, cx.net.counter_mut());
        if self.rounds_done() >= epoch_len {
            match self.current_estimate(cx.graph, cx.rng) {
                Some(estimate) => cx.report(StepOutcome::Estimate(estimate)),
                None => cx.report(StepOutcome::Failed),
            }
        }
    }

    fn on_message(&mut self, _src: NodeId, _dst: NodeId, _msg: (), _cx: &mut Cx<'_, ()>) {
        unreachable!("synchronous rounds send no messages");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_overlay::builder::{GraphBuilder, HeterogeneousRandom};
    use p2p_overlay::churn;
    use p2p_sim::rng::small_rng;

    fn run_epoch(
        agg: &mut EpochedAggregation,
        graph: &Graph,
        rng: &mut SmallRng,
        msgs: &mut MessageCounter,
    ) -> Option<f64> {
        agg.start_epoch(graph, rng)?;
        for _ in 0..agg.config.rounds_per_estimate {
            agg.run_round(graph, rng, msgs);
        }
        agg.current_estimate(graph, rng)
    }

    #[test]
    fn matches_plain_aggregation_on_static_overlay() {
        let mut rng = small_rng(310);
        let graph = HeterogeneousRandom::paper(5_000).build(&mut rng);
        let mut msgs = MessageCounter::new();
        let mut agg = EpochedAggregation::new(AggregationConfig::paper());
        let est = run_epoch(&mut agg, &graph, &mut rng, &mut msgs).unwrap();
        let q = est / 5_000.0;
        assert!((0.97..1.03).contains(&q), "quality {q}");
    }

    #[test]
    fn successive_epochs_track_growth() {
        let mut rng = small_rng(311);
        let mut graph = HeterogeneousRandom::paper(2_000).build(&mut rng);
        let mut msgs = MessageCounter::new();
        let mut agg = EpochedAggregation::new(AggregationConfig::paper());
        let e1 = run_epoch(&mut agg, &graph, &mut rng, &mut msgs).unwrap();
        churn::join_nodes(&mut graph, 1_000, 10, &mut rng);
        let e2 = run_epoch(&mut agg, &graph, &mut rng, &mut msgs).unwrap();
        assert!((e1 / 2_000.0 - 1.0).abs() < 0.05, "epoch 1 estimate {e1}");
        assert!(
            (e2 / 3_000.0 - 1.0).abs() < 0.10,
            "epoch 2 should see the grown overlay, got {e2}"
        );
    }

    #[test]
    fn stale_estimate_within_epoch_under_departures() {
        // The conservative effect: an epoch started at N=2000 keeps
        // estimating ≈2000 even while the overlay shrinks under it.
        let mut rng = small_rng(312);
        let mut graph = HeterogeneousRandom::paper(2_000).build(&mut rng);
        let mut msgs = MessageCounter::new();
        let mut agg = EpochedAggregation::new(AggregationConfig::paper());
        agg.start_epoch(&graph, &mut rng).unwrap();
        for r in 0..50 {
            if r == 10 {
                churn::remove_random_nodes(&mut graph, 200, &mut rng);
            }
            agg.run_round(&graph, &mut rng, &mut msgs);
        }
        if let Some(est) = agg.current_estimate(&graph, &mut rng) {
            assert!(
                est > 1_500.0,
                "within-epoch estimate should stay near the start size, got {est}"
            );
        }
    }

    #[test]
    fn new_overlay_nodes_join_current_epoch() {
        let mut rng = small_rng(313);
        let mut graph = HeterogeneousRandom::paper(500).build(&mut rng);
        let mut msgs = MessageCounter::new();
        let mut agg = EpochedAggregation::new(AggregationConfig::paper());
        agg.start_epoch(&graph, &mut rng).unwrap();
        for _ in 0..5 {
            agg.run_round(&graph, &mut rng, &mut msgs);
        }
        churn::join_nodes(&mut graph, 100, 10, &mut rng);
        for _ in 0..45 {
            agg.run_round(&graph, &mut rng, &mut msgs);
        }
        // Most of the grown overlay should be participating by now.
        let frac = agg.participants(&graph) as f64 / graph.alive_count() as f64;
        assert!(frac > 0.9, "participation fraction {frac}");
    }

    #[test]
    fn messages_charged_only_for_participants() {
        let mut rng = small_rng(314);
        let graph = HeterogeneousRandom::paper(1_000).build(&mut rng);
        let mut msgs = MessageCounter::new();
        let mut agg = EpochedAggregation::new(AggregationConfig::paper());
        agg.start_epoch(&graph, &mut rng).unwrap();
        agg.run_round(&graph, &mut rng, &mut msgs);
        // Round 1: only the initiator participates → exactly 2 messages.
        assert_eq!(msgs.total(), 2);
        agg.run_round(&graph, &mut rng, &mut msgs);
        // Round 2: initiator + the node it reached → 4 more.
        assert_eq!(msgs.total(), 6);
    }

    #[test]
    fn estimate_readable_after_initiator_death() {
        let mut rng = small_rng(315);
        let mut graph = HeterogeneousRandom::paper(1_000).build(&mut rng);
        let mut msgs = MessageCounter::new();
        let mut agg = EpochedAggregation::new(AggregationConfig::paper());
        let init = agg.start_epoch(&graph, &mut rng).unwrap();
        for _ in 0..50 {
            agg.run_round(&graph, &mut rng, &mut msgs);
        }
        graph.remove_node(init);
        let est = agg.current_estimate(&graph, &mut rng);
        assert!(
            est.is_some(),
            "estimate must be readable at surviving nodes"
        );
        let q = est.unwrap() / 1_000.0;
        assert!((0.9..1.1).contains(&q), "quality {q}");
    }

    #[test]
    fn idle_instance_is_inert() {
        let mut rng = small_rng(316);
        let graph = HeterogeneousRandom::paper(100).build(&mut rng);
        let mut msgs = MessageCounter::new();
        let mut agg = EpochedAggregation::new(AggregationConfig::paper());
        agg.run_round(&graph, &mut rng, &mut msgs);
        assert_eq!(msgs.total(), 0);
        assert!(agg.current_estimate(&graph, &mut rng).is_none());
    }

    #[test]
    fn empty_overlay_cannot_start_epoch() {
        let graph = Graph::with_capacity(0);
        let mut rng = small_rng(317);
        let mut agg = EpochedAggregation::new(AggregationConfig::paper());
        assert!(agg.start_epoch(&graph, &mut rng).is_none());
    }
}
