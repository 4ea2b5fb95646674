//! Event-driven estimation protocols on the message-level network.
//!
//! [`NodeProtocol`] is the one contract every driver runs: a protocol is a
//! set of per-node event handlers exchanging real messages through a
//! [`p2p_sim::Network`], whose [`p2p_sim::NetworkModel`] injects latency,
//! per-link heterogeneity and loss — the modelling gap the paper concedes
//! in §IV-A/§VI for its round-driven simulator.
//!
//! Three native implementations cover the paper's three algorithm classes:
//!
//! * [`AsyncSampleCollide`] — the random walk as a chain of `WalkStep`
//!   messages; a lost hop kills the estimation (the walk token is gone);
//! * [`AsyncHopsSampling`] — the gossip spread and poll replies as
//!   individual messages; losses and late replies shrink the poll sum;
//! * [`AsyncAggregation`] — push-pull averaging as two-phase exchanges;
//!   loss and churn destroy value mass in flight, corrupting the estimate —
//!   the epidemic class's real dynamic-network failure mode.
//!
//! The round-driven forms the paper's figures use run under the same
//! contract without sending anything:
//! [`EpochedAggregation`](crate::aggregation::EpochedAggregation) is a
//! `NodeProtocol` whose step is one atomic gossip round, and [`SyncStep`]
//! runs any one-shot [`SizeEstimator`] as one whose step is one atomic
//! estimation. Their traffic is charged to the network's counter, never
//! routed, so over *any* network model their traces are the historic
//! round-driven ones bit for bit.
//!
//! Every driver of the contract — the scenario runner, the sharded
//! engine, [`SizeMonitor`](crate::SizeMonitor), the UDP node runtime —
//! runs the same loop: [`ShardCore::run_until`] behind a [`Host`] (see
//! [`shard_core`]).

mod aggregation;
mod hops_sampling;
mod sample_collide;
pub mod shard_core;

pub use aggregation::{AggMsg, AsyncAggregation};
pub use hops_sampling::{AsyncHopsSampling, HsMsg};
pub use sample_collide::{AsyncSampleCollide, ScMsg};
pub use shard_core::{Host, ShardCore, SimHost};

use crate::protocol::StepOutcome;
use crate::SizeEstimator;
use p2p_overlay::{Graph, NodeId};
use p2p_sim::rng::{derive_seed, small_rng};
use p2p_sim::shard::Outbox;
use p2p_sim::{MessageKind, NetEvent, Network};
use rand::rngs::SmallRng;

/// A cluster shard's view of the overlay: which slots it hosts and whether
/// it leads estimations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardView {
    /// This shard's index in `0..procs`.
    pub proc: u32,
    /// Total shards; slot `s` is hosted by shard `s % procs`.
    pub procs: u32,
    /// The local node this shard starts estimations from (the deployed
    /// monitoring node), or `None` for a purely reactive relay shard.
    pub estimator: Option<NodeId>,
}

/// The stream each shard's protocol RNG derives from
/// (`derive(derive(seed, this), shard)`).
const SHARD_PROTO_SEED_STREAM: u64 = 0x0073_6861_7264; // "shard"

/// The stream the estimator-node choice derives from.
const ESTIMATOR_SEED_STREAM: u64 = 0x0065_7374_696D; // "estim"

impl ShardView {
    /// Whether this shard hosts `node`'s slot.
    pub fn hosts(&self, node: NodeId) -> bool {
        debug_assert!(self.procs > 0, "a shard view needs at least one shard");
        node.index() as u32 % self.procs == self.proc
    }

    /// Shard `proc` of `procs`' view and protocol RNG stream for the run
    /// seeded by `seed`. One uniform alive draw off a run-wide stream picks
    /// the node that leads estimations, so every shard — a DES shard or a
    /// cluster process alike — agrees on it without communication, and
    /// only the shard hosting it gets `estimator: Some(..)`.
    pub fn elect(seed: u64, graph: &Graph, proc: u32, procs: u32) -> (ShardView, SmallRng) {
        let mut est_rng = small_rng(derive_seed(seed, ESTIMATOR_SEED_STREAM));
        let mut view = ShardView {
            proc,
            procs,
            estimator: None,
        };
        view.estimator = graph.random_alive(&mut est_rng).filter(|&n| view.hosts(n));
        let proto_base = derive_seed(seed, SHARD_PROTO_SEED_STREAM);
        (view, small_rng(derive_seed(proto_base, proc as u64)))
    }
}

/// Everything a [`NodeProtocol`] handler may touch: the current overlay
/// snapshot (immutable — churn is the driver's business), the network it
/// sends through, the protocol RNG stream, the report sink, and where the
/// instance runs.
pub struct Cx<'a, M> {
    /// The overlay as of this event.
    pub graph: &'a Graph,
    /// The network: send messages, schedule timers, read the clock.
    pub net: &'a mut Network<M>,
    /// The protocol's deterministic RNG stream (never used for network
    /// latency/loss draws — those live on the network's own stream).
    pub rng: &'a mut SmallRng,
    reports: &'a mut Vec<StepOutcome>,
    /// The slots this instance hosts — set by a [`ShardCore`] built with
    /// [`ShardCore::shard`]. `None` is the simulator's instance hosting
    /// every node, the historic path bit for bit.
    view: Option<ShardView>,
    /// Where sends to slots hosted by another shard buffer until the next
    /// tick-barrier exchange (the sharded simulator only).
    outbox: Option<&'a mut Outbox<M>>,
}

impl<'a, M> Cx<'a, M> {
    /// Assembles a context for an instance hosting every node; drivers
    /// build one per dispatched event.
    pub fn new(
        graph: &'a Graph,
        net: &'a mut Network<M>,
        rng: &'a mut SmallRng,
        reports: &'a mut Vec<StepOutcome>,
    ) -> Self {
        Cx {
            graph,
            net,
            rng,
            reports,
            view: None,
            outbox: None,
        }
    }

    /// Closes a reporting period: the driver records `outcome` (and the
    /// ground-truth size at this instant) on the trace.
    pub fn report(&mut self, outcome: StepOutcome) {
        self.reports.push(outcome);
    }

    /// Whether this is the simulator's instance hosting every node. A
    /// cluster shard instead paces only the slots it hosts, starts
    /// estimations from the shard's designated estimator node (a deployed
    /// monitor initiates from itself — it cannot reach into a remote
    /// process's state), and accepts traffic for runs it did not start.
    pub fn is_simulated(&self) -> bool {
        self.view.is_none()
    }

    /// Whether this instance hosts `node` (always true in the DES).
    pub fn hosts(&self, node: NodeId) -> bool {
        self.view.is_none_or(|view| view.hosts(node))
    }

    /// Whether this instance starts estimations (the DES instance always
    /// does; a shard only if it carries the estimator role).
    pub fn leads(&self) -> bool {
        self.view.is_none_or(|view| view.estimator.is_some())
    }

    /// Picks the initiator of a new estimation: a uniform alive draw in the
    /// DES (identical to the historic behavior), the designated estimator
    /// node on a leading shard — `None` if that node has departed.
    pub fn pick_initiator(&mut self) -> Option<NodeId> {
        match self.view {
            None => self.graph.random_alive(self.rng),
            Some(view) => view.estimator.filter(|&n| self.graph.is_alive(n)),
        }
    }

    /// Sends `msg` from `src` to `dst`, charged as one message of `kind`.
    ///
    /// With an outbox, a destination hosted by another shard goes through
    /// [`Network::route_remote`] (latency/drop resolved here, on this
    /// shard's stream, in send order) and is buffered toward that shard.
    /// A dropped send, local or remote, is counted here and never
    /// delivered; nobody is told.
    pub fn send(&mut self, src: NodeId, dst: NodeId, kind: MessageKind, msg: M) {
        if let (Some(view), Some(outbox)) = (self.view, self.outbox.as_deref_mut()) {
            if !view.hosts(dst) {
                if let Some(m) = self.net.route_remote(src.0, dst.0, kind, msg) {
                    outbox.push(dst.index() % view.procs as usize, m);
                }
                return;
            }
        }
        self.net.send(src.0, dst.0, kind, msg);
    }

    /// Schedules a protocol timer at `node`, `delay` ticks from now.
    pub fn timer_in(&mut self, delay: u64, node: NodeId, tag: u64) {
        self.net.schedule_timer_in(delay, node.0, tag);
    }

    /// The driver's step cadence in ticks (the gap between `on_step` calls).
    pub fn step_ticks(&self) -> u64 {
        self.net.model().step_ticks
    }
}

/// A size-estimation protocol as per-node event handlers over the
/// message-level network.
///
/// The driver owns the overlay and the clock; the protocol owns its state
/// (kept centrally in a [`NodeArena`](crate::arena::NodeArena) — a dense,
/// generation-checked slab keyed by node slot; one object simulates every
/// node). This homogeneous layout is what every figure runs; the boxed
/// round-driven forms ([`ProtocolSpec::build_sync`](crate::ProtocolSpec::build_sync))
/// run under the same contract.
/// Handlers fire for:
///
/// * `on_step` — the scenario's step grid (one estimation slot for the
///   polling classes, one gossip round for the epidemic class), after any
///   churn scheduled at the same step;
/// * `on_message` — a message delivered to an **alive** node;
/// * `on_timer` — a protocol-scheduled timer.
///
/// A message that dies — dropped by the
/// [`NetworkModel`](p2p_sim::NetworkModel), or addressed to a node that
/// departed before delivery — reaches no handler, as on a real network: a
/// protocol that must notice loss does so by timeout.
///
/// Estimates are published with [`Cx::report`]; all randomness comes from
/// [`Cx::rng`], so runs are deterministic per seed.
pub trait NodeProtocol {
    /// The protocol's wire format.
    type Msg;

    /// Algorithm name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Called once before the first step, on the initial overlay snapshot.
    fn on_init(&mut self, _cx: &mut Cx<'_, Self::Msg>) {}

    /// Drops all protocol state accumulated so far — called by drivers
    /// (e.g. `SizeMonitor::reset`) when the monitored overlay is replaced
    /// wholesale, so no per-slot state leaks onto an unrelated graph whose
    /// slot indices happen to alias. The default does nothing, which is
    /// correct for stateless one-shot estimators.
    fn reset(&mut self) {}

    /// `node`'s current estimate, for protocols that hold one per node
    /// (the epidemic class); `None` elsewhere.
    fn estimate_at(&self, _node: NodeId) -> Option<f64> {
        None
    }

    /// A step boundary on the scenario timeline (`step` counts from 1).
    fn on_step(&mut self, step: u64, cx: &mut Cx<'_, Self::Msg>);

    /// `msg` arrived at the alive node `dst`.
    fn on_message(&mut self, src: NodeId, dst: NodeId, msg: Self::Msg, cx: &mut Cx<'_, Self::Msg>);

    /// A timer scheduled via [`Cx::timer_in`] fired at `node`.
    fn on_timer(&mut self, _node: NodeId, _tag: u64, _cx: &mut Cx<'_, Self::Msg>) {}
}

/// A borrowed protocol is a protocol: lets a [`ShardCore`] drive an
/// instance its caller keeps.
impl<P: NodeProtocol + ?Sized> NodeProtocol for &mut P {
    type Msg = P::Msg;

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn on_init(&mut self, cx: &mut Cx<'_, Self::Msg>) {
        (**self).on_init(cx)
    }

    fn reset(&mut self) {
        (**self).reset()
    }

    fn estimate_at(&self, node: NodeId) -> Option<f64> {
        (**self).estimate_at(node)
    }

    fn on_step(&mut self, step: u64, cx: &mut Cx<'_, Self::Msg>) {
        (**self).on_step(step, cx)
    }

    fn on_message(&mut self, src: NodeId, dst: NodeId, msg: Self::Msg, cx: &mut Cx<'_, Self::Msg>) {
        (**self).on_message(src, dst, msg, cx)
    }

    fn on_timer(&mut self, node: NodeId, tag: u64, cx: &mut Cx<'_, Self::Msg>) {
        (**self).on_timer(node, tag, cx)
    }
}

/// The synchronous adapter: a one-shot [`SizeEstimator`] runs as a
/// [`NodeProtocol`] whose step handler executes one full estimation and
/// reports it — `Estimate` on success, `Failed` otherwise.
///
/// It sends no messages (traffic is charged straight to the network's
/// counter), so latency and loss cannot reach it: over *any* network model
/// its trace equals the historic round-driven one.
#[derive(Clone, Debug)]
pub struct SyncStep<E>(pub E);

impl<E: SizeEstimator> NodeProtocol for SyncStep<E> {
    type Msg = ();

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn on_step(&mut self, _step: u64, cx: &mut Cx<'_, ()>) {
        let outcome = match self.0.estimate(cx.graph, cx.rng, cx.net.counter_mut()) {
            Some(estimate) => StepOutcome::Estimate(estimate),
            None => StepOutcome::Failed,
        };
        cx.report(outcome);
    }

    fn on_message(&mut self, _src: NodeId, _dst: NodeId, _msg: (), _cx: &mut Cx<'_, ()>) {
        unreachable!("the synchronous adapter never sends messages");
    }
}

/// Routes one popped network event to the matching protocol handler,
/// counting deliveries to departed nodes as churn losses — the
/// parts-based front of the [`ShardCore`] loop's event mapping, for callers
/// that hold the protocol, network and RNG separately.
pub fn dispatch<P: NodeProtocol>(
    protocol: &mut P,
    event: NetEvent<P::Msg>,
    graph: &Graph,
    net: &mut Network<P::Msg>,
    rng: &mut SmallRng,
    reports: &mut Vec<StepOutcome>,
) {
    let cx = Cx::new(graph, net, rng, reports);
    shard_core::deliver_event(protocol, event, cx);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Heuristic, SampleCollide, SizeMonitor};
    use p2p_overlay::builder::{GraphBuilder, HeterogeneousRandom};
    use p2p_sim::rng::small_rng;
    use p2p_sim::{HopLatency, MessageCounter, NetworkModel};

    fn overlay(n: usize, seed: u64) -> Graph {
        let mut rng = small_rng(seed);
        HeterogeneousRandom::paper(n).build(&mut rng)
    }

    /// The event core queues messages inline; `p2p_sim`'s
    /// `queued_entry_is_at_most_48_bytes` sizes its entry for a 24-byte,
    /// 8-aligned payload. A fatter wire format fails here first.
    #[test]
    fn wire_messages_fit_the_queued_entry() {
        use std::mem::{align_of, size_of};
        assert!(size_of::<AggMsg>() <= 24 && align_of::<AggMsg>() <= 8);
        assert!(size_of::<ScMsg>() <= 24 && align_of::<ScMsg>() <= 8);
        assert!(size_of::<HsMsg>() <= 24 && align_of::<HsMsg>() <= 8);
    }

    /// A comfortable cadence for millisecond-latency tests: wide enough for
    /// a whole cheap estimation to land within a few windows.
    fn slow_net(latency_ms: f64) -> NetworkModel {
        NetworkModel::ideal()
            .with_latency(HopLatency::Constant(latency_ms))
            .with_step_ticks(2_000)
    }

    /// `protocol` as a raw-reading gauge over `model`.
    fn gauge<P: NodeProtocol>(protocol: P, model: NetworkModel, net_seed: u64) -> SizeMonitor<P> {
        SizeMonitor::with_network(protocol, Heuristic::OneShot, 1, model, net_seed)
    }

    /// Ticks `mon` until it closes one reporting period: the raw estimate,
    /// or `None` for a failed period.
    fn estimate<P: NodeProtocol>(
        mon: &mut SizeMonitor<P>,
        graph: &Graph,
        rng: &mut SmallRng,
    ) -> Option<f64> {
        let closed = mon.reports() + mon.failures();
        let mut reading = None;
        while mon.reports() + mon.failures() == closed {
            assert!(mon.ticks() < 100_000, "no reporting period closed");
            reading = mon.tick(graph, rng);
        }
        reading.map(|r| r.raw)
    }

    #[test]
    fn sync_step_reproduces_the_round_driven_step_bit_for_bit() {
        let graph = overlay(1_500, 800);
        // The estimator called directly.
        let mut rng_a = small_rng(801);
        let mut msgs_a = MessageCounter::new();
        let direct = SampleCollide::cheap().estimate(&graph, &mut rng_a, &mut msgs_a);

        // The same estimator through the synchronous adapter over a network.
        let mut rng_b = small_rng(801);
        let mut adapter = SyncStep(SampleCollide::cheap());
        let mut net: Network<()> = Network::new(NetworkModel::ideal(), 999);
        let mut reports = Vec::new();
        let mut cx = Cx::new(&graph, &mut net, &mut rng_b, &mut reports);
        adapter.on_init(&mut cx);
        adapter.on_step(1, &mut cx);
        assert_eq!(reports, vec![StepOutcome::Estimate(direct.unwrap())]);
        assert_eq!(net.counter(), &msgs_a);
        assert_eq!(net.stats().sent, 0, "the adapter routes no messages");
    }

    #[test]
    fn async_sample_collide_estimates_accurately_over_an_ideal_network() {
        let graph = overlay(2_000, 810);
        let mut rng = small_rng(811);
        let mut mon = gauge(AsyncSampleCollide::cheap(), NetworkModel::ideal(), 812);
        let mut mean = 0.0;
        let runs = 5;
        for _ in 0..runs {
            mean += estimate(&mut mon, &graph, &mut rng).unwrap();
        }
        mean /= runs as f64;
        let q = mean / 2_000.0;
        assert!((0.7..1.3).contains(&q), "quality {q}");
        // Every hop and reply was a real network message.
        assert_eq!(mon.total_messages().total(), mon.net_stats().sent);
        assert!(mon.net_stats().delivered > 1_000);
    }

    #[test]
    fn async_sample_collide_is_deterministic_per_seed() {
        let graph = overlay(1_000, 820);
        let run = || {
            let mut rng = small_rng(821);
            let model = NetworkModel::wan().with_drop_rate(0.05);
            let mut mon = gauge(AsyncSampleCollide::cheap(), model, 822);
            let estimates: Vec<Option<f64>> = (0..3)
                .map(|_| estimate(&mut mon, &graph, &mut rng))
                .collect();
            (estimates, mon.total_messages().clone())
        };
        let (ea, ma) = run();
        let (eb, mb) = run();
        assert_eq!(ea, eb);
        assert_eq!(ma, mb);
    }

    #[test]
    fn latency_stretches_an_estimation_over_many_step_windows() {
        let graph = overlay(500, 830);
        let mut rng = small_rng(831);
        let walk = AsyncSampleCollide::cheap().with_timeout(1_000);
        let mut mon = gauge(walk, slow_net(1.0), 832);
        let est = estimate(&mut mon, &graph, &mut rng).unwrap();
        assert!(est > 0.0);
        // ≈ √(2·10·500) samples × ≈ 72 sequential 1 ms hops ≫ one window.
        assert!(
            mon.ticks() > 2,
            "a walk of thousands of sequential hops must span windows, took {}",
            mon.ticks()
        );
    }

    #[test]
    fn total_loss_fails_every_estimation() {
        let graph = overlay(300, 840);
        let mut rng = small_rng(841);
        let model = NetworkModel::ideal().with_drop_rate(1.0);
        let mut mon = gauge(AsyncSampleCollide::cheap(), model, 842);
        for _ in 0..3 {
            assert!(estimate(&mut mon, &graph, &mut rng).is_none());
        }
        assert!(mon.net_stats().dropped >= 3, "first hop dropped each run");
    }

    #[test]
    fn async_hops_sampling_underestimates_like_the_sync_variant() {
        let graph = overlay(5_000, 850);
        let mut rng = small_rng(851);
        let mut mon = gauge(AsyncHopsSampling::paper(), slow_net(1.0), 852);
        let mut mean = 0.0;
        let runs = 6;
        for _ in 0..runs {
            mean += estimate(&mut mon, &graph, &mut rng).unwrap();
        }
        let q = mean / runs as f64 / 5_000.0;
        // The membership-substrate spread reaches ≈ 80%; the poll then sits
        // below truth but well inside the paper's band.
        assert!((0.55..1.15).contains(&q), "mean quality {q}");
        let msgs = mon.total_messages();
        assert!(msgs.get(MessageKind::GossipForward) > 0);
        assert!(msgs.get(MessageKind::PollReply) > 0);
    }

    #[test]
    fn hops_sampling_loss_only_shrinks_the_estimate() {
        let graph = overlay(3_000, 860);
        let estimate_under = |drop: f64| {
            let mut rng = small_rng(861);
            let model = slow_net(1.0).with_drop_rate(drop);
            let mut mon = gauge(AsyncHopsSampling::paper(), model, 862);
            let mut sum = 0.0;
            for _ in 0..5 {
                sum += estimate(&mut mon, &graph, &mut rng).unwrap();
            }
            sum
        };
        let ideal = estimate_under(0.0);
        let lossy = estimate_under(0.4);
        assert!(
            lossy < ideal,
            "lost forwards/replies must shrink the poll sum: {lossy} vs {ideal}"
        );
    }

    #[test]
    fn async_aggregation_converges_over_an_ideal_network() {
        let graph = overlay(1_000, 870);
        let mut rng = small_rng(871);
        let mut mon = gauge(AsyncAggregation::paper(), slow_net(1.0), 872);
        let est = estimate(&mut mon, &graph, &mut rng).unwrap();
        let q = est / 1_000.0;
        assert!((0.9..1.1).contains(&q), "epoch estimate quality {q}");
        // 50 rounds; the read timer lands on the final round's window edge.
        assert_eq!(mon.ticks(), 50);
        let msgs = mon.total_messages();
        assert!(msgs.get(MessageKind::AggregationPush) > 0);
        assert!(msgs.get(MessageKind::AggregationPull) > 0);
    }

    #[test]
    fn size_monitor_runs_through_the_network() {
        // A perpetual gauge under latency: one tick is one step window, and
        // a walk spanning several windows reports when it lands.
        let graph = overlay(1_500, 880);
        let mut rng = small_rng(881);
        let mut mon = SizeMonitor::with_network(
            AsyncSampleCollide::cheap(),
            Heuristic::OneShot,
            16,
            slow_net(1.0),
            882,
        );
        for _ in 0..40 {
            mon.tick(&graph, &mut rng);
        }
        assert_eq!(mon.ticks(), 40);
        assert!(mon.reports() >= 3, "reports {}", mon.reports());
        let current = mon.current().unwrap();
        assert!((current / 1_500.0 - 1.0).abs() < 0.4, "gauge {current}");
        assert!(mon.total_messages().total() > 0);
    }

    #[test]
    fn churn_eats_a_walk_in_flight() {
        // A 2-node overlay: the first hop is in flight when its destination
        // departs. The driver counts the delivery as a churn loss and tells
        // nobody; the protocol's step timeout fails the estimation.
        let mut graph = Graph::with_nodes(2);
        graph.add_edge(NodeId(0), NodeId(1));
        let mut rng = small_rng(890);
        let mut protocol = AsyncSampleCollide::cheap();
        let mut net: Network<ScMsg> = Network::new(slow_net(10.0), 891);
        let mut reports = Vec::new();
        {
            let mut cx = Cx::new(&graph, &mut net, &mut rng, &mut reports);
            protocol.on_step(1, &mut cx);
        }
        assert_eq!(net.stats().sent, 1, "first walk hop in flight");
        // The destination (whichever endpoint it is) departs mid-flight.
        let (_, event) = net.pop().unwrap();
        let NetEvent::Deliver { dst, .. } = &event else {
            panic!("expected the walk hop, got {event:?}");
        };
        graph.remove_node(NodeId(*dst));
        // Dispatch the popped event against the churned overlay.
        dispatch(
            &mut protocol,
            event,
            &graph,
            &mut net,
            &mut rng,
            &mut reports,
        );
        assert!(reports.is_empty(), "the loss is silent");
        assert_eq!(net.stats().churn_lost, 1);
        for step in 2..=protocol.timeout_steps {
            let mut cx = Cx::new(&graph, &mut net, &mut rng, &mut reports);
            protocol.on_step(step, &mut cx);
        }
        assert!(reports.is_empty(), "the walk is still inside its timeout");
        let mut cx = Cx::new(&graph, &mut net, &mut rng, &mut reports);
        protocol.on_step(1 + protocol.timeout_steps, &mut cx);
        assert_eq!(reports.first(), Some(&StepOutcome::Failed));
    }
}
