//! Event-driven estimation protocols on the message-level network.
//!
//! The round-driven [`EstimationProtocol`] executes each step atomically:
//! a whole estimation (or a whole gossip round) happens "between ticks", so
//! heterogeneous delays, message loss and churn hitting in-flight traffic
//! are unrepresentable — exactly the modelling gap the paper concedes in
//! §IV-A/§VI. [`NodeProtocol`] closes it: a protocol is a set of per-node
//! event handlers exchanging real messages through a
//! [`p2p_sim::Network`], whose [`p2p_sim::NetworkModel`] injects latency,
//! per-link heterogeneity and loss.
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
//! Two adapters connect the event-driven and round-driven worlds:
//!
//! * [`SyncStep`] runs any existing `EstimationProtocol` unchanged as a
//!   `NodeProtocol` whose step handler executes one atomic step (it sends
//!   no messages, so the network model cannot touch it) — over a
//!   zero-latency/zero-loss network this reproduces the historic
//!   round-driven traces bit for bit;
//! * [`Networked`] runs any `NodeProtocol` as a [`SizeEstimator`] (and
//!   therefore, through the blanket adapter, as an `EstimationProtocol`):
//!   each `estimate` call drives the embedded network until the protocol
//!   closes a reporting period. This is what routes
//!   [`SizeMonitor`](crate::SizeMonitor) through the network.
//!
//! Every driver of the contract — `Networked`, the scenario runner, the
//! sharded engine, the UDP node runtime — runs the same loop:
//! [`ShardCore::run_until`] behind a [`Host`] (see [`shard_core`]).

mod aggregation;
mod hops_sampling;
mod sample_collide;
pub mod shard_core;

pub use aggregation::{AggMsg, AsyncAggregation};
pub use hops_sampling::{AsyncHopsSampling, HsMsg};
pub use sample_collide::{AsyncSampleCollide, ScMsg};
pub use shard_core::{Host, ShardCore, SimHost};

use crate::protocol::{EstimationProtocol, StepOutcome};
use crate::SizeEstimator;
use p2p_overlay::{Graph, NodeId};
use p2p_sim::rng::{derive_seed, small_rng};
use p2p_sim::{MessageCounter, MessageKind, NetEvent, Network, NetworkModel, SimTime};
use rand::rngs::SmallRng;
use std::collections::VecDeque;

/// Where a protocol instance runs: the DES (one instance simulates every
/// node) or one shard of a deployed cluster (the instance drives only the
/// node slots its process hosts; everything else is reachable only through
/// the network).
///
/// The default, [`Deployment::Simulated`], reproduces the historic DES
/// behavior bit for bit — golden traces never see the other variant. The
/// shard variant is what `p2p-node`'s runtime sets: per-step work iterates
/// local slots only, estimations start from the shard's designated
/// estimator node instead of a uniform draw (a deployed monitor initiates
/// from itself — it cannot reach into a remote process's state), and
/// reactive handlers accept traffic for runs they did not start.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Deployment {
    /// The simulator: this instance hosts every node (bit-exact path).
    #[default]
    Simulated,
    /// One shard of a real cluster.
    Shard(ShardView),
}

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

impl Deployment {
    /// Whether this is the simulator's all-hosting instance.
    pub fn is_simulated(&self) -> bool {
        matches!(self, Deployment::Simulated)
    }

    /// Whether this instance hosts `node` (always true in the DES).
    pub fn hosts(&self, node: NodeId) -> bool {
        match self {
            Deployment::Simulated => true,
            Deployment::Shard(s) => s.hosts(node),
        }
    }

    /// Whether this instance starts estimations (the DES instance always
    /// does; a shard only if it carries the estimator role).
    pub fn leads(&self) -> bool {
        match self {
            Deployment::Simulated => true,
            Deployment::Shard(s) => s.estimator.is_some(),
        }
    }

    /// Picks the initiator of a new estimation: a uniform alive draw in the
    /// DES (identical to the historic behavior), the designated estimator
    /// node on a leading shard — `None` if that node has departed.
    pub fn pick_initiator(&self, graph: &Graph, rng: &mut SmallRng) -> Option<NodeId> {
        match self {
            Deployment::Simulated => graph.random_alive(rng),
            Deployment::Shard(s) => s.estimator.filter(|&n| graph.is_alive(n)),
        }
    }
}

/// Everything a [`NodeProtocol`] handler may touch: the current overlay
/// snapshot (immutable — churn is the driver's business), the network it
/// sends through, the protocol RNG stream and the report sink.
pub struct Cx<'a, M> {
    /// The overlay as of this event.
    pub graph: &'a Graph,
    /// The network: send messages, schedule timers, read the clock.
    pub net: &'a mut Network<M>,
    /// The protocol's deterministic RNG stream (never used for network
    /// latency/loss draws — those live on the network's own stream).
    pub rng: &'a mut SmallRng,
    reports: &'a mut Vec<StepOutcome>,
    /// Cross-shard routing — which shard this instance executes as and the
    /// outbox its remote sends buffer into until the next tick-barrier
    /// exchange — set only by a [`ShardCore`] built with an outbox. `None`
    /// is the historic single-instance path, bit for bit.
    route: Option<(ShardView, &'a mut p2p_sim::shard::Outbox<M>)>,
}

impl<'a, M> Cx<'a, M> {
    /// Assembles a context; drivers build one per dispatched event.
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
            route: None,
        }
    }

    /// Closes a reporting period: the driver records `outcome` (and the
    /// ground-truth size at this instant) on the trace.
    pub fn report(&mut self, outcome: StepOutcome) {
        self.reports.push(outcome);
    }

    /// Sends `msg` from `src` to `dst`, charged as one message of `kind`.
    ///
    /// Under a shard route, a destination hosted by another shard goes
    /// through [`Network::route_remote`] (latency/drop resolved here, on
    /// this shard's stream, in send order) and is buffered toward that
    /// shard; dropped remote sends surface as a local [`NodeProtocol::on_loss`]
    /// at the would-be delivery tick.
    pub fn send(&mut self, src: NodeId, dst: NodeId, kind: MessageKind, msg: M) {
        if let Some((view, outbox)) = self.route.as_mut() {
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
/// node). This homogeneous layout is what every figure runs; deployments
/// mixing protocol *variants* per node fall back to the boxed round-driven
/// path ([`ProtocolSpec::build_sync`](crate::ProtocolSpec::build_sync)).
/// Handlers fire for:
///
/// * `on_step` — the scenario's step grid (one estimation slot for the
///   polling classes, one gossip round for the epidemic class), after any
///   churn scheduled at the same step;
/// * `on_message` — a message delivered to an **alive** node;
/// * `on_timer` — a protocol-scheduled timer;
/// * `on_loss` — a message that died in flight, either dropped by the
///   [`NetworkModel`] or addressed to a node that departed before delivery.
///   Dispatched at the would-be delivery time.
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

    /// Drops all accumulated state (see
    /// [`EstimationProtocol::reset`]).
    fn reset(&mut self) {}

    /// Marks where this instance runs; [`ShardCore::shard`] calls it once
    /// before driving. The default ignores it, which is correct for
    /// protocols that only ever run as the all-hosting simulator instance.
    fn set_deployment(&mut self, _deployment: Deployment) {}

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

    /// `msg` from `src` to `dst` was lost in flight (network drop, or `dst`
    /// departed the overlay). The default ignores it.
    fn on_loss(
        &mut self,
        _src: NodeId,
        _dst: NodeId,
        _msg: Self::Msg,
        _cx: &mut Cx<'_, Self::Msg>,
    ) {
    }
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

    fn set_deployment(&mut self, deployment: Deployment) {
        (**self).set_deployment(deployment)
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

    fn on_loss(&mut self, src: NodeId, dst: NodeId, msg: Self::Msg, cx: &mut Cx<'_, Self::Msg>) {
        (**self).on_loss(src, dst, msg, cx)
    }
}

/// The synchronous adapter: any round-driven [`EstimationProtocol`] runs
/// unchanged as a [`NodeProtocol`] whose step handler executes one atomic
/// protocol step and reports its outcome.
///
/// It sends no messages (traffic is charged straight to the network's
/// counter), so latency and loss cannot reach it: over *any* network model
/// its trace equals the historic round-driven one — the golden-trace
/// equivalence behind the `run_scenario` refactor.
pub struct SyncStep<'p, P: ?Sized> {
    /// The wrapped round-driven protocol.
    pub inner: &'p mut P,
}

impl<'p, P: EstimationProtocol + ?Sized> SyncStep<'p, P> {
    /// Wraps `inner` for one driver run.
    pub fn new(inner: &'p mut P) -> Self {
        SyncStep { inner }
    }
}

impl<P: EstimationProtocol + ?Sized> NodeProtocol for SyncStep<'_, P> {
    type Msg = ();

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_init(&mut self, cx: &mut Cx<'_, ()>) {
        self.inner.start(cx.graph, cx.rng);
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn on_step(&mut self, _step: u64, cx: &mut Cx<'_, ()>) {
        let outcome = self
            .inner
            .step(cx.graph, &mut *cx.rng, cx.net.counter_mut());
        cx.report(outcome);
    }

    fn on_message(&mut self, _src: NodeId, _dst: NodeId, _msg: (), _cx: &mut Cx<'_, ()>) {
        unreachable!("the synchronous adapter never sends messages");
    }
}

/// Runs a [`NodeProtocol`] behind the [`SizeEstimator`] interface: the
/// adapter owns a [`Network`] under the given model and drives it, one step
/// window at a time, until the protocol closes a reporting period.
///
/// Through the blanket `SizeEstimator → EstimationProtocol` adapter this
/// plugs the event-driven protocols into every round-driven consumer —
/// most importantly [`SizeMonitor`](crate::SizeMonitor), which thereby
/// monitors through the message-level network: one monitor tick = one
/// estimation under latency and loss.
///
/// The network's latency/loss stream is seeded by `net_seed` at
/// construction, so runs stay deterministic per `(protocol seed,
/// net_seed)` pair.
pub struct Networked<P: NodeProtocol> {
    /// Estimation slots driven without a report before `estimate` gives up
    /// (safety valve for protocols starved by a pathological overlay).
    pub max_steps_per_estimate: u64,
    /// The wrapped protocol on its own event core. The core's RNG slot
    /// holds the caller's stream for the duration of each `estimate` call.
    core: ShardCore<P>,
    step: u64,
    started: bool,
    queue: VecDeque<StepOutcome>,
}

impl<P: NodeProtocol> Networked<P> {
    /// Wraps `protocol` over a fresh network under `model`.
    pub fn new(protocol: P, model: NetworkModel, net_seed: u64) -> Self {
        Networked {
            max_steps_per_estimate: 100_000,
            core: ShardCore::new(protocol, Network::new(model, net_seed), small_rng(0)),
            step: 0,
            started: false,
            queue: VecDeque::new(),
        }
    }

    /// Network accounting so far (sent/delivered/dropped/churn-lost).
    pub fn net_stats(&self) -> &p2p_sim::NetStats {
        self.core.net.stats()
    }

    /// Steps driven so far.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Drives the core one step window at a time (`on_step`, then every
    /// event up to the window's end) until a reporting period closes.
    fn drive(&mut self, graph: &Graph) -> Option<f64> {
        if !self.started {
            self.started = true;
            self.core.init(graph);
        }
        for _ in 0..self.max_steps_per_estimate {
            match self.queue.pop_front() {
                Some(StepOutcome::Estimate(e)) => return Some(e),
                Some(StepOutcome::Failed) => return None,
                Some(StepOutcome::Pending) => continue,
                None => {}
            }
            self.step += 1;
            self.core.step(self.step, graph);
            let horizon = SimTime(self.step * self.core.net.model().step_ticks);
            self.core.run_until(horizon, &mut SimHost(graph));
            self.queue.extend(self.core.drain_reports());
        }
        None
    }
}

/// Routes one popped network event to the matching protocol handler,
/// reclassifying deliveries to departed nodes as churn losses — the
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
    shard_core::deliver_event(protocol, event, cx, true);
}

impl<P: NodeProtocol> SizeEstimator for Networked<P> {
    fn name(&self) -> &'static str {
        self.core.protocol.name()
    }

    fn estimate(
        &mut self,
        graph: &Graph,
        rng: &mut SmallRng,
        msgs: &mut MessageCounter,
    ) -> Option<f64> {
        std::mem::swap(&mut self.core.rng, rng);
        let estimate = self.drive(graph);
        std::mem::swap(&mut self.core.rng, rng);
        msgs.merge(&self.core.net.take_counter());
        estimate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Heuristic, SampleCollide, SizeMonitor};
    use p2p_overlay::builder::{GraphBuilder, HeterogeneousRandom};
    use p2p_sim::rng::small_rng;
    use p2p_sim::HopLatency;

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

    #[test]
    fn sync_step_reproduces_the_round_driven_step_bit_for_bit() {
        let graph = overlay(1_500, 800);
        // Round-driven reference.
        let mut rng_a = small_rng(801);
        let mut msgs_a = MessageCounter::new();
        let mut reference = SampleCollide::cheap();
        let direct = reference.step(&graph, &mut rng_a, &mut msgs_a);

        // The same protocol through the synchronous adapter over a network.
        let mut rng_b = small_rng(801);
        let mut inner = SampleCollide::cheap();
        let mut adapter = SyncStep::new(&mut inner);
        let mut net: Network<()> = Network::new(NetworkModel::ideal(), 999);
        let mut reports = Vec::new();
        let mut cx = Cx::new(&graph, &mut net, &mut rng_b, &mut reports);
        adapter.on_init(&mut cx);
        adapter.on_step(1, &mut cx);
        assert_eq!(reports, vec![direct]);
        assert_eq!(net.counter(), &msgs_a);
        assert_eq!(net.stats().sent, 0, "the adapter routes no messages");
    }

    #[test]
    fn async_sample_collide_estimates_accurately_over_an_ideal_network() {
        let graph = overlay(2_000, 810);
        let mut rng = small_rng(811);
        let mut msgs = MessageCounter::new();
        let mut netp = Networked::new(AsyncSampleCollide::cheap(), NetworkModel::ideal(), 812);
        let mut mean = 0.0;
        let runs = 5;
        for _ in 0..runs {
            mean += netp.estimate(&graph, &mut rng, &mut msgs).unwrap();
        }
        mean /= runs as f64;
        let q = mean / 2_000.0;
        assert!((0.7..1.3).contains(&q), "quality {q}");
        // Every hop and reply was a real network message.
        assert_eq!(msgs.total(), netp.net_stats().sent);
        assert!(netp.net_stats().delivered > 1_000);
    }

    #[test]
    fn async_sample_collide_is_deterministic_per_seed() {
        let graph = overlay(1_000, 820);
        let run = || {
            let mut rng = small_rng(821);
            let mut msgs = MessageCounter::new();
            let mut netp = Networked::new(
                AsyncSampleCollide::cheap(),
                NetworkModel::wan().with_drop_rate(0.05),
                822,
            );
            let estimates: Vec<Option<f64>> = (0..3)
                .map(|_| netp.estimate(&graph, &mut rng, &mut msgs))
                .collect();
            (estimates, msgs)
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
        let mut msgs = MessageCounter::new();
        let mut netp = Networked::new(
            AsyncSampleCollide::cheap().with_timeout(1_000),
            slow_net(1.0),
            832,
        );
        let est = netp.estimate(&graph, &mut rng, &mut msgs).unwrap();
        assert!(est > 0.0);
        // ≈ √(2·10·500) samples × ≈ 72 sequential 1 ms hops ≫ one window.
        assert!(
            netp.steps() > 2,
            "a walk of thousands of sequential hops must span windows, took {}",
            netp.steps()
        );
    }

    #[test]
    fn total_loss_fails_every_estimation() {
        let graph = overlay(300, 840);
        let mut rng = small_rng(841);
        let mut msgs = MessageCounter::new();
        let mut netp = Networked::new(
            AsyncSampleCollide::cheap(),
            NetworkModel::ideal().with_drop_rate(1.0),
            842,
        );
        for _ in 0..3 {
            assert!(netp.estimate(&graph, &mut rng, &mut msgs).is_none());
        }
        assert!(netp.net_stats().dropped >= 3, "first hop dropped each run");
    }

    #[test]
    fn async_hops_sampling_underestimates_like_the_sync_variant() {
        let graph = overlay(5_000, 850);
        let mut rng = small_rng(851);
        let mut msgs = MessageCounter::new();
        let mut netp = Networked::new(AsyncHopsSampling::paper(), slow_net(1.0), 852);
        let mut mean = 0.0;
        let runs = 6;
        for _ in 0..runs {
            mean += netp.estimate(&graph, &mut rng, &mut msgs).unwrap();
        }
        let q = mean / runs as f64 / 5_000.0;
        // The membership-substrate spread reaches ≈ 80%; the poll then sits
        // below truth but well inside the paper's band.
        assert!((0.55..1.15).contains(&q), "mean quality {q}");
        assert!(msgs.get(MessageKind::GossipForward) > 0);
        assert!(msgs.get(MessageKind::PollReply) > 0);
    }

    #[test]
    fn hops_sampling_loss_only_shrinks_the_estimate() {
        let graph = overlay(3_000, 860);
        let estimate_under = |drop: f64| {
            let mut rng = small_rng(861);
            let mut msgs = MessageCounter::new();
            let mut netp = Networked::new(
                AsyncHopsSampling::paper(),
                slow_net(1.0).with_drop_rate(drop),
                862,
            );
            let mut sum = 0.0;
            for _ in 0..5 {
                sum += netp.estimate(&graph, &mut rng, &mut msgs).unwrap();
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
        let mut msgs = MessageCounter::new();
        let mut netp = Networked::new(AsyncAggregation::paper(), slow_net(1.0), 872);
        let est = netp.estimate(&graph, &mut rng, &mut msgs).unwrap();
        let q = est / 1_000.0;
        assert!((0.9..1.1).contains(&q), "epoch estimate quality {q}");
        // 50 rounds; the read timer lands on the final round's window edge.
        assert_eq!(netp.steps(), 50);
        assert!(msgs.get(MessageKind::AggregationPush) > 0);
        assert!(msgs.get(MessageKind::AggregationPull) > 0);
    }

    #[test]
    fn size_monitor_runs_through_the_network() {
        // The monitor route the tentpole asks for: SizeMonitor around a
        // Networked protocol = a perpetual gauge under latency and loss.
        let graph = overlay(1_500, 880);
        let mut rng = small_rng(881);
        let mut mon = SizeMonitor::new(
            Networked::new(AsyncSampleCollide::cheap(), slow_net(1.0), 882),
            Heuristic::OneShot,
            16,
        );
        for _ in 0..5 {
            mon.tick(&graph, &mut rng);
        }
        assert_eq!(mon.ticks(), 5);
        assert!(mon.reports() >= 3, "reports {}", mon.reports());
        let current = mon.current().unwrap();
        assert!((current / 1_500.0 - 1.0).abs() < 0.4, "gauge {current}");
        assert!(mon.total_messages().total() > 0);
    }

    #[test]
    fn churn_eats_a_walk_in_flight() {
        // A 2-node overlay: the first hop is in flight when its destination
        // departs. The driver reclassifies the delivery as a churn loss and
        // the protocol reports the estimation failed.
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
        assert_eq!(reports, vec![StepOutcome::Failed]);
        assert_eq!(net.stats().churn_lost, 1);
    }
}
