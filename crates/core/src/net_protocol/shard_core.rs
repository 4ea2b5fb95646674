//! The one drive loop for the [`Cx`] contract.
//!
//! A [`ShardCore`] is everything one event core needs to execute a
//! [`NodeProtocol`]: the protocol instance, its [`Network`] (timing wheel
//! holding the in-flight messages, latency/loss stream), its protocol RNG, the report buffer
//! and — when it hosts only a slice of the overlay — its [`ShardView`] and
//! cross-shard [`Outbox`]. [`ShardCore::run_until`] is the only place
//! matured events are popped and mapped onto `on_message` / `on_timer`;
//! every driver (the sequential scenario runner, the sharded engine,
//! [`SizeMonitor`](crate::SizeMonitor), the UDP node runtime) is a
//! [`Host`] around one or more cores.
//!
//! What differs between drivers sits behind the [`Host`] seam, which is
//! monomorphised into the loop (no `dyn` on the hot path). Its defaults
//! are the simulator's answers; DESIGN.md ("The drive loop") tabulates
//! every host × {controls, forward, clock}. In the simulator `forward` is
//! unreachable because a routed [`Cx::send`] diverts remote sends at
//! *send* time ([`Network::route_remote`] → outbox); over sockets latency
//! is served on the sender's wheel and the frame leaves at *maturity*.
//! Loss is silent in every driver: an injected drop never enters the
//! wheel, and a delivery to a departed node is counted and reaches no
//! handler, so protocols detect loss by timeout, as on a real network.

use super::{Cx, NodeProtocol, ShardView};
use crate::protocol::StepOutcome;
use p2p_overlay::{Graph, NodeId};
use p2p_sim::shard::Outbox;
use p2p_sim::{NetEvent, Network, SimTime};
use rand::rngs::SmallRng;

/// What a driver supplies around a [`ShardCore`]: the overlay it runs on
/// and the two decisions that differ between the simulator and a real
/// deployment. The defaults are the simulator's: the wheel carries no
/// control events, and nothing matures for a slot hosted elsewhere.
pub trait Host<P: NodeProtocol> {
    /// The overlay as of now (the host owns churn).
    fn graph(&self) -> &Graph;

    /// A [`NetEvent::Control`] the host scheduled on the core's wheel
    /// popped. The one host that schedules any, the sequential runner,
    /// schedules only its step grid, tagged with the bare step number.
    fn control(&mut self, _tag: u64, _core: &mut ShardCore<P>) {
        unreachable!("this host schedules no control events")
    }

    /// A delivery matured for a node this core does not host.
    fn forward(&mut self, _src: NodeId, _dst: NodeId, _msg: P::Msg) {
        unreachable!("remote sends divert at send time in the simulator")
    }

    /// Out-of-band observation of one popped batch of `len` simultaneous
    /// events (telemetry); never feeds back into the run.
    fn batch(&mut self, _len: usize) {}
}

/// The plain simulator host: an overlay and the [`Host`] defaults.
pub struct SimHost<'a>(pub &'a Graph);

impl<P: NodeProtocol> Host<P> for SimHost<'_> {
    fn graph(&self) -> &Graph {
        self.0
    }
}

/// One event core executing a [`NodeProtocol`] (see the module docs).
pub struct ShardCore<P: NodeProtocol> {
    /// The protocol instance this core drives.
    pub protocol: P,
    /// The core's event queue and network model.
    pub net: Network<P::Msg>,
    /// The protocol's RNG stream (never the network's latency/loss stream).
    pub rng: SmallRng,
    reports: Vec<StepOutcome>,
    batch: Vec<NetEvent<P::Msg>>,
    /// `None` hosts the whole overlay.
    view: Option<ShardView>,
    outbox: Option<Outbox<P::Msg>>,
}

impl<P: NodeProtocol> ShardCore<P> {
    /// A core hosting the whole overlay.
    pub fn new(protocol: P, net: Network<P::Msg>, rng: SmallRng) -> Self {
        ShardCore {
            protocol,
            net,
            rng,
            reports: Vec::new(),
            batch: Vec::new(),
            view: None,
            outbox: None,
        }
    }

    /// A core hosting the slots of `view`, which every handler sees
    /// through its [`Cx`]. With an `outbox`, sends to remote-hosted slots
    /// divert into its lanes at send time (the sharded simulator's
    /// tick-barrier exchange); without, they ride the local wheel and reach
    /// [`Host::forward`] at maturity.
    pub fn shard(
        protocol: P,
        net: Network<P::Msg>,
        rng: SmallRng,
        view: ShardView,
        outbox: Option<Outbox<P::Msg>>,
    ) -> Self {
        ShardCore {
            view: Some(view),
            outbox,
            ..Self::new(protocol, net, rng)
        }
    }

    /// The cross-shard lanes filled since the last exchange.
    pub fn outbox(&mut self) -> &mut Outbox<P::Msg> {
        self.outbox.as_mut().expect("core built without an outbox")
    }

    /// Reporting periods closed since the last drain, in event order.
    pub fn drain_reports(&mut self) -> std::vec::Drain<'_, StepOutcome> {
        self.reports.drain(..)
    }

    fn parts<'a>(&'a mut self, graph: &'a Graph) -> (&'a mut P, Cx<'a, P::Msg>) {
        let cx = Cx {
            graph,
            net: &mut self.net,
            rng: &mut self.rng,
            reports: &mut self.reports,
            view: self.view,
            outbox: self.outbox.as_mut(),
        };
        (&mut self.protocol, cx)
    }

    /// Runs the protocol's `on_init` on the initial overlay.
    pub fn init(&mut self, graph: &Graph) {
        let (protocol, mut cx) = self.parts(graph);
        protocol.on_init(&mut cx);
    }

    /// Runs the protocol's `on_step` for step `step` at the current clock.
    pub fn step(&mut self, step: u64, graph: &Graph) {
        let (protocol, mut cx) = self.parts(graph);
        protocol.on_step(step, &mut cx);
    }

    /// Pops and handles every event due at or before `horizon`, leaving
    /// later events queued and the clock parked at `horizon`.
    pub fn run_until<H: Host<P>>(&mut self, horizon: SimTime, host: &mut H) {
        // Batched dispatch: one wheel probe per simultaneous bucket, same
        // event order as single pops bit for bit (pinned by
        // `pop_batch_matches_single_pops_event_for_event`).
        let mut batch = std::mem::take(&mut self.batch);
        while self.net.pop_batch_until(horizon, &mut batch).is_some() {
            host.batch(batch.len());
            for event in batch.drain(..) {
                self.handle(event, host);
            }
        }
        self.batch = batch;
    }

    /// Handles one event — popped by [`run_until`](Self::run_until), or
    /// arrived from outside the wheel (a decoded datagram, whose latency
    /// the sender's wheel already served).
    pub fn handle<H: Host<P>>(&mut self, event: NetEvent<P::Msg>, host: &mut H) {
        match event {
            NetEvent::Control { tag } => host.control(tag, self),
            // With an outbox nothing matures here for a remote slot.
            NetEvent::Deliver { src, dst, msg }
                if self.outbox.is_none()
                    && self.view.is_some_and(|view| !view.hosts(NodeId(dst))) =>
            {
                host.forward(NodeId(src), NodeId(dst), msg)
            }
            event => {
                let (protocol, cx) = self.parts(host.graph());
                deliver_event(protocol, event, cx);
            }
        }
    }
}

/// The event → handler mapping, shared by [`ShardCore::handle`] and the
/// parts-based [`dispatch`](super::dispatch) front: a delivery to a
/// departed node is counted as a churn loss and reaches no handler.
pub(super) fn deliver_event<P: NodeProtocol>(
    protocol: &mut P,
    event: NetEvent<P::Msg>,
    mut cx: Cx<'_, P::Msg>,
) {
    match event {
        NetEvent::Deliver { src, dst, msg } => {
            let (src, dst) = (NodeId(src), NodeId(dst));
            if cx.graph.is_alive(dst) {
                protocol.on_message(src, dst, msg, &mut cx);
            } else {
                cx.net.note_churn_loss();
            }
        }
        NetEvent::Timer { node, tag } => protocol.on_timer(NodeId(node), tag, &mut cx),
        NetEvent::Control { .. } => unreachable!("controls go to the host"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_sim::rng::small_rng;
    use p2p_sim::{HopLatency, MessageKind, NetworkModel};

    /// Records each `(dst, msg)` delivery the handler heard.
    #[derive(Default)]
    struct Probe(Vec<(NodeId, u32)>);

    impl NodeProtocol for Probe {
        type Msg = u32;

        fn name(&self) -> &'static str {
            "probe"
        }

        fn on_step(&mut self, _step: u64, _cx: &mut Cx<'_, u32>) {}

        fn on_message(&mut self, _src: NodeId, dst: NodeId, msg: u32, _cx: &mut Cx<'_, u32>) {
            self.0.push((dst, msg));
        }
    }

    /// A recording host over the two-node overlay `0 — 1`.
    struct FakeHost {
        graph: Graph,
        forwarded: Vec<(NodeId, NodeId, u32)>,
        /// `(tag, handler calls the protocol had seen when it popped)`.
        controls: Vec<(u64, usize)>,
    }

    impl FakeHost {
        fn new() -> Self {
            let mut graph = Graph::with_nodes(2);
            graph.add_edge(NodeId(0), NodeId(1));
            FakeHost {
                graph,
                forwarded: Vec::new(),
                controls: Vec::new(),
            }
        }
    }

    impl Host<Probe> for FakeHost {
        fn graph(&self) -> &Graph {
            &self.graph
        }

        fn control(&mut self, tag: u64, core: &mut ShardCore<Probe>) {
            self.controls.push((tag, core.protocol.0.len()));
        }

        fn forward(&mut self, src: NodeId, dst: NodeId, msg: u32) {
            self.forwarded.push((src, dst, msg));
        }
    }

    /// Every hop takes exactly 5 ticks.
    fn five_tick_hops() -> NetworkModel {
        NetworkModel::ideal().with_latency(HopLatency::Constant(5.0))
    }

    fn whole_overlay_core(model: NetworkModel) -> ShardCore<Probe> {
        ShardCore::new(Probe::default(), Network::new(model, 11), small_rng(12))
    }

    #[test]
    fn a_matured_delivery_to_a_remote_slot_is_forwarded_exactly_once() {
        let view = ShardView {
            proc: 0,
            procs: 2,
            estimator: None,
        };
        let net = Network::new(five_tick_hops(), 11);
        let mut core = ShardCore::shard(Probe::default(), net, small_rng(12), view, None);
        let mut host = FakeHost::new();
        core.net.send(0, 1, MessageKind::Control, 7);
        core.net.send(1, 0, MessageKind::Control, 8);
        core.run_until(SimTime(10), &mut host);
        assert_eq!(host.forwarded, vec![(NodeId(0), NodeId(1), 7)]);
        assert_eq!(core.protocol.0, vec![(NodeId(0), 8)]);
    }

    #[test]
    fn a_delivery_to_a_departed_node_is_a_silent_churn_loss() {
        let mut core = whole_overlay_core(five_tick_hops());
        let mut host = FakeHost::new();
        core.net.send(0, 1, MessageKind::Control, 7);
        host.graph.remove_node(NodeId(1));
        core.run_until(SimTime(10), &mut host);
        assert_eq!(core.net.stats().churn_lost, 1);
        assert_eq!(core.net.stats().delivered, 0);
        assert!(core.protocol.0.is_empty(), "no handler hears a loss");
    }

    #[test]
    fn an_injected_drop_is_silent() {
        let mut core = whole_overlay_core(five_tick_hops().with_drop_rate(1.0));
        let mut host = FakeHost::new();
        core.net.send(0, 1, MessageKind::Control, 7);
        core.run_until(SimTime(10), &mut host);
        assert_eq!(core.net.stats().dropped, 1);
        assert!(core.protocol.0.is_empty(), "no handler hears a loss");
    }

    #[test]
    fn controls_reach_the_host_in_fifo_order_ahead_of_same_tick_deliveries() {
        let mut core = whole_overlay_core(five_tick_hops());
        let mut host = FakeHost::new();
        core.net.schedule_control_at(SimTime(5), 3);
        core.net.schedule_control_at(SimTime(5), 1);
        core.net.send(0, 1, MessageKind::Control, 7);
        core.run_until(SimTime(5), &mut host);
        assert_eq!(host.controls, vec![(3, 0), (1, 0)]);
        assert_eq!(core.protocol.0, vec![(NodeId(1), 7)]);
    }

    #[test]
    fn run_until_leaves_later_events_queued_and_parks_the_clock() {
        let mut core = whole_overlay_core(five_tick_hops());
        let mut host = FakeHost::new();
        core.net.send(0, 1, MessageKind::Control, 7);
        core.run_until(SimTime(3), &mut host);
        assert!(core.protocol.0.is_empty());
        assert_eq!(core.net.now(), SimTime(3));
        assert_eq!(core.net.pending(), 1);
        core.run_until(SimTime(5), &mut host);
        assert_eq!(core.protocol.0, vec![(NodeId(1), 7)]);
    }
}
