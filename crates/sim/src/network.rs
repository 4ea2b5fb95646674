//! The message-level network: latency, loss and deterministic delivery.
//!
//! The HPDC paper's simulator "does not model the physical network topology
//! nor the queuing delays and packet losses" (§IV-A) and flags exactly that
//! as future work (§VI). This module is that future work's substrate: a
//! [`Network`] facade over the discrete-event [`Engine`] that owns every
//! in-flight message (queued inline in the wheel's chunks, payload and all —
//! one write at `send`, one read at delivery), applies a pluggable
//! [`NetworkModel`] (per-hop latency distribution, i.i.d. drop probability,
//! deterministic per-link heterogeneity) and delivers events back to the
//! caller in a fully deterministic order.
//!
//! # Determinism contract
//!
//! For a given `(NetworkModel, seed)` pair a run is bit-reproducible:
//!
//! * every latency and drop draw comes from one private [`SmallRng`] seeded
//!   at construction and consumed strictly in [`send`](Network::send) call
//!   order — protocol RNG streams are never touched;
//! * simultaneous events dispatch in FIFO order of scheduling (structural
//!   in the timing wheel: a one-tick slot is a FIFO chain of chunks), so
//!   zero-latency message cascades replay exactly;
//! * per-link latency factors are a pure hash of `(seed, endpoint pair)` —
//!   the same link is consistently fast or slow within a run, with no O(N²)
//!   state.
//!
//! Changing any model knob (e.g. enabling loss) changes how many draws each
//! `send` consumes, so traces are comparable *per configuration*, not across
//! configurations.
//!
//! The network does not know which addresses are alive — overlays live in
//! `p2p-overlay`, a crate this one does not depend on. Drivers check
//! liveness at delivery time and reclassify deliveries to departed nodes via
//! [`Network::note_churn_loss`]: a message addressed to a node that left
//! while it was in flight is lost, the paper's real dynamic-network failure
//! mode.

use crate::engine::{Engine, EngineStats};
use crate::latency::HopLatency;
use crate::message::{MessageCounter, MessageKind};
use crate::rng::{small_rng, SplitMix64};
use crate::time::SimTime;
use rand::rngs::SmallRng;
use rand::Rng;

/// The pluggable network model: what happens to a message between `send`
/// and delivery.
///
/// One tick is one abstract millisecond, matching [`HopLatency`]'s unit.
/// [`NetworkModel::ideal`] (zero latency, zero loss, no heterogeneity)
/// reproduces the paper's original instantaneous-message simulator.
///
/// This struct is the *shared* latency/loss vocabulary of both execution
/// backends: the DES applies it inside [`Network::send`], and the
/// `p2p-node` cluster runtime reads the same knobs to shape real loopback
/// traffic (one tick = one wall-clock millisecond there), so a cluster run
/// and its DES oracle are matched by construction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetworkModel {
    /// Base one-hop latency distribution (ms). Draws are rounded to whole
    /// ticks after the per-link factor is applied.
    pub latency: HopLatency,
    /// Probability that any individual message is lost in flight.
    pub drop_rate: f64,
    /// Per-link heterogeneity: each unordered endpoint pair gets a fixed
    /// latency multiplier drawn uniformly from `[1 − spread, 1 + spread]`,
    /// derived deterministically from the network seed. `0.0` disables it.
    pub link_spread: f64,
    /// Ticks between consecutive protocol steps on the scenario timeline
    /// (the cadence drivers schedule step/round boundaries at). With the
    /// ideal model the value is irrelevant as long as it is ≥ 1.
    pub step_ticks: u64,
}

impl NetworkModel {
    /// The paper's original modelling choice: instantaneous, lossless
    /// delivery. Running any protocol over this model reproduces the
    /// round-driven traces bit for bit.
    pub fn ideal() -> Self {
        NetworkModel {
            latency: HopLatency::Constant(0.0),
            drop_rate: 0.0,
            link_spread: 0.0,
            step_ticks: 1,
        }
    }

    /// A wide-area profile: uniform 20–200 ms hops, moderate per-link
    /// heterogeneity, step cadence wide enough for one gossip round's
    /// messages to land within the step.
    pub fn wan() -> Self {
        NetworkModel {
            latency: HopLatency::wan(),
            drop_rate: 0.0,
            link_spread: 0.25,
            step_ticks: 400,
        }
    }

    /// Same model with a different latency distribution.
    pub fn with_latency(self, latency: HopLatency) -> Self {
        NetworkModel { latency, ..self }
    }

    /// Same model with a different drop probability.
    ///
    /// # Panics
    /// Panics unless `rate` is in `[0, 1]`.
    pub fn with_drop_rate(self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "drop rate must be in [0,1]");
        NetworkModel {
            drop_rate: rate,
            ..self
        }
    }

    /// Same model with a different per-link latency spread.
    ///
    /// # Panics
    /// Panics unless `spread` is in `[0, 1]`.
    pub fn with_link_spread(self, spread: f64) -> Self {
        assert!((0.0..=1.0).contains(&spread), "spread must be in [0,1]");
        NetworkModel {
            link_spread: spread,
            ..self
        }
    }

    /// Same model with a different step cadence (must be ≥ 1 tick).
    pub fn with_step_ticks(self, ticks: u64) -> Self {
        assert!(ticks >= 1, "steps need a positive tick spacing");
        NetworkModel {
            step_ticks: ticks,
            ..self
        }
    }

    /// Whether this model is indistinguishable from the paper's
    /// instantaneous-message simulator.
    pub fn is_ideal(&self) -> bool {
        self.drop_rate == 0.0 && self.latency == HopLatency::Constant(0.0)
    }

    /// The smallest delay, in ticks, a cross-shard hop can resolve to under
    /// this model: the **lookahead** the sharded driver may run ahead of
    /// its peers between exchanges. Always ≥ 1 (the
    /// [`route_remote`](Network::route_remote) clamp); 15 for
    /// [`wan`](Self::wan); 1 for [`ideal`](Self::ideal) and any
    /// `Exponential` latency, whose draws reach zero.
    ///
    /// The bound mirrors `route_remote`'s own `round().max(0).max(1)`
    /// arithmetic on the distribution's lower end and the smallest link
    /// factor `1 − link_spread`. Every step there is monotone (IEEE
    /// multiplication of non-negative operands, `round`, the clamps), so
    /// no real draw resolves below it.
    pub fn min_hop_ticks(&self) -> u64 {
        let lo = match self.latency {
            HopLatency::Constant(ms) => ms,
            HopLatency::Uniform { lo, .. } => lo,
            HopLatency::Exponential { .. } => 0.0,
        };
        let floor = lo.max(0.0) * (1.0 - self.link_spread);
        (floor.round().max(0.0) as u64).max(1)
    }
}

impl Default for NetworkModel {
    fn default() -> Self {
        Self::ideal()
    }
}

/// Cumulative network accounting for one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages handed to [`Network::send`].
    pub sent: u64,
    /// Messages delivered to their destination address.
    pub delivered: u64,
    /// Messages the model dropped, counted at send time (a dropped
    /// message is never queued).
    pub dropped: u64,
    /// Messages whose destination departed while they were in flight
    /// (reported by the driver via [`Network::note_churn_loss`]).
    pub churn_lost: u64,
}

impl NetStats {
    /// Messages sent but not yet resolved (still in flight).
    pub fn in_flight(&self) -> u64 {
        self.sent - self.delivered - self.dropped - self.churn_lost
    }

    /// Folds another network's accounting into this one — the sharded
    /// runner's whole-run totals, accumulated in shard-index order.
    /// Cross-shard traffic stays consistent because a remote send is
    /// counted `sent` at the source shard and `delivered`/`dropped` at
    /// exactly one shard (drops at the source, deliveries at the
    /// destination), so the merged sum partitions like a single network's.
    pub fn merge_from(&mut self, other: &NetStats) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.churn_lost += other.churn_lost;
    }
}

/// A cross-shard message in transit between two shards' networks: routed
/// out of the source shard's [`Network`] by
/// [`route_remote`](Network::route_remote) (which already consumed the
/// latency/drop draws and resolved the delivery tick) and enqueued into the
/// destination shard's wheel by [`enqueue_remote`](Network::enqueue_remote).
#[derive(Clone, Debug, PartialEq)]
pub struct RemoteMsg<M> {
    /// Sending node slot.
    pub src: u32,
    /// Receiving node slot (hosted by the destination shard).
    pub dst: u32,
    /// Absolute delivery tick, ≥ send tick +
    /// [`min_hop_ticks`](NetworkModel::min_hop_ticks): the
    /// conservative-lookahead guarantee window synchronization relies on.
    pub at: SimTime,
    /// Traffic class the send was charged as.
    pub kind: MessageKind,
    /// The payload.
    pub msg: M,
}

/// An event dispatched by the [`Network`].
///
/// Addresses are raw `u32` node slots (this crate does not know the overlay
/// crate's `NodeId`; drivers convert at the boundary).
#[derive(Clone, Debug, PartialEq)]
pub enum NetEvent<M> {
    /// `msg` arrives at `dst`.
    Deliver {
        /// Sending node slot.
        src: u32,
        /// Receiving node slot.
        dst: u32,
        /// The payload.
        msg: M,
    },
    /// A protocol timer at `node` fired.
    Timer {
        /// The node the timer belongs to.
        node: u32,
        /// Protocol-defined discriminator.
        tag: u64,
    },
    /// A driver-level control event (the drivers' step boundaries).
    Control {
        /// Driver-defined discriminator.
        tag: u64,
    },
}

/// The queued form of a [`NetEvent`]: the payload travels inline through
/// the wheel (every wire format is a few words and the wheel's chunks are
/// the only pool), with the traffic class the delivery will be counted
/// under.
enum QueuedEvent<M> {
    Deliver {
        src: u32,
        dst: u32,
        msg: M,
        kind: MessageKind,
    },
    Timer {
        node: u32,
        tag: u64,
    },
    Control {
        tag: u64,
    },
}

/// The network facade: owns the event queue (in-flight messages, timers,
/// control events), applies the [`NetworkModel`] on every send, and counts
/// all traffic on its internal [`MessageCounter`] — dropped messages were
/// still sent, so the paper's overhead metric includes them.
///
/// In-flight messages live in the engine's chunk pool and nowhere else; at
/// steady state a send performs zero allocations (see
/// [`engine_stats`](Self::engine_stats) for the measured hit rate).
pub struct Network<M> {
    engine: Engine<QueuedEvent<M>>,
    model: NetworkModel,
    rng: SmallRng,
    link_salt: u64,
    counter: MessageCounter,
    stats: NetStats,
    /// Per-kind delivery accounting (telemetry): with the per-kind sends in
    /// `counter`, `sent − delivered − dropped` per kind is the in-flight
    /// population of each message class.
    delivered_by_kind: MessageCounter,
    dropped_by_kind: MessageCounter,
}

/// Cap on events drained per [`Network::pop_batch`] call. Bounds the
/// transient batch buffer on dense ticks (a 10M-node round can put the
/// whole population's messages on one tick) while amortizing the wheel's
/// bitmap probes over thousands of events.
const BATCH_EVENTS: usize = 4096;

impl<M> Network<M> {
    /// A network under `model`, with all latency/loss draws seeded by
    /// `seed`. Use a derived stream (e.g. `derive_seed(master, NET)`), never
    /// the protocol's own RNG, so protocol traces stay comparable across
    /// network configurations.
    pub fn new(model: NetworkModel, seed: u64) -> Self {
        Network {
            engine: Engine::new(),
            model,
            rng: small_rng(seed),
            link_salt: seed,
            counter: MessageCounter::new(),
            stats: NetStats::default(),
            delivered_by_kind: MessageCounter::new(),
            dropped_by_kind: MessageCounter::new(),
        }
    }

    /// The model in effect.
    pub fn model(&self) -> &NetworkModel {
        &self.model
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Number of pending events (messages, timers and control events).
    pub fn pending(&self) -> usize {
        self.engine.len()
    }

    /// Cumulative traffic counts, per [`MessageKind`].
    pub fn counter(&self) -> &MessageCounter {
        &self.counter
    }

    /// Mutable access to the traffic counter, for protocols that charge
    /// traffic they do not route message-by-message (the synchronous
    /// adapter).
    pub fn counter_mut(&mut self) -> &mut MessageCounter {
        &mut self.counter
    }

    /// Takes the traffic counter, leaving zeros.
    pub fn take_counter(&mut self) -> MessageCounter {
        self.counter.take()
    }

    /// Delivery/loss accounting so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Per-kind delivery accounting (telemetry).
    pub fn delivered_by_kind(&self) -> &MessageCounter {
        &self.delivered_by_kind
    }

    /// Per-kind in-flight drop accounting (telemetry).
    pub fn dropped_by_kind(&self) -> &MessageCounter {
        &self.dropped_by_kind
    }

    /// Event-core accounting: events dispatched, peak queue depth, and the
    /// chunk pool's hit/alloc counters (the "zero steady-state
    /// allocations" evidence — see [`EngineStats::pool_hit_rate`]).
    pub fn engine_stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// Reclassifies the delivery most recently popped as lost to churn:
    /// drivers call this instead of handling a [`NetEvent::Deliver`] whose
    /// destination has departed the overlay.
    pub fn note_churn_loss(&mut self) {
        self.stats.delivered -= 1;
        self.stats.churn_lost += 1;
    }

    /// The deterministic latency multiplier of the unordered link `a — b`.
    fn link_factor(&self, a: u32, b: u32) -> f64 {
        if self.model.link_spread == 0.0 {
            return 1.0;
        }
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let key =
            self.link_salt ^ (((lo as u64) << 32) | hi as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let h = SplitMix64::new(key).next_u64();
        // Top 53 bits → uniform in [0, 1).
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        1.0 + self.model.link_spread * (2.0 * u - 1.0)
    }

    /// Charges one message of `kind` and draws its latency and fate, in
    /// that order, from the private stream. Returns the delay, or `None`
    /// after counting a drop: a lost message never enters the wheel, and
    /// nobody is told it died — protocols notice loss by timeout, as on a
    /// real network.
    fn draw(&mut self, src: u32, dst: u32, kind: MessageKind) -> Option<u64> {
        self.counter.count(kind);
        self.stats.sent += 1;
        let base = self.model.latency.sample(&mut self.rng);
        let delay = crate::time::round_to_u64(base * self.link_factor(src, dst));
        if self.model.drop_rate > 0.0 && self.rng.gen::<f64>() < self.model.drop_rate {
            self.stats.dropped += 1;
            self.dropped_by_kind.count(kind);
            return None;
        }
        Some(delay)
    }

    /// Sends `msg` from `src` to `dst`, charging one message of `kind`.
    ///
    /// The model decides the message's fate now, with draws consumed in
    /// send order: it is queued as a [`NetEvent::Deliver`] after the drawn
    /// latency, or counted dropped and discarded.
    pub fn send(&mut self, src: u32, dst: u32, kind: MessageKind, msg: M) {
        if let Some(delay) = self.draw(src, dst, kind) {
            self.engine.schedule_in(
                delay,
                QueuedEvent::Deliver {
                    src,
                    dst,
                    msg,
                    kind,
                },
            );
        }
    }

    /// Routes a message whose destination lives on *another shard*: charges
    /// the send and consumes the model's latency/drop draws exactly like
    /// [`send`](Self::send) (same private stream, same send-order
    /// discipline), but clamps the delay to ≥ 1 tick — the floor of the
    /// cross-shard lookahead ([`NetworkModel::min_hop_ticks`] is the
    /// model's full bound) that lets every shard execute a whole window
    /// before the barrier exchange. Returns the resolved in-transit message for the
    /// caller to buffer toward the destination shard, or `None` when the
    /// model dropped it — counted here, at the sending shard, and gone.
    pub fn route_remote(
        &mut self,
        src: u32,
        dst: u32,
        kind: MessageKind,
        msg: M,
    ) -> Option<RemoteMsg<M>> {
        let delay = self.draw(src, dst, kind)?.max(1);
        Some(RemoteMsg {
            src,
            dst,
            at: self.engine.now() + delay,
            kind,
            msg,
        })
    }

    /// Enqueues a message routed out of another shard by
    /// [`route_remote`](Network::route_remote) into this (destination)
    /// shard's wheel at its resolved delivery tick. The delivery is counted
    /// here, so merged per-shard [`NetStats`] partition exactly like a
    /// single network's. Callers must enqueue in (source-shard-index, FIFO)
    /// order — that ordering *is* the sharded determinism contract.
    pub fn enqueue_remote(&mut self, m: RemoteMsg<M>) {
        self.engine.schedule_at(
            m.at,
            QueuedEvent::Deliver {
                src: m.src,
                dst: m.dst,
                msg: m.msg,
                kind: m.kind,
            },
        );
    }

    /// Schedules a protocol timer at `node`, `delay` ticks from now.
    pub fn schedule_timer_in(&mut self, delay: u64, node: u32, tag: u64) {
        self.engine
            .schedule_in(delay, QueuedEvent::Timer { node, tag });
    }

    /// Schedules a driver control event at absolute time `time`.
    pub fn schedule_control_at(&mut self, time: SimTime, tag: u64) {
        self.engine.schedule_at(time, QueuedEvent::Control { tag });
    }

    /// Timestamp of the earliest pending event, if any — what a wall-clock
    /// pump needs to sleep precisely until the next due timer or delivery
    /// without popping anything.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.engine.peek_time()
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, NetEvent<M>)> {
        let (t, ev) = self.engine.pop()?;
        let ev = resolve(&mut self.stats, &mut self.delivered_by_kind, ev);
        Some((t, ev))
    }

    /// Drains the next batch of simultaneous events into `out` (cleared
    /// first), advancing the clock to their shared timestamp. Returns that
    /// timestamp, or `None` when the queue is empty.
    ///
    /// Event order across successive calls is bit-for-bit what repeated
    /// [`pop`](Self::pop) calls produce (the wheel drains one level-0
    /// bucket front-to-back; see [`Engine::pop_bucket`]), so a driver may
    /// handle the batch in a plain `for` loop — including calling
    /// [`note_churn_loss`](Self::note_churn_loss) per delivery and sending
    /// follow-ups, which land in later batches. Dense ticks larger than
    /// the internal cap are split over several calls. Each event is
    /// resolved as it leaves the wheel, straight into `out`.
    pub fn pop_batch(&mut self, out: &mut Vec<NetEvent<M>>) -> Option<SimTime> {
        let Network {
            engine,
            stats,
            delivered_by_kind,
            ..
        } = self;
        engine.pop_bucket_map(out, BATCH_EVENTS, |ev| {
            resolve(stats, delivered_by_kind, ev)
        })
    }

    /// [`pop_batch`](Self::pop_batch) bounded by a horizon: drains the next
    /// simultaneous batch if it is due at or before `horizon`, otherwise
    /// returns `None` (leaving later events queued) and parks the clock at
    /// `horizon`. What every driver's drive loop pops with: a
    /// barrier-synchronized shard uses it to execute exactly one agreed
    /// window.
    pub fn pop_batch_until(
        &mut self,
        horizon: SimTime,
        out: &mut Vec<NetEvent<M>>,
    ) -> Option<SimTime> {
        match self.engine.peek_time() {
            Some(t) if t <= horizon => self.pop_batch(out),
            _ => {
                out.clear();
                self.engine.advance_to(horizon);
                None
            }
        }
    }

    /// Advances the clock to `t` without dispatching anything (see
    /// [`Engine::advance_to`]): the sharded driver parks every shard at the
    /// agreed barrier tick before running its step handler, so sends from
    /// `on_step` are timestamped relative to the tick being executed even
    /// on shards that had no events of their own.
    ///
    /// # Panics
    /// Panics if an event earlier than `t` is still pending.
    pub fn advance_to(&mut self, t: SimTime) {
        self.engine.advance_to(t);
    }
}

/// Resolves a queued event into its caller-facing form, bumping the
/// delivery counters.
#[inline]
fn resolve<M>(
    stats: &mut NetStats,
    delivered_by_kind: &mut MessageCounter,
    ev: QueuedEvent<M>,
) -> NetEvent<M> {
    match ev {
        QueuedEvent::Deliver {
            src,
            dst,
            msg,
            kind,
        } => {
            stats.delivered += 1;
            delivered_by_kind.count(kind);
            NetEvent::Deliver { src, dst, msg }
        }
        QueuedEvent::Timer { node, tag } => NetEvent::Timer { node, tag },
        QueuedEvent::Control { tag } => NetEvent::Control { tag },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<M>(net: &mut Network<M>) -> Vec<(u64, NetEvent<M>)> {
        std::iter::from_fn(|| net.pop().map(|(t, e)| (t.ticks(), e))).collect()
    }

    #[test]
    fn ideal_model_delivers_in_send_order_at_the_same_tick() {
        let mut net: Network<u32> = Network::new(NetworkModel::ideal(), 1);
        for i in 0..5 {
            net.send(0, i, MessageKind::Control, i);
        }
        let got = drain(&mut net);
        assert_eq!(got.len(), 5);
        for (i, (t, ev)) in got.into_iter().enumerate() {
            assert_eq!(t, 0);
            assert_eq!(
                ev,
                NetEvent::Deliver {
                    src: 0,
                    dst: i as u32,
                    msg: i as u32
                }
            );
        }
        assert_eq!(net.stats().delivered, 5);
        assert_eq!(net.stats().in_flight(), 0);
        assert_eq!(net.counter().get(MessageKind::Control), 5);
    }

    #[test]
    fn latency_orders_deliveries_by_drawn_delay() {
        let model = NetworkModel::ideal().with_latency(HopLatency::Uniform {
            lo: 10.0,
            hi: 200.0,
        });
        let mut net: Network<&str> = Network::new(model, 7);
        net.send(0, 1, MessageKind::Control, "a");
        net.send(0, 2, MessageKind::Control, "b");
        net.send(0, 3, MessageKind::Control, "c");
        let got = drain(&mut net);
        let times: Vec<u64> = got.iter().map(|&(t, _)| t).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted, "deliveries must come out in time order");
        assert!(times.iter().all(|&t| (10..=200).contains(&t)));
    }

    #[test]
    fn runs_are_bit_reproducible_per_seed() {
        let model = NetworkModel::wan().with_drop_rate(0.2);
        let run = |seed: u64| {
            let mut net: Network<u32> = Network::new(model, seed);
            for i in 0..200 {
                net.send(i % 7, (i + 1) % 7, MessageKind::GossipForward, i);
            }
            drain(&mut net)
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn drop_rate_loses_about_the_right_fraction() {
        let model = NetworkModel::ideal().with_drop_rate(0.3);
        let mut net: Network<()> = Network::new(model, 9);
        for _ in 0..10_000 {
            net.send(0, 1, MessageKind::WalkStep, ());
        }
        while net.pop().is_some() {}
        let frac = net.stats().dropped as f64 / 10_000.0;
        assert!((0.27..0.33).contains(&frac), "drop fraction {frac}");
        // Dropped messages still count as overhead: they were sent.
        assert_eq!(net.counter().get(MessageKind::WalkStep), 10_000);
        assert_eq!(net.stats().delivered + net.stats().dropped, 10_000);
    }

    #[test]
    fn a_drop_is_counted_at_send_time_and_never_queued() {
        let model = NetworkModel::ideal()
            .with_latency(HopLatency::Constant(50.0))
            .with_drop_rate(1.0);
        let mut net: Network<&str> = Network::new(model, 4);
        net.send(0, 1, MessageKind::Control, "doomed");
        assert_eq!(net.pending(), 0, "a dropped message never enters the wheel");
        assert_eq!(net.stats().dropped, 1);
        assert_eq!(net.dropped_by_kind().get(MessageKind::Control), 1);
        assert_eq!(net.stats().in_flight(), 0);
        assert!(net.pop().is_none());
    }

    #[test]
    fn link_factors_are_stable_and_heterogeneous() {
        let model = NetworkModel::ideal()
            .with_latency(HopLatency::Constant(100.0))
            .with_link_spread(0.5);
        let mut net: Network<u32> = Network::new(model, 11);
        // Same link twice → same latency; direction must not matter.
        net.send(3, 8, MessageKind::Control, 0);
        net.send(8, 3, MessageKind::Control, 1);
        // A different link → (almost surely) a different latency.
        net.send(3, 9, MessageKind::Control, 2);
        let got = drain(&mut net);
        let time_of = |msg: u32| {
            got.iter()
                .find(|(_, e)| matches!(e, NetEvent::Deliver { msg: m, .. } if *m == msg))
                .map(|&(t, _)| t)
                .unwrap()
        };
        assert_eq!(time_of(0), time_of(1), "a link has one latency");
        assert_ne!(time_of(0), time_of(2), "links are heterogeneous");
        let t = time_of(0);
        assert!((50..=150).contains(&t), "factor within ±spread: {t}");
    }

    #[test]
    fn timers_and_controls_interleave_with_messages() {
        let mut net: Network<&str> = Network::new(
            NetworkModel::ideal().with_latency(HopLatency::Constant(10.0)),
            2,
        );
        net.schedule_control_at(SimTime(5), 77);
        net.send(0, 1, MessageKind::Control, "m");
        net.schedule_timer_in(20, 4, 9);
        let got = drain(&mut net);
        assert_eq!(
            got,
            vec![
                (5, NetEvent::Control { tag: 77 }),
                (
                    10,
                    NetEvent::Deliver {
                        src: 0,
                        dst: 1,
                        msg: "m"
                    }
                ),
                (20, NetEvent::Timer { node: 4, tag: 9 }),
            ]
        );
    }

    #[test]
    fn churn_loss_reclassifies_a_delivery() {
        let mut net: Network<()> = Network::new(NetworkModel::ideal(), 5);
        net.send(0, 1, MessageKind::Control, ());
        net.pop().unwrap();
        net.note_churn_loss();
        assert_eq!(net.stats().delivered, 0);
        assert_eq!(net.stats().churn_lost, 1);
        assert_eq!(net.stats().in_flight(), 0);
    }

    #[test]
    fn payload_pool_reaches_steady_state() {
        // A plateau of in-flight messages: after warm-up, every send goes
        // into a chunk the wheel already has — the hit rate climbs toward 1.
        let mut net: Network<[u64; 4]> = Network::new(
            NetworkModel::ideal().with_latency(HopLatency::Constant(5.0)),
            8,
        );
        let mut batch = Vec::new();
        for round in 0..200u64 {
            for i in 0..10 {
                net.send(0, i, MessageKind::Control, [round, i as u64, 0, 0]);
            }
            while net
                .pop_batch_until(SimTime((round + 1) * 5), &mut batch)
                .is_some()
            {}
        }
        let s = net.engine_stats();
        assert_eq!(
            s.pool_hits + s.pool_allocs,
            2_000,
            "one per event scheduled"
        );
        assert!(
            (1..=10).contains(&s.pool_allocs),
            "at most a chunk per message of the in-flight plateau, got {}",
            s.pool_allocs
        );
        assert!(s.pool_hit_rate() > 0.98, "hit rate {}", s.pool_hit_rate());
        assert_eq!(s.dispatched, net.stats().delivered);
        assert!(s.peak_depth >= 10);
    }

    /// What level 0 stores per in-flight event: the queued form alone —
    /// the one-tick slot is its timestamp. A 16-byte, 8-aligned payload
    /// (`AggMsg`'s shape, held to it by
    /// `net_protocol::tests::wire_messages_fit_the_queued_entry`) makes a
    /// 32-byte event, the largest wire format (24 bytes: `ScMsg`, `HsMsg`)
    /// at most 40. A fatter event is a slower event core: it must show
    /// here, not on the ruler.
    #[test]
    fn queued_event_is_32_bytes_for_an_agg_msg_and_at_most_40() {
        use std::mem::size_of;
        assert_eq!(size_of::<QueuedEvent<(u32, f64)>>(), 32);
        assert!(size_of::<QueuedEvent<[u64; 3]>>() <= 40);
    }

    /// Batches mixing deliveries of several kinds (some dropped), timers
    /// and controls: resolving each event as it leaves the wheel yields and
    /// counts exactly what the single-pop path does.
    #[test]
    fn pop_batch_matches_single_pops_event_for_event() {
        let model = NetworkModel::wan().with_drop_rate(0.1);
        let kinds = [
            MessageKind::WalkStep,
            MessageKind::AggregationPush,
            MessageKind::AggregationPull,
            MessageKind::Control,
        ];
        let build = || {
            let mut net: Network<u64> = Network::new(model, 13);
            for i in 0..500u64 {
                net.send(
                    (i % 9) as u32,
                    ((i + 1) % 9) as u32,
                    kinds[i as usize % kinds.len()],
                    i,
                );
                if i % 7 == 0 {
                    net.schedule_timer_in(i, (i % 9) as u32, i);
                }
                if i % 11 == 0 {
                    net.schedule_control_at(SimTime(i), i);
                }
            }
            net
        };
        let mut single = build();
        let mut batched = build();
        let mut batch: Vec<NetEvent<u64>> = Vec::new();
        while let Some(t) = batched.pop_batch(&mut batch) {
            for ev in batch.drain(..) {
                let (ts, es) = single.pop().expect("single-pop net drained early");
                assert_eq!((ts, &es), (t, &ev));
            }
        }
        assert!(single.pop().is_none(), "batched net drained early");
        assert_eq!(single.stats(), batched.stats());
        assert_eq!(single.delivered_by_kind(), batched.delivered_by_kind());
        for kind in kinds {
            assert!(batched.delivered_by_kind().get(kind) > 0, "{kind}");
        }
    }

    #[test]
    fn per_kind_delivery_accounting_partitions_sends() {
        let model = NetworkModel::ideal().with_drop_rate(0.25);
        let mut net: Network<u32> = Network::new(model, 17);
        for i in 0..4_000u32 {
            let kind = if i % 2 == 0 {
                MessageKind::WalkStep
            } else {
                MessageKind::AggregationPush
            };
            net.send(0, 1, kind, i);
        }
        while net.pop().is_some() {}
        for kind in [MessageKind::WalkStep, MessageKind::AggregationPush] {
            assert_eq!(
                net.delivered_by_kind().get(kind) + net.dropped_by_kind().get(kind),
                net.counter().get(kind),
                "sent {kind} messages must resolve as delivered or dropped"
            );
            assert!(net.dropped_by_kind().get(kind) > 0);
        }
        assert_eq!(net.delivered_by_kind().total(), net.stats().delivered);
        assert_eq!(net.dropped_by_kind().total(), net.stats().dropped);
        assert_eq!(net.delivered_by_kind().get(MessageKind::Control), 0);
    }

    #[test]
    fn ideal_detection() {
        assert!(NetworkModel::ideal().is_ideal());
        assert!(!NetworkModel::wan().is_ideal());
        assert!(!NetworkModel::ideal().with_drop_rate(0.1).is_ideal());
    }

    #[test]
    fn route_remote_enforces_the_one_tick_lookahead() {
        // Zero-latency model: a local send delivers at the current tick,
        // but a remote route must resolve at least one tick out.
        let mut src: Network<u32> = Network::new(NetworkModel::ideal(), 21);
        let m = src.route_remote(0, 1, MessageKind::Control, 7).unwrap();
        assert_eq!(m.at, SimTime(1), "remote delay clamps to ≥ 1 tick");
        assert_eq!(src.stats().sent, 1, "charged at the source");
        assert_eq!(src.counter().get(MessageKind::Control), 1);

        let mut dst: Network<u32> = Network::new(NetworkModel::ideal(), 22);
        dst.enqueue_remote(m);
        let (t, ev) = dst.pop().unwrap();
        assert_eq!(t, SimTime(1));
        assert_eq!(
            ev,
            NetEvent::Deliver {
                src: 0,
                dst: 1,
                msg: 7
            }
        );
        assert_eq!(dst.stats().delivered, 1, "counted at the destination");
        assert_eq!(dst.stats().sent, 0);
    }

    #[test]
    fn no_hop_resolves_before_the_models_min_hop_ticks() {
        assert_eq!(NetworkModel::ideal().min_hop_ticks(), 1);
        assert_eq!(NetworkModel::wan().min_hop_ticks(), 15);
        let exp = NetworkModel::wan().with_latency(HopLatency::Exponential { mean: 500.0 });
        assert_eq!(exp.min_hop_ticks(), 1, "exponential draws reach zero");
        let constant = NetworkModel::ideal().with_latency(HopLatency::Constant(40.0));
        assert_eq!(constant.min_hop_ticks(), 40);
        let mut net: Network<()> = Network::new(constant, 1);
        let hop = net.route_remote(0, 1, MessageKind::Control, ()).unwrap();
        assert_eq!(hop.at, SimTime(40), "tight without link spread");

        // Random models × random links: 10 000 draws through each of
        // `route_remote` and `send` (whose delay `route_remote` clamps to
        // ≥ 1) never resolve before the bound. A dropped send has no tick
        // to bound: it is counted and never queued.
        let mut rng = small_rng(4242);
        for case in 0..100u64 {
            let lo = rng.gen_range(0.0..300.0);
            let latency = match case % 3 {
                0 => HopLatency::Constant(lo),
                1 => HopLatency::Uniform {
                    lo,
                    hi: lo + rng.gen_range(0.5..200.0),
                },
                _ => HopLatency::Exponential { mean: lo + 1.0 },
            };
            let model = NetworkModel::ideal()
                .with_latency(latency)
                .with_link_spread(rng.gen_range(0.0..1.0))
                .with_drop_rate([0.0, 0.3][(case % 2) as usize]);
            let bound = model.min_hop_ticks();
            let mut net: Network<()> = Network::new(model, case);
            for i in 0..100u32 {
                let now = net.now().0;
                let (src, dst) = (rng.gen_range(0..64u32), 64 + i);
                if let Some(m) = net.route_remote(src, dst, MessageKind::Control, ()) {
                    let remote = m.at.0;
                    assert!(
                        remote >= now + bound,
                        "{model:?}: {remote} < {now} + {bound}"
                    );
                }
                net.send(src, dst, MessageKind::Control, ());
                if let Some((t, _)) = net.pop() {
                    let local = t.0;
                    assert!(local.max(now + 1) >= now + bound, "{model:?}: send");
                }
            }
        }
    }

    #[test]
    fn remote_drops_surface_at_the_sending_shard() {
        let model = NetworkModel::ideal()
            .with_latency(HopLatency::Constant(50.0))
            .with_drop_rate(1.0);
        let mut src: Network<&str> = Network::new(model, 23);
        assert!(src
            .route_remote(0, 1, MessageKind::Control, "doomed")
            .is_none());
        assert_eq!(src.stats().sent, 1, "a dropped remote send was still sent");
        assert_eq!(src.pending(), 0, "a dropped message never enters the wheel");
        assert_eq!(src.stats().dropped, 1);
    }

    #[test]
    fn route_remote_consumes_draws_in_send_order_like_send() {
        // Mixed local/remote sends must march through the same private
        // stream: replaying the same mix reproduces delays bit for bit.
        let model = NetworkModel::wan().with_drop_rate(0.1);
        let run = || {
            let mut net: Network<u64> = Network::new(model, 24);
            let mut outcome = Vec::new();
            for i in 0..100u64 {
                if i % 3 == 0 {
                    outcome.push(
                        net.route_remote(0, 1, MessageKind::Control, i)
                            .map(|m| m.at),
                    );
                } else {
                    net.send(0, 1, MessageKind::Control, i);
                }
            }
            (outcome, drain(&mut net))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn pop_batch_until_respects_the_horizon_and_parks_the_clock() {
        let mut net: Network<u32> = Network::new(
            NetworkModel::ideal().with_latency(HopLatency::Constant(30.0)),
            25,
        );
        net.send(0, 1, MessageKind::Control, 1);
        net.send(0, 2, MessageKind::Control, 2);
        let mut batch = Vec::new();
        assert!(net.pop_batch_until(SimTime(10), &mut batch).is_none());
        assert!(batch.is_empty());
        assert_eq!(net.now(), SimTime(10));
        assert_eq!(net.pending(), 2);
        assert_eq!(
            net.pop_batch_until(SimTime(30), &mut batch),
            Some(SimTime(30))
        );
        assert_eq!(batch.len(), 2);
        assert!(net.pop_batch_until(SimTime(40), &mut batch).is_none());
        assert_eq!(net.now(), SimTime(40));
    }

    #[test]
    fn net_stats_merge_partitions_cross_shard_traffic() {
        let mut a: Network<u32> = Network::new(NetworkModel::ideal(), 26);
        let mut b: Network<u32> = Network::new(NetworkModel::ideal(), 27);
        a.send(0, 2, MessageKind::Control, 1); // local on shard a
        let m = a.route_remote(0, 1, MessageKind::Control, 2).unwrap();
        b.enqueue_remote(m);
        while a.pop().is_some() {}
        while b.pop().is_some() {}
        let mut total = NetStats::default();
        total.merge_from(a.stats());
        total.merge_from(b.stats());
        assert_eq!(total.sent, 2);
        assert_eq!(total.delivered, 2);
        assert_eq!(total.in_flight(), 0);
    }
}
