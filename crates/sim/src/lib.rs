//! # p2p-sim
//!
//! The discrete-event, message-level simulation substrate used by the
//! HPDC 2006 size-estimation study.
//!
//! The paper (§IV-A) describes its simulator as follows: *"we evaluated them
//! using a discrete event simulator, able to simulate static and dynamic
//! network configurations. The simulator counts the messages over the
//! network. It does not model the physical network topology nor the queuing
//! delays and packet losses."* This crate reproduces that simulator — and
//! then goes where the paper's §VI points: a message-level [`Network`] with
//! per-hop latency, loss and per-link heterogeneity, so asynchrony becomes
//! representable.
//!
//! * [`engine::Engine`] — a generic discrete-event queue over virtual time:
//!   a hierarchical timing wheel (calendar queue) with O(1) schedule,
//!   amortized O(1) pop and structural FIFO tie-breaking, whose buckets are
//!   chains of 64-entry chunks drawn from one LIFO-recycled pool — the
//!   store holds what is in flight and nothing else, and
//!   [`EngineStats::pool_hit_rate`] is the share of scheduled events that
//!   allocated nothing;
//! * [`pool`] — the free-list [`pool::PayloadPool`] slab in-flight payloads
//!   used to park in; payloads now travel inline through the wheel, and the
//!   slab is kept only for the frozen ruler's `sim.pool.cycle_ns` probe;
//! * [`network`] — the [`Network`] facade over the engine: it owns in-flight
//!   messages (queued inline, payload and all), applies a pluggable [`NetworkModel`] (latency distribution +
//!   drop probability + per-link heterogeneity built on [`HopLatency`]) and
//!   dispatches deliveries, drops, timers and driver control events;
//! * [`message`] — per-kind message counters backing every overhead number
//!   (Table I);
//! * [`rng`] — deterministic seed derivation (SplitMix64) so that every
//!   experiment is reproducible and parallel replications are independent of
//!   thread scheduling;
//! * [`parallel`] — a small scoped-thread fan-out for embarrassingly parallel
//!   replications (independent seeds/parameter points);
//! * [`shard`] — the cross-shard exchange buffers of the sharded parallel
//!   DES: per-destination outbox lanes, (source-shard-index, FIFO) ordered
//!   inbox draining, and the coordinator's lane-swapping exchange grid.
//!
//! ## The determinism contract
//!
//! Every simulation in this workspace is bit-reproducible per master seed.
//! Three rules make that hold even for message-level runs:
//!
//! 1. **Seeded latency/loss draws, on a private stream.** A [`Network`] is
//!    constructed with its own derived seed; every latency and drop decision
//!    is drawn from that stream, strictly in `send` order. Protocol RNG
//!    streams never interleave with network draws, which is what lets the
//!    zero-latency/zero-loss configuration reproduce the historic
//!    round-driven traces bit for bit.
//! 2. **FIFO tie-breaking.** Events with equal timestamps dispatch in
//!    scheduling order. The guarantee now lives in the timing wheel's
//!    *structure* rather than in a per-event sequence number: a level-0
//!    wheel slot spans exactly one tick and is a FIFO bucket, and buckets
//!    cascading down from higher levels drain front-to-back **before** any
//!    later-scheduled event for the same window can be filed below them —
//!    so insertion order is dispatch order, bit for bit, exactly as the
//!    old heap's monotone sequence numbers ordered it (the heap survives as
//!    the test oracle). Zero-latency cascades, simultaneous churn and step
//!    boundaries therefore replay identically on every run.
//! 3. **Churn-vs-in-flight semantics.** The network does not track liveness
//!    (overlays live one crate up); a driver popping a delivery for a node
//!    that has departed must not dispatch it — it reclassifies the message
//!    via [`Network::note_churn_loss`]. A message to a departed node is
//!    simply lost, exactly the failure mode the paper attributes to dynamic
//!    networks. A model drop is counted at send time and never queued.
//!    Neither kind of loss reaches a protocol handler: loss is silence,
//!    as on a real network, and protocols detect it by timeout.

#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod engine;
pub mod latency;
pub mod message;
pub mod network;
pub mod parallel;
pub mod pool;
pub mod rng;
pub mod shard;
pub mod time;

pub use engine::{Engine, EngineStats};
pub use latency::HopLatency;
pub use message::{MessageCounter, MessageKind};
pub use network::{NetEvent, NetStats, Network, NetworkModel, RemoteMsg};
pub use pool::PayloadPool;
pub use time::SimTime;
