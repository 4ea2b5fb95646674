//! # p2p-estimation
//!
//! Fully decentralized network-size estimation for unstructured peer-to-peer
//! overlays — a faithful implementation of the three candidate algorithms
//! compared by *"Peer to peer size estimation in large and dynamic networks:
//! A comparative study"* (Le Merrer, Kermarrec, Massoulié, HPDC 2006):
//!
//! * [`sample_collide::SampleCollide`] — the random-walk class (§III-A):
//!   continuous-time random-walk uniform sampling + inverted birthday
//!   paradox, from Massoulié et al., PODC 2006.
//! * [`hops_sampling::HopsSampling`] — the probabilistic-polling class
//!   (§III-B): gossip a hop counter, poll replies scaled by distance, from
//!   Kostoulas/Psaltoulis et al. (`minHopsReporting` heuristic).
//! * [`aggregation::Aggregation`] — the epidemic class (§III-C): push-pull
//!   averaging of a one-hot value, estimate = 1/average, from Jelasity &
//!   Montresor, ICDCS 2004, plus the epoch-tag restart variant the paper
//!   uses in dynamic networks (§IV-D).
//!
//! The [`net_protocol`] module lifts all three classes onto the
//! message-level network (`p2p_sim::Network`): event-driven
//! [`NodeProtocol`] implementations whose every hop, gossip copy and reply
//! is a simulated message subject to latency, per-link heterogeneity, loss
//! and churn-in-flight.
//!
//! ## One contract for all three classes
//!
//! Every driver runs a [`NodeProtocol`]: the event-driven classes above,
//! [`aggregation::EpochedAggregation`] (one step = one atomic gossip
//! round), and any one-shot [`SizeEstimator`] through the [`SyncStep`]
//! adapter (one step = one atomic estimation). A step reports an estimate,
//! fails, or closes nothing yet (see [`protocol`]).
//! `p2p_experiments::runner::run_scenario_des` and [`SizeMonitor`] accept
//! any `NodeProtocol`, so static and dynamic scenarios and monitoring share
//! a single drive loop, [`ShardCore`], across the three classes.
//! `SizeEstimator` stays the one-shot math Table I measures directly.
//!
//! All algorithms charge every simulated message to a
//! [`p2p_sim::MessageCounter`], and draw randomness only from the caller
//! supplied RNG — simulations are deterministic per seed.
//!
//! ## Example
//!
//! ```
//! use p2p_estimation::{sample_collide::SampleCollide, SizeEstimator};
//! use p2p_overlay::builder::{GraphBuilder, HeterogeneousRandom};
//! use p2p_sim::MessageCounter;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
//! let graph = HeterogeneousRandom::paper(5_000).build(&mut rng);
//! let mut msgs = MessageCounter::new();
//! let mut sc = SampleCollide::paper(); // l = 200, T = 10
//! let n = sc.estimate(&graph, &mut rng, &mut msgs).unwrap();
//! assert!((n - 5_000.0).abs() / 5_000.0 < 0.25, "estimate {n}");
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod aggregation;
pub mod arena;
pub mod heuristics;
pub mod hops_sampling;
pub mod monitor;
pub mod net_protocol;
pub mod protocol;
pub mod sample_collide;
pub mod sampling;
pub mod spec;

pub use aggregation::Aggregation;
pub use arena::NodeArena;
pub use heuristics::{Heuristic, Smoother};
pub use hops_sampling::HopsSampling;
pub use monitor::SizeMonitor;
pub use net_protocol::{
    AsyncAggregation, AsyncHopsSampling, AsyncSampleCollide, Host, NodeProtocol, ShardCore,
    ShardView, SimHost, SyncStep,
};
pub use protocol::StepOutcome;
pub use sample_collide::SampleCollide;
pub use spec::{AsyncProtocol, ProtocolSpec, SpecError};

use p2p_overlay::Graph;
use p2p_sim::MessageCounter;
use rand::rngs::SmallRng;

/// A fully decentralized system-size estimator.
///
/// One call to [`estimate`](Self::estimate) corresponds to one estimation in
/// the paper's figures: the algorithm picks an initiator, runs to completion
/// on the current overlay snapshot, charges its traffic to `msgs` and returns
/// the estimated number of alive nodes.
///
/// Returns `None` when the algorithm cannot produce an estimate (e.g. the
/// overlay is empty, or the initiator landed in a dead fragment).
pub trait SizeEstimator {
    /// Algorithm name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Runs one full estimation on the current overlay.
    fn estimate(
        &mut self,
        graph: &Graph,
        rng: &mut SmallRng,
        msgs: &mut MessageCounter,
    ) -> Option<f64>;
}
