//! # p2p-overlay
//!
//! Unstructured peer-to-peer overlay graphs, as used by the HPDC 2006
//! comparative study *"Peer to peer size estimation in large and dynamic
//! networks"* (Le Merrer, Kermarrec, Massoulié).
//!
//! The crate provides:
//!
//! * [`Graph`] — a mutable undirected overlay: adjacency lists, an alive-set
//!   with O(1) uniform sampling of alive nodes, and O(degree) node removal.
//! * [`builder`] — the paper's heterogeneous random-graph construction
//!   (§IV-A), Barabási–Albert scale-free graphs (Fig 7), Erdős–Rényi graphs
//!   and ring/Watts–Strogatz lattices for tests.
//! * [`churn`] — node arrivals, departures and catastrophic failures with the
//!   paper's no-repair semantics (survivors do not re-wire lost links).
//! * [`connectivity`] — BFS components, reachability and hop distances.
//! * [`metrics`] — degree statistics and distributions.
//!
//! ## Quick example
//!
//! ```
//! use p2p_overlay::builder::HeterogeneousRandom;
//! use p2p_overlay::GraphBuilder;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(42);
//! let graph = HeterogeneousRandom::new(1_000, 10).build(&mut rng);
//! assert_eq!(graph.alive_count(), 1_000);
//! // The paper reports an emergent average degree of about 7.2 at max = 10.
//! let avg = p2p_overlay::metrics::degree_stats(&graph).mean;
//! assert!(avg > 5.0 && avg < 9.0);
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod bitset;
pub mod builder;
pub mod churn;
pub mod connectivity;
pub mod graph;
pub mod membership;
pub mod metrics;
pub mod node;

pub use bitset::BitSet;
pub use builder::GraphBuilder;
pub use graph::Graph;
pub use membership::PeerSamplingService;
pub use node::{NodeId, MAX_SLOTS};
