//! # p2p-size-estimation
//!
//! Umbrella crate for the reproduction of *"Peer to peer size estimation in
//! large and dynamic networks: A comparative study"* (Le Merrer, Kermarrec,
//! Massoulié, HPDC 2006).
//!
//! This crate simply re-exports the workspace members under stable paths and
//! hosts the runnable examples and cross-crate integration tests:
//!
//! * [`overlay`] — unstructured overlay graphs, builders, churn.
//! * [`sim`] — discrete-event message-counting simulator.
//! * [`stats`] — statistics toolkit used by the experiments.
//! * [`estimation`] — the three size-estimation algorithms.
//! * [`workload`] — streamed churn models (heavy-tailed sessions, diurnal,
//!   flash crowds, regional failures) with trace record/replay.
//! * [`experiments`] — figure/table reproduction scenarios.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use p2p_estimation as estimation;
pub use p2p_experiments as experiments;
pub use p2p_overlay as overlay;
pub use p2p_sim as sim;
pub use p2p_stats as stats;
pub use p2p_workload as workload;
