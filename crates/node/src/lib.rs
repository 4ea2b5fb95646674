//! Escape the simulator: the estimation protocols of the HPDC'06 study
//! deployed over real UDP sockets.
//!
//! Everything below the protocol layer changes — the event kernel becomes
//! the operating system's scheduler, `SimTime` ticks become wall-clock
//! milliseconds, and `Cx::send` becomes a length-prefixed frame on a
//! datagram socket — while the protocol structs themselves are the *same
//! compiled code* the DES runs. That is the point: a loopback cluster's
//! estimates can be cross-validated against a matched simulator run
//! ([`cluster::des_envelope`]), closing the loop between the paper's
//! simulated evaluation and a deployable artifact.
//!
//! Three layers:
//!
//! * [`wire`] — the versioned binary frame format (hand-rolled, no serde)
//!   for protocol messages and the coordinator's control channel, strict
//!   about hostile input;
//! * [`runtime`] — one process hosting a shard of the overlay's
//!   [`NodeProtocol`](p2p_estimation::NodeProtocol) instances, pumping the
//!   shared-seed outbox against the wall clock;
//! * [`cluster`] — the coordinator that launches shards (threads or
//!   subprocesses), drives every shard's steps and churn on its one wall
//!   clock, streams estimate trajectories to JSONL, and reaps everything on
//!   the way out.
//!
//! The `node` binary fronts it: `node cluster --nodes 64 --procs 4
//! --protocol aggregation:rounds=30` runs a full loopback deployment.

pub mod cluster;
pub mod runtime;
pub mod wire;

pub use cluster::{
    default_cluster_network, des_envelope, run_cluster, ClusterConfig, ClusterReport, Envelope,
    Launch,
};
pub use runtime::{bind_with_retry, run_node, NodeStats, RuntimeConfig};
pub use wire::{CtrlMsg, WireError, WirePayload, MAX_FRAME, WIRE_VERSION};
