//! # p2p-workload
//!
//! Churn workloads for the estimation experiments. The paper's dynamic
//! scenarios are three stylized schedules (growing / shrinking /
//! catastrophic); real deployments churn differently — heavy-tailed
//! session lengths, diurnal cycles, flash crowds, correlated regional
//! failures. This crate supplies those as *streaming* [`ChurnModel`]s
//! (O(alive) state, never a materialized schedule), a parseable
//! [`WorkloadSpec`] grammar (`pareto:alpha=1.5,mean=50`, composable with
//! `+`), and JSONL [`trace`] record/replay so any run's churn is
//! capturable and re-runnable bit for bit.
//!
//! Layering: models emit [`WorkloadOp`]s; the experiment runner applies
//! them and feeds applied identities back (the
//! [`ChurnDelta`](p2p_overlay::churn::ChurnDelta) handshake). Model draws
//! live on a dedicated seed stream; op application draws on the run's main
//! stream — see [`model`] for the determinism contract that makes replay
//! exact.

#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod dist;
pub mod model;
pub mod models;
pub mod op;
pub mod pace;
pub mod spec;
pub mod trace;

pub use dist::LifetimeDist;
pub use model::{ChurnModel, CompositeModel};
pub use models::{DiurnalModel, FlashCrowd, RegionalFailure, SessionModel, SteadyModel};
pub use op::WorkloadOp;
pub use pace::WallPacer;
pub use spec::{ModelSpec, WorkloadSpec};
pub use trace::{TraceHeader, TraceModel, TraceReader, TraceWriter};

use std::path::PathBuf;

/// Where a scenario's streamed churn comes from. `None` on a
/// [`Scenario`](../p2p_experiments/scenario/struct.Scenario.html) means the
/// materialized `schedule` alone drives churn (the paper's path).
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadSource {
    /// Generate from a model spec.
    Model(WorkloadSpec),
    /// Generate from a model spec *and* record every emitted op to a JSONL
    /// trace at `path`.
    Record {
        /// The generating model.
        spec: WorkloadSpec,
        /// Trace destination (created/truncated per run).
        path: PathBuf,
    },
    /// Replay the ops recorded at `path`; no model, no workload draws.
    Replay(PathBuf),
}

impl WorkloadSource {
    /// The generating spec, when this source has one.
    pub fn spec(&self) -> Option<&WorkloadSpec> {
        match self {
            WorkloadSource::Model(spec) | WorkloadSource::Record { spec, .. } => Some(spec),
            WorkloadSource::Replay(_) => None,
        }
    }
}
