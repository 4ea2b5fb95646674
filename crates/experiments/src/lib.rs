//! # p2p-experiments
//!
//! Declarative reproduction of every experiment in the HPDC 2006
//! comparative study. Experiments are *data*: an [`ExperimentSpec`]
//! (protocols × [`Scenario`] × network × replications × sweep ×
//! presentation) executed by one generic [`engine`], streaming rows
//! through a [`ResultSink`]. The paper's 20 figures are registered specs
//! ([`figures::spec_for`]); free-form specs cover experiments the paper
//! never drew. The spec → figure mapping lives in `DESIGN.md`.
//! Everything is driven by the `repro` binary:
//!
//! ```text
//! repro list
//! repro run --all --scale small --out target/figures
//! repro run --fig 5 --scale paper
//! repro run --protocol sample-collide:l=10 --scenario catastrophic \
//!           --sweep drop=0,0.001,0.01 --jobs 2
//! repro table
//! ```
//!
//! ## Scales
//!
//! The paper simulates 100,000- and 1,000,000-node overlays. All runners are
//! parameterized by [`scale::ExperimentScale`] so the same code produces
//! quick CI-sized runs (`small`/`tiny`) and full paper-sized runs (`paper`).
//! Estimation quality and cost *shapes* are scale-free (that is the point of
//! the algorithms); absolute message counts grow with N as derived in §IV-E.

pub mod engine;
pub mod figures;
pub mod runner;
pub mod scale;
pub mod scenario;
pub mod sharded;
pub mod sink;
pub mod spec;
pub mod table;

pub use engine::{run_experiment, run_figure_spec, EngineOptions};
pub use runner::{run_replications_des, run_scenario_des, Trace};
pub use scale::ExperimentScale;
pub use scenario::{Scenario, Topology};
pub use sharded::run_scenario_des_sharded;
pub use sink::{CsvSink, FigureSink, JsonLinesSink, ResultSink};
pub use spec::{ExperimentSpec, NetworkSpec, Presentation, ProtocolRun, ScenarioSpec};
