//! The figure registry: every paper figure as a registered
//! [`ExperimentSpec`].
//!
//! Each entry writes one cell of the paper's cross-product down as data —
//! protocol spec(s) × scenario × scale × replications (× sweep) × a
//! presentation — and the generic [engine](crate::engine) executes it. The
//! seed-stream numbers are the historic figures' derivation conventions;
//! `tests/golden_figures.rs` pins every figure bit-for-bit against the
//! pre-registry generators. The spec → paper-figure mapping is tabulated
//! in `DESIGN.md`.

use crate::scenario::{Scenario, Topology};
use crate::spec::{ExperimentSpec, Presentation, ProtocolRun, Sweep, SweepAxis, SweepMetric};
use crate::ExperimentScale;
use p2p_estimation::{Heuristic, ProtocolSpec};
use p2p_workload::{WorkloadSource, WorkloadSpec};

/// Number of estimations on the polling-algorithm dynamic timelines.
const POLL_STEPS: u64 = 100;
/// Estimations on the polling-class timelines of the network figures.
const NET_STEPS: u64 = 24;
/// Gossip rounds on the epidemic timeline of the network figures (two
/// 50-round epochs).
const NET_AGG_ROUNDS: u64 = 100;
/// Step cadence (ticks) under latency: wide enough for one gossip round,
/// tight enough that jitter pushes HopsSampling stragglers past it.
const LATENCY_STEP_TICKS: u64 = 2_000;
/// Mean one-hop latency (ms) of the Fig 19 sweep.
const DELAY_MEAN_MS: f64 = 100.0;
/// Half-spreads (ms) of the uniform delay distribution swept in Fig 19.
const DELAY_SPREADS_MS: [f64; 4] = [0.0, 40.0, 80.0, 99.0];
/// Drop probabilities swept in Fig 20.
const DROP_RATES: [f64; 5] = [0.0, 0.000_1, 0.001, 0.01, 0.1];

fn base(n: u32, title: String, x_label: &str, y_label: &str, scenario: Scenario) -> ExperimentSpec {
    ExperimentSpec {
        id: format!("fig{n:02}"),
        title,
        x_label: x_label.to_string(),
        y_label: y_label.to_string(),
        scenario,
        protocols: Vec::new(),
        replications: 1,
        seed_stream: Some(n as u64),
        sweep: None,
        presentation: Presentation::Tracking,
    }
}

/// Figs 1–4: one polling protocol, static overlay, oneShot + last10runs on
/// the quality axis.
fn polling_static(
    n: u32,
    protocol: ProtocolSpec,
    title: String,
    size: usize,
    count: u64,
) -> ExperimentSpec {
    ExperimentSpec {
        protocols: vec![ProtocolRun::sync(protocol)],
        presentation: Presentation::StaticQuality {
            smooth: Some(10),
            raw_label: "one shot".to_string(),
        },
        ..base(
            n,
            title,
            "Number of estimations",
            "Quality %",
            Scenario::static_network(size, count),
        )
    }
}

/// Figs 5/6: aggregation convergence, quality per round over 100 rounds.
fn aggregation_convergence(n: u32, size: usize, scale: &ExperimentScale) -> ExperimentSpec {
    ExperimentSpec {
        protocols: vec![ProtocolRun::sync(ProtocolSpec::aggregation_paper())],
        replications: scale.replications,
        presentation: Presentation::Convergence,
        ..base(
            n,
            format!("Aggregation: {size} node network"),
            "#Round",
            "Quality %",
            Scenario::static_network(size, 100),
        )
    }
}

/// Figs 9–17: one protocol tracking a churning overlay, `replications`
/// estimate curves against the truth curve.
fn dynamic(
    n: u32,
    run: ProtocolRun,
    title: String,
    x_label: &str,
    scenario: Scenario,
    scale: &ExperimentScale,
) -> ExperimentSpec {
    ExperimentSpec {
        protocols: vec![run],
        replications: scale.replications,
        ..base(n, title, x_label, "Estimated size", scenario)
    }
}

/// Figs 19/20: the three async classes swept over a network knob. The
/// epidemic class runs its own longer timeline; per-class seed streams
/// 1/2/3 derive from each sweep point's seed.
fn network_sweep(
    n: u32,
    title: String,
    x_label: &str,
    y_label: &str,
    scale: &ExperimentScale,
    sweep: Sweep,
    metric: SweepMetric,
) -> ExperimentSpec {
    let poll = Scenario::growing(scale.net_nodes, NET_STEPS, 0.5);
    let agg = Scenario::growing(scale.net_nodes, NET_AGG_ROUNDS, 0.5);
    ExperimentSpec {
        protocols: vec![
            ProtocolRun::async_(ProtocolSpec::parse("sample-collide:l=10,timeout=12").unwrap())
                .stream(1),
            ProtocolRun::async_(ProtocolSpec::hops_sampling_paper()).stream(2),
            ProtocolRun::async_(ProtocolSpec::aggregation_paper())
                .stream(3)
                .scenario(agg),
        ],
        replications: scale.replications,
        seed_stream: None,
        sweep: Some(sweep),
        presentation: Presentation::SweepSummary { metric },
        ..base(n, title, x_label, y_label, poll)
    }
}

/// Figs 21–23 (extensions): the three sync classes tracking one
/// realistic-churn workload on a shared timeline. One replication per
/// class keeps the figure readable (truth + three estimate curves); the
/// epidemic class reports on its epoch grid as in the paper's dynamics.
///
/// Every entry runs on the *same* seed stream, so all three experience the
/// same workload-stream draws and therefore the same op sequence. Uniform
/// victim *identities* can still differ per protocol (they come off the
/// interleaved main stream), but the population size trajectory depends
/// only on the op counts and targeted ids — identical across entries — so
/// the single plotted truth curve is truthful for all three.
fn realistic_churn(
    n: u32,
    title: String,
    workload: &str,
    scale: &ExperimentScale,
) -> ExperimentSpec {
    let spec = WorkloadSpec::parse(workload).expect("registered workload spec");
    ExperimentSpec {
        protocols: vec![
            ProtocolRun::sync(ProtocolSpec::sample_collide_paper()).stream(1),
            ProtocolRun::sync(ProtocolSpec::hops_sampling_paper())
                .heuristic(Heuristic::last10())
                .stream(1),
            ProtocolRun::sync(ProtocolSpec::aggregation_paper()).stream(1),
        ],
        replications: 1,
        ..base(
            n,
            title,
            "Number of estimations",
            "Estimated size",
            Scenario::static_network(scale.large, POLL_STEPS)
                .with_name(format!("static churn={workload}"))
                .with_workload(WorkloadSource::Model(spec)),
        )
    }
}

/// The registered spec of figure `n` at `scale`; `None` for numbers the
/// registry does not carry.
pub fn spec_for(n: u32, scale: &ExperimentScale) -> Option<ExperimentSpec> {
    let sc = ProtocolSpec::sample_collide_paper;
    let hs = ProtocolSpec::hops_sampling_paper;
    let agg = ProtocolSpec::aggregation_paper;
    let spec = match n {
        1 => polling_static(
            1,
            sc(),
            format!(
                "Sample&Collide: oneShot and last10runs, l=200, {} node network, static",
                scale.large
            ),
            scale.large,
            100,
        ),
        2 => polling_static(
            2,
            sc(),
            format!(
                "Sample&Collide: oneShot and last10runs, l=200, {} node network",
                scale.huge
            ),
            scale.huge,
            18,
        ),
        3 => polling_static(
            3,
            hs(),
            format!(
                "HopsSampling: oneShot and last10runs, {} node network",
                scale.large
            ),
            scale.large,
            100,
        ),
        4 => polling_static(
            4,
            hs(),
            format!(
                "HopsSampling: oneShot and last10runs, {} node network",
                scale.huge
            ),
            scale.huge,
            20,
        ),
        5 => aggregation_convergence(5, scale.large, scale),
        6 => aggregation_convergence(6, scale.huge, scale),
        7 => ExperimentSpec {
            presentation: Presentation::DegreeHistogram,
            ..base(
                7,
                format!(
                    "Scale free degree distribution for {} nodes, 3 neighbors min per node, \
                     max node degree: {{max}}, average: {{mean}}",
                    scale.large
                ),
                "Degree",
                "Number of nodes",
                Scenario::static_network(scale.large, 1).with_topology(Topology::ScaleFree),
            )
        },
        8 => ExperimentSpec {
            protocols: vec![
                ProtocolRun::sync(ProtocolSpec::aggregation_oneshot()).stream(81),
                ProtocolRun::sync(sc()).stream(82).label("Sample&collide"),
                ProtocolRun::sync(hs())
                    .heuristic(Heuristic::last10())
                    .stream(83),
            ],
            presentation: Presentation::SharedOverlay { estimations: 100 },
            ..base(
                8,
                format!(
                    "Test of the 3 algorithms on a scale free graph ({} nodes)",
                    scale.large
                ),
                "Number of estimations",
                "Quality %",
                Scenario::static_network(scale.large, 100).with_topology(Topology::ScaleFree),
            )
        },
        9 => dynamic(
            9,
            ProtocolRun::sync(sc()),
            format!(
                "Sample&Collide: oneShot heuristic, {} node network, catastrophic failures",
                scale.large
            ),
            "Number of estimations",
            Scenario::catastrophic(scale.large, POLL_STEPS),
            scale,
        ),
        10 => dynamic(
            10,
            ProtocolRun::sync(sc()),
            format!(
                "Sample&Collide: oneShot, {} node network, growing network",
                scale.large
            ),
            "Number of estimations",
            Scenario::growing(scale.large, POLL_STEPS, 0.5),
            scale,
        ),
        11 => dynamic(
            11,
            ProtocolRun::sync(sc()),
            format!(
                "Sample&Collide: oneShot, {} node network, shrinking network",
                scale.large
            ),
            "Number of estimations",
            Scenario::shrinking(scale.large, POLL_STEPS, 0.5),
            scale,
        ),
        12 => dynamic(
            12,
            ProtocolRun::sync(hs()).heuristic(Heuristic::last10()),
            format!(
                "HopsSampling: Last10runs heuristic, {} node network, catastrophic failures",
                scale.large
            ),
            "Number of estimations",
            Scenario::catastrophic(scale.large, POLL_STEPS),
            scale,
        ),
        13 => dynamic(
            13,
            ProtocolRun::sync(hs()).heuristic(Heuristic::last10()),
            format!(
                "HopsSampling: Last10runs heuristic, {} node network, growing network",
                scale.large
            ),
            "Number of estimations",
            Scenario::growing(scale.large, POLL_STEPS, 0.5),
            scale,
        ),
        14 => dynamic(
            14,
            ProtocolRun::sync(hs()).heuristic(Heuristic::last10()),
            format!(
                "HopsSampling: Last10runs heuristic, {} node network, shrinking network",
                scale.large
            ),
            "Number of estimations",
            Scenario::shrinking(scale.large, POLL_STEPS, 0.5),
            scale,
        ),
        15 => dynamic(
            15,
            ProtocolRun::sync(agg()),
            format!(
                "Aggregation: Reaction under failures, {} nodes at beginning, -25% at 100 and \
                 500, +{} at 700 (x{} rounds)",
                scale.large,
                scale.large / 4,
                scale.agg_dynamic_rounds
            ),
            "#Round",
            Scenario::catastrophic_fig15(scale.large, scale.agg_dynamic_rounds),
            scale,
        ),
        16 => dynamic(
            16,
            ProtocolRun::sync(agg()),
            format!("Aggregation: Growing network, {} node network", scale.large),
            "#Round",
            Scenario::growing(scale.large, scale.agg_dynamic_rounds, 0.5),
            scale,
        ),
        17 => dynamic(
            17,
            ProtocolRun::sync(agg()),
            format!(
                "Aggregation: Shrinking network, {} node network",
                scale.large
            ),
            "#Round",
            Scenario::shrinking(scale.large, scale.agg_dynamic_rounds, 0.5),
            scale,
        ),
        18 => ExperimentSpec {
            protocols: vec![ProtocolRun::sync(ProtocolSpec::sample_collide_cheap())],
            presentation: Presentation::StaticQuality {
                smooth: None,
                raw_label: "One Shot".to_string(),
            },
            ..base(
                18,
                format!("Sample & collide with l=10, {} node network", scale.large),
                "Number of estimations",
                "Quality %",
                Scenario::static_network(scale.large, 50),
            )
        },
        19 => network_sweep(
            19,
            format!(
                "Extension: error under one-hop delay variance (uniform around {DELAY_MEAN_MS} \
                 ms), {} node growing network",
                scale.net_nodes
            ),
            "Delay half-spread (ms)",
            "Mean |error| (%)",
            scale,
            Sweep {
                axis: SweepAxis::DelaySpread {
                    mean_ms: DELAY_MEAN_MS,
                    step_ticks: LATENCY_STEP_TICKS,
                },
                values: DELAY_SPREADS_MS.to_vec(),
                seed_base: 0,
            },
            SweepMetric::MeanAbsErrPct,
        ),
        20 => network_sweep(
            20,
            format!(
                "Extension: completed estimations under message loss, {} node growing network",
                scale.net_nodes
            ),
            "Message drop probability (%)",
            "Completed reporting periods (%)",
            scale,
            Sweep {
                axis: SweepAxis::Drop,
                values: DROP_RATES.to_vec(),
                seed_base: 100,
            },
            SweepMetric::CompletedPct,
        ),
        21 => realistic_churn(
            21,
            format!(
                "Extension: heavy-tailed session churn (Pareto α=1.5, mean 50 steps), {} node \
                 network",
                scale.large
            ),
            "pareto:alpha=1.5,mean=50",
            scale,
        ),
        22 => {
            // 1% of the initial population joining and leaving per step at
            // the base rate, swinging ±90% over a 25-step "day" —
            // departures in antiphase (phase π), so the population itself
            // oscillates like a measured diurnal cycle instead of only the
            // churn intensity.
            let rate = scale.large as f64 / 100.0;
            realistic_churn(
                22,
                format!(
                    "Extension: diurnal churn (±90% around {rate}/step, period 25, departures \
                     in antiphase), {} node network",
                    scale.large
                ),
                // Join phase π/2 / leave phase 3π/2 centers the resulting
                // size oscillation on the initial population (the running
                // integral of the net rate is then ∝ sin, not 1 − cos).
                &format!(
                    "diurnal:join={rate},leave=0,period=25,amp=0.9,phase={}\
                     +diurnal:join=0,leave={rate},period=25,amp=0.9,phase={}",
                    std::f64::consts::FRAC_PI_2,
                    1.5 * std::f64::consts::PI
                ),
                scale,
            )
        }
        23 => realistic_churn(
            23,
            format!(
                "Extension: flash crowd (+50% at 25, leaves at 55) and regional failure \
                 (1 of 8 regions at 75), {} node network",
                scale.large
            ),
            "flash:at=25,frac=0.5,hold=30+regional:at=75,regions=8,frac=1",
            scale,
        ),
        _ => return None,
    };
    Some(spec)
}
