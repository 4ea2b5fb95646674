//! Declarative experiment specifications — experiments as *data*.
//!
//! The paper's evaluation is a cross-product: algorithm classes ×
//! {static, growing, shrinking, catastrophic} × overlay families × network
//! models × scales. An [`ExperimentSpec`] writes one cell (or one swept
//! row) of that product down as a value: which protocols
//! ([`p2p_estimation::ProtocolSpec`]), over which [`Scenario`], how many
//! replications, swept along which [`SweepAxis`], and presented how
//! ([`Presentation`]). One generic engine ([`crate::engine`]) executes any
//! spec; the 20 paper figures are just registered specs
//! ([`crate::figures`]), and the `repro` CLI assembles free-form specs the
//! paper never drew.
//!
//! [`ScenarioSpec`] and [`NetworkSpec`] are the parseable front-ends
//! (hand-rolled `key=value` grammar shared with `ProtocolSpec`) that the
//! CLI resolves into a concrete [`Scenario`].

use crate::scenario::{Scenario, Topology};
use p2p_estimation::spec::{parse_in_range, parse_params};
use p2p_estimation::{Heuristic, ProtocolSpec, SpecError};
use p2p_sim::{HopLatency, NetworkModel};
use p2p_workload::{WorkloadSource, WorkloadSpec};
use std::fmt;

/// Which execution form of a protocol an experiment drives.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// The round-driven form
    /// ([`ProtocolSpec::build_sync`](p2p_estimation::ProtocolSpec::build_sync))
    /// — the paper's instantaneous simulator; the scenario's network model
    /// cannot touch it.
    #[default]
    Sync,
    /// Event-driven [`NodeProtocol`](p2p_estimation::NodeProtocol), message
    /// by message under the scenario's network model.
    Async,
}

/// One protocol entry of an experiment.
#[derive(Clone, Debug)]
pub struct ProtocolRun {
    /// What to run.
    pub protocol: ProtocolSpec,
    /// How to execute it.
    pub mode: ExecMode,
    /// Reporting heuristic applied to its raw estimates.
    pub heuristic: Heuristic,
    /// Seed-derivation stream for this entry. `None` → the experiment
    /// seed; `Some(s)` → `derive_seed(base, s)` where `base` is the master
    /// seed for whole-experiment entries and the sweep-point seed inside a
    /// sweep (the historic figures' conventions, pinned by the golden
    /// tests).
    pub seed_stream: Option<u64>,
    /// Replaces the experiment scenario for this entry (the network
    /// figures drive the epidemic class on a longer timeline than the
    /// polling classes).
    pub scenario_override: Option<Scenario>,
    /// Series label override; `None` → the protocol's figure label.
    pub label: Option<String>,
}

impl ProtocolRun {
    /// A sync-mode entry with one-shot reporting and default seeding.
    pub fn sync(protocol: ProtocolSpec) -> Self {
        ProtocolRun {
            protocol,
            mode: ExecMode::Sync,
            heuristic: Heuristic::OneShot,
            seed_stream: None,
            scenario_override: None,
            label: None,
        }
    }

    /// An async-mode entry with one-shot reporting and default seeding.
    pub fn async_(protocol: ProtocolSpec) -> Self {
        ProtocolRun {
            mode: ExecMode::Async,
            ..Self::sync(protocol)
        }
    }

    /// Same entry with a reporting heuristic.
    pub fn heuristic(mut self, heuristic: Heuristic) -> Self {
        self.heuristic = heuristic;
        self
    }

    /// Same entry deriving its seed from stream `s`.
    pub fn stream(mut self, s: u64) -> Self {
        self.seed_stream = Some(s);
        self
    }

    /// Same entry over its own scenario.
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.scenario_override = Some(scenario);
        self
    }

    /// Same entry under a custom series label.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// The series label this entry plots under.
    pub fn series_label(&self) -> &str {
        self.label
            .as_deref()
            .unwrap_or_else(|| self.protocol.label())
    }
}

/// What a sweep varies.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SweepAxis {
    /// Message drop probability; the series' x value is the percentage
    /// (`100 × drop`), as in Fig 20.
    Drop,
    /// Half-spread (ms) of a uniform one-hop delay around `mean_ms`, with
    /// the step cadence stretched to `step_ticks`, as in Fig 19.
    DelaySpread {
        /// Mean one-hop latency (ms).
        mean_ms: f64,
        /// Step cadence under latency (ticks).
        step_ticks: u64,
    },
}

impl SweepAxis {
    /// Applies one sweep value to the scenario's base network model.
    pub fn apply(&self, base: NetworkModel, v: f64) -> NetworkModel {
        match *self {
            SweepAxis::Drop => base.with_drop_rate(v),
            SweepAxis::DelaySpread {
                mean_ms,
                step_ticks,
            } => {
                let latency = if v == 0.0 {
                    HopLatency::Constant(mean_ms)
                } else {
                    HopLatency::Uniform {
                        lo: mean_ms - v,
                        hi: mean_ms + v,
                    }
                };
                base.with_latency(latency).with_step_ticks(step_ticks)
            }
        }
    }

    /// Range-checks one sweep value before anything runs: a drop
    /// probability in `[0, 1]`, a delay half-spread `≥ 0` and below the
    /// mean (the `jitter < latency` rule [`NetworkSpec`] applies), both
    /// finite. The error names the axis, the value and the range.
    pub fn check(&self, v: f64) -> Result<(), SpecError> {
        let (ok, range) = match *self {
            SweepAxis::Drop => ((0.0..=1.0).contains(&v), "in [0, 1]".to_string()),
            SweepAxis::DelaySpread { mean_ms, .. } => (
                (0.0..mean_ms).contains(&v),
                format!(">= 0 and < the {mean_ms} ms mean"),
            ),
        };
        if ok {
            Ok(())
        } else {
            let label = self.label(v);
            let key = &label[..label.find('=').unwrap_or(0)];
            Err(SpecError(format!(
                "`--sweep {label}` is out of range ({key} must be finite and {range})"
            )))
        }
    }

    /// The x coordinate a sweep value plots at.
    pub fn x(&self, v: f64) -> f64 {
        match self {
            SweepAxis::Drop => 100.0 * v,
            SweepAxis::DelaySpread { .. } => v,
        }
    }

    /// `key=value` label for derived scenario names and progress lines.
    pub fn label(&self, v: f64) -> String {
        match self {
            SweepAxis::Drop => format!("drop={v}"),
            SweepAxis::DelaySpread { .. } => format!("spread={v}"),
        }
    }
}

/// A parameter sweep: the experiment repeats per value, one series point
/// per protocol per value.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// The varied knob.
    pub axis: SweepAxis,
    /// The values, in plotting order.
    pub values: Vec<f64>,
    /// Seed stream base: sweep point `i` derives its seed from
    /// `derive_seed(master, seed_base + i)` (Fig 19 uses base 0, Fig 20
    /// base 100 — kept apart so the two figures' streams never collide).
    pub seed_base: u64,
}

/// The metric a sweep summarizes each protocol's traces into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepMetric {
    /// Mean `|estimate − truth| / truth` over every completed reporting
    /// period, in percent (Fig 19's y axis).
    MeanAbsErrPct,
    /// Completed reporting periods as a percentage of those scheduled
    /// (Fig 20's y axis).
    CompletedPct,
}

/// How an experiment's runs become curves.
#[derive(Clone, Debug)]
pub enum Presentation {
    /// One sync trace on the quality-% axis: optionally a last-`k`
    /// smoothed curve first, then the raw curve labelled `raw_label`
    /// (Figs 1–4 and 18).
    StaticQuality {
        /// Smoothing window (`Some(10)` = the paper's last10runs curve).
        smooth: Option<usize>,
        /// Label of the raw curve.
        raw_label: String,
    },
    /// A "Real network size" truth curve followed by one estimate curve
    /// per replication, on the raw-size axis (Figs 9–17).
    Tracking,
    /// Round-by-round convergence quality of independent aggregation runs
    /// (Figs 5/6).
    Convergence,
    /// The degree histogram of the scenario overlay; runs no protocol
    /// (Fig 7). `{max}`/`{mean}` in the title are filled from the built
    /// overlay's degree stats.
    DegreeHistogram,
    /// Every protocol entry estimates repeatedly on one shared overlay
    /// snapshot, on the quality-% axis (Fig 8).
    SharedOverlay {
        /// Estimations per protocol.
        estimations: u64,
    },
    /// One series per protocol, one [`SweepMetric`] point per sweep value
    /// (Figs 19/20 and free-form CLI sweeps).
    SweepSummary {
        /// The summarized metric.
        metric: SweepMetric,
    },
}

/// A complete, executable experiment description. See the
/// [module docs](self).
#[derive(Clone, Debug)]
pub struct ExperimentSpec {
    /// Experiment id (`"fig09"`, `"custom"`, …) — the CSV file stem.
    pub id: String,
    /// Figure title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The timeline (initial size, steps, churn schedule, topology, base
    /// network).
    pub scenario: Scenario,
    /// The protocols to run over it.
    pub protocols: Vec<ProtocolRun>,
    /// Independent replications per protocol (presentations impose their
    /// historic floors: [`Presentation::Tracking`] runs at least 1,
    /// [`Presentation::Convergence`] at least 3).
    pub replications: usize,
    /// Experiment seed stream: `None` → the master seed itself, `Some(s)`
    /// → `derive_seed(master, s)` (the figures use their figure number).
    pub seed_stream: Option<u64>,
    /// Optional parameter sweep.
    pub sweep: Option<Sweep>,
    /// How results become curves.
    pub presentation: Presentation,
}

impl ExperimentSpec {
    /// A one-line summary of the spec's cross-product cell, for
    /// `repro list` and the DESIGN.md table.
    pub fn summary(&self) -> String {
        let protocols: Vec<String> = self
            .protocols
            .iter()
            .map(|p| {
                let mode = match p.mode {
                    ExecMode::Sync => "",
                    ExecMode::Async => " (async)",
                };
                format!("{}{}", p.protocol, mode)
            })
            .collect();
        let protocols = if protocols.is_empty() {
            "-".to_string()
        } else {
            protocols.join(" + ")
        };
        let sweep = match &self.sweep {
            Some(s) => {
                let axis = match s.axis {
                    SweepAxis::Drop => "drop",
                    SweepAxis::DelaySpread { .. } => "spread",
                };
                format!(
                    ", sweep {axis}={}",
                    s.values
                        .iter()
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>()
                        .join("/")
                )
            }
            None => String::new(),
        };
        format!(
            "{} · {} n={} steps={}{}",
            protocols, self.scenario.name, self.scenario.initial_size, self.scenario.steps, sweep,
        )
    }
}

/// A parseable scenario description: `kind[:key=value,...]` with keys
/// `frac` (growth/shrink fraction), `topology`
/// (`heterogeneous` | `scale-free`) and `churn` (a
/// [`WorkloadSpec`] layered on top of the kind's schedule — the workload
/// grammar owns `,`/`:`/`+`, so `churn` must be the **last** key and
/// consumes the rest of the string). Resolved against a size and step
/// count with [`ScenarioSpec::resolve`].
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// The churn timeline family.
    pub kind: ScenarioKind,
    /// Growth/shrink fraction (ignored by the other kinds).
    pub fraction: f64,
    /// The overlay family.
    pub topology: Topology,
    /// Streamed churn layered on top of the kind's schedule
    /// (`static:churn=pareto:alpha=1.5,mean=50` is the common pairing).
    pub churn: Option<WorkloadSpec>,
}

/// The churn timeline families a [`ScenarioSpec`] can name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScenarioKind {
    /// No churn.
    Static,
    /// Evenly spread joins (+`frac`, paper: +50%).
    Growing,
    /// Evenly spread departures (−`frac`).
    Shrinking,
    /// Two −25% catastrophes plus a +25% arrival.
    Catastrophic,
    /// Fig 15's exact schedule, scaled to the timeline.
    CatastrophicFig15,
}

impl ScenarioSpec {
    /// Parses `kind[:key=value,...]` (`churn=...` last, greedy).
    pub fn parse(s: &str) -> Result<Self, SpecError> {
        let (name, params, churn) = match s.split_once(':') {
            Some((n, tail)) => {
                // `churn=` swallows the rest of the string: the workload
                // grammar uses `,` and `:` itself.
                let (head, churn) = match tail.find("churn=") {
                    Some(i) if i == 0 || tail.as_bytes()[i - 1] == b',' => {
                        let spec = WorkloadSpec::parse(&tail[i + "churn=".len()..])?;
                        (tail[..i].trim_end_matches(','), Some(spec))
                    }
                    _ => (tail, None),
                };
                (n.trim(), parse_params(head)?, churn)
            }
            None => (s.trim(), Vec::new(), None),
        };
        let kind = match name {
            "static" => ScenarioKind::Static,
            "growing" => ScenarioKind::Growing,
            "shrinking" => ScenarioKind::Shrinking,
            "catastrophic" => ScenarioKind::Catastrophic,
            "catastrophic-fig15" | "fig15" => ScenarioKind::CatastrophicFig15,
            other => {
                return Err(SpecError(format!(
                    "unknown scenario `{other}` (static | growing | shrinking | catastrophic | \
                     catastrophic-fig15)"
                )))
            }
        };
        let mut spec = ScenarioSpec {
            kind,
            fraction: 0.5,
            topology: Topology::Heterogeneous,
            churn,
        };
        for (k, v) in params {
            match k {
                // A shrinking timeline cannot remove more than everyone;
                // how far a growing one may go depends on the size, which
                // `resolve`'s callers check.
                "frac" if kind == ScenarioKind::Shrinking => {
                    spec.fraction = parse_in_range(k, v, "finite and in [0, 1]", |f: &f64| {
                        (0.0..=1.0).contains(f)
                    })?
                }
                "frac" => {
                    spec.fraction = parse_in_range(k, v, "finite and >= 0", |f: &f64| {
                        f.is_finite() && *f >= 0.0
                    })?
                }
                "topology" => {
                    spec.topology = match v {
                        "heterogeneous" | "het" => Topology::Heterogeneous,
                        "scale-free" | "ba" => Topology::ScaleFree,
                        other => {
                            return Err(SpecError(format!(
                                "unknown topology `{other}` (heterogeneous | scale-free)"
                            )))
                        }
                    }
                }
                other => {
                    return Err(SpecError(format!(
                        "unknown scenario key `{other}` (frac | topology | churn)"
                    )))
                }
            }
        }
        Ok(spec)
    }

    /// Materializes the scenario at a concrete size and step count.
    pub fn resolve(&self, initial_size: usize, steps: u64) -> Scenario {
        let s = match self.kind {
            ScenarioKind::Static => Scenario::static_network(initial_size, steps),
            ScenarioKind::Growing => Scenario::growing(initial_size, steps, self.fraction),
            ScenarioKind::Shrinking => Scenario::shrinking(initial_size, steps, self.fraction),
            ScenarioKind::Catastrophic => Scenario::catastrophic(initial_size, steps),
            ScenarioKind::CatastrophicFig15 => Scenario::catastrophic_fig15(initial_size, steps),
        };
        let s = s.with_topology(self.topology);
        match &self.churn {
            Some(spec) => s.with_workload(WorkloadSource::Model(spec.clone())),
            None => s,
        }
    }
}

impl fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self.kind {
            ScenarioKind::Static => "static",
            ScenarioKind::Growing => "growing",
            ScenarioKind::Shrinking => "shrinking",
            ScenarioKind::Catastrophic => "catastrophic",
            ScenarioKind::CatastrophicFig15 => "catastrophic-fig15",
        };
        f.write_str(name)?;
        let mut sep = ':';
        let scaled = matches!(self.kind, ScenarioKind::Growing | ScenarioKind::Shrinking);
        if scaled && self.fraction != 0.5 {
            write!(f, "{sep}frac={}", self.fraction)?;
            sep = ',';
        }
        if self.topology != Topology::Heterogeneous {
            write!(f, "{sep}topology={}", self.topology.key())?;
            sep = ',';
        }
        // Last, always: the workload grammar consumes the rest of the
        // string on re-parse.
        if let Some(churn) = &self.churn {
            write!(f, "{sep}churn={churn}")?;
        }
        Ok(())
    }
}

/// A parseable network model: `ideal`, `wan`, or `key=value,...` with keys
/// `drop`, `latency` (mean ms), `jitter` (uniform half-spread ms),
/// `link-spread` and `ticks` (step cadence).
///
/// Values are range-checked at parse time — `drop` and `link-spread` in
/// `[0, 1]`, `latency` in `[0, 1e9]`, `jitter` ≥ 0 and below `latency`,
/// `ticks` in `[1, 2^32]` — so that no run the CLI can express overflows
/// the clock (`now + delay`, `steps × ticks`) or hands the latency sampler
/// an empty or non-finite range.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetworkSpec(pub NetworkModel);

impl NetworkSpec {
    /// Parses the grammar above.
    pub fn parse(s: &str) -> Result<Self, SpecError> {
        let s = s.trim();
        match s {
            "ideal" | "" => return Ok(NetworkSpec(NetworkModel::ideal())),
            "wan" => return Ok(NetworkSpec(NetworkModel::wan())),
            _ => {}
        }
        let mut model = NetworkModel::ideal();
        let mut mean = 0.0f64;
        let mut jitter = 0.0f64;
        let unit = |x: &f64| (0.0..=1.0).contains(x);
        for (k, v) in parse_params(s)? {
            match k {
                "drop" => model = model.with_drop_rate(parse_in_range(k, v, "in [0, 1]", unit)?),
                "latency" => {
                    mean = parse_in_range(k, v, "in [0, 1e9]", |x| (0.0..=1e9).contains(x))?;
                }
                "jitter" => {
                    jitter = parse_in_range(k, v, "finite and ≥ 0", |x: &f64| {
                        x.is_finite() && *x >= 0.0
                    })?;
                }
                "link-spread" => {
                    model = model.with_link_spread(parse_in_range(k, v, "in [0, 1]", unit)?);
                }
                "ticks" => {
                    let ticks =
                        parse_in_range(k, v, "in [1, 2^32]", |t| (1..=1u64 << 32).contains(t))?;
                    model = model.with_step_ticks(ticks);
                }
                other => {
                    return Err(SpecError(format!(
                        "unknown network key `{other}` (drop | latency | jitter | link-spread | \
                         ticks)"
                    )))
                }
            }
        }
        if jitter > 0.0 && jitter >= mean {
            return Err(SpecError(format!(
                "`jitter={jitter}` is out of range (jitter must stay below latency={mean})"
            )));
        }
        if mean > 0.0 {
            let latency = if jitter == 0.0 {
                HopLatency::Constant(mean)
            } else {
                HopLatency::Uniform {
                    lo: mean - jitter,
                    hi: mean + jitter,
                }
            };
            model = model.with_latency(latency);
        }
        Ok(NetworkSpec(model))
    }
}

impl fmt::Display for NetworkSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.0;
        if m == NetworkModel::ideal() {
            return f.write_str("ideal");
        }
        let mut parts: Vec<String> = Vec::new();
        if m.drop_rate != 0.0 {
            parts.push(format!("drop={}", m.drop_rate));
        }
        match m.latency {
            HopLatency::Constant(ms) if ms != 0.0 => parts.push(format!("latency={ms}")),
            HopLatency::Uniform { lo, hi } => {
                parts.push(format!("latency={}", 0.5 * (lo + hi)));
                parts.push(format!("jitter={}", 0.5 * (hi - lo)));
            }
            _ => {}
        }
        if m.link_spread != 0.0 {
            parts.push(format!("link-spread={}", m.link_spread));
        }
        if m.step_ticks != 1 {
            parts.push(format!("ticks={}", m.step_ticks));
        }
        f.write_str(&parts.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_spec_parses_and_resolves() {
        let s = ScenarioSpec::parse("growing:frac=0.25").unwrap();
        assert_eq!(s.kind, ScenarioKind::Growing);
        let scenario = s.resolve(1_000, 50);
        assert_eq!(scenario.name, "growing");
        assert_eq!(scenario.nominal_final_size(), 1_250.0);

        let s = ScenarioSpec::parse("catastrophic:topology=scale-free").unwrap();
        let scenario = s.resolve(1_000, 100);
        assert_eq!(scenario.topology, Topology::ScaleFree);
        assert_eq!(scenario.schedule.len(), 3);
    }

    #[test]
    fn scenario_spec_round_trips() {
        for text in [
            "static",
            "growing",
            "growing:frac=0.25",
            "shrinking:frac=0.75,topology=scale-free",
            "catastrophic",
            "catastrophic-fig15",
            "static:topology=scale-free",
            "static:churn=pareto:alpha=1.5,mean=50",
            "growing:frac=0.25,churn=steady:join=2,leave=2",
            "static:topology=scale-free,churn=flash:at=25,frac=0.5,hold=30+regional:at=75,regions=8,frac=1",
        ] {
            let spec = ScenarioSpec::parse(text).unwrap();
            assert_eq!(
                ScenarioSpec::parse(&spec.to_string()).unwrap(),
                spec,
                "{text}"
            );
        }
        assert_eq!(
            ScenarioSpec::parse("growing").unwrap().to_string(),
            "growing"
        );
    }

    #[test]
    fn scenario_spec_churn_is_greedy_and_resolves_to_a_workload() {
        // Everything after `churn=` belongs to the workload grammar, commas
        // and composition included.
        let s =
            ScenarioSpec::parse("growing:frac=0.25,churn=pareto:alpha=2,mean=40,rate=3").unwrap();
        assert_eq!(s.fraction, 0.25);
        let churn = s.churn.as_ref().unwrap();
        assert_eq!(churn.to_string(), "pareto:alpha=2,mean=40,rate=3");
        let scenario = s.resolve(1_000, 50);
        assert!(!scenario.schedule.is_empty(), "kind schedule kept");
        assert_eq!(scenario.workload.unwrap().spec(), Some(churn));
        // A bad workload tail is the workload grammar's error, not an
        // "unknown scenario key".
        let err = ScenarioSpec::parse("static:churn=melting").unwrap_err();
        assert!(err.0.contains("churn model"), "{err}");
    }

    #[test]
    fn network_spec_parses_and_round_trips() {
        assert_eq!(
            NetworkSpec::parse("ideal").unwrap().0,
            NetworkModel::ideal()
        );
        assert_eq!(NetworkSpec::parse("wan").unwrap().0, NetworkModel::wan());
        let n = NetworkSpec::parse("drop=0.01,latency=100,jitter=40,ticks=2000")
            .unwrap()
            .0;
        assert_eq!(n.drop_rate, 0.01);
        assert_eq!(
            n.latency,
            HopLatency::Uniform {
                lo: 60.0,
                hi: 140.0
            }
        );
        assert_eq!(n.step_ticks, 2_000);
        for text in [
            "ideal",
            "drop=0.5",
            "latency=10,ticks=400",
            "drop=0.01,latency=100,jitter=40,link-spread=0.25,ticks=2000",
        ] {
            let spec = NetworkSpec::parse(text).unwrap();
            assert_eq!(
                NetworkSpec::parse(&spec.to_string()).unwrap(),
                spec,
                "{text}"
            );
        }
    }

    /// Values that used to panic inside the event core (`latency=1e19`,
    /// `jitter=nan`, `ticks=u64::MAX`) or silently ran as the ideal network
    /// (`latency=nan`, `latency=-5`) are spec errors naming their key.
    #[test]
    fn network_spec_rejects_out_of_range_values_by_key() {
        for (text, key) in [
            ("latency=1e19", "latency"),
            ("latency=inf", "latency"),
            ("latency=nan", "latency"),
            ("latency=-5", "latency"),
            ("latency=1000000001", "latency"),
            ("latency=50,jitter=nan", "jitter"),
            ("latency=50,jitter=inf", "jitter"),
            ("latency=50,jitter=-1", "jitter"),
            ("latency=50,jitter=50", "jitter"),
            ("jitter=5", "jitter"),
            ("ticks=0", "ticks"),
            ("ticks=4294967297", "ticks"),
            ("ticks=18446744073709551615", "ticks"),
            ("drop=nan", "drop"),
            ("drop=1.5", "drop"),
            ("link-spread=nan", "link-spread"),
            ("link-spread=-0.1", "link-spread"),
        ] {
            let err = NetworkSpec::parse(text).expect_err(text);
            assert!(err.0.contains(&format!("`{key}=")), "{text}: {err}");
        }
        // The ends of every range are inside it.
        for text in ["latency=1e9,jitter=999999999,ticks=4294967296", "drop=1"] {
            assert!(NetworkSpec::parse(text).is_ok(), "{text}");
        }
    }

    /// Every network the shipped surfaces name still parses and survives
    /// `Display`: the `--network` strings of README, the verify notes and
    /// `.github/workflows/ci.yml`, and every model the figure registry
    /// builds (base scenarios, per-protocol overrides, each sweep point).
    #[test]
    fn shipped_network_specs_parse_and_round_trip() {
        let mut specs: Vec<String> = [
            "ideal",
            "wan",
            "latency=100,jitter=40,ticks=2000",
            "latency=32,jitter=27,link-spread=0.25,drop=0.01,ticks=1000",
        ]
        .map(String::from)
        .to_vec();
        let scale = crate::ExperimentScale::tiny();
        for n in crate::figures::ALL_FIGURES {
            let fig = crate::figures::spec_for(n, &scale).expect("registered figure");
            let mut bases = vec![fig.scenario.network];
            bases.extend(
                fig.protocols
                    .iter()
                    .filter_map(|p| p.scenario_override.as_ref().map(|s| s.network)),
            );
            for base in bases {
                specs.push(NetworkSpec(base).to_string());
                let sweep = fig
                    .sweep
                    .iter()
                    .flat_map(|s| s.values.iter().map(|&v| (s.axis, v)));
                specs.extend(sweep.map(|(axis, v)| NetworkSpec(axis.apply(base, v)).to_string()));
            }
        }
        for text in specs {
            let spec = NetworkSpec::parse(&text).unwrap_or_else(|e| panic!("`{text}`: {e}"));
            assert_eq!(
                NetworkSpec::parse(&spec.to_string()).unwrap(),
                spec,
                "{text}"
            );
        }
    }

    #[test]
    fn bad_specs_report_errors() {
        assert!(ScenarioSpec::parse("melting").is_err());
        assert!(ScenarioSpec::parse("growing:frac=x").is_err());
        assert!(ScenarioSpec::parse("static:topology=torus").is_err());
        assert!(NetworkSpec::parse("drop=2").is_err());
        assert!(NetworkSpec::parse("warp=9").is_err());
        assert!(NetworkSpec::parse("latency=10,jitter=20").is_err());
    }

    #[test]
    fn sweep_axis_applies_and_labels() {
        let drop = SweepAxis::Drop;
        assert_eq!(drop.apply(NetworkModel::ideal(), 0.01).drop_rate, 0.01);
        assert_eq!(drop.x(0.01), 1.0);
        assert_eq!(drop.label(0.01), "drop=0.01");

        let spread = SweepAxis::DelaySpread {
            mean_ms: 100.0,
            step_ticks: 2_000,
        };
        let m = spread.apply(NetworkModel::ideal(), 40.0);
        assert_eq!(
            m.latency,
            HopLatency::Uniform {
                lo: 60.0,
                hi: 140.0
            }
        );
        assert_eq!(m.step_ticks, 2_000);
        let m0 = spread.apply(NetworkModel::ideal(), 0.0);
        assert_eq!(m0.latency, HopLatency::Constant(100.0));
        assert_eq!(spread.x(40.0), 40.0);
    }

    #[test]
    fn summary_mentions_the_cell() {
        let spec = ExperimentSpec {
            id: "x".to_string(),
            title: "t".to_string(),
            x_label: "x".to_string(),
            y_label: "y".to_string(),
            scenario: Scenario::growing(1_000, 24, 0.5),
            protocols: vec![
                ProtocolRun::async_(ProtocolSpec::sample_collide_cheap()),
                ProtocolRun::sync(ProtocolSpec::aggregation_paper()),
            ],
            replications: 2,
            seed_stream: None,
            sweep: Some(Sweep {
                axis: SweepAxis::Drop,
                values: vec![0.0, 0.01],
                seed_base: 100,
            }),
            presentation: Presentation::SweepSummary {
                metric: SweepMetric::CompletedPct,
            },
        };
        let s = spec.summary();
        assert!(s.contains("sample-collide:l=10 (async)"), "{s}");
        assert!(s.contains("aggregation"), "{s}");
        assert!(s.contains("growing"), "{s}");
        assert!(s.contains("sweep drop=0/0.01"), "{s}");
    }
}
