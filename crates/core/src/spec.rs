//! Declarative protocol specifications — protocols as *data*.
//!
//! Every protocol variant the study compares can be written down as a short
//! string, `name[:key=value[,key=value]*]`, parsed with [`ProtocolSpec::parse`]
//! and turned back into that string with `Display` (the two round-trip:
//! `parse(display(spec)) == spec`). A spec builds either execution form:
//!
//! * [`build_sync`](ProtocolSpec::build_sync) — the round-driven form
//!   the paper's simulator uses, a boxed [`NodeProtocol`] that sends no
//!   messages;
//! * [`build_async`](ProtocolSpec::build_async) — the event-driven
//!   [`NodeProtocol`] form for the message-level network, returned as an
//!   [`AsyncProtocol`] enum because each protocol has its own wire format.
//!
//! Parsing is hand-rolled `key=value` (no serde — the grammar is three
//! names and a handful of numeric knobs). Omitted keys default to the
//! paper's parameterization, so `"sample-collide"` *is* Figs 1/2's
//! `l = 200, T = 10` configuration and `"sample-collide:l=10"` is Fig 18's
//! cheap one. This is the substrate the experiment registry, the `repro`
//! CLI and `node cluster` all build protocols from, replacing ad-hoc
//! constructor calls.

use crate::aggregation::{Aggregation, AggregationConfig, EpochedAggregation};
use crate::hops_sampling::HopsSamplingConfig;
use crate::net_protocol::{AsyncAggregation, AsyncHopsSampling, AsyncSampleCollide};
use crate::sample_collide::SampleCollideConfig;
use crate::{HopsSampling, NodeProtocol, SampleCollide, SyncStep};
use std::fmt;

/// Why a spec string did not parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SpecError {}

/// Splits the `key=value[,key=value]*` tail of a spec string. Shared by
/// every spec grammar in the workspace (protocols here, scenarios and
/// network models in `p2p-experiments`).
pub fn parse_params(s: &str) -> Result<Vec<(&str, &str)>, SpecError> {
    let mut out = Vec::new();
    for part in s.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (k, v) = part
            .split_once('=')
            .ok_or_else(|| SpecError(format!("expected key=value, got `{part}`")))?;
        out.push((k.trim(), v.trim()));
    }
    Ok(out)
}

/// Parses one numeric/bool parameter value.
pub fn parse_value<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, SpecError> {
    v.parse()
        .map_err(|_| SpecError(format!("bad value `{v}` for `{key}`")))
}

/// Parses a parameter that must also satisfy `ok`; the error names key,
/// value and the allowed `range`. Spec strings arrive from the command
/// line, so a value the protocol constructors would assert on (or silently
/// turn into a garbage estimate) is rejected here, before anything runs.
pub fn parse_in_range<T: std::str::FromStr>(
    key: &str,
    v: &str,
    range: &str,
    ok: impl Fn(&T) -> bool,
) -> Result<T, SpecError> {
    let value = parse_value(key, v)?;
    if ok(&value) {
        Ok(value)
    } else {
        Err(SpecError(format!(
            "`{key}={v}` is out of range ({key} must be {range})"
        )))
    }
}

/// Default estimation timeout (step windows) of the event-driven
/// Sample&Collide — mirrors [`AsyncSampleCollide::new`].
pub const DEFAULT_SC_TIMEOUT: u64 = 8;

/// A declarative description of one protocol variant: which algorithm
/// class, with which parameters. See the [module docs](self) for the
/// string grammar and defaults.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProtocolSpec {
    /// `sample-collide[:l=200,t=10,timeout=8]` — the random-walk class.
    SampleCollide {
        /// Target collisions `l` (paper: 200; Fig 18 cheap: 10).
        l: u32,
        /// Walk budget `T` (paper: 10).
        timer: f64,
        /// Event-driven form only: step windows before an unfinished
        /// estimation is abandoned as failed.
        timeout: u64,
    },
    /// `hops-sampling[:to=2,for=1,until=1,min-hops=5]` — the
    /// probabilistic-polling class.
    HopsSampling {
        /// Gossip fan-out `gossipTo`.
        gossip_to: u32,
        /// Forwarding turns `gossipFor`.
        gossip_for: u32,
        /// Mute threshold `gossipUntil`.
        gossip_until: u32,
        /// Deterministic-reply distance `minHopsReporting`.
        min_hops: u32,
    },
    /// `aggregation[:rounds=50,epoched=true]` — the epidemic class.
    Aggregation {
        /// Gossip rounds per reported estimate.
        rounds: u32,
        /// `true`: the restartable epoch-tag variant (§IV-D), one step per
        /// round. `false`: the one-shot wrapper (a whole fresh averaging
        /// run per step), as used by Fig 8 and Table I.
        epoched: bool,
    },
}

impl ProtocolSpec {
    /// The paper's main Sample&Collide configuration (`l = 200, T = 10`).
    pub fn sample_collide_paper() -> Self {
        ProtocolSpec::SampleCollide {
            l: 200,
            timer: 10.0,
            timeout: DEFAULT_SC_TIMEOUT,
        }
    }

    /// Fig 18's cheap Sample&Collide (`l = 10`).
    pub fn sample_collide_cheap() -> Self {
        ProtocolSpec::SampleCollide {
            l: 10,
            timer: 10.0,
            timeout: DEFAULT_SC_TIMEOUT,
        }
    }

    /// The paper's HopsSampling configuration.
    pub fn hops_sampling_paper() -> Self {
        let c = HopsSamplingConfig::paper();
        ProtocolSpec::HopsSampling {
            gossip_to: c.gossip_to,
            gossip_for: c.gossip_for,
            gossip_until: c.gossip_until,
            min_hops: c.min_hops_reporting,
        }
    }

    /// The paper's epoched Aggregation (50-round epochs).
    pub fn aggregation_paper() -> Self {
        ProtocolSpec::Aggregation {
            rounds: 50,
            epoched: true,
        }
    }

    /// The one-shot Aggregation wrapper (Fig 8, Table I).
    pub fn aggregation_oneshot() -> Self {
        ProtocolSpec::Aggregation {
            rounds: 50,
            epoched: false,
        }
    }

    /// Parses `name[:key=value,...]`. Omitted keys keep the paper defaults.
    pub fn parse(s: &str) -> Result<Self, SpecError> {
        let (name, params) = match s.split_once(':') {
            Some((n, p)) => (n.trim(), parse_params(p)?),
            None => (s.trim(), Vec::new()),
        };
        let mut spec = match name {
            "sample-collide" | "sample&collide" | "sc" => Self::sample_collide_paper(),
            "hops-sampling" | "hopssampling" | "hs" => Self::hops_sampling_paper(),
            "aggregation" | "agg" => Self::aggregation_paper(),
            other => {
                return Err(SpecError(format!(
                    "unknown protocol `{other}` (sample-collide | hops-sampling | aggregation)"
                )))
            }
        };
        for (k, v) in params {
            spec.set(k, v)?;
        }
        Ok(spec)
    }

    /// Applies one `key=value` parameter.
    fn set(&mut self, key: &str, v: &str) -> Result<(), SpecError> {
        match self {
            ProtocolSpec::SampleCollide { l, timer, timeout } => match key {
                "l" => *l = parse_in_range(key, v, ">= 1", |&l: &u32| l >= 1)?,
                "t" | "timer" => {
                    *timer = parse_in_range(key, v, "finite and > 0", |&t: &f64| {
                        t.is_finite() && t > 0.0
                    })?
                }
                "timeout" => *timeout = parse_in_range(key, v, ">= 1", |&t: &u64| t >= 1)?,
                _ => {
                    return Err(SpecError(format!(
                        "unknown sample-collide key `{key}` (l | t | timeout)"
                    )))
                }
            },
            ProtocolSpec::HopsSampling {
                gossip_to,
                gossip_for,
                gossip_until,
                min_hops,
            } => match key {
                "to" => *gossip_to = parse_in_range(key, v, ">= 1", |&to: &u32| to >= 1)?,
                "for" => *gossip_for = parse_value(key, v)?,
                "until" => *gossip_until = parse_value(key, v)?,
                "min-hops" | "m" => *min_hops = parse_value(key, v)?,
                _ => {
                    return Err(SpecError(format!(
                        "unknown hops-sampling key `{key}` (to | for | until | min-hops)"
                    )))
                }
            },
            ProtocolSpec::Aggregation { rounds, epoched } => match key {
                "rounds" => *rounds = parse_in_range(key, v, ">= 1", |&r: &u32| r >= 1)?,
                "epoched" => *epoched = parse_value(key, v)?,
                _ => {
                    return Err(SpecError(format!(
                        "unknown aggregation key `{key}` (rounds | epoched)"
                    )))
                }
            },
        }
        Ok(())
    }

    /// Canonical spec name (`sample-collide` | `hops-sampling` |
    /// `aggregation`).
    pub fn key(&self) -> &'static str {
        match self {
            ProtocolSpec::SampleCollide { .. } => "sample-collide",
            ProtocolSpec::HopsSampling { .. } => "hops-sampling",
            ProtocolSpec::Aggregation { .. } => "aggregation",
        }
    }

    /// Algorithm name as used in the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            ProtocolSpec::SampleCollide { .. } => "Sample&Collide",
            ProtocolSpec::HopsSampling { .. } => "HopsSampling",
            ProtocolSpec::Aggregation { .. } => "Aggregation",
        }
    }

    /// Reporting periods a run of `steps` timeline steps schedules: one per
    /// step for the one-shot classes, one per epoch for epoched Aggregation.
    pub fn scheduled_reports(&self, steps: u64) -> u64 {
        match *self {
            ProtocolSpec::Aggregation {
                rounds,
                epoched: true,
            } => steps / rounds.max(1) as u64,
            _ => steps,
        }
    }

    fn sample_collide_config(&self) -> SampleCollideConfig {
        match *self {
            ProtocolSpec::SampleCollide { l, timer, .. } => SampleCollideConfig {
                l,
                timer,
                ..SampleCollideConfig::paper()
            },
            _ => unreachable!("not a sample-collide spec"),
        }
    }

    fn hops_sampling_config(&self) -> HopsSamplingConfig {
        match *self {
            ProtocolSpec::HopsSampling {
                gossip_to,
                gossip_for,
                gossip_until,
                min_hops,
            } => HopsSamplingConfig {
                gossip_to,
                gossip_for,
                gossip_until,
                min_hops_reporting: min_hops,
                ..HopsSamplingConfig::paper()
            },
            _ => unreachable!("not a hops-sampling spec"),
        }
    }

    fn aggregation_config(&self) -> AggregationConfig {
        match *self {
            ProtocolSpec::Aggregation { rounds, .. } => AggregationConfig {
                rounds_per_estimate: rounds,
            },
            _ => unreachable!("not an aggregation spec"),
        }
    }

    /// Builds the round-driven form: the exact objects the figures used to
    /// construct by hand, behind one factory — the one-shot estimators
    /// through [`SyncStep`], epoched Aggregation as itself.
    pub fn build_sync(&self) -> Box<dyn NodeProtocol<Msg = ()>> {
        match self {
            ProtocolSpec::SampleCollide { .. } => Box::new(SyncStep(SampleCollide::with_config(
                self.sample_collide_config(),
            ))),
            ProtocolSpec::HopsSampling { .. } => Box::new(SyncStep(HopsSampling {
                config: self.hops_sampling_config(),
            })),
            ProtocolSpec::Aggregation { epoched: true, .. } => {
                Box::new(EpochedAggregation::new(self.aggregation_config()))
            }
            ProtocolSpec::Aggregation { epoched: false, .. } => Box::new(SyncStep(Aggregation {
                config: self.aggregation_config(),
            })),
        }
    }

    /// Builds the event-driven form for the message-level network. The
    /// `epoched` flag is moot there: the async class is epoch-driven by
    /// construction.
    pub fn build_async(&self) -> AsyncProtocol {
        match self {
            ProtocolSpec::SampleCollide { timeout, .. } => AsyncProtocol::SampleCollide(
                AsyncSampleCollide::new(self.sample_collide_config()).with_timeout(*timeout),
            ),
            ProtocolSpec::HopsSampling { .. } => {
                AsyncProtocol::HopsSampling(AsyncHopsSampling::new(self.hops_sampling_config()))
            }
            ProtocolSpec::Aggregation { .. } => {
                AsyncProtocol::Aggregation(AsyncAggregation::new(self.aggregation_config()))
            }
        }
    }

    /// One-line grammar reference for CLI `--help` texts.
    pub fn grammar() -> &'static str {
        "sample-collide[:l=200,t=10,timeout=8] | \
         hops-sampling[:to=2,for=1,until=1,min-hops=5] | \
         aggregation[:rounds=50,epoched=true]"
    }
}

impl fmt::Display for ProtocolSpec {
    /// Canonical form: only parameters that differ from the paper defaults
    /// are printed, so `parse(display(spec)) == spec` and the paper
    /// configurations display as bare names.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sep = ':';
        let mut kv = |f: &mut fmt::Formatter<'_>, key: &str, val: &dyn fmt::Display| {
            let r = write!(f, "{sep}{key}={val}");
            sep = ',';
            r
        };
        match *self {
            ProtocolSpec::SampleCollide { l, timer, timeout } => {
                f.write_str("sample-collide")?;
                if l != 200 {
                    kv(f, "l", &l)?;
                }
                if timer != 10.0 {
                    kv(f, "t", &timer)?;
                }
                if timeout != DEFAULT_SC_TIMEOUT {
                    kv(f, "timeout", &timeout)?;
                }
            }
            ProtocolSpec::HopsSampling {
                gossip_to,
                gossip_for,
                gossip_until,
                min_hops,
            } => {
                f.write_str("hops-sampling")?;
                if gossip_to != 2 {
                    kv(f, "to", &gossip_to)?;
                }
                if gossip_for != 1 {
                    kv(f, "for", &gossip_for)?;
                }
                if gossip_until != 1 {
                    kv(f, "until", &gossip_until)?;
                }
                if min_hops != 5 {
                    kv(f, "min-hops", &min_hops)?;
                }
            }
            ProtocolSpec::Aggregation { rounds, epoched } => {
                f.write_str("aggregation")?;
                if rounds != 50 {
                    kv(f, "rounds", &rounds)?;
                }
                if !epoched {
                    kv(f, "epoched", &epoched)?;
                }
            }
        }
        Ok(())
    }
}

/// The event-driven protocols behind one type, for spec-driven dispatch.
/// Each class keeps its own wire format, so this is an enum rather than a
/// trait object; drivers match once and run the concrete protocol.
pub enum AsyncProtocol {
    /// The random-walk class.
    SampleCollide(AsyncSampleCollide),
    /// The probabilistic-polling class.
    HopsSampling(AsyncHopsSampling),
    /// The epidemic class.
    Aggregation(AsyncAggregation),
}

/// Runs `$body` with `$p` bound to the concrete protocol inside an
/// [`AsyncProtocol`](crate::AsyncProtocol) — the one per-class match, so a
/// driver generic over [`NodeProtocol`](crate::NodeProtocol) is entered by
/// one call however its bounds on the wire format differ.
#[macro_export]
macro_rules! with_async_protocol {
    ($built:expr, $p:pat => $body:expr) => {
        match $built {
            $crate::AsyncProtocol::SampleCollide($p) => $body,
            $crate::AsyncProtocol::HopsSampling($p) => $body,
            $crate::AsyncProtocol::Aggregation($p) => $body,
        }
    };
}

impl AsyncProtocol {
    /// Algorithm name as used in the paper's figure legends.
    pub fn name(&self) -> &'static str {
        with_async_protocol!(self, p => p.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_overlay::builder::{GraphBuilder, HeterogeneousRandom};
    use p2p_sim::rng::small_rng;
    use p2p_sim::MessageCounter;

    #[test]
    fn bare_names_parse_to_paper_configs() {
        assert_eq!(
            ProtocolSpec::parse("sample-collide").unwrap(),
            ProtocolSpec::sample_collide_paper()
        );
        assert_eq!(
            ProtocolSpec::parse("hops-sampling").unwrap(),
            ProtocolSpec::hops_sampling_paper()
        );
        assert_eq!(
            ProtocolSpec::parse("aggregation").unwrap(),
            ProtocolSpec::aggregation_paper()
        );
        // Aliases.
        assert_eq!(
            ProtocolSpec::parse("sc").unwrap(),
            ProtocolSpec::sample_collide_paper()
        );
        assert_eq!(
            ProtocolSpec::parse("hs").unwrap(),
            ProtocolSpec::hops_sampling_paper()
        );
        assert_eq!(
            ProtocolSpec::parse("agg").unwrap(),
            ProtocolSpec::aggregation_paper()
        );
    }

    #[test]
    fn parameters_override_defaults() {
        assert_eq!(
            ProtocolSpec::parse("sample-collide:l=10").unwrap(),
            ProtocolSpec::sample_collide_cheap()
        );
        assert_eq!(
            ProtocolSpec::parse("sc:l=10,timeout=12").unwrap(),
            ProtocolSpec::SampleCollide {
                l: 10,
                timer: 10.0,
                timeout: 12
            }
        );
        assert_eq!(
            ProtocolSpec::parse("hops-sampling:min-hops=7").unwrap(),
            ProtocolSpec::HopsSampling {
                gossip_to: 2,
                gossip_for: 1,
                gossip_until: 1,
                min_hops: 7
            }
        );
        assert_eq!(
            ProtocolSpec::parse("aggregation:rounds=25,epoched=false").unwrap(),
            ProtocolSpec::Aggregation {
                rounds: 25,
                epoched: false
            }
        );
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(ProtocolSpec::parse("bogus")
            .unwrap_err()
            .to_string()
            .contains("unknown protocol"));
        assert!(ProtocolSpec::parse("sc:q=1")
            .unwrap_err()
            .to_string()
            .contains("unknown sample-collide key"));
        assert!(ProtocolSpec::parse("sc:l")
            .unwrap_err()
            .to_string()
            .contains("key=value"));
        assert!(ProtocolSpec::parse("sc:l=banana")
            .unwrap_err()
            .to_string()
            .contains("bad value"));
    }

    #[test]
    fn out_of_range_values_are_rejected_and_used_specs_still_parse() {
        // Each of these used to reach a constructor assert (`timeout=0`
        // panicked in `with_timeout`) or run to a garbage estimate.
        let rejected = [
            ("sample-collide:l=0", "l"),
            ("sample-collide:l=10,timeout=0", "timeout"),
            ("sample-collide:t=0", "t"),
            ("sample-collide:t=-1", "t"),
            ("sample-collide:t=nan", "t"),
            ("sample-collide:timer=inf", "timer"),
            ("hops-sampling:to=0", "to"),
            ("aggregation:rounds=0", "rounds"),
            ("aggregation:epoched=false,rounds=0", "rounds"),
        ];
        for (text, key) in rejected {
            let err = ProtocolSpec::parse(text).unwrap_err().to_string();
            assert!(
                err.contains(&format!("`{key}=")) && err.contains("out of range"),
                "{text}: {err}"
            );
        }
        // Every spec string the figure registry, README, verify notes and CI
        // jobs pass on a command line.
        let used = [
            "sample-collide",
            "sample-collide:l=10",
            "sample-collide:l=10,timeout=12",
            "sample-collide:l=10,timeout=40",
            "sample-collide:l=10,timeout=50",
            "hops-sampling",
            "aggregation",
            "aggregation:epoched=false",
            "aggregation:rounds=20",
            "aggregation:rounds=25",
            "aggregation:rounds=30",
            "aggregation:rounds=60",
        ];
        for text in used {
            let spec = ProtocolSpec::parse(text).unwrap();
            assert_eq!(spec.to_string(), text);
        }
        // Boundary values stay legal.
        ProtocolSpec::parse("sc:l=1,t=0.5,timeout=1").unwrap();
        ProtocolSpec::parse("hs:to=1,for=0,until=0,min-hops=0").unwrap();
        ProtocolSpec::parse("agg:rounds=1").unwrap();
    }

    #[test]
    fn display_is_canonical_and_round_trips() {
        let cases = [
            (ProtocolSpec::sample_collide_paper(), "sample-collide"),
            (ProtocolSpec::sample_collide_cheap(), "sample-collide:l=10"),
            (
                ProtocolSpec::SampleCollide {
                    l: 10,
                    timer: 10.0,
                    timeout: 12,
                },
                "sample-collide:l=10,timeout=12",
            ),
            (ProtocolSpec::hops_sampling_paper(), "hops-sampling"),
            (ProtocolSpec::aggregation_paper(), "aggregation"),
            (
                ProtocolSpec::aggregation_oneshot(),
                "aggregation:epoched=false",
            ),
        ];
        for (spec, text) in cases {
            assert_eq!(spec.to_string(), text);
            assert_eq!(ProtocolSpec::parse(text).unwrap(), spec);
        }
    }

    #[test]
    fn build_sync_matches_hand_constructed_protocols() {
        // The factory must consume the RNG exactly like the hand-built
        // object the figures historically used.
        use crate::protocol::{step_once, StepOutcome};
        use crate::SizeEstimator;
        let mut rng = small_rng(4100);
        let graph = HeterogeneousRandom::paper(1_500).build(&mut rng);
        let mut msgs_a = MessageCounter::new();
        let mut msgs_b = MessageCounter::new();
        let outcome = |e: Option<f64>| e.map_or(StepOutcome::Failed, StepOutcome::Estimate);

        let mut rng_a = small_rng(4101);
        let mut rng_b = small_rng(4101);
        let direct = SampleCollide::paper().estimate(&graph, &mut rng_a, &mut msgs_a);
        let mut built = ProtocolSpec::sample_collide_paper().build_sync();
        let built = step_once(&mut *built, 1, &graph, &mut rng_b, &mut msgs_b);
        assert_eq!(outcome(direct), built);
        assert_eq!(msgs_a, msgs_b);

        let mut rng_a = small_rng(4102);
        let mut rng_b = small_rng(4102);
        let direct = Aggregation::paper().estimate(&graph, &mut rng_a, &mut msgs_a);
        let mut built = ProtocolSpec::aggregation_oneshot().build_sync();
        let built = step_once(&mut *built, 1, &graph, &mut rng_b, &mut msgs_b);
        assert_eq!(outcome(direct), built);
    }

    #[test]
    fn build_async_dispatches_to_the_right_class() {
        assert_eq!(
            ProtocolSpec::sample_collide_paper().build_async().name(),
            "Sample&Collide"
        );
        assert_eq!(
            ProtocolSpec::hops_sampling_paper().build_async().name(),
            "HopsSampling"
        );
        assert_eq!(
            ProtocolSpec::aggregation_paper().build_async().name(),
            "Aggregation"
        );
        // The timeout knob reaches the async walk.
        let ProtocolSpec::SampleCollide { timeout, .. } =
            ProtocolSpec::parse("sc:timeout=12").unwrap()
        else {
            panic!("wrong variant");
        };
        assert_eq!(timeout, 12);
        let AsyncProtocol::SampleCollide(p) =
            ProtocolSpec::parse("sc:timeout=12").unwrap().build_async()
        else {
            panic!("wrong variant");
        };
        assert_eq!(p.timeout_steps, 12);
    }

    #[test]
    fn scheduled_reports_follow_the_class() {
        assert_eq!(
            ProtocolSpec::sample_collide_paper().scheduled_reports(24),
            24
        );
        assert_eq!(ProtocolSpec::aggregation_paper().scheduled_reports(100), 2);
        assert_eq!(
            ProtocolSpec::parse("agg:rounds=25")
                .unwrap()
                .scheduled_reports(100),
            4
        );
    }
}
