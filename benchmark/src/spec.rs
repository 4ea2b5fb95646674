//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, and the per-layer metrics with the end-to-end metric
//! and workload each is predicted to move. `BENCHMARK.json` carries the
//! same names; a unit test keeps the two in step.

/// How long one run measures; `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 30;
/// Population of every gated DES point.
pub const SIZE: usize = 100_000;
/// Steps of `des-agg-100k` and `sharded-agg-100k-k2` (three 50-round epochs).
pub const AGG_STEPS: u64 = 150;
/// Steps of `des-churn-100k` (≈2 % of the population replaced per step).
pub const CHURN_STEPS: u64 = 1_000;
/// The churn workload's session model.
pub const CHURN_SPEC: &str = "pareto:alpha=1.5,mean=50";
/// Figures plus Table I written by `figures-small`.
pub const ARTEFACTS: usize = 24;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `repro run --protocol aggregation:rounds=50 …` on `shards` shards
    /// (1 = the sequential engine).
    DesAgg { shards: u32 },
    /// `repro run --protocol sample-collide:l=10 … --churn pareto…`.
    DesChurn,
    /// `repro run --all --scale small --jobs 2`.
    Figures,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// Work per run, fixed by definition (never counted by the program, so
    /// a change that removes events cannot lower it).
    pub work: f64,
    pub work_unit: &'static str,
    /// Threads the child runs; the host record flags `cores_short` when the
    /// machine has fewer.
    pub threads: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "des-agg-100k",
        why: "Sequential event core does nearly all the work (timing wheel, Network::send draws, \
              payload pool, AsyncAggregation handler, runner loop); overlay read-only, no churn.",
        kind: Kind::DesAgg { shards: 1 },
        work: SIZE as f64 * AGG_STEPS as f64,
        work_unit: "node-steps",
        threads: 1,
    },
    Workload {
        name: "des-churn-100k",
        why: "Same driver, weights reversed: CSR join/leave with slot reuse and compaction, the \
              session-model heap and WorkloadOp::apply_with dominate; the event core is idle.",
        kind: Kind::DesChurn,
        work: SIZE as f64 * CHURN_STEPS as f64,
        work_unit: "node-steps",
        threads: 1,
    },
    Workload {
        name: "figures-small",
        why: "What the paper's reader runs: 23 figures + Table I at small scale, carried by the \
              sync estimators, sim::parallel fan-out, experiments::engine and the CSV sinks.",
        kind: Kind::Figures,
        work: ARTEFACTS as f64,
        work_unit: "artefacts",
        threads: 2,
    },
    Workload {
        name: "sharded-agg-100k-k2",
        why: "des-agg-100k's command with --shards 2: per-shard wheels, route_remote, \
              ExchangeGrid, two barriers per tick; the keep-or-remove gate's measurement.",
        kind: Kind::DesAgg { shards: 2 },
        work: SIZE as f64 * AGG_STEPS as f64,
        work_unit: "node-steps",
        threads: 2,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which of a run's readings (one per child, or per set-up call) the run
/// reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Take {
    Median,
    /// The best reading: the fastest child. Another tenant's load only ever
    /// adds time, so a run's fastest child is the one it touched least; a
    /// burst has to cover the whole run to move this, half of it to move
    /// the median. The README's noise policy has the measurement.
    Best,
}

#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub take: Take,
}

/// ISSUE 12 asked for 10 % on the timings and 3 % on RSS; this host does not
/// repeat that well, so that criterion is not met and the bounds follow what
/// two ten-seed sets showed on the 2-vCPU shared machine the benchmark was
/// written on. In a quiet hour every timing spread was under 7 % and no
/// median moved 4 %; in a busy one (another tenant's load drifting over tens
/// of minutes) spreads reached 14 % and 19 % on the two-thread
/// `sharded-agg-100k-k2`, and medians moved 10–18 % between the sets.
/// Nothing the harness does can remove that drift, so the timings get the
/// contract's ceiling, and a run reports its fastest child (`Take`) so that
/// at least a burst shorter than the run leaves it alone. RSS is a
/// property of the seed, not of the host's load: with every child held to
/// one malloc arena (see `workloads::run_child`) its spread over ten seeds
/// is up to 4.9 % on `figures-small`, 2.1 % on `des-agg-100k` and about 1 %
/// on `sharded-agg-100k-k2`, the same in a busy set and a quiet one. On
/// `des-churn-100k` about one seed in five peaks at 21.5 MB and the others
/// at 24.0 MB, so a set of ten spreads anything from 1 % to 13 % (10.6 %
/// on seeds 4100–4109); the bound clears the widest mix.
/// `setup_s`, a 50 ms quantity, is among the largest.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
        take: Take::Best,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
        take: Take::Best,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.15,
        take: Take::Median,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
        take: Take::Median,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
        take: Take::Best,
    },
];

/// The probes of the traced pass, in the order it runs them. A probe is a
/// group of measurements that share set-up; each per-layer metric names the
/// one that reports it, which is what `--layer PREFIX` selects probes by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Probe {
    Children,
    Host,
    Engine,
    Pool,
    Network,
    ShardExchange,
    Overlay,
    AggReplay,
    ChurnReplay,
    Polling,
    Figures,
    Sinks,
    Telemetry,
    Node,
}

#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub probe: Probe,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Must repeat bit-for-bit at a fixed seed.
    pub exact: bool,
    /// Which end-to-end metric on which workload the number should move
    /// ("×" = predicted not to move).
    pub moves: &'static str,
}

const fn timing(
    probe: Probe,
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        probe,
        unit,
        higher_is_better: false,
        exact: false,
        moves,
    }
}

const fn count(probe: Probe, name: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        probe,
        unit: "count",
        higher_is_better: false,
        exact: true,
        moves,
    }
}

const fn ratio(
    probe: Probe,
    name: &'static str,
    unit: &'static str,
    exact: bool,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        probe,
        unit,
        higher_is_better: true,
        exact,
        moves,
    }
}

const ENGINE: &str = "work_per_s on des-agg-100k, sharded-agg-100k-k2; × des-churn-100k";
const POOL: &str = "wall_s, peak_rss_mb on des-agg-100k";
const NETWORK: &str = "work_per_s on des-agg-100k";
const SHARD: &str = "wall_s on sharded-agg-100k-k2; × the other three";
const BUILDER: &str = "setup_s on the three DES workloads";
const GRAPH_WRITE: &str = "wall_s on des-churn-100k";
const GRAPH_READ: &str = "wall_s on figures-small, des-agg-100k";
const MODELS: &str = "wall_s on des-churn-100k; × des-agg-100k";
const NET_PROTOCOL: &str =
    "work_per_s on des-agg-100k, sharded-agg-100k-k2; × figures-small beyond figs 19/20";
const SYNC: &str = "wall_s on figures-small; × the DES workloads";
const RUNNER: &str = "wall_s on des-agg-100k";
const SHARDED: &str = "wall_s, cpu_s on sharded-agg-100k-k2";
const FIGURES: &str = "wall_s on figures-small";
const TELEMETRY: &str = "no end-to-end metric (no workload passes --metrics); the 5 % gate";
const WIRE: &str = "node.cluster.cpu_us_per_frame; × all four workloads";
const CLUSTER: &str = "nothing end-to-end yet (node cluster is wall-paced, not a workload)";
const HARNESS: &str = "context only";

pub const PER_LAYER: [PerLayer; 83] = [
    // sim::engine
    timing(Probe::Engine, "sim.engine.schedule_ns", "ns", ENGINE),
    timing(Probe::Engine, "sim.engine.pop_ns", "ns", ENGINE),
    count(Probe::AggReplay, "sim.engine.events", ENGINE),
    count(Probe::AggReplay, "sim.engine.peak_queue", ENGINE),
    // sim::pool
    timing(Probe::Pool, "sim.pool.cycle_ns", "ns", POOL),
    ratio(Probe::AggReplay, "sim.pool.hit_rate", "ratio", true, POOL),
    // sim::network
    timing(Probe::Network, "sim.network.send_ns.ideal", "ns", NETWORK),
    timing(Probe::Network, "sim.network.send_ns.wan", "ns", NETWORK),
    timing(Probe::Network, "sim.network.pop_batch_ns", "ns", NETWORK),
    timing(
        Probe::Network,
        "sim.network.route_remote_ns",
        "ns",
        "wall_s on sharded-agg-100k-k2 only",
    ),
    count(Probe::AggReplay, "sim.network.sent", NETWORK),
    count(Probe::AggReplay, "sim.network.delivered", NETWORK),
    count(
        Probe::ChurnReplay,
        "sim.network.churn_lost",
        "wall_s on des-churn-100k",
    ),
    // sim::shard
    timing(Probe::ShardExchange, "sim.shard.exchange_ns", "ns", SHARD),
    // sim::parallel
    ratio(
        Probe::Figures,
        "sim.parallel.efficiency",
        "ratio",
        false,
        FIGURES,
    ),
    // overlay::builder
    timing(
        Probe::Overlay,
        "overlay.builder.build_ns_per_node.100k",
        "ns",
        BUILDER,
    ),
    timing(
        Probe::Overlay,
        "overlay.builder.build_ns_per_node.1m",
        "ns",
        BUILDER,
    ),
    // overlay::graph
    timing(Probe::Overlay, "overlay.graph.join_ns", "ns", GRAPH_WRITE),
    timing(Probe::Overlay, "overlay.graph.leave_ns", "ns", GRAPH_WRITE),
    timing(
        Probe::Overlay,
        "overlay.graph.random_neighbor_ns.fresh",
        "ns",
        GRAPH_READ,
    ),
    timing(
        Probe::Overlay,
        "overlay.graph.random_neighbor_ns.churned",
        "ns",
        GRAPH_READ,
    ),
    count(Probe::ChurnReplay, "overlay.graph.compactions", GRAPH_WRITE),
    PerLayer {
        name: "overlay.graph.adjacency_bytes_per_node",
        probe: Probe::Overlay,
        unit: "B",
        higher_is_better: false,
        exact: true,
        moves: "peak_rss_mb on every workload",
    },
    // workload::models
    timing(
        Probe::ChurnReplay,
        "workload.models.pareto_gen_ns",
        "ns",
        MODELS,
    ),
    timing(
        Probe::ChurnReplay,
        "workload.models.steady_gen_ns",
        "ns",
        MODELS,
    ),
    count(Probe::ChurnReplay, "workload.ops_applied", MODELS),
    // core::net_protocol
    timing(
        Probe::AggReplay,
        "core.net_protocol.agg.dispatch_ns",
        "ns",
        NET_PROTOCOL,
    ),
    timing(
        Probe::AggReplay,
        "core.net_protocol.agg.on_step_ns_per_node",
        "ns",
        NET_PROTOCOL,
    ),
    timing(
        Probe::Polling,
        "core.net_protocol.sc.dispatch_ns",
        "ns",
        NET_PROTOCOL,
    ),
    timing(
        Probe::Polling,
        "core.net_protocol.hs.dispatch_ns",
        "ns",
        NET_PROTOCOL,
    ),
    PerLayer {
        name: "core.net_protocol.agg.msgs_per_node_step",
        probe: Probe::AggReplay,
        unit: "ratio",
        higher_is_better: false,
        exact: true,
        moves: NET_PROTOCOL,
    },
    // core::{sample_collide,hops_sampling,aggregation} (sync)
    timing(
        Probe::Overlay,
        "core.sample_collide.estimate_ms",
        "ms",
        SYNC,
    ),
    count(
        Probe::Overlay,
        "core.sample_collide.msgs_per_estimate",
        SYNC,
    ),
    timing(Probe::Overlay, "core.hops_sampling.estimate_ms", "ms", SYNC),
    count(Probe::Overlay, "core.hops_sampling.msgs_per_estimate", SYNC),
    timing(
        Probe::Overlay,
        "core.aggregation.round_ns_per_node",
        "ns",
        SYNC,
    ),
    // experiments::runner
    timing(
        Probe::AggReplay,
        "experiments.runner.ns_per_event",
        "ns",
        RUNNER,
    ),
    timing(
        Probe::AggReplay,
        "experiments.runner.loop_self_ns",
        "ns",
        RUNNER,
    ),
    timing(
        Probe::Children,
        "experiments.runner.ns_per_node_step.1m",
        "ns",
        RUNNER,
    ),
    timing(
        Probe::Children,
        "experiments.runner.rss_mb.1m",
        "MB",
        "peak_rss_mb at the un-gated 1M point",
    ),
    // experiments::sharded
    ratio(
        Probe::Children,
        "experiments.sharded.speedup_k2",
        "ratio",
        false,
        SHARDED,
    ),
    timing(
        Probe::Children,
        "experiments.sharded.cpu_ratio_k2",
        "ratio",
        SHARDED,
    ),
    PerLayer {
        name: "experiments.sharded.event_ratio_k2",
        probe: Probe::Children,
        unit: "ratio",
        higher_is_better: false,
        exact: true,
        moves: SHARDED,
    },
    // experiments::{engine,sink}
    timing(Probe::Figures, "experiments.engine.fig01_s", "s", FIGURES),
    timing(Probe::Figures, "experiments.engine.fig02_s", "s", FIGURES),
    timing(Probe::Figures, "experiments.engine.fig03_s", "s", FIGURES),
    timing(Probe::Figures, "experiments.engine.fig04_s", "s", FIGURES),
    timing(Probe::Figures, "experiments.engine.fig05_s", "s", FIGURES),
    timing(Probe::Figures, "experiments.engine.fig06_s", "s", FIGURES),
    timing(Probe::Figures, "experiments.engine.fig07_s", "s", FIGURES),
    timing(Probe::Figures, "experiments.engine.fig08_s", "s", FIGURES),
    timing(Probe::Figures, "experiments.engine.fig09_s", "s", FIGURES),
    timing(Probe::Figures, "experiments.engine.fig10_s", "s", FIGURES),
    timing(Probe::Figures, "experiments.engine.fig11_s", "s", FIGURES),
    timing(Probe::Figures, "experiments.engine.fig12_s", "s", FIGURES),
    timing(Probe::Figures, "experiments.engine.fig13_s", "s", FIGURES),
    timing(Probe::Figures, "experiments.engine.fig14_s", "s", FIGURES),
    timing(Probe::Figures, "experiments.engine.fig15_s", "s", FIGURES),
    timing(Probe::Figures, "experiments.engine.fig16_s", "s", FIGURES),
    timing(Probe::Figures, "experiments.engine.fig17_s", "s", FIGURES),
    timing(Probe::Figures, "experiments.engine.fig18_s", "s", FIGURES),
    timing(Probe::Figures, "experiments.engine.fig19_s", "s", FIGURES),
    timing(Probe::Figures, "experiments.engine.fig20_s", "s", FIGURES),
    timing(Probe::Figures, "experiments.engine.fig21_s", "s", FIGURES),
    timing(Probe::Figures, "experiments.engine.fig22_s", "s", FIGURES),
    timing(Probe::Figures, "experiments.engine.fig23_s", "s", FIGURES),
    timing(Probe::Figures, "experiments.engine.table1_s", "s", FIGURES),
    timing(Probe::Sinks, "experiments.sink.csv_row_ns", "ns", FIGURES),
    timing(
        Probe::Sinks,
        "experiments.sink.jsonl_row_ns",
        "ns",
        "wall_s on the three DES workloads (tiny)",
    ),
    // telemetry
    timing(Probe::Telemetry, "telemetry.record_ns", "ns", TELEMETRY),
    timing(Probe::Telemetry, "telemetry.snapshot_us", "us", TELEMETRY),
    timing(Probe::Telemetry, "telemetry.overhead_pct", "%", TELEMETRY),
    // node::wire
    timing(Probe::Node, "node.wire.encode_ns.agg", "ns", WIRE),
    timing(Probe::Node, "node.wire.decode_ns.agg", "ns", WIRE),
    timing(Probe::Node, "node.wire.encode_ns.sc", "ns", WIRE),
    timing(Probe::Node, "node.wire.decode_ns.sc", "ns", WIRE),
    PerLayer {
        name: "node.wire.frame_bytes.agg",
        probe: Probe::Node,
        unit: "B",
        higher_is_better: false,
        exact: true,
        moves: WIRE,
    },
    // node::{runtime,cluster}
    timing(Probe::Node, "node.cluster.cpu_us_per_frame", "us", CLUSTER),
    timing(Probe::Node, "node.cluster.frames_sent", "count", CLUSTER),
    timing(
        Probe::Node,
        "node.cluster.frame_loss_ratio",
        "ratio",
        CLUSTER,
    ),
    timing(Probe::Node, "node.cluster.pace_lag_ms", "ms", CLUSTER),
    // harness
    timing(Probe::AggReplay, "trace.overhead_pct", "%", HARNESS),
    timing(Probe::Host, "host.calib_ms", "ms", HARNESS),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Value::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
        match doc.get(key) {
            Some(Value::Arr(items)) => items,
            other => panic!("BENCHMARK.json `{key}` is not a list: {other:?}"),
        }
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("entry lacks string `{key}`: {v:?}"))
    }

    fn direction(higher: bool) -> &'static str {
        if higher {
            "higher"
        } else {
            "lower"
        }
    }

    #[test]
    fn benchmark_json_names_the_same_workloads() {
        let doc = benchmark_json();
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(RUN_SECONDS as f64)
        );
        let listed: Vec<(&str, &str)> = entries(&doc, "workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        assert_eq!(listed.len(), WORKLOADS.len());
        for ((name, why), w) in listed.iter().zip(&WORKLOADS) {
            assert_eq!(*name, w.name);
            assert_eq!(*why, w.why);
            assert!(why.len() <= 200, "{name}: why is {} chars", why.len());
        }
    }

    #[test]
    fn benchmark_json_names_the_same_end_to_end_metrics_and_bounds() {
        let doc = benchmark_json();
        let listed = entries(&doc, "end_to_end");
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, m) in listed.iter().zip(&END_TO_END) {
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit);
            assert_eq!(field(entry, "better"), direction(m.higher_is_better));
            assert_eq!(entry.get("bound").and_then(Value::as_f64), Some(m.bound));
            assert!(m.bound <= 0.25);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_names_the_same_per_layer_metrics() {
        let doc = benchmark_json();
        let listed = entries(&doc, "per_layer");
        assert_eq!(listed.len(), PER_LAYER.len());
        assert!(PER_LAYER.len() <= 128);
        for (entry, m) in listed.iter().zip(&PER_LAYER) {
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit);
            assert_eq!(field(entry, "better"), direction(m.higher_is_better));
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract_alphabet() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64, "{name} too long");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
    }
}
