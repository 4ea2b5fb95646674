//! The loopback cluster harness: a coordinator that launches N node
//! shards (threads or child processes), wires them up, drives their steps
//! and churn on its wall clock, streams estimates to a [`ResultSink`], and
//! shuts the whole thing down without leaving orphans.
//!
//! Lifecycle:
//!
//! 1. bind a TCP control listener, launch the shards;
//! 2. collect `Hello{proc, udp_port}` from every shard, broadcast the
//!    assembled `Peers` table, then `Start` — wall-clock time zero;
//! 3. run: the coordinator is the cluster's only clock. At each step
//!    `1..=steps` its [`WallPacer`] yields, it steps the DES's own streamed
//!    churn ([`WorkloadRuntime`], on the `--shards K` coordinator's
//!    streams) on its replica and broadcasts `Step { step, ops }`; every
//!    shard lands the ops off the shared application stream, then steps.
//!    `Report` frames stream to the sink as they arrive; periodic
//!    `EstimateQuery` rounds sample per-node trajectories;
//! 4. after the configured horizon: a final estimate query, `Shutdown`,
//!    `Bye` collection, and a bounded join/kill of every shard.
//!
//! A shard that loses its control stream exits on its own (EOF means the
//! coordinator is gone), so even a coordinator killed with SIGKILL leaves
//! no orphaned node processes behind.

// panic-in-io: the coordinator reports a failed shard, never panics mid-cluster.
#![deny(clippy::expect_used, clippy::panic)]

use crate::runtime::{run_node, NodeStats, RuntimeConfig};
use crate::wire::{read_ctrl, write_ctrl, CtrlMsg};
use p2p_estimation::{with_async_protocol, ProtocolSpec};
use p2p_experiments::runner::{
    run_replications_des, ConvergenceLatch, TelemetryOpts, WorkloadRuntime,
};
use p2p_experiments::sink::{ExperimentMeta, ResultSink};
use p2p_experiments::Scenario;
use p2p_sim::rng::small_rng;
use p2p_sim::NetworkModel;
use p2p_telemetry::{Snapshot, TelemetrySink};
use p2p_workload::{WallPacer, WorkloadSource, WorkloadSpec};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter};
use std::net::{Ipv4Addr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything a cluster run needs. The `Default`-ish constructor
/// [`ClusterConfig::new`] fills in the tuned loopback defaults.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Overlay size at start.
    pub nodes: usize,
    /// Shard (process) count.
    pub procs: u32,
    /// The protocol every shard runs.
    pub protocol: ProtocolSpec,
    /// Shared latency/loss model; its `step_ticks` is the step period in
    /// wall milliseconds (one simulated tick = one millisecond).
    pub network: NetworkModel,
    /// Run length in steps; the wall-clock horizon is `steps × step_ms`.
    pub steps: u64,
    /// Cluster seed: overlay replicas, churn, injected latency/loss.
    pub seed: u64,
    /// Streamed churn the coordinator steps and broadcasts to every
    /// replica; `None` → static.
    pub churn: Option<WorkloadSpec>,
    /// Preferred base UDP port (shard `p` tries `base + p`); `0` →
    /// ephemeral ports everywhere.
    pub base_port: u16,
    /// Steps between per-node estimate-trajectory queries; `0` disables
    /// periodic queries (the final query still runs).
    pub query_every: u64,
    /// Steps between shard telemetry snapshots; `0` disables cluster
    /// telemetry entirely (no `Metrics` control frames).
    pub metrics_every: u64,
    /// Where merged per-interval cluster snapshots stream as JSONL;
    /// `None` keeps them only in [`ClusterReport::merged_metrics`].
    pub metrics_out: Option<PathBuf>,
}

impl ClusterConfig {
    /// A loopback cluster with the tuned defaults: 25 ms steps, 2 ms hop
    /// latency, no injected loss.
    pub fn new(nodes: usize, procs: u32, protocol: ProtocolSpec) -> Self {
        ClusterConfig {
            nodes,
            procs,
            protocol,
            network: default_cluster_network(),
            steps: 75,
            seed: 20060619,
            churn: None,
            base_port: 0,
            query_every: 10,
            metrics_every: 0,
            metrics_out: None,
        }
    }

    /// The scenario both the shards' replicas and the DES oracle resolve
    /// from this config — the "matched run" of the cross-validation. The
    /// churn rides as its streamed workload; shards ignore it (the
    /// coordinator steps it and broadcasts the ops).
    pub fn scenario(&self) -> Scenario {
        let scenario = Scenario::static_network(self.nodes, self.steps).with_network(self.network);
        match &self.churn {
            Some(spec) => scenario.with_workload(WorkloadSource::Model(spec.clone())),
            None => scenario,
        }
    }
}

/// The loopback network the cluster defaults to: steps every 25 wall
/// milliseconds, 2 ms injected hop latency (real loopback latency rides on
/// top), lossless. Slow enough for exchanges to complete within a round on
/// a loaded CI host, fast enough that a 75-step run finishes in ~2 s.
pub fn default_cluster_network() -> NetworkModel {
    NetworkModel::ideal()
        .with_latency(p2p_sim::HopLatency::Constant(2.0))
        .with_step_ticks(25)
}

/// How shards are launched.
#[derive(Clone, Debug)]
pub enum Launch {
    /// Each shard runs [`run_node`] on a thread of this process. The mode
    /// the integration tests use: sockets are just as real, but teardown
    /// is a join, and a panicking shard fails the test instead of leaking
    /// a process.
    InProcess,
    /// Each shard is a child process: `<exe> host --proc p ...`. What
    /// `node cluster` does, exercising true multi-process isolation.
    Subprocess {
        /// The `node` binary (usually `std::env::current_exe()`).
        exe: PathBuf,
    },
}

/// What one cluster run produced.
#[derive(Clone, Debug, Default)]
pub struct ClusterReport {
    /// `(proc, wall_ms, estimate)` for every closed reporting period, in
    /// arrival order.
    pub reports: Vec<(u32, u64, f64)>,
    /// The final estimate query's `(node, estimate)` pairs, all shards
    /// merged.
    pub final_estimates: Vec<(u32, f64)>,
    /// Ground truth at the end of the run (the coordinator's replica).
    pub final_size: usize,
    /// Per-shard parting stats, indexed by proc (zeroed if a shard never
    /// said `Bye`).
    pub node_stats: Vec<NodeStats>,
    /// Shards that exited uncleanly (no `Bye`).
    pub unclean_exits: u32,
    /// Merged per-interval cluster snapshots (every shard's snapshot for a
    /// step folded in shard-index order), with the coordinator's
    /// convergence gauges appended. Empty unless `metrics_every > 0`.
    pub merged_metrics: Vec<Snapshot>,
}

impl ClusterReport {
    /// The run's single summary estimate: the median of the final per-node
    /// estimates when the protocol holds them (the epidemic class), else
    /// the last reported estimate.
    pub fn summary_estimate(&self) -> Option<f64> {
        if !self.final_estimates.is_empty() {
            let mut ests: Vec<f64> = self.final_estimates.iter().map(|&(_, e)| e).collect();
            ests.sort_by(|a, b| a.total_cmp(b));
            return Some(ests[ests.len() / 2]);
        }
        self.reports.last().map(|&(_, _, e)| e)
    }
}

/// One shard, as the coordinator tracks it.
enum Shard {
    Thread(JoinHandle<io::Result<NodeStats>>),
    Process(Child),
}

/// Runs a cluster to completion, streaming rows into `sink`:
/// `proc<p>` series carry reported estimates over wall time (ms), and
/// `n<slot>` series carry per-node trajectory samples.
pub fn run_cluster(
    cfg: &ClusterConfig,
    launch: &Launch,
    sink: &mut dyn ResultSink,
) -> io::Result<ClusterReport> {
    assert!(cfg.procs > 0, "a cluster needs at least one shard");
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
    let coordinator = listener.local_addr()?;
    let scenario = cfg.scenario();
    let step_ms = cfg.network.step_ticks.max(1);

    sink.begin(&ExperimentMeta {
        id: "cluster".to_string(),
        title: format!(
            "loopback cluster: {} nodes / {} shards, {}",
            cfg.nodes, cfg.procs, cfg.protocol
        ),
        x_label: "Wall time (ms)".to_string(),
        y_label: "Estimated size".to_string(),
    });

    // Launch the shards.
    let mut shards: Vec<Shard> = Vec::with_capacity(cfg.procs as usize);
    for proc in 0..cfg.procs {
        let data_port = if cfg.base_port == 0 {
            0
        } else {
            cfg.base_port + proc as u16
        };
        match launch {
            Launch::InProcess => {
                let rc = RuntimeConfig {
                    proc,
                    procs: cfg.procs,
                    protocol: cfg.protocol,
                    scenario: cfg.scenario(),
                    seed: cfg.seed,
                    coordinator,
                    data_port,
                    metrics_every: cfg.metrics_every,
                };
                shards.push(Shard::Thread(std::thread::spawn(move || run_node(&rc))));
            }
            Launch::Subprocess { exe } => {
                let child = Command::new(exe)
                    .arg("host")
                    .args(["--proc", &proc.to_string()])
                    .args(["--procs", &cfg.procs.to_string()])
                    .args(["--nodes", &cfg.nodes.to_string()])
                    .args(["--steps", &cfg.steps.to_string()])
                    .args(["--protocol", &cfg.protocol.to_string()])
                    .args(["--network", &network_spec_string(cfg.network)])
                    .args(["--seed", &cfg.seed.to_string()])
                    .args(["--coordinator", &coordinator.to_string()])
                    .args(["--port", &data_port.to_string()])
                    .args(["--metrics-every", &cfg.metrics_every.to_string()])
                    .stdin(Stdio::null())
                    .spawn()?;
                shards.push(Shard::Process(child));
            }
        }
    }

    // Handshake: every shard says hello within the deadline or the run
    // aborts (and the launched shards die with the dropped control
    // streams).
    let handshake = handshake(&listener, cfg.procs, Duration::from_secs(10));
    let (mut ctrl_writers, rx) = match handshake {
        Ok(h) => h,
        Err(e) => {
            reap(&mut shards, Duration::from_secs(2));
            return Err(e);
        }
    };
    let ports: Vec<u16> = ctrl_writers.iter().map(|(_, port)| *port).collect();
    for (w, _) in ctrl_writers.iter_mut() {
        write_ctrl(
            w,
            &CtrlMsg::Peers {
                ports: ports.clone(),
            },
        )?;
    }
    for (w, _) in ctrl_writers.iter_mut() {
        write_ctrl(w, &CtrlMsg::Start)?;
    }
    let start = Instant::now();
    let mut pacer = WallPacer::new(step_ms);
    let mut last_step = 0;

    // The coordinator's own replica: truth for the report, and the graph
    // the workload model draws against — the streams of the `--shards K`
    // DES coordinator, so both drivers churn the overlay identically.
    let mut apply_rng = small_rng(cfg.seed);
    let mut graph = scenario.build_overlay(&mut apply_rng);
    let mut workload = (scenario.workload.as_ref())
        .map(|source| WorkloadRuntime::new(source, &scenario, cfg.seed, &graph));

    let horizon = Duration::from_millis(cfg.steps * step_ms + 2 * step_ms + 100);
    let mut report = ClusterReport {
        node_stats: vec![NodeStats::default(); cfg.procs as usize],
        ..ClusterReport::default()
    };
    // Cluster telemetry: per-tick shard snapshots accumulate here until
    // every shard has answered for that tick, then fold in shard-index
    // order (fixed order ⇒ the merge is well-defined regardless of frame
    // arrival interleaving) and stream out with the coordinator's
    // convergence gauges appended.
    let mut metrics_file = match cfg.metrics_out.as_ref() {
        Some(path) => {
            let f = File::create(path)?;
            Some(TelemetrySink::new(BufWriter::new(f)))
        }
        None => None,
    };
    // The class slug keys the per-class convergence gauges.
    let class = cfg.protocol.key();
    let mut pending_metrics: BTreeMap<u64, Vec<Option<Snapshot>>> = BTreeMap::new();
    // Time-to-ε in wall milliseconds, in the DES's default ±ε band.
    let mut conv = ConvergenceLatch::new(TelemetryOpts::default().eps);
    let mut next_query = if cfg.query_every == 0 {
        u64::MAX
    } else {
        cfg.query_every * step_ms
    };

    // Main loop: steps and estimate queries on deadlines, shard traffic
    // as it arrives. Every step is sent, however late the loop runs.
    while last_step < cfg.steps || start.elapsed() < horizon {
        while last_step < cfg.steps {
            let Some(step) = pacer.poll() else { break };
            last_step = step;
            let ops = match workload.as_mut() {
                Some(w) => {
                    w.step(step, &mut graph, &mut apply_rng);
                    w.ops().to_vec()
                }
                None => Vec::new(),
            };
            let msg = CtrlMsg::Step { step, ops };
            for (w, _) in ctrl_writers.iter_mut() {
                write_ctrl(w, &msg)?;
            }
        }
        let now_ms = start.elapsed().as_millis() as u64;
        if now_ms >= next_query {
            next_query = now_ms + cfg.query_every * step_ms;
            for (w, _) in ctrl_writers.iter_mut() {
                write_ctrl(w, &CtrlMsg::EstimateQuery)?;
            }
        }

        let wait = Duration::from_millis(step_ms.min(25));
        match rx.recv_timeout(wait) {
            Ok((proc, CtrlMsg::Report { wall_ms, estimate })) => {
                report.reports.push((proc, wall_ms, estimate));
                if estimate.is_finite() {
                    conv.observe(estimate, graph.alive_count() as f64, wall_ms);
                }
                sink.row(&p2p_experiments::sink::Row {
                    series: &format!("proc{proc}"),
                    x: wall_ms as f64,
                    y: estimate,
                });
            }
            Ok((proc, CtrlMsg::Metrics { json })) => {
                // A snapshot that fails the strict parser is treated like
                // any other malformed frame: dropped, run unharmed.
                let parsed = std::str::from_utf8(&json)
                    .ok()
                    .and_then(|s| Snapshot::from_jsonl(s).ok());
                if let Some(snap) = parsed {
                    let tick = snap.tick;
                    let slots = pending_metrics
                        .entry(tick)
                        .or_insert_with(|| vec![None; cfg.procs as usize]);
                    slots[proc as usize] = Some(snap);
                    if slots.iter().all(Option::is_some) {
                        if let Some(slots) = pending_metrics.remove(&tick) {
                            let mut merged: Option<Snapshot> = None;
                            for shard_snap in slots.into_iter().flatten() {
                                match merged.as_mut() {
                                    None => merged = Some(shard_snap),
                                    Some(m) => {
                                        if m.merge_from(&shard_snap).is_err() {
                                            merged = None;
                                            break;
                                        }
                                    }
                                }
                            }
                            if let Some(mut m) = merged {
                                m.series = "cluster".to_string();
                                let reached = conv.reached_at();
                                m.gauges.push((
                                    format!("conv.eps_reached.{class}"),
                                    reached.is_some() as u64,
                                ));
                                m.gauges.push((
                                    format!("conv.time_to_eps_ms.{class}"),
                                    reached.unwrap_or(0),
                                ));
                                m.gauges.push((
                                    "cluster.truth".to_string(),
                                    graph.alive_count() as u64,
                                ));
                                if let Some(mf) = metrics_file.as_mut() {
                                    mf.write(&m);
                                }
                                report.merged_metrics.push(m);
                            }
                        }
                    }
                }
            }
            Ok((_, CtrlMsg::Estimates { entries })) => {
                let x = start.elapsed().as_millis() as f64;
                for (node, est) in entries {
                    sink.row(&p2p_experiments::sink::Row {
                        series: &format!("n{}", node.index()),
                        x,
                        y: est,
                    });
                }
            }
            Ok((
                proc,
                CtrlMsg::Bye {
                    sent,
                    received,
                    malformed,
                },
            )) => {
                report.node_stats[proc as usize] = NodeStats {
                    sent,
                    received,
                    malformed,
                    steps: 0,
                };
            }
            Ok(_) => {}
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }

    // Wind-down: final per-node estimates, then shutdown.
    for (w, _) in ctrl_writers.iter_mut() {
        let _ = write_ctrl(w, &CtrlMsg::EstimateQuery);
    }
    let mut answered = 0u32;
    let deadline = Instant::now() + Duration::from_secs(2);
    while answered < cfg.procs {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        match rx.recv_timeout(left) {
            Ok((_, CtrlMsg::Estimates { entries })) => {
                answered += 1;
                report
                    .final_estimates
                    .extend(entries.iter().map(|&(n, e)| (n.0, e)));
            }
            Ok((proc, CtrlMsg::Report { wall_ms, estimate })) => {
                report.reports.push((proc, wall_ms, estimate));
            }
            Ok(_) => {}
            Err(_) => break,
        }
    }
    for (w, _) in ctrl_writers.iter_mut() {
        let _ = write_ctrl(w, &CtrlMsg::Shutdown);
    }
    let mut byes = report
        .node_stats
        .iter()
        .filter(|s| s.sent + s.received + s.malformed > 0)
        .count() as u32;
    let deadline = Instant::now() + Duration::from_secs(3);
    while byes < cfg.procs {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        match rx.recv_timeout(left) {
            Ok((
                proc,
                CtrlMsg::Bye {
                    sent,
                    received,
                    malformed,
                },
            )) => {
                byes += 1;
                report.node_stats[proc as usize] = NodeStats {
                    sent,
                    received,
                    malformed,
                    steps: 0,
                };
            }
            Ok(_) => {}
            Err(mpsc::RecvTimeoutError::Timeout) => break,
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    report.unclean_exits = reap(&mut shards, Duration::from_secs(3));
    report.final_size = graph.alive_count();
    sink.finish();
    if let Some(mf) = metrics_file {
        mf.finish()?;
    }
    Ok(report)
}

/// Joins or waits out every shard, killing stragglers; returns how many
/// had to be killed or failed.
fn reap(shards: &mut Vec<Shard>, grace: Duration) -> u32 {
    let mut unclean = 0;
    let deadline = Instant::now() + grace;
    for shard in shards.drain(..) {
        match shard {
            Shard::Thread(handle) => match handle.join() {
                Ok(Ok(_)) => {}
                _ => unclean += 1,
            },
            Shard::Process(mut child) => loop {
                match child.try_wait() {
                    Ok(Some(status)) => {
                        if !status.success() {
                            unclean += 1;
                        }
                        break;
                    }
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        unclean += 1;
                        break;
                    }
                }
            },
        }
    }
    unclean
}

/// Accepts `procs` control connections, reads each shard's `Hello`, and
/// spawns one reader thread per shard feeding a single channel.
#[expect(
    clippy::type_complexity,
    reason = "private; the tuple is the handshake's one return shape"
)]
fn handshake(
    listener: &TcpListener,
    procs: u32,
    deadline: Duration,
) -> io::Result<(Vec<(TcpStream, u16)>, mpsc::Receiver<(u32, CtrlMsg)>)> {
    listener.set_nonblocking(true)?;
    let (tx, rx) = mpsc::channel();
    let mut writers: Vec<Option<(TcpStream, u16)>> = (0..procs).map(|_| None).collect();
    let mut connected = 0u32;
    let end = Instant::now() + deadline;
    while connected < procs {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nodelay(true)?;
                let mut reader = stream.try_clone()?;
                reader.set_nonblocking(false)?;
                // The first frame must be Hello; read it synchronously so
                // the writer table is complete before Peers goes out.
                reader.set_read_timeout(Some(Duration::from_secs(5)))?;
                let hello = read_ctrl(&mut reader)?;
                let Some(CtrlMsg::Hello { proc, udp_port }) = hello else {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "control stream did not open with Hello",
                    ));
                };
                if proc >= procs || writers[proc as usize].is_some() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unexpected Hello from shard {proc}"),
                    ));
                }
                reader.set_read_timeout(None)?;
                let writer = stream.try_clone()?;
                writer.set_nonblocking(false)?;
                writers[proc as usize] = Some((writer, udp_port));
                connected += 1;
                let tx = tx.clone();
                std::thread::spawn(move || {
                    while let Ok(Some(msg)) = read_ctrl(&mut reader) {
                        if tx.send((proc, msg)).is_err() {
                            break;
                        }
                    }
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() >= end {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("only {connected}/{procs} shards said hello in time"),
                    ));
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => return Err(e),
        }
    }
    // `connected == procs` makes every slot `Some`, but a cluster error
    // here must surface as io::Error, not a coordinator panic mid-teardown.
    let mut streams = Vec::with_capacity(writers.len());
    for (proc, w) in writers.into_iter().enumerate() {
        match w {
            Some(s) => streams.push(s),
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::NotConnected,
                    format!("shard {proc} never completed its handshake"),
                ))
            }
        }
    }
    Ok((streams, rx))
}

/// Renders a network model back into the `NetworkSpec` grammar for a child
/// process's `--network` flag.
fn network_spec_string(model: NetworkModel) -> String {
    p2p_experiments::NetworkSpec(model).to_string()
}

/// The DES-derived acceptance envelope of the cross-validation: where a
/// matched simulator run says the cluster's estimate should land.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Lower acceptance bound.
    pub lo: f64,
    /// Upper acceptance bound.
    pub hi: f64,
    /// Ground truth (initial overlay size of the matched static scenario).
    pub truth: f64,
    /// The matched DES replications' final estimates.
    pub des_finals: Vec<f64>,
}

impl Envelope {
    /// Whether `estimate` lands inside the envelope.
    pub fn contains(&self, estimate: f64) -> bool {
        estimate >= self.lo && estimate <= self.hi
    }
}

/// Runs `replications` matched DES replications of the cluster's scenario
/// and derives the acceptance envelope: the replications' final-estimate
/// range, widened by the larger of its own spread and 35% of truth.
///
/// The widening accounts for what the matched runs cannot share with the
/// cluster: the kernel's arrival interleaving, wall-clock jitter in step
/// alignment, and the shard-pinned estimator. A cluster estimate outside
/// this band is not explainable by those — it is a broken deployment.
pub fn des_envelope(cfg: &ClusterConfig, replications: usize) -> Envelope {
    let scenario = cfg.scenario();
    let heuristic = p2p_estimation::Heuristic::OneShot;
    let traces = with_async_protocol!(cfg.protocol.build_async(), p => {
        run_replications_des(|_| p.clone(), &scenario, heuristic, cfg.seed, replications)
    });
    let finals: Vec<f64> = traces
        .iter()
        .filter_map(|t| t.estimates.points.last().map(|&(_, y)| y))
        .collect();
    let truth = cfg.nodes as f64;
    let (lo, hi) = finals
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &e| {
            (lo.min(e), hi.max(e))
        });
    let (lo, hi) = if finals.is_empty() {
        (truth, truth)
    } else {
        (lo, hi)
    };
    let pad = (hi - lo).max(0.35 * truth);
    Envelope {
        lo: (lo - pad).max(0.0),
        hi: hi + pad,
        truth,
        des_finals: finals,
    }
}
