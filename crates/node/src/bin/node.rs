//! The `node` binary: a deployable shard host and its loopback-cluster
//! front end.
//!
//! ```text
//! node cluster --nodes 64 --procs 4 --protocol aggregation:rounds=30 \
//!              --churn steady:join=2,leave=2 --out estimates.jsonl
//! node host --proc 0 --procs 4 --nodes 64 ... (spawned by `cluster`)
//! ```
//!
//! `cluster` is what people run; `host` is the per-shard entry point that
//! `cluster` spawns (one child per shard) and is also usable by hand for
//! debugging a single shard against a live coordinator.

use p2p_estimation::ProtocolSpec;
use p2p_experiments::sink::{JsonLinesSink, ResultSink, Row};
use p2p_experiments::{NetworkSpec, ScenarioSpec};
use p2p_node::cluster::{
    default_cluster_network, des_envelope, run_cluster, ClusterConfig, Launch,
};
use p2p_node::runtime::{run_node, RuntimeConfig};
use p2p_workload::WorkloadSpec;
use std::io::Write;
use std::net::SocketAddr;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "cluster" => cmd_cluster(rest),
        "host" => cmd_host(rest),
        "-h" | "--help" | "help" => {
            usage();
            return ExitCode::SUCCESS;
        }
        other => Err(format!(
            "unknown command `{other}` (try `cluster` or `host`)"
        )),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("node: {msg}");
            eprintln!("run `node --help` for usage");
            ExitCode::from(2)
        }
    }
}

fn usage() {
    let grammar = ProtocolSpec::grammar();
    let network = NetworkSpec(default_cluster_network());
    eprintln!(
        "\
node — run the size-estimation protocols on real UDP sockets

USAGE:
  node cluster --nodes N [OPTIONS]     launch a loopback cluster
  node host --proc P --procs K ...     host one shard (spawned by `cluster`)

CLUSTER OPTIONS:
  --nodes N              overlay size (required)
  --procs K              shard/process count            [default: 4]
  --protocol SPEC        protocol spec                  [default: aggregation:rounds=30]
  --network SPEC         latency/loss model             [default: {network}]
  --steps S              run length in steps            [default: 75]
  --seed S               cluster seed                   [default: 20060619]
  --churn SPEC           wall-clock-paced workload spec (e.g. steady:join=2,leave=2)
  --base-port P          first UDP data port (shard p binds P+p; 0 = ephemeral)
  --query-every Q        steps between trajectory queries (0 = final only) [default: 10]
  --out FILE             stream JSONL rows here (`-` = stdout) [default: -]
  --metrics FILE         stream merged per-interval cluster telemetry (every
                         shard's snapshot folded in shard-index order, plus
                         the coordinator's time-to-ε gauges) as JSONL
  --metrics-every N      steps between shard snapshots [default: 1 with
                         --metrics, else off]
  --threads              host shards as threads instead of child processes
  --des-check R          cross-validate against R matched DES replications

HOST OPTIONS (all required unless noted):
  --proc P --procs K --nodes N --steps S --protocol SPEC --network SPEC
  --seed S --coordinator ADDR [--port UDP_PORT] [--metrics-every N]

Protocol specs (same grammar as `repro --protocol`):
  {grammar}"
    );
}

fn take_value<'a>(flag: &str, it: &mut std::slice::Iter<'a, String>) -> Result<&'a str, String> {
    it.next()
        .map(|s| s.as_str())
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad value `{v}` for {flag}"))
}

fn cmd_cluster(args: &[String]) -> Result<ExitCode, String> {
    let mut nodes: Option<usize> = None;
    let mut procs: u32 = 4;
    let mut protocol = ProtocolSpec::parse("aggregation:rounds=30").expect("default parses");
    let mut network = default_cluster_network();
    let mut steps: u64 = 75;
    let mut seed: u64 = 20060619;
    let mut churn: Option<WorkloadSpec> = None;
    let mut base_port: u16 = 0;
    let mut query_every: u64 = 10;
    let mut out: String = "-".to_string();
    let mut threads = false;
    let mut des_check: usize = 0;
    let mut metrics: Option<String> = None;
    let mut metrics_every: u64 = 0;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--nodes" => nodes = Some(parse_num("--nodes", take_value("--nodes", &mut it)?)?),
            "--procs" => procs = parse_num("--procs", take_value("--procs", &mut it)?)?,
            "--protocol" => {
                protocol = ProtocolSpec::parse(take_value("--protocol", &mut it)?)
                    .map_err(|e| e.to_string())?
            }
            "--network" => {
                network = NetworkSpec::parse(take_value("--network", &mut it)?)
                    .map_err(|e| e.to_string())?
                    .0
            }
            "--steps" => steps = parse_num("--steps", take_value("--steps", &mut it)?)?,
            "--seed" => seed = parse_num("--seed", take_value("--seed", &mut it)?)?,
            "--churn" => {
                churn = Some(
                    WorkloadSpec::parse(take_value("--churn", &mut it)?)
                        .map_err(|e| e.to_string())?,
                )
            }
            "--base-port" => {
                base_port = parse_num("--base-port", take_value("--base-port", &mut it)?)?
            }
            "--query-every" => {
                query_every = parse_num("--query-every", take_value("--query-every", &mut it)?)?
            }
            "--out" => out = take_value("--out", &mut it)?.to_string(),
            "--metrics" => metrics = Some(take_value("--metrics", &mut it)?.to_string()),
            "--metrics-every" => {
                metrics_every =
                    parse_num("--metrics-every", take_value("--metrics-every", &mut it)?)?
            }
            "--threads" => threads = true,
            "--des-check" => {
                des_check = parse_num("--des-check", take_value("--des-check", &mut it)?)?
            }
            other => return Err(format!("unknown cluster flag `{other}`")),
        }
    }
    let nodes = nodes.ok_or("--nodes is required")?;
    if procs == 0 {
        return Err("--procs must be at least 1".into());
    }

    let mut cfg = ClusterConfig::new(nodes, procs, protocol);
    cfg.network = network;
    cfg.steps = steps;
    cfg.seed = seed;
    cfg.churn = churn;
    cfg.base_port = base_port;
    cfg.query_every = query_every;
    cfg.metrics_out = metrics.map(std::path::PathBuf::from);
    cfg.metrics_every = if metrics_every > 0 {
        metrics_every
    } else if cfg.metrics_out.is_some() {
        1
    } else {
        0
    };

    let launch = if threads {
        Launch::InProcess
    } else {
        Launch::Subprocess {
            exe: std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?,
        }
    };

    eprintln!(
        "[cluster] {} nodes over {} shard{} ({}), protocol {}, {} steps × {} ms",
        cfg.nodes,
        cfg.procs,
        if cfg.procs == 1 { "" } else { "s" },
        if threads { "threads" } else { "processes" },
        cfg.protocol,
        cfg.steps,
        cfg.network.step_ticks.max(1),
    );

    let report = {
        let mut sink = open_sink(&out)?;
        run_cluster(&cfg, &launch, sink.as_mut()).map_err(|e| format!("cluster failed: {e}"))?
    };

    let estimate = report.summary_estimate();
    eprintln!(
        "[cluster] done: final size {} (truth), estimate {}, {} report rows, {} trajectory samples",
        report.final_size,
        estimate.map_or("n/a".to_string(), |e| format!("{e:.2}")),
        report.reports.len(),
        report.final_estimates.len(),
    );
    if cfg.metrics_every > 0 {
        eprintln!(
            "[cluster] telemetry: {} merged metric intervals (every {} steps)",
            report.merged_metrics.len(),
            cfg.metrics_every,
        );
    }
    for (proc, stats) in report.node_stats.iter().enumerate() {
        eprintln!(
            "[cluster]   shard {proc}: {} frames sent, {} received, {} malformed",
            stats.sent, stats.received, stats.malformed
        );
    }
    if report.unclean_exits > 0 {
        eprintln!(
            "[cluster] WARNING: {} shard(s) exited uncleanly",
            report.unclean_exits
        );
        return Ok(ExitCode::FAILURE);
    }

    if des_check > 0 {
        let envelope = des_envelope(&cfg, des_check);
        eprintln!(
            "[cluster] DES envelope from {} matched replications: [{:.2}, {:.2}] around truth {:.0}",
            des_check, envelope.lo, envelope.hi, envelope.truth
        );
        match estimate {
            Some(e) if envelope.contains(e) => {
                eprintln!("[cluster] cross-validation OK: {e:.2} is inside the envelope");
            }
            Some(e) => {
                eprintln!(
                    "[cluster] cross-validation FAILED: {e:.2} outside [{:.2}, {:.2}]",
                    envelope.lo, envelope.hi
                );
                return Ok(ExitCode::FAILURE);
            }
            None => {
                eprintln!("[cluster] cross-validation FAILED: no estimate produced");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// A boxed JSONL sink over stdout or a file.
fn open_sink(out: &str) -> Result<Box<dyn ResultSink>, String> {
    if out == "-" {
        struct StdoutSink(JsonLinesSink<std::io::Stdout>);
        impl ResultSink for StdoutSink {
            fn begin(&mut self, meta: &p2p_experiments::sink::ExperimentMeta) {
                self.0.begin(meta);
            }
            fn row(&mut self, row: &Row<'_>) {
                self.0.row(row);
            }
            fn finish(&mut self) {
                self.0.finish();
                let _ = std::io::stdout().flush();
            }
        }
        Ok(Box::new(StdoutSink(JsonLinesSink::new(std::io::stdout()))))
    } else {
        let file =
            std::fs::File::create(out).map_err(|e| format!("cannot create --out {out}: {e}"))?;
        Ok(Box::new(JsonLinesSink::new(std::io::BufWriter::new(file))))
    }
}

fn cmd_host(args: &[String]) -> Result<ExitCode, String> {
    let mut proc: Option<u32> = None;
    let mut procs: Option<u32> = None;
    let mut nodes: Option<usize> = None;
    let mut steps: u64 = 75;
    let mut protocol = ProtocolSpec::parse("aggregation:rounds=30").expect("default parses");
    let mut network = default_cluster_network();
    let mut seed: u64 = 20060619;
    let mut coordinator: Option<SocketAddr> = None;
    let mut port: u16 = 0;
    let mut metrics_every: u64 = 0;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--proc" => proc = Some(parse_num("--proc", take_value("--proc", &mut it)?)?),
            "--procs" => procs = Some(parse_num("--procs", take_value("--procs", &mut it)?)?),
            "--nodes" => nodes = Some(parse_num("--nodes", take_value("--nodes", &mut it)?)?),
            "--steps" => steps = parse_num("--steps", take_value("--steps", &mut it)?)?,
            "--protocol" => {
                protocol = ProtocolSpec::parse(take_value("--protocol", &mut it)?)
                    .map_err(|e| e.to_string())?
            }
            "--network" => {
                network = NetworkSpec::parse(take_value("--network", &mut it)?)
                    .map_err(|e| e.to_string())?
                    .0
            }
            "--seed" => seed = parse_num("--seed", take_value("--seed", &mut it)?)?,
            "--coordinator" => {
                coordinator = Some(parse_num(
                    "--coordinator",
                    take_value("--coordinator", &mut it)?,
                )?)
            }
            "--port" => port = parse_num("--port", take_value("--port", &mut it)?)?,
            "--metrics-every" => {
                metrics_every =
                    parse_num("--metrics-every", take_value("--metrics-every", &mut it)?)?
            }
            other => return Err(format!("unknown host flag `{other}`")),
        }
    }
    let proc = proc.ok_or("--proc is required")?;
    let procs = procs.ok_or("--procs is required")?;
    let nodes = nodes.ok_or("--nodes is required")?;
    let coordinator = coordinator.ok_or("--coordinator is required")?;
    if proc >= procs {
        return Err(format!("--proc {proc} out of range for --procs {procs}"));
    }

    let scenario = ScenarioSpec::parse("static")
        .expect("static parses")
        .resolve(nodes, steps)
        .with_network(network);
    let cfg = RuntimeConfig {
        proc,
        procs,
        protocol,
        scenario,
        seed,
        coordinator,
        data_port: port,
        metrics_every,
    };
    match run_node(&cfg) {
        Ok(stats) => {
            // One write, so the shards' lines never interleave on the
            // stderr they share with the coordinator.
            let line = format!(
                "[host {proc}] done: {} sent, {} received, {} malformed, {} steps\n",
                stats.sent, stats.received, stats.malformed, stats.steps
            );
            let _ = std::io::stderr().write_all(line.as_bytes());
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => Err(format!("shard {proc} failed: {e}")),
    }
}
