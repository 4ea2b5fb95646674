//! `repro` — run any registered figure, Table I, or a free-form experiment
//! the paper never drew.
//!
//! ```text
//! repro list                                  # the figure registry
//! repro run --fig 5 --scale paper             # one figure, full scale
//! repro run --all --out target/figs           # every figure + Table I
//! repro run --protocol sample-collide:l=10 --scenario catastrophic \
//!           --sweep drop=0,0.001,0.01 --jobs 2
//! repro table                                 # Table I only
//! ```
//!
//! Legacy flags (`repro --all`, `--fig N`, `--table 1`) keep working.
//! `--format jsonl | csv-stream` streams rows to stdout as replications
//! finish instead of writing figure files. One invocation has one worker
//! budget (`--jobs`, else the core count): its figures run side by side
//! and print in argument order (see [`run_tasks`]).

use p2p_estimation::{Heuristic, ProtocolSpec};
use p2p_experiments::engine::{run_experiment, split_budget, EngineOptions, MetricsConfig};
use p2p_experiments::figures::{spec_for, ALL_FIGURES};
use p2p_experiments::sink::{CsvSink, FigureSink, JsonLinesSink, ResultSink, Row, TeeSink};
use p2p_experiments::spec::{
    ExperimentSpec, NetworkSpec, Presentation, ProtocolRun, ScenarioKind, ScenarioSpec, Sweep,
    SweepAxis, SweepMetric,
};
use p2p_experiments::table::table1;
use p2p_experiments::ExperimentScale;
use p2p_sim::parallel::{default_threads, try_map_ordered};
use p2p_workload::{WorkloadSource, WorkloadSpec};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn usage() -> &'static str {
    "usage:
  repro list [--scale paper|small|tiny]
  repro run (--all | --fig N [--fig M ...]) [common options]
  repro run --protocol SPEC [--protocol SPEC ...] [--mode async|sync]
            [--scenario SC] [--network NET] [--size N] [--steps K]
            [--reps R] [--heuristic one-shot|last10] [--sweep AXIS=V1,V2,...]
            [--metric err|completed] [--churn WORKLOAD] [--reuse-slots]
            [--record-trace FILE | --replay-trace FILE] [common options]
  repro table [--scale ...] [--seed ...] [--out DIR]
  repro (--all | --fig N | --table 1) [...]        (legacy form)

common options:
  --scale paper|small|tiny|huge|huge-smoke   experiment sizing (default small)
                             huge = 1M-node free-form runs (short horizon,
                             overlay slot reuse); huge-smoke = the 200k CI
                             smoke of the same path
  --seed S                   master seed                (default 20060619)
  --out DIR                  CSV output directory       (default target/figures)
  --jobs J                   concurrent simulations for the whole invocation
                             (figures first, then replications; --shards K
                             divides it); default: the core count. Never
                             changes a byte of output
  --shards K                 free-form async runs only: run each replication
                             on K parallel DES shards (partition rule index
                             mod K) that meet at a barrier once per lookahead
                             window — the fewest ticks a hop can take under
                             --network (wan: 15; ideal: 1, a barrier per
                             tick, so sharding only pays with real latency).
                             [stats] reports the window and the round count.
                             K is part of the result identity — fixed K is
                             byte-stable across reruns and worker counts, but
                             K=4 is a different (equally valid) realization
                             than K=1
  --format csv|csv-stream|jsonl   figure files, or streaming rows on stdout
  --metrics FILE             write interval telemetry snapshots as JSONL to
                             FILE (one experiment per file: a single --fig or
                             a free-form run). Capture is replication-0-only,
                             so the file is byte-identical across reruns at
                             any --jobs setting and never perturbs results
  --metrics-every N          steps between interval snapshots (default 1)
  --quiet                    no progress lines on stderr

specs:
  --protocol  sample-collide[:l=200,t=10,timeout=8] | hops-sampling[:to=2,for=1,until=1,min-hops=5]
              | aggregation[:rounds=50,epoched=true]
  --scenario  static | growing | shrinking | catastrophic | catastrophic-fig15
              [:frac=0.5,topology=heterogeneous|scale-free]
  --network   ideal | wan | drop=..,latency=..,jitter=..,link-spread=..,ticks=..
  --sweep     drop=0,0.001,0.01 | spread=0,40,80   (spread: ms around a 100 ms mean)
              --mode sync never consults the network: it takes neither a
              --sweep nor a --network other than ideal
  --churn     streamed workload churn, composable with `+`:
              steady:join=2,leave=2 | pareto:alpha=1.5,mean=50[,rate=R]
              | weibull:shape=0.5,mean=50[,rate=R]
              | diurnal:join=5,leave=5,period=24,amp=0.8
              | flash:at=25,frac=0.5[,hold=30] | regional:at=75[,regions=8,frac=1]
  --reuse-slots         bounded-memory overlay churn: departed slots are
                        re-let under generation-checked ids (automatic for
                        --size >= 200000; opt in here for smaller runs with
                        heavy cumulative churn — the append-only slot table
                        caps out at 2^24 cumulative arrivals)
  --record-trace FILE   record the run's churn ops as a JSONL trace (needs a
                        churn workload, one --protocol, --reps 1; no --sweep)
  --replay-trace FILE   replay a recorded trace (bit-for-bit under the
                        recording's protocol and seed)"
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Csv,
    CsvStream,
    JsonLines,
}

struct Args {
    command: Command,
    scale: ExperimentScale,
    scale_name: String,
    seed: u64,
    out: PathBuf,
    jobs: Option<usize>,
    shards: u32,
    format: Format,
    quiet: bool,
    metrics: Option<MetricsConfig>,
}

enum Command {
    List,
    Figures { figs: Vec<u32>, table: bool },
    Custom(Box<ExperimentSpec>),
    Table,
}

/// Prints engine progress callbacks to stderr.
struct ProgressPrinter {
    id: String,
    enabled: bool,
}

impl ResultSink for ProgressPrinter {
    fn row(&mut self, _row: &Row<'_>) {}
    fn progress(&mut self, done: usize, total: usize, label: &str) {
        if self.enabled {
            eprintln!("  [{done}/{total}] {} {label}", self.id);
        }
    }
    fn run_stats(&mut self, stats: &p2p_experiments::sink::RunStats<'_>) {
        if self.enabled {
            let rss = match stats.peak_rss_kb {
                Some(kb) => format!("{kb} kB"),
                None => "n/a".to_string(),
            };
            let sync = stats.sync.map_or_else(String::new, |s| {
                format!(
                    ", {} shards, lookahead {} ticks, {} barrier rounds",
                    s.shards, s.lookahead_ticks, s.barrier_rounds
                )
            });
            // `pool hit rate`: the share of scheduled events the wheel
            // stored without allocating a chunk. Two CI jobs grep the token.
            eprintln!(
                "  [stats] {}: {} events dispatched, peak queue {}, {} sent, \
                 pool hit rate {:.4}, peak RSS {rss}{sync}",
                stats.series, stats.events, stats.peak_queue, stats.sent, stats.pool_hit_rate
            );
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        return Err(usage().to_string());
    }
    let (subcommand, rest): (Option<&str>, &[String]) = match raw[0].as_str() {
        "list" | "run" | "table" => (Some(raw[0].as_str()), &raw[1..]),
        _ => (None, &raw[..]),
    };

    let mut figs = Vec::new();
    let mut all = false;
    let mut table = false;
    let mut protocols: Vec<ProtocolSpec> = Vec::new();
    let mut mode_sync = false;
    let mut scenario = ScenarioSpec::parse("static").expect("static parses");
    let mut network = NetworkSpec::parse("ideal").expect("ideal parses");
    let mut network_arg = String::from("ideal");
    let mut size: Option<usize> = None;
    let mut steps: Option<u64> = None;
    let mut reps: Option<usize> = None;
    let mut heuristic = Heuristic::OneShot;
    let mut sweep: Option<(SweepAxis, Vec<f64>)> = None;
    let mut metric: Option<SweepMetric> = None;
    let mut churn: Option<WorkloadSpec> = None;
    let mut reuse_slots = false;
    let mut record_trace: Option<PathBuf> = None;
    let mut replay_trace: Option<PathBuf> = None;
    let mut scale_name = "small".to_string();
    let mut seed = 20060619; // HPDC-15 opening day
    let mut out = PathBuf::from("target/figures");
    let mut jobs = None;
    let mut shards = 0u32;
    let mut format = Format::Csv;
    let mut quiet = false;
    let mut metrics: Option<PathBuf> = None;
    let mut metrics_every: Option<u64> = None;

    // Flags that only make sense for a free-form --protocol run; remembered
    // so combining them with --fig/--all/table errors instead of silently
    // running the registered spec with the user's knobs discarded.
    let mut custom_flags: Vec<&str> = Vec::new();
    let mut it = rest.iter().map(String::as_str);
    let next_value = |it: &mut dyn Iterator<Item = &str>, flag: &str| -> Result<String, String> {
        it.next()
            .map(str::to_string)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        if matches!(
            arg,
            "--mode"
                | "--scenario"
                | "--network"
                | "--size"
                | "--steps"
                | "--reps"
                | "--heuristic"
                | "--sweep"
                | "--metric"
                | "--churn"
                | "--reuse-slots"
                | "--record-trace"
                | "--replay-trace"
                | "--shards"
        ) {
            custom_flags.push(arg);
        }
        match arg {
            "--all" => all = true,
            "--fig" => {
                let v = next_value(&mut it, "--fig")?;
                figs.push(v.parse().map_err(|_| format!("bad figure number {v}"))?);
            }
            "--table" => {
                // Legacy `--table 1`; under `run`/`table` the value is optional.
                if subcommand.is_none() {
                    let v = next_value(&mut it, "--table")?;
                    if v != "1" {
                        return Err(format!("unknown table {v} (the paper has only Table I)"));
                    }
                }
                table = true;
            }
            "--protocol" => {
                let v = next_value(&mut it, "--protocol")?;
                protocols.push(ProtocolSpec::parse(&v).map_err(|e| e.to_string())?);
            }
            "--mode" => {
                mode_sync = match next_value(&mut it, "--mode")?.as_str() {
                    "sync" => true,
                    "async" => false,
                    other => return Err(format!("unknown mode {other} (sync | async)")),
                }
            }
            "--scenario" => {
                scenario = ScenarioSpec::parse(&next_value(&mut it, "--scenario")?)
                    .map_err(|e| e.to_string())?;
            }
            "--network" => {
                network_arg = next_value(&mut it, "--network")?;
                network = NetworkSpec::parse(&network_arg).map_err(|e| e.to_string())?;
            }
            "--size" => size = Some(positive(arg, next_value(&mut it, arg)?)?),
            "--steps" => steps = Some(positive(arg, next_value(&mut it, arg)?)?),
            "--reps" => reps = Some(positive(arg, next_value(&mut it, arg)?)?),
            "--heuristic" => {
                heuristic = match next_value(&mut it, "--heuristic")?.as_str() {
                    "one-shot" | "oneshot" => Heuristic::OneShot,
                    "last10" => Heuristic::last10(),
                    other => match other.strip_prefix("last") {
                        Some(k) => match k.parse() {
                            Ok(0) => {
                                return Err(format!(
                                    "--heuristic {other} is out of range (lastK needs K >= 1)"
                                ))
                            }
                            Ok(k) => Heuristic::LastKRuns(k),
                            Err(_) => return Err(format!("bad heuristic {other}")),
                        },
                        None => return Err(format!("unknown heuristic {other}")),
                    },
                }
            }
            "--sweep" => {
                let v = next_value(&mut it, "--sweep")?;
                let (axis, values) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--sweep wants AXIS=V1,V2,..., got {v}"))?;
                let axis = match axis {
                    "drop" => SweepAxis::Drop,
                    "spread" => SweepAxis::DelaySpread {
                        mean_ms: 100.0,
                        step_ticks: 2_000,
                    },
                    other => return Err(format!("unknown sweep axis {other} (drop | spread)")),
                };
                let values: Vec<f64> = values
                    .split(',')
                    .map(str::parse)
                    .collect::<Result<_, _>>()
                    .map_err(|_| format!("bad sweep values in {v}"))?;
                for &value in &values {
                    axis.check(value).map_err(|e| e.to_string())?;
                }
                sweep = Some((axis, values));
            }
            "--metric" => {
                metric = Some(match next_value(&mut it, "--metric")?.as_str() {
                    "err" | "error" => SweepMetric::MeanAbsErrPct,
                    "completed" => SweepMetric::CompletedPct,
                    other => return Err(format!("unknown metric {other} (err | completed)")),
                })
            }
            "--churn" => {
                churn = Some(
                    WorkloadSpec::parse(&next_value(&mut it, "--churn")?)
                        .map_err(|e| e.to_string())?,
                );
            }
            "--reuse-slots" => reuse_slots = true,
            "--record-trace" => {
                record_trace = Some(PathBuf::from(next_value(&mut it, "--record-trace")?));
            }
            "--replay-trace" => {
                replay_trace = Some(PathBuf::from(next_value(&mut it, "--replay-trace")?));
            }
            "--scale" => scale_name = next_value(&mut it, "--scale")?,
            "--seed" => {
                let v = next_value(&mut it, "--seed")?;
                seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
            }
            "--out" => out = PathBuf::from(next_value(&mut it, "--out")?),
            "--jobs" => jobs = Some(positive(arg, next_value(&mut it, arg)?)?),
            "--shards" => shards = positive(arg, next_value(&mut it, arg)?)?,
            "--format" => {
                format = match next_value(&mut it, "--format")?.as_str() {
                    "csv" => Format::Csv,
                    "csv-stream" => Format::CsvStream,
                    "jsonl" => Format::JsonLines,
                    other => {
                        return Err(format!("unknown format {other} (csv | csv-stream | jsonl)"))
                    }
                }
            }
            "--metrics" => {
                metrics = Some(PathBuf::from(next_value(&mut it, "--metrics")?));
            }
            "--metrics-every" => metrics_every = Some(positive(arg, next_value(&mut it, arg)?)?),
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }

    let scale = ExperimentScale::by_name(&scale_name)
        .ok_or_else(|| format!("unknown scale {scale_name} (paper|small|tiny|huge|huge-smoke)"))?;

    if protocols.is_empty() && !custom_flags.is_empty() {
        return Err(format!(
            "{} only apply to free-form --protocol runs; registered figures run their \
             registered specs (see `repro list`)",
            custom_flags.join("/")
        ));
    }

    let command = match subcommand {
        Some("list") => Command::List,
        Some("table") => Command::Table,
        _ if !protocols.is_empty() => {
            if all || !figs.is_empty() {
                return Err("--protocol and --fig/--all are mutually exclusive".to_string());
            }
            if metric.is_some() && sweep.is_none() {
                return Err("--metric needs a --sweep (non-sweep runs plot traces)".to_string());
            }
            if shards >= 2 && mode_sync {
                return Err(
                    "--shards needs --mode async: sync steps execute atomically, so there \
                     is nothing to partition"
                        .to_string(),
                );
            }
            // Sync steps deliver every message at once and never consult
            // the network model, so these would run ideal and say otherwise.
            if mode_sync && sweep.is_some() {
                return Err("--sweep is out of range for --mode sync (sync steps never \
                     consult the network, so every point would run the same; use --mode async)"
                    .to_string());
            }
            if mode_sync && !network.0.is_ideal() {
                return Err(format!(
                    "--network {network_arg} is out of range for --mode sync (sync steps \
                     never consult the network; use --mode async)"
                ));
            }
            Command::Custom(Box::new(build_custom_spec(
                protocols,
                mode_sync,
                scenario,
                network,
                size,
                steps,
                reps,
                heuristic,
                sweep,
                metric,
                churn,
                reuse_slots,
                record_trace,
                replay_trace,
                &scale,
            )?))
        }
        _ => {
            if all {
                figs = ALL_FIGURES.to_vec();
                table = true;
            }
            if figs.is_empty() && !table {
                return Err(usage().to_string());
            }
            if table && figs.is_empty() {
                Command::Table
            } else {
                Command::Figures { figs, table }
            }
        }
    };

    if metrics_every.is_some() && metrics.is_none() {
        return Err("--metrics-every needs --metrics".to_string());
    }
    if metrics.is_some() {
        // One metrics file per experiment: the file is created (truncated)
        // when the experiment starts, so a multi-experiment invocation
        // would silently keep only the last one.
        let single = match &command {
            Command::Custom(_) => true,
            Command::Figures { figs, table } => figs.len() == 1 && !table,
            _ => false,
        };
        if !single {
            return Err(
                "--metrics writes one file per experiment; use it with a single --fig or a \
                 free-form --protocol run (not --all/--table)"
                    .to_string(),
            );
        }
    }

    Ok(Args {
        command,
        scale,
        scale_name,
        seed,
        out,
        jobs,
        shards,
        format,
        quiet,
        metrics: metrics.map(|path| MetricsConfig {
            path,
            every: metrics_every.unwrap_or(1),
        }),
    })
}

/// Parses the value of a count flag; zero is out of range.
fn positive<T: std::str::FromStr + Default + PartialEq>(
    flag: &str,
    v: String,
) -> Result<T, String> {
    match v.parse() {
        Ok(n) if n == T::default() => {
            Err(format!("{flag} 0 is out of range ({flag} must be >= 1)"))
        }
        Ok(n) => Ok(n),
        Err(_) => Err(format!("bad {flag} value {v}")),
    }
}

/// Assembles a free-form [`ExperimentSpec`] from the CLI's parsed pieces.
#[expect(
    clippy::too_many_arguments,
    reason = "one call site, mirroring the flags"
)]
fn build_custom_spec(
    protocols: Vec<ProtocolSpec>,
    mode_sync: bool,
    scenario: ScenarioSpec,
    network: NetworkSpec,
    size: Option<usize>,
    steps: Option<u64>,
    reps: Option<usize>,
    heuristic: Heuristic,
    sweep: Option<(SweepAxis, Vec<f64>)>,
    metric: Option<SweepMetric>,
    churn: Option<WorkloadSpec>,
    reuse_slots: bool,
    record_trace: Option<PathBuf>,
    replay_trace: Option<PathBuf>,
    scale: &ExperimentScale,
) -> Result<ExperimentSpec, String> {
    let size = size.unwrap_or(scale.net_nodes);
    let steps = steps.unwrap_or(24);
    let reps = reps.unwrap_or(scale.replications);
    if scenario.kind == ScenarioKind::Growing
        && (size as f64 * scenario.fraction).round() > p2p_overlay::MAX_SLOTS as f64
    {
        return Err(format!(
            "`frac={}` is out of range (growing {size} nodes, round(size × frac) must be <= {})",
            scenario.fraction,
            p2p_overlay::MAX_SLOTS
        ));
    }
    let mut scenario = scenario.resolve(size, steps).with_network(network.0);
    // Past this population the append-only slot table is the memory
    // bottleneck under churn: the huge scales run with slot reuse (bounded
    // memory, generation-checked ids). Smaller runs with heavy *cumulative*
    // churn (the 2^24 slot cap counts arrivals, not population) opt in via
    // --reuse-slots. Figures never reach this size, so their pinned
    // byte-exact outputs are untouched.
    const SLOT_REUSE_THRESHOLD: usize = 200_000;
    if reuse_slots || size >= SLOT_REUSE_THRESHOLD {
        scenario = scenario.with_slot_reuse();
    }
    // A `churn=` embedded in --scenario behaves exactly like --churn (the
    // explicit flag wins when both are given) — so it records, and it
    // conflicts with --replay-trace, the same way.
    let churn = churn.or_else(|| scenario.workload.as_ref().and_then(|w| w.spec()).cloned());
    let workload = match (churn, record_trace, replay_trace) {
        (Some(_), _, Some(_)) | (None, Some(_), Some(_)) => {
            return Err(
                "--replay-trace is mutually exclusive with a churn workload \
                        (--churn, a scenario `churn=`, or --record-trace)"
                    .to_string(),
            )
        }
        (None, Some(_), None) => {
            return Err(
                "--record-trace needs a churn workload to record (--churn or a \
                        scenario `churn=`)"
                    .to_string(),
            )
        }
        (Some(spec), Some(path), None) => {
            if sweep.is_some() {
                return Err(
                    "--record-trace cannot record a --sweep (one trace per run; \
                            record the point you care about without the sweep)"
                        .to_string(),
                );
            }
            if reps != 1 {
                return Err(format!(
                    "--record-trace writes one trace file, but --reps {reps} would overwrite \
                     it per replication; use --reps 1"
                ));
            }
            if protocols.len() > 1 {
                return Err(format!(
                    "--record-trace writes one trace file, but {} --protocol entries would \
                     overwrite it per entry; record with a single --protocol, then replay \
                     the trace for the others",
                    protocols.len()
                ));
            }
            Some(WorkloadSource::Record { spec, path })
        }
        (Some(spec), None, None) => Some(WorkloadSource::Model(spec)),
        (None, None, Some(path)) => {
            // Validate the header now for a friendly error instead of a
            // panic mid-run.
            let (header, _) = p2p_workload::TraceReader::open(&path).map_err(|e| e.to_string())?;
            let digest = p2p_workload::trace::schedule_digest(&scenario.schedule);
            header.validate(size, steps, digest).map_err(|e| {
                format!(
                    "trace {}: {e} (match --size/--steps/--scenario to the recording)",
                    path.display()
                )
            })?;
            // Uniform-victim departures (steady/diurnal leaves, scheduled
            // Leave/Catastrophe ops) draw their victims from the run's main
            // stream, so the trace replays the exact populations only under
            // the recording's protocol and seed. Identity-targeted
            // workloads (sessions, flash, regional) replay exactly under
            // any protocol.
            let uniform = scenario.schedule.iter().any(|(_, op)| {
                matches!(
                    op,
                    p2p_overlay::churn::ChurnOp::Leave { .. }
                        | p2p_overlay::churn::ChurnOp::Catastrophe { .. }
                )
            }) || WorkloadSpec::parse(&header.churn)
                .map(|s| s.has_uniform_departures())
                .unwrap_or(true);
            if uniform {
                eprintln!(
                    "note: {} contains uniform-victim departures; the replay is bit-exact \
                     only under the recording's protocol and seed (targeted-departure \
                     workloads replay exactly under any protocol)",
                    path.display()
                );
            }
            Some(WorkloadSource::Replay(path))
        }
        (None, None, None) => None,
    };
    scenario.workload = workload;
    let runs: Vec<ProtocolRun> = protocols
        .into_iter()
        .map(|p| {
            let run = if mode_sync {
                ProtocolRun::sync(p)
            } else {
                ProtocolRun::async_(p)
            };
            run.heuristic(heuristic)
        })
        .collect();
    let (sweep, presentation) = match sweep {
        Some((axis, values)) => {
            let metric = metric.unwrap_or(match axis {
                SweepAxis::Drop => SweepMetric::CompletedPct,
                SweepAxis::DelaySpread { .. } => SweepMetric::MeanAbsErrPct,
            });
            (
                Some(Sweep {
                    axis,
                    values,
                    seed_base: 0,
                }),
                Presentation::SweepSummary { metric },
            )
        }
        None => (None, Presentation::Tracking),
    };
    let (x_label, y_label) = match &presentation {
        Presentation::SweepSummary { metric } => (
            match sweep.as_ref().map(|s| s.axis) {
                Some(SweepAxis::Drop) => "Message drop probability (%)",
                _ => "Delay half-spread (ms)",
            },
            match metric {
                SweepMetric::MeanAbsErrPct => "Mean |error| (%)",
                SweepMetric::CompletedPct => "Completed reporting periods (%)",
            },
        ),
        _ => ("Step", "Estimated size"),
    };
    if matches!(
        presentation,
        Presentation::SweepSummary {
            metric: SweepMetric::CompletedPct
        }
    ) {
        for run in &runs {
            if run.protocol.scheduled_reports(steps) == 0 {
                return Err(format!(
                    "`{}` schedules no reporting period in {steps} steps — the completed metric \
                     needs --steps covering at least one epoch",
                    run.protocol
                ));
            }
        }
    }
    let mut spec = ExperimentSpec {
        id: "custom".to_string(),
        title: String::new(),
        x_label: x_label.to_string(),
        y_label: y_label.to_string(),
        scenario,
        protocols: runs,
        replications: reps,
        seed_stream: None,
        sweep,
        presentation,
    };
    spec.title = format!("Custom experiment: {}", spec.summary());
    Ok(spec)
}

/// One unit of an invocation's work: a figure (registered or free-form)
/// or Table I. Tasks are independent — own seed streams, own sink, own
/// output file — so they can run side by side.
enum Task<'a> {
    Figure(&'a ExperimentSpec),
    Table,
}

/// What a finished task hands back to the main thread, which prints it in
/// task order: the rows it streamed (empty when it wrote stdout directly),
/// its banner text, and how long it ran.
struct TaskOutput {
    rows: Vec<u8>,
    banner: String,
    wall: Duration,
}

/// Runs one task with `jobs` replication workers, streaming rows (under
/// `--format csv-stream|jsonl`) into `rows`. Figure files are written here,
/// as the task finishes; console text is returned, not printed.
fn run_task(
    task: Task<'_>,
    args: &Args,
    jobs: Option<usize>,
    rows: &mut dyn Write,
) -> Result<(String, Duration), String> {
    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock: elapsed-time console banner and budget summary only; figure CSVs never see it"
    )]
    let start = Instant::now();
    let mut banner = String::new();
    match task {
        Task::Figure(spec) => run_figure(spec, args, jobs, rows, &mut banner, start)?,
        Task::Table => {
            let runs = if args.scale.large >= 100_000 { 10 } else { 20 };
            let t = table1(args.scale.large, runs, args.seed);
            banner = format!("\n[{:.1?}]\n{t}\n", start.elapsed());
            std::fs::create_dir_all(&args.out)
                .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
            let path = args.out.join("table1.csv");
            std::fs::write(&path, t.to_csv())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            banner += &format!("  -> {}\n", path.display());
        }
    }
    Ok((banner, start.elapsed()))
}

/// Runs one spec under the chosen output format.
fn run_figure(
    spec: &ExperimentSpec,
    args: &Args,
    jobs: Option<usize>,
    rows: &mut dyn Write,
    banner: &mut String,
    start: Instant,
) -> Result<(), String> {
    let opts = EngineOptions {
        jobs,
        metrics: args.metrics.clone(),
        shards: args.shards,
    };
    let mut progress = ProgressPrinter {
        id: spec.id.clone(),
        enabled: !args.quiet,
    };
    let streamed = |error: Option<&std::io::Error>| match error {
        Some(e) => Err(format!("{}: stdout write failed: {e}", spec.id)),
        None => Ok(()),
    };
    match args.format {
        Format::Csv => {
            let mut fig_sink = FigureSink::new();
            {
                let mut tee = TeeSink {
                    a: &mut fig_sink,
                    b: &mut progress,
                };
                run_experiment(spec, args.seed, &opts, &mut tee);
            }
            let fig = fig_sink.into_figure();
            let elapsed = start.elapsed();
            let path = fig
                .save_csv(&args.out)
                .map_err(|e| format!("{}: failed to write CSV: {e}", spec.id))?;
            *banner += &format!("\n{} — {} [{elapsed:.1?}]\n", fig.id, fig.title);
            *banner += &format!("  -> {}\n", path.display());
            for s in &fig.series {
                let (lo, hi) = s.y_range().unwrap_or((f64::NAN, f64::NAN));
                *banner += &format!(
                    "  {:<22} {:>4} points, y in [{:.1}, {:.1}]\n",
                    s.name,
                    s.len(),
                    lo,
                    hi
                );
            }
            Ok(())
        }
        Format::CsvStream => {
            let mut csv = CsvSink::new(rows);
            {
                let mut tee = TeeSink {
                    a: &mut csv,
                    b: &mut progress,
                };
                run_experiment(spec, args.seed, &opts, &mut tee);
            }
            streamed(csv.error())
        }
        Format::JsonLines => {
            let mut jsonl = JsonLinesSink::new(rows);
            {
                let mut tee = TeeSink {
                    a: &mut jsonl,
                    b: &mut progress,
                };
                run_experiment(spec, args.seed, &opts, &mut tee);
            }
            streamed(jsonl.error())
        }
    }
}

/// Spends the invocation's one worker budget `J` (`--jobs`, else the core
/// count) top-down: `outer = min(J, tasks)` tasks run concurrently, each
/// with `inner = J / outer` replication workers. Output never depends on
/// `J` — each task renders into its own buffer and the main thread prints
/// the buffers in task order. With `outer == 1` the task runs on the main
/// thread and streams straight to stdout, rows appearing as replications
/// finish; a lone task without `--jobs` keeps the engine's own policy.
fn run_tasks(args: &Args, tasks: Vec<Task<'_>>) -> Result<(), String> {
    let n = tasks.len();
    let budget = args.jobs.unwrap_or_else(|| default_threads(usize::MAX));
    let (outer, inner) = split_budget(budget, n);
    let jobs = if n == 1 { args.jobs } else { Some(inner) };
    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock: the stderr budget summary only; no sink or file sees it"
    )]
    let start = Instant::now();
    let mut busy = Duration::ZERO;
    let outcome = try_map_ordered(
        tasks,
        outer,
        |_, task| {
            let mut rows = Vec::new();
            let (banner, wall) = if outer == 1 {
                run_task(task, args, jobs, &mut std::io::stdout().lock())?
            } else {
                run_task(task, args, jobs, &mut rows)?
            };
            Ok(TaskOutput { rows, banner, wall })
        },
        |_, done: TaskOutput| {
            busy += done.wall;
            std::io::stdout()
                .write_all(&done.rows)
                .map_err(|e| format!("stdout write failed: {e}"))?;
            say(args, &done.banner)
        },
    );
    if outcome.is_ok() && n > 1 && !args.quiet {
        let wall = start.elapsed();
        eprintln!(
            "# repro: {n} tasks on {outer}×{inner} workers: wall {wall:.1?}, Σ task wall \
             {busy:.1?}, busy {:.0}%",
            100.0 * busy.as_secs_f64() / (outer as f64 * wall.as_secs_f64())
        );
    }
    outcome
}

fn run_list(args: &Args) {
    println!(
        "# figure registry at scale={} (large={}, huge={}, net={})",
        args.scale_name, args.scale.large, args.scale.huge, args.scale.net_nodes
    );
    println!("{:<6} spec", "fig");
    for n in ALL_FIGURES {
        let spec = spec_for(n, &args.scale).expect("registered figure");
        println!("{:<6} {}", spec.id, spec.summary());
    }
    println!("table1 sample-collide + hops-sampling + aggregation:epoched=false · overhead/accuracy rows");
    println!("\nFree-form runs: repro run --protocol ... --scenario ... (see repro --help)");
    let _ = std::io::stdout().flush();
}

/// Run banners go to stdout for figure-file runs and to stderr when rows
/// stream on stdout, so piped output stays machine-readable.
fn say(args: &Args, text: &str) -> Result<(), String> {
    if args.format == Format::Csv {
        std::io::stdout()
            .write_all(text.as_bytes())
            .map_err(|e| format!("stdout write failed: {e}"))
    } else {
        if !args.quiet {
            eprint!("{text}");
        }
        Ok(())
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let done = match &args.command {
        Command::List => {
            run_list(&args);
            Ok(())
        }
        Command::Table => run_tasks(&args, vec![Task::Table]),
        Command::Custom(spec) => say(
            &args,
            &format!(
                "# repro: custom experiment, scale={}, seed={}, out={}\n",
                args.scale_name,
                args.seed,
                args.out.display()
            ),
        )
        .and_then(|()| run_tasks(&args, vec![Task::Figure(spec)])),
        Command::Figures { figs, table } => run_figures(&args, figs, *table),
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Resolves every requested figure before any work starts (a bad number
/// fails the invocation with nothing run and nothing written), then runs
/// figures and table as one task list.
fn run_figures(args: &Args, figs: &[u32], table: bool) -> Result<(), String> {
    let specs = figs
        .iter()
        .map(|&n| {
            spec_for(n, &args.scale).ok_or_else(|| format!("fig{n:02}: unknown figure number"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    say(
        args,
        &format!(
            "# repro: scale={} (large={}, huge={}), seed={}, out={}\n",
            args.scale_name,
            args.scale.large,
            args.scale.huge,
            args.seed,
            args.out.display()
        ),
    )?;
    let tasks = specs
        .iter()
        .map(Task::Figure)
        .chain(table.then_some(Task::Table))
        .collect();
    run_tasks(args, tasks)
}
