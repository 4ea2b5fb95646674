//! `bench` — the repository's one ruler.
//!
//! ```text
//! bench --workload NAME --seed S --seconds T --trace 0   # end-to-end metrics of one workload
//! bench --workload NAME --seed S --seconds T --trace 1   # every per-layer metric (traced pass)
//! bench --trace 1 --layer sim.engine                     # only the probes behind one layer
//! bench selfcheck [--seed S] [--seconds T]               # two sets of the same code must agree
//! bench setup-probe --workload NAME --seed S             # internal: one timed set-up call
//! ```
//!
//! End-to-end numbers come from fresh children of the real `repro` binary
//! with tracing off; per-layer numbers from this process timing its own
//! calls into each layer. The last stdout line is always one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.

mod host;
mod json;
mod layers;
mod replay;
mod spec;
mod stats;
mod sys;
mod trace;
mod workloads;

use json::Value;
use spec::{Take, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use stats::Summary;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const DEFAULT_SEED: u64 = 20060619;
/// Set-up probes after each `repro` child; `setup_s` is the median over a
/// run's probes.
const SETUP_PROBES_PER_CHILD: usize = 2;
/// Runs per workload in each of `selfcheck`'s two sets, each with another
/// seed: what the acceptance driver takes its spreads over.
const SET_RUNS: usize = 10;

/// Where things live. The repository root is fixed at compile time: the
/// benchmark is always built from the checkout it measures.
pub struct Paths {
    pub root: PathBuf,
    /// `benchmark/out/`, the only directory the harness writes.
    pub out: PathBuf,
    pub repro: PathBuf,
}

impl Paths {
    fn new() -> Result<Paths, String> {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("benchmark/ sits in the repository root")
            .to_path_buf();
        let out = root.join("benchmark").join("out");
        std::fs::create_dir_all(&out)
            .map_err(|e| format!("cannot create {}: {e}", out.display()))?;
        let repro = build_repro(&root)?;
        Ok(Paths { root, out, repro })
    }

    pub fn child_stderr(&self) -> PathBuf {
        self.out.join("child-stderr.log")
    }
}

/// Builds the `repro` binary the end-to-end runs spawn (a no-op when it is
/// fresh) and returns where cargo put it. Never inside any timed region.
fn build_repro(root: &Path) -> Result<PathBuf, String> {
    let out = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "-p",
            "p2p-experiments",
            "--bin",
            "repro",
        ])
        .arg("--message-format=json")
        .current_dir(root)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "building repro failed: cargo exited with {}",
            out.status
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| Value::parse(l).ok())
        .filter(|m| {
            m.get("target")
                .and_then(|t| t.get("name"))
                .and_then(Value::as_str)
                == Some("repro")
        })
        .find_map(|m| m.get("executable")?.as_str().map(PathBuf::from))
        .ok_or_else(|| "cargo reported no `repro` executable".to_string())
}

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    layer: Option<String>,
    selfcheck: bool,
    setup_probe: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage:\n  bench --workload NAME [--seed S] [--seconds T] [--trace 0|1]\n  \
         bench --trace 1 --layer PREFIX [--seed S]\n  \
         bench selfcheck [--seed S] [--seconds T]\nworkloads: {}",
        names.join(" | ")
    )
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        layer: None,
        selfcheck: false,
        setup_probe: false,
    };
    let mut it = raw.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg {
            "selfcheck" => args.selfcheck = true,
            "setup-probe" => args.setup_probe = true,
            "--workload" => {
                let name = value(arg)?;
                args.workload =
                    Some(spec::workload(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                let v = value(arg)?;
                args.seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
            }
            "--seconds" => {
                let v = value(arg)?;
                args.seconds = v.parse().map_err(|_| format!("bad seconds {v}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {v}"));
                }
            }
            "--trace" => {
                args.trace = match value(arg)? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            "--layer" => args.layer = Some(value(arg)?.to_string()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.layer.is_some() && !args.trace {
        return Err("--layer selects probes of the traced pass; add --trace 1".to_string());
    }
    if !args.selfcheck && !args.trace && args.workload.is_none() {
        return Err("an end-to-end run needs --workload".to_string());
    }
    Ok(args)
}

fn print_host(paths: &Paths, workload: Option<&Workload>) -> Vec<(&'static str, Value)> {
    let mut record = host::record(&paths.root);
    if let Some(w) = workload {
        record.push(("cores_short", Value::Bool(host::nproc() < w.threads)));
    }
    println!("# host {}", Value::obj(record.clone()).to_json());
    record
}

/// Closes a run's report: the host record with the closing load average,
/// what ran, and the standing statement that the benchmark claims no gain.
fn print_summary(mut host_record: Vec<(&'static str, Value)>, ran: &str, seed: u64) {
    host_record.push(("load_end", Value::Str(host::load_average())));
    println!(
        "# summary {}",
        Value::obj([
            ("host", Value::obj(host_record)),
            ("ran", Value::str(ran)),
            ("seed", Value::Num(seed as f64)),
            ("claim", Value::Null),
        ])
        .to_json()
    );
}

/// The contract's result line, printed last.
fn result_line(
    attempted: u64,
    failed: u64,
    complete: bool,
    metrics: &[(&str, &str, f64)],
) -> String {
    Value::obj([
        ("correct", Value::Bool(failed == 0 && complete)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        (
            "metrics",
            Value::obj(metrics.iter().map(|&(name, unit, value)| {
                (
                    name,
                    Value::obj([("value", Value::Num(value)), ("unit", Value::str(unit))]),
                )
            })),
        ),
    ])
    .to_json()
}

/// What `setup-probe` runs: the workload's set-up path once, in a process
/// that has done nothing else, as a `repro` child pays it. Prints seconds.
fn setup_probe(w: &Workload, seed: u64) -> ExitCode {
    let start = Instant::now();
    replay::setup_once(w, seed);
    println!("{}", start.elapsed().as_secs_f64());
    ExitCode::SUCCESS
}

/// One set-up reading, from a fresh child of this harness.
fn setup_reading(w: &Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["setup-probe", "--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot spawn the set-up probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.trim().parse::<f64>() {
        Ok(s) if out.status.success() => Ok(s),
        _ => Err(format!(
            "set-up probe exited with {}: `{}`",
            out.status,
            stdout.trim()
        )),
    }
}

/// One end-to-end run: fresh `repro` children back to back until `seconds`
/// have passed, each one checked and followed by set-up probes. Each metric
/// is the median or the best reading (its `Take`) over those children or
/// probes.
fn end_to_end(w: &Workload, seed: u64, seconds: f64, paths: &Paths) -> ExitCode {
    let host_record = print_host(paths, Some(w));
    println!("# workload {}: {}", w.name, w.why);

    // The set-up path runs in probe children, between the `repro` children
    // so that its readings span the run as theirs do, and never in this
    // process: a child's `ru_maxrss` starts from the high-water mark of the
    // process that spawned it, so set-up calls made here (100k-node
    // overlays, ≈29 MB) would be reported as `des-churn-100k`'s 24 MB peak.
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut wall, mut cpu, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let mut setup = Vec::new();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds {
        let figs = match workloads::fresh_figs_dir(&paths.out) {
            Ok(dir) => dir,
            Err(e) => {
                eprintln!("cannot prepare {}: {e}", paths.out.display());
                return ExitCode::FAILURE;
            }
        };
        attempted += 1;
        let run = match workloads::run_child(
            &paths.repro,
            &w.repro_args(seed, &figs),
            &paths.root,
            &paths.child_stderr(),
        ) {
            Ok(run) if run.exit_ok => run,
            Ok(_) => {
                failed += 1;
                continue;
            }
            Err(e) => {
                eprintln!("cannot run {}: {e}", paths.repro.display());
                return ExitCode::FAILURE;
            }
        };
        for c in w.check_output(&run, &figs) {
            attempted += 1;
            if !c.ok {
                failed += 1;
                eprintln!("FAILED {}: {}: {}", w.name, c.name, c.detail);
            }
        }
        wall.push(run.wall_s);
        cpu.push(run.cpu_s);
        rss.push(run.peak_rss_mb);
        for _ in 0..SETUP_PROBES_PER_CHILD {
            match setup_reading(w, seed) {
                Ok(s) => setup.push(s),
                Err(msg) => {
                    eprintln!("{msg}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    println!("# host.calib_ms {:.1}", host::calibrate());

    let work_rate: Vec<f64> = wall.iter().map(|s| w.work / s).collect();
    let readings = [&wall, &cpu, &rss, &setup, &work_rate];
    let mut metrics = Vec::new();
    println!(
        "{:<12} {:>6} {:>16} {:>16} {:>16} {:>3}  reported",
        "metric", "unit", "median", "q1", "q3", "n"
    );
    for (m, values) in END_TO_END.iter().zip(readings) {
        let Some(s) = Summary::of(values) else {
            continue; // no child succeeded; the result line says so
        };
        let (reported, which) = match (m.take, m.higher_is_better) {
            (Take::Median, _) => (s.median, "median"),
            (Take::Best, false) => (values.iter().copied().fold(f64::INFINITY, f64::min), "min"),
            (Take::Best, true) => (values.iter().copied().fold(0.0, f64::max), "max"),
        };
        println!(
            "{:<12} {:>6} {:>16.6} {:>16.6} {:>16.6} {:>3}  {which}",
            m.name, m.unit, s.median, s.q1, s.q3, s.n
        );
        metrics.push((m.name, m.unit, reported));
    }
    println!(
        "# work: {} {} per run; operations: {attempted} attempted, {failed} failed",
        w.work, w.work_unit
    );
    print_summary(host_record, w.name, seed);
    println!(
        "{}",
        result_line(
            attempted,
            failed,
            metrics.len() == END_TO_END.len(),
            &metrics
        )
    );
    ExitCode::SUCCESS
}

/// The traced pass: every probe (or those behind the metrics `layer` selects), spans
/// written to `out/trace.jsonl`, every per-layer metric on the result line.
fn traced(seed: u64, layer: Option<&str>, paths: &Paths) -> ExitCode {
    let wanted = layers::metrics_under(layer);
    if wanted.is_empty() {
        eprintln!(
            "no per-layer metric starts with `{}`",
            layer.unwrap_or_default()
        );
        return ExitCode::from(2);
    }
    let host_record = print_host(paths, None);
    let mut pass = layers::Pass {
        seed,
        paths,
        tracer: trace::Tracer::new(),
        running: layers::PROBES[0].0,
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    for (probe, run) in layers::PROBES {
        if !wanted.iter().any(|m| m.probe == probe) {
            continue;
        }
        pass.running = probe;
        let id = pass.tracer.begin("benchmark.probe", "traced-pass");
        run(&mut pass);
        let ns = pass.tracer.end(id);
        // Each probe run to completion is one operation; the replay
        // comparisons, child runs and checks inside it count their own.
        pass.attempted += 1;
        eprintln!("# {:>7.2} s  {probe:?}", ns as f64 / 1e9);
    }
    let trace_file = paths.out.join("trace.jsonl");
    if let Err(e) = std::fs::write(&trace_file, pass.tracer.to_jsonl()) {
        eprintln!("cannot write {}: {e}", trace_file.display());
        return ExitCode::FAILURE;
    }

    let mut metrics = Vec::new();
    println!(
        "{:<44} {:>6} {:>18} {:>6}  moves",
        "metric", "unit", "value", "better"
    );
    for m in &wanted {
        match pass.metrics.iter().find(|(name, _)| *name == m.name) {
            Some(&(_, value)) => {
                let exact = if m.exact { " (exact)" } else { "" };
                println!(
                    "{:<44} {:>6} {:>18.6} {:>6}  {}{exact}",
                    m.name,
                    m.unit,
                    value,
                    if m.higher_is_better {
                        "higher"
                    } else {
                        "lower"
                    },
                    m.moves
                );
                metrics.push((m.name, m.unit, value));
            }
            None => println!(
                "{:<44} {:>6} {:>18} {:>6}  {}",
                m.name, m.unit, "withheld", "", m.moves
            ),
        }
    }
    println!(
        "# {} spans in {}; operations: {} attempted, {} failed",
        pass.tracer.spans().len(),
        trace_file.display(),
        pass.attempted,
        pass.failed
    );
    print_summary(host_record, "traced-pass", seed);
    println!(
        "{}",
        result_line(
            pass.attempted,
            pass.failed,
            metrics.len() == wanted.len(),
            &metrics
        )
    );
    ExitCode::SUCCESS
}

/// One harness child run by `selfcheck`: its result line, parsed.
fn harness_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot spawn the harness: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result =
        Value::parse(last).map_err(|e| format!("{workload}: bad result line ({e}): {last}"))?;
    // Every run made is on the record, not only the medians.
    eprintln!("# {workload} seed {seed}: {last}");
    if !out.status.success() || result.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!("{workload} seed {seed}: run not correct: {last}"));
    }
    Ok(result)
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Two complete sets on the same binaries, the way the acceptance driver
/// takes them: per workload, `SET_RUNS` runs per set, each with another seed,
/// workloads interleaved round-robin so host drift spreads evenly. Passes
/// only if every end-to-end median of set B is within the metric's bound of
/// set A, and the *exact* per-layer counts of two traced passes at one seed
/// are identical.
fn selfcheck(seed: u64, seconds: f64) -> Result<bool, String> {
    // sets[set][workload][metric] = readings
    let mut sets = vec![vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()]; 2];
    let mut traces = Vec::new();
    for (set, label) in ["A", "B"].into_iter().enumerate() {
        for run in 0..SET_RUNS {
            for (wi, w) in WORKLOADS.iter().enumerate() {
                let run_seed = seed + run as u64;
                eprintln!(
                    "# selfcheck set {label} run {}/{SET_RUNS} {}",
                    run + 1,
                    w.name
                );
                let result = harness_child(w.name, run_seed, seconds, false)?;
                for (mi, m) in END_TO_END.iter().enumerate() {
                    let v = metric_value(&result, m.name)
                        .ok_or_else(|| format!("{}: no {} in the result", w.name, m.name))?;
                    sets[set][wi][mi].push(v);
                }
            }
        }
        eprintln!("# selfcheck set {label} traced pass");
        traces.push(harness_child(WORKLOADS[0].name, seed, seconds, true)?);
    }

    let mut ok = true;
    println!(
        "{:<20} {:<12} {:>12} {:>7} {:>12} {:>7} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A iqr%", "B median", "B iqr%", "worse%", "bound%"
    );
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for (mi, m) in END_TO_END.iter().enumerate() {
            let a = Summary::of(&sets[0][wi][mi]).expect("SET_RUNS readings");
            let b = Summary::of(&sets[1][wi][mi]).expect("SET_RUNS readings");
            let worse = stats::worse_by(a.median, b.median, m.higher_is_better);
            let spread = a.spread().max(b.spread());
            // The set-up spread is reported but not gated (the contract
            // gates only its median).
            let verdict = if worse > m.bound {
                ok = false;
                "REGRESSED"
            } else if spread > m.bound && m.name != "setup_s" {
                ok = false;
                "unresolved (spread exceeds bound)"
            } else {
                "ok"
            };
            println!(
                "{:<20} {:<12} {:>12.5} {:>7.2} {:>12.5} {:>7.2} {:>8.2} {:>6.1}  {verdict}  \
                 [A q1 {:.5} q3 {:.5} n {}; B q1 {:.5} q3 {:.5} n {}]",
                w.name,
                m.name,
                a.median,
                100.0 * a.spread(),
                b.median,
                100.0 * b.spread(),
                100.0 * worse,
                100.0 * m.bound,
                a.q1,
                a.q3,
                a.n,
                b.q1,
                b.q3,
                b.n
            );
        }
    }
    let differing: Vec<&str> = PER_LAYER
        .iter()
        .filter(|m| m.exact && metric_value(&traces[0], m.name) != metric_value(&traces[1], m.name))
        .map(|m| m.name)
        .collect();
    if differing.is_empty() {
        println!(
            "exact counts: all {} identical",
            PER_LAYER.iter().filter(|m| m.exact).count()
        );
    } else {
        ok = false;
        println!("exact counts that differed: {}", differing.join(" "));
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        let Some(w) = args.workload else {
            eprintln!("setup-probe needs --workload\n{}", usage());
            return ExitCode::from(2);
        };
        return setup_probe(w, args.seed);
    }
    if args.selfcheck {
        return match selfcheck(args.seed, args.seconds) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(msg) => {
                eprintln!("selfcheck: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    let paths = match Paths::new() {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        traced(args.seed, args.layer.as_deref(), &paths)
    } else {
        let w = args
            .workload
            .expect("parse_args requires it without --trace");
        end_to_end(w, args.seed, args.seconds, &paths)
    }
}
