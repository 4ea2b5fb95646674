//! The `repro` binary's worker budget, end to end: `--jobs J` changes how
//! many figures and replications run at once and nothing a reader can see —
//! output files and stdout are the same bytes at every `J` — and a bad or
//! failing invocation ends in a defined way.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

/// A fresh, not yet existing path under the test target's scratch directory.
fn scratch(name: &str) -> PathBuf {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if path.is_dir() {
        fs::remove_dir_all(&path).expect("stale scratch directory removed");
    } else if path.exists() {
        fs::remove_file(&path).expect("stale scratch file removed");
    }
    path
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8(bytes.to_vec()).expect("repro prints UTF-8")
}

/// Every file under `dir` as `(name, bytes)`, sorted by name.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<_> = fs::read_dir(dir)
        .expect("output directory exists")
        .map(|e| {
            let e = e.expect("readable entry");
            (
                e.file_name().to_string_lossy().into_owned(),
                fs::read(e.path()).expect("readable file"),
            )
        })
        .collect();
    out.sort();
    out
}

/// `stdout` with the run-dependent parts taken out: the `[1.2s]` / `[35.1ms]`
/// elapsed tokens and the output directory's name.
fn stable(stdout: &[u8], out_dir: &Path) -> String {
    let s = text(stdout).replace(&out_dir.display().to_string(), "OUT");
    let mut kept = String::new();
    let mut rest = s.as_str();
    while let Some(open) = rest.find('[') {
        let (before, after) = rest.split_at(open);
        kept += before;
        let elapsed = after.find(']').filter(|&close| {
            let digits = after[1..close].trim_end_matches(|c: char| c.is_alphabetic());
            !digits.is_empty() && digits.chars().all(|c| c.is_ascii_digit() || c == '.')
        });
        match elapsed {
            Some(close) => rest = &after[close + 1..],
            None => {
                kept += "[";
                rest = &after[1..];
            }
        }
    }
    kept + rest
}

#[test]
fn all_figures_are_the_same_bytes_at_any_budget() {
    let run = |jobs: &str| {
        let dir = scratch(&format!("all-j{jobs}"));
        let out = repro(&[
            "run",
            "--all",
            "--scale",
            "tiny",
            "--quiet",
            "--jobs",
            jobs,
            "--out",
            dir.to_str().expect("UTF-8 path"),
        ]);
        assert!(out.status.success(), "--jobs {jobs}: {}", text(&out.stderr));
        assert!(out.stderr.is_empty(), "--quiet: {}", text(&out.stderr));
        (files(&dir), stable(&out.stdout, &dir))
    };
    let (base_files, base_stdout) = run("1");
    assert_eq!(base_files.len(), 24, "23 figures and Table I");
    assert!(base_stdout.contains("fig01 — ") && base_stdout.contains("Table I."));
    for jobs in ["2", "5"] {
        let (got_files, got_stdout) = run(jobs);
        assert!(
            got_files == base_files,
            "--jobs {jobs}: output files differ"
        );
        assert_eq!(got_stdout, base_stdout, "--jobs {jobs}");
    }
}

#[test]
fn streamed_rows_follow_argument_order_at_any_budget() {
    let run = |jobs: &str| {
        let args = "run --fig 9 --fig 19 --fig 5 --format jsonl --scale tiny --quiet --jobs";
        let out = repro(&args.split(' ').chain([jobs]).collect::<Vec<_>>());
        assert!(out.status.success(), "--jobs {jobs}: {}", text(&out.stderr));
        text(&out.stdout)
    };
    let base = run("1");
    let metas: Vec<&str> = base
        .lines()
        .filter(|l| l.starts_with("{\"event\":\"meta\""))
        .collect();
    assert_eq!(metas.len(), 3);
    for (meta, id) in metas.iter().zip(["fig09", "fig19", "fig05"]) {
        assert!(meta.contains(&format!("\"experiment\":\"{id}\"")), "{meta}");
    }
    for jobs in ["2", "5"] {
        assert!(run(jobs) == base, "--jobs {jobs}: streamed rows differ");
    }
}

#[test]
fn sweep_metrics_are_the_same_bytes_at_any_budget() {
    let run = |jobs: &str| {
        let dir = scratch(&format!("sweep-j{jobs}"));
        let metrics = scratch(&format!("sweep-j{jobs}.jsonl"));
        let out = repro(&[
            "run",
            "--fig",
            "19",
            "--scale",
            "tiny",
            "--quiet",
            "--jobs",
            jobs,
            "--out",
            dir.to_str().expect("UTF-8 path"),
            "--metrics",
            metrics.to_str().expect("UTF-8 path"),
            "--metrics-every",
            "4",
        ]);
        assert!(out.status.success(), "--jobs {jobs}: {}", text(&out.stderr));
        (files(&dir), fs::read(metrics).expect("metrics written"))
    };
    let base = run("1");
    assert!(!base.1.is_empty());
    assert!(run("3") == base, "--jobs 3: sweep rows or snapshots differ");
}

#[test]
fn a_bad_figure_number_fails_before_any_work() {
    let dir = scratch("bad-list");
    let out = repro(&[
        "run",
        "--fig",
        "1",
        "--fig",
        "99",
        "--scale",
        "tiny",
        "--out",
        dir.to_str().expect("UTF-8 path"),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(text(&out.stderr), "fig99: unknown figure number\n");
    assert!(out.stdout.is_empty(), "{}", text(&out.stdout));
    assert!(!dir.exists(), "fig 1 must not have run");
}

#[test]
fn a_failing_task_reports_the_first_error_in_figure_order() {
    // `--out` is a regular file: every task fails; only fig 1's error shows.
    let file = scratch("out-is-a-file");
    fs::write(&file, b"").expect("scratch file");
    for jobs in ["1", "2"] {
        let out = repro(&[
            "run",
            "--fig",
            "1",
            "--fig",
            "5",
            "--table",
            "--scale",
            "tiny",
            "--quiet",
            "--jobs",
            jobs,
            "--out",
            file.to_str().expect("UTF-8 path"),
        ]);
        assert_eq!(out.status.code(), Some(1), "--jobs {jobs}");
        let stderr = text(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "--jobs {jobs}: {stderr}");
        assert!(stderr.starts_with("fig01: failed to write CSV"), "{stderr}");
        assert_eq!(text(&out.stdout).lines().count(), 1, "the header only");
    }

    // Only fig 5's file cannot be written: fig 1 before it is printed and
    // kept, fig 5's banner is not, and the run fails.
    let dir = scratch("second-fails");
    fs::create_dir_all(dir.join("fig05.csv")).expect("a directory in the file's place");
    for jobs in ["1", "3"] {
        let out = repro(&[
            "run",
            "--fig",
            "1",
            "--fig",
            "5",
            "--fig",
            "9",
            "--scale",
            "tiny",
            "--quiet",
            "--jobs",
            jobs,
            "--out",
            dir.to_str().expect("UTF-8 path"),
        ]);
        assert_eq!(out.status.code(), Some(1), "--jobs {jobs}");
        let stderr = text(&out.stderr);
        assert!(stderr.starts_with("fig05: failed to write CSV"), "{stderr}");
        let stdout = text(&out.stdout);
        assert!(stdout.contains("\nfig01 — "), "{stdout}");
        assert!(!stdout.contains("fig05 — ") && !stdout.contains("fig09 — "));
        assert!(dir.join("fig01.csv").is_file());
    }
}

#[test]
fn out_of_range_values_are_rejected_before_anything_runs() {
    // Each of these used to panic after the `meta` line was on stdout, or
    // to run and exit 0 meaning something else. `(extra args, named)`: the
    // one stderr line must name `named`.
    let cases: [(&[&str], &str); 19] = [
        (&["--sweep", "drop=1.5"], "drop"),
        (&["--sweep", "drop=-0.5"], "drop"),
        (&["--sweep", "drop=nan"], "drop"),
        (&["--sweep", "spread=-10"], "spread"),
        (&["--sweep", "spread=nan"], "spread"),
        (&["--sweep", "spread=150"], "spread"),
        (&["--sweep", "spread=0,40,100"], "spread"),
        (&["--heuristic", "last0"], "last0"),
        (&["--scenario", "growing:frac=1e30"], "frac"),
        (&["--scenario", "growing:frac=-1"], "frac=-1"),
        (&["--scenario", "growing:frac=nan"], "frac=nan"),
        (&["--scenario", "shrinking:frac=2"], "frac=2"),
        (&["--steps", "0"], "--steps 0"),
        (&["--reps", "0"], "--reps 0"),
        (&["--size", "0"], "--size 0"),
        // Sync steps never consult the network model: a sweep or a
        // non-ideal network would run ideal and report otherwise.
        (&["--mode", "sync", "--sweep", "drop=0,0.5"], "--mode sync"),
        (&["--mode", "sync", "--sweep", "spread=0,40"], "--sweep"),
        (&["--mode", "sync", "--network", "wan"], "--network wan"),
        (&["--mode", "sync", "--network", "drop=0.5"], "drop=0.5"),
    ];
    for (i, (extra, named)) in cases.into_iter().enumerate() {
        let dir = scratch(&format!("rejected-{i}"));
        let mut args: Vec<&str> = "run --protocol sample-collide:l=10 --scenario growing \
                                   --size 300 --steps 4 --reps 1 --format jsonl --out"
            .split_whitespace()
            .collect();
        args.push(dir.to_str().expect("UTF-8 path"));
        args.extend_from_slice(extra);
        let out = repro(&args);
        let case = extra.join(" ");
        let stderr = text(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{case}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{case}: {stderr}");
        assert!(stderr.contains(named), "{case}: {stderr}");
        assert!(stderr.contains("out of range"), "{case}: {stderr}");
        assert!(out.stdout.is_empty(), "{case}: {}", text(&out.stdout));
        assert!(!dir.exists(), "{case}: output written");
    }

    // Sync mode stays legal on the network it actually models.
    let dir = scratch("sync-on-ideal");
    let mut args: Vec<&str> = "run --protocol sample-collide:l=10 --mode sync --network ideal \
                               --size 300 --steps 4 --reps 1 --quiet --out"
        .split_whitespace()
        .collect();
    args.push(dir.to_str().expect("UTF-8 path"));
    let out = repro(&args);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));

    // The retired backend knob is an unknown argument now.
    let out = repro(&["run", "--protocol", "sample-collide", "--backend", "des"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(text(&out.stderr).starts_with("unknown argument --backend\nusage:"));
    assert!(out.stdout.is_empty());

    // Every sweep value a registered figure uses stays legal — Fig 19's
    // widest spread (99 ms around the 100 ms mean) included.
    let scale = p2p_experiments::ExperimentScale::small();
    for n in p2p_experiments::figures::ALL_FIGURES {
        let spec = p2p_experiments::figures::spec_for(n, &scale).expect("registered");
        if let Some(sweep) = &spec.sweep {
            for &v in &sweep.values {
                sweep
                    .axis
                    .check(v)
                    .unwrap_or_else(|e| panic!("fig{n:02}: {e}"));
            }
        }
    }
}
