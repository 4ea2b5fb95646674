//! What the numbers were measured on: cores, CPU, toolchain, commit, load —
//! and a fixed calibration loop whose time tells host drift from code change.

use crate::json::Value;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// The 1/5/15-minute load averages, as the kernel prints them.
pub fn load_average() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host record printed with every result. `load_end` is filled in by
/// the caller when its run finishes.
pub fn record(repo_root: &Path) -> Vec<(&'static str, Value)> {
    let unknown = || "unknown".to_string();
    // The acceptance driver's checkout is not a git repository; only ask
    // git when this tree is one, so a parent directory's repository is
    // never mistaken for it.
    let commit = if repo_root.join(".git").exists() {
        first_line_of(
            Command::new("git")
                .arg("-C")
                .arg(repo_root)
                .args(["rev-parse", "HEAD"]),
        )
    } else {
        None
    };
    vec![
        ("nproc", Value::Num(nproc() as f64)),
        ("cpu_model", Value::Str(cpu_model().unwrap_or_else(unknown))),
        ("commit", Value::Str(commit.unwrap_or_else(unknown))),
        (
            "rustc",
            Value::Str(first_line_of(Command::new("rustc").arg("-V")).unwrap_or_else(unknown)),
        ),
        ("load_start", Value::Str(load_average())),
        (
            "loop",
            Value::str("closed loop, one child process at a time, at most 2 threads"),
        ),
    ]
}

/// Runs the fixed calibration work (an integer recurrence the compiler
/// cannot shorten, then a dependent pointer chase through 16 MB) and returns
/// its wall time in milliseconds — about 200 ms on the host the sizes were
/// chosen on. Reported as context beside the metrics, never used to
/// normalise them.
pub fn calibrate() -> f64 {
    const CHASE_SLOTS: usize = 1 << 22;
    const CHASE_HOPS: usize = 1 << 21;
    const ALU_STEPS: u64 = 150_000_000;

    // One cycle through every slot (Sattolo's shuffle), so the chase cannot
    // settle into a short, cache-resident loop.
    let mut next: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..CHASE_SLOTS).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        next.swap(i, (state % i as u64) as usize);
    }

    let start = Instant::now();
    let mut x = 1u64;
    for i in 0..ALU_STEPS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(i | 1);
    }
    let mut at = (x % CHASE_SLOTS as u64) as u32;
    for _ in 0..CHASE_HOPS {
        at = next[at as usize];
    }
    std::hint::black_box((x, at));
    start.elapsed().as_secs_f64() * 1e3
}
