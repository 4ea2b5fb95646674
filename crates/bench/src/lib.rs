//! Shared plumbing for the criterion benches.
//!
//! Every bench target does two jobs:
//!
//! 1. **Regenerate its figures/table** via `p2p-experiments` at
//!    [`ExperimentScale::from_env`] (set `P2P_PAPER_SCALE=1` for the full
//!    100k/1M sizes) and drop the CSVs under `target/figures/`;
//! 2. **Time the underlying primitive** (one estimation, one round, one
//!    spread…) with criterion at a fixed reduced size, so `cargo bench`
//!    also tracks implementation performance over time.

use p2p_experiments::ExperimentScale;
use p2p_stats::series::Figure;
use std::path::PathBuf;
use std::time::Duration;

/// The workspace `target/figures` directory, robust to the bench cwd being
/// the package directory.
pub fn figures_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("CARGO_TARGET_DIR") {
        return PathBuf::from(dir).join("figures");
    }
    // crates/bench -> workspace root/target
    PathBuf::from("../../target/figures")
}

/// Saves a figure CSV and prints a one-line summary per series.
pub fn emit_figure(fig: &Figure) {
    match fig.save_csv(&figures_dir()) {
        Ok(path) => println!("[figure] {} -> {}", fig.id, path.display()),
        Err(e) => eprintln!("[figure] {}: CSV write failed: {e}", fig.id),
    }
    for s in &fig.series {
        let (lo, hi) = s.y_range().unwrap_or((f64::NAN, f64::NAN));
        println!(
            "  {:<24} {:>5} points, y in [{:.1}, {:.1}]",
            s.name,
            s.len(),
            lo,
            hi
        );
    }
}

/// The scale used for figure regeneration inside benches.
pub fn bench_scale() -> ExperimentScale {
    ExperimentScale::from_env()
}

/// Criterion settings shared by all targets: small samples, short windows —
/// the timed bodies are macroscopic simulations, not nano-kernels.
pub fn criterion_config() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .configure_from_args()
}

/// Master seed for all bench-generated data.
pub const BENCH_SEED: u64 = 20060619;
