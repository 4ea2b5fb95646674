//! # p2p-stats
//!
//! Small, dependency-free statistics toolkit backing the evaluation:
//!
//! * [`running::RunningStats`] — Welford single-pass mean/variance;
//! * [`window::SlidingWindow`] — fixed-size window average, i.e. the paper's
//!   *last10runs* heuristic;
//! * [`summary`] — sorted-sample summaries (median, percentiles) and the
//!   paper's *quality %* metric (100 · estimate / truth);
//! * [`histogram`] — integer and log-binned histograms (Fig 7);
//! * [`series`] — `(x, y)` data series with CSV/gnuplot-style output, the
//!   exchange format of every figure runner.

#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod histogram;
pub mod running;
pub mod series;
pub mod summary;
pub mod window;

pub use running::RunningStats;
pub use series::Series;
pub use summary::quality_percent;
pub use window::SlidingWindow;
