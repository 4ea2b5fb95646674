//! Streaming result sinks: rows flow out of the engine as replications
//! finish, instead of buffering a whole figure in memory.
//!
//! The [engine](crate::engine) pushes every produced curve point through a
//! [`ResultSink`] the moment its replication (or sweep point) completes —
//! long sweeps write partial CSV/JSON output that survives an interrupted
//! run, and interactive callers get [`ResultSink::progress`] callbacks.
//! Three sinks cover the workspace's consumers:
//!
//! * [`FigureSink`] — assembles an in-memory [`Figure`] (what
//!   `figures::by_number` returns, and what the golden-equivalence tests
//!   compare);
//! * [`CsvSink`] — streams the long-format `series,x,y` CSV layout of
//!   [`Figure::to_csv`] to any writer;
//! * [`JsonLinesSink`] — one hand-rolled JSON object per row (no serde),
//!   for piping into `jq`/pandas.

use crate::sharded::ShardSync;
use p2p_stats::series::Figure;
use p2p_stats::Series;
use p2p_telemetry::json_escape_into;
use std::io::{self, Write};

/// Identity of the experiment a row stream belongs to.
#[derive(Clone, Debug)]
pub struct ExperimentMeta {
    /// Experiment id, e.g. `"fig09"` or `"custom"`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
}

/// One streamed curve point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Row<'a> {
    /// Curve label the point belongs to (series are created on first use,
    /// in arrival order).
    pub series: &'a str,
    /// X coordinate.
    pub x: f64,
    /// Y coordinate.
    pub y: f64,
}

/// Hot-path accounting of one finished run, surfaced next to its rows:
/// the event core's [`EngineStats`](p2p_sim::EngineStats) plus the message
/// count. Diagnostic only — no sink's *output rows* depend on it, so
/// adding a stats consumer can never change figure bytes.
#[derive(Clone, Copy, Debug)]
pub struct RunStats<'a> {
    /// The series (replication) the run produced.
    pub series: &'a str,
    /// Events the run dispatched through the timing wheel.
    pub events: u64,
    /// Peak simultaneous pending events.
    pub peak_queue: usize,
    /// Share of scheduled events the wheel stored without allocating a
    /// chunk ([`EngineStats::pool_hit_rate`](p2p_sim::EngineStats::pool_hit_rate);
    /// → 1.0 once the chunk table covers the in-flight plateau).
    pub pool_hit_rate: f64,
    /// Messages sent over the network.
    pub sent: u64,
    /// Process-wide peak resident set size in kB at the time the run
    /// finished (`VmHWM` from `/proc/self/status`); `None` where the
    /// platform has no cheap high-water readout.
    pub peak_rss_kb: Option<u64>,
    /// How a `--shards K` run was synchronised; `None` for the sequential
    /// engine, whose records carry no such fields.
    pub sync: Option<ShardSync>,
}

/// Reads the process peak resident set size (`VmHWM`, in kB) from
/// `/proc/self/status`. Returns `None` off Linux or if the field is
/// missing/unparsable — callers print `n/a` rather than fail.
pub fn peak_rss_kb() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                return rest.trim().trim_end_matches(" kB").trim().parse().ok();
            }
        }
        None
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// A consumer of streamed experiment results.
///
/// The engine calls [`begin`](Self::begin) once, then interleaves
/// [`row`](Self::row) (in deterministic order: rows of one series arrive in
/// x order; series arrive in figure order) with [`progress`](Self::progress)
/// notifications, and ends with [`finish`](Self::finish).
pub trait ResultSink {
    /// The experiment is starting.
    fn begin(&mut self, _meta: &ExperimentMeta) {}

    /// One curve point was produced.
    fn row(&mut self, row: &Row<'_>);

    /// `done` of `total` work units (replications × protocols × sweep
    /// points) have completed; `label` names the unit that just finished.
    fn progress(&mut self, _done: usize, _total: usize, _label: &str) {}

    /// Hot-path accounting of a finished message-level run (the engine
    /// only reports runs that actually dispatched events). Default:
    /// ignored — only diagnostic consumers (the `repro` progress printer)
    /// listen.
    fn run_stats(&mut self, _stats: &RunStats<'_>) {}

    /// The experiment completed; flush any buffered output.
    fn finish(&mut self) {}
}

/// Collects rows into an in-memory [`Figure`].
#[derive(Debug, Default)]
pub struct FigureSink {
    fig: Figure,
}

impl FigureSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The assembled figure.
    pub fn into_figure(self) -> Figure {
        self.fig
    }
}

impl ResultSink for FigureSink {
    fn begin(&mut self, meta: &ExperimentMeta) {
        self.fig = Figure::new(&meta.id, &meta.title, &meta.x_label, &meta.y_label);
    }

    fn row(&mut self, row: &Row<'_>) {
        match self.fig.series.iter_mut().find(|s| s.name == row.series) {
            Some(s) => s.push(row.x, row.y),
            None => {
                let mut s = Series::new(row.series);
                s.push(row.x, row.y);
                self.fig.add(s);
            }
        }
    }
}

/// Streams rows as long-format CSV (the [`Figure::to_csv`] layout) to a
/// writer, flushing after every row so partial output is usable.
pub struct CsvSink<W: Write> {
    w: W,
    error: Option<io::Error>,
}

impl<W: Write> CsvSink<W> {
    /// Wraps a writer.
    pub fn new(w: W) -> Self {
        CsvSink { w, error: None }
    }

    /// The first write error, if any occurred (sinks are infallible at the
    /// trait level so the engine never aborts a simulation half-way through
    /// a replication batch; callers check afterwards).
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    fn write(&mut self, line: String) {
        if self.error.is_none() {
            if let Err(e) = self
                .w
                .write_all(line.as_bytes())
                .and_then(|()| self.w.flush())
            {
                self.error = Some(e);
            }
        }
    }
}

impl<W: Write> ResultSink for CsvSink<W> {
    fn begin(&mut self, meta: &ExperimentMeta) {
        self.write(format!(
            "# {}: {}\n# x: {} | y: {}\nseries,x,y\n",
            meta.id, meta.title, meta.x_label, meta.y_label
        ));
    }

    fn row(&mut self, row: &Row<'_>) {
        self.write(format!("{},{},{}\n", row.series, row.x, row.y));
    }
}

/// `s` escaped for a JSON string literal, by the workspace's one escaper.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    json_escape_into(&mut out, s);
    out
}

/// Serializes an f64 as JSON (JSON has no NaN/∞; emit null like serde_json).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Streams rows as JSON lines: a `meta` object first, then one `row` object
/// per point, then a `done` object.
pub struct JsonLinesSink<W: Write> {
    w: W,
    id: String,
    rows: u64,
    error: Option<io::Error>,
}

impl<W: Write> JsonLinesSink<W> {
    /// Wraps a writer.
    pub fn new(w: W) -> Self {
        JsonLinesSink {
            w,
            id: String::new(),
            rows: 0,
            error: None,
        }
    }

    /// The first write error, if any occurred.
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    fn write(&mut self, line: String) {
        if self.error.is_none() {
            if let Err(e) = self
                .w
                .write_all(line.as_bytes())
                .and_then(|()| self.w.flush())
            {
                self.error = Some(e);
            }
        }
    }
}

impl<W: Write> ResultSink for JsonLinesSink<W> {
    fn begin(&mut self, meta: &ExperimentMeta) {
        self.id = meta.id.clone();
        self.rows = 0;
        self.write(format!(
            "{{\"event\":\"meta\",\"experiment\":\"{}\",\"title\":\"{}\",\"x\":\"{}\",\"y\":\"{}\"}}\n",
            json_escape(&meta.id),
            json_escape(&meta.title),
            json_escape(&meta.x_label),
            json_escape(&meta.y_label)
        ));
    }

    fn row(&mut self, row: &Row<'_>) {
        self.rows += 1;
        self.write(format!(
            "{{\"experiment\":\"{}\",\"series\":\"{}\",\"x\":{},\"y\":{}}}\n",
            json_escape(&self.id),
            json_escape(row.series),
            json_num(row.x),
            json_num(row.y)
        ));
    }

    fn run_stats(&mut self, stats: &RunStats<'_>) {
        // Structured counterpart of the progress printer's `[stats]` line:
        // machine-readable accounting next to the rows it belongs to.
        // `peak_rss_kb` is a number or null — platforms without a cheap
        // high-water readout are explicit, not a magic string.
        let rss = match stats.peak_rss_kb {
            Some(kb) => kb.to_string(),
            None => "null".to_string(),
        };
        let sync = stats.sync.map_or_else(String::new, |s| {
            format!(
                ",\"shards\":{},\"lookahead_ticks\":{},\"barrier_rounds\":{}",
                s.shards, s.lookahead_ticks, s.barrier_rounds
            )
        });
        self.write(format!(
            "{{\"event\":\"run_stats\",\"experiment\":\"{}\",\"series\":\"{}\",\
             \"events\":{},\"peak_queue\":{},\"pool_hit_rate\":{},\
             \"sent\":{},\"peak_rss_kb\":{rss}{sync}}}\n",
            json_escape(&self.id),
            json_escape(stats.series),
            stats.events,
            stats.peak_queue,
            json_num(stats.pool_hit_rate),
            stats.sent,
        ));
    }

    fn finish(&mut self) {
        let line = format!(
            "{{\"event\":\"done\",\"experiment\":\"{}\",\"rows\":{}}}\n",
            json_escape(&self.id),
            self.rows
        );
        self.write(line);
    }
}

/// Fans one row stream out to two sinks (e.g. a [`FigureSink`] for the
/// return value plus a streaming [`CsvSink`] for the terminal).
pub struct TeeSink<'a> {
    /// First consumer.
    pub a: &'a mut dyn ResultSink,
    /// Second consumer.
    pub b: &'a mut dyn ResultSink,
}

impl ResultSink for TeeSink<'_> {
    fn begin(&mut self, meta: &ExperimentMeta) {
        self.a.begin(meta);
        self.b.begin(meta);
    }

    fn row(&mut self, row: &Row<'_>) {
        self.a.row(row);
        self.b.row(row);
    }

    fn progress(&mut self, done: usize, total: usize, label: &str) {
        self.a.progress(done, total, label);
        self.b.progress(done, total, label);
    }

    fn run_stats(&mut self, stats: &RunStats<'_>) {
        self.a.run_stats(stats);
        self.b.run_stats(stats);
    }

    fn finish(&mut self) {
        self.a.finish();
        self.b.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> ExperimentMeta {
        ExperimentMeta {
            id: "fig99".to_string(),
            title: "Test".to_string(),
            x_label: "round".to_string(),
            y_label: "quality %".to_string(),
        }
    }

    fn feed(sink: &mut dyn ResultSink) {
        sink.begin(&meta());
        sink.row(&Row {
            series: "est1",
            x: 0.0,
            y: 1.5,
        });
        sink.row(&Row {
            series: "est1",
            x: 1.0,
            y: 2.5,
        });
        sink.row(&Row {
            series: "est2",
            x: 0.0,
            y: 3.0,
        });
        sink.finish();
    }

    #[test]
    fn figure_sink_assembles_series_in_arrival_order() {
        let mut sink = FigureSink::new();
        feed(&mut sink);
        let fig = sink.into_figure();
        assert_eq!(fig.id, "fig99");
        assert_eq!(fig.series.len(), 2);
        assert_eq!(fig.series[0].name, "est1");
        assert_eq!(fig.series[0].points, vec![(0.0, 1.5), (1.0, 2.5)]);
        assert_eq!(fig.series[1].points, vec![(0.0, 3.0)]);
    }

    #[test]
    fn csv_sink_matches_figure_to_csv() {
        // The streamed layout must be byte-identical to the buffered
        // Figure::to_csv, so both paths feed the same plotting scripts.
        let mut buf = Vec::new();
        let mut sink = CsvSink::new(&mut buf);
        feed(&mut sink);
        assert!(sink.error().is_none());
        let mut fig_sink = FigureSink::new();
        feed(&mut fig_sink);
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            fig_sink.into_figure().to_csv()
        );
    }

    #[test]
    fn json_lines_are_well_formed() {
        let mut buf = Vec::new();
        let mut sink = JsonLinesSink::new(&mut buf);
        sink.begin(&meta());
        sink.row(&Row {
            series: "a\"b",
            x: 1.0,
            y: f64::NAN,
        });
        sink.finish();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"event\":\"meta\""));
        assert_eq!(
            lines[1],
            "{\"experiment\":\"fig99\",\"series\":\"a\\\"b\",\"x\":1,\"y\":null}"
        );
        assert_eq!(
            lines[2],
            "{\"event\":\"done\",\"experiment\":\"fig99\",\"rows\":1}"
        );
    }

    #[test]
    fn json_lines_run_stats_record_is_structured() {
        let mut buf = Vec::new();
        let mut sink = JsonLinesSink::new(&mut buf);
        sink.begin(&meta());
        sink.run_stats(&RunStats {
            series: "Estimation #1",
            events: 10,
            peak_queue: 3,
            pool_hit_rate: 0.5,
            sent: 7,
            peak_rss_kb: Some(2048),
            sync: None,
        });
        sink.run_stats(&RunStats {
            series: "Estimation #2",
            events: 11,
            peak_queue: 3,
            pool_hit_rate: 0.5,
            sent: 7,
            peak_rss_kb: None,
            sync: Some(ShardSync {
                shards: 2,
                lookahead_ticks: 15,
                barrier_rounds: 3_732,
            }),
        });
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[1],
            "{\"event\":\"run_stats\",\"experiment\":\"fig99\",\"series\":\"Estimation #1\",\
             \"events\":10,\"peak_queue\":3,\"pool_hit_rate\":0.5,\
             \"sent\":7,\"peak_rss_kb\":2048}"
        );
        // A missing readout is an explicit null; a sharded run appends how
        // it was synchronised (the sequential record above has no such keys).
        assert!(
            lines[2].ends_with(
                "\"peak_rss_kb\":null,\"shards\":2,\"lookahead_ticks\":15,\
                 \"barrier_rounds\":3732}"
            ),
            "{}",
            lines[2]
        );
    }

    #[test]
    fn tee_feeds_both_sinks() {
        let mut fig = FigureSink::new();
        let mut buf = Vec::new();
        let mut csv = CsvSink::new(&mut buf);
        let mut tee = TeeSink {
            a: &mut fig,
            b: &mut csv,
        };
        feed(&mut tee);
        assert_eq!(fig.into_figure().series.len(), 2);
        assert!(!buf.is_empty());
    }
}
