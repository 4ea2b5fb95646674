//! `(x, y)` data series — the exchange format between experiment runners
//! and the CSV files a plotting tool would consume.

use std::fmt::Write as _;
use std::io::{self, Write};

/// A named sequence of `(x, y)` points, e.g. one curve of one figure.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Series {
    /// Curve label, as it would appear in a figure legend.
    pub name: String,
    /// The points, in plotting order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// An empty series with a legend `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The y values.
    pub fn ys(&self) -> Vec<f64> {
        self.points.iter().map(|&(_, y)| y).collect()
    }

    /// Smallest and largest y (`None` when empty).
    pub fn y_range(&self) -> Option<(f64, f64)> {
        self.points.iter().fold(None, |acc, &(_, y)| match acc {
            None => Some((y, y)),
            Some((lo, hi)) => Some((lo.min(y), hi.max(y))),
        })
    }
}

/// A figure: several curves sharing axes, ready to be written as CSV.
#[derive(Clone, Debug, Default)]
pub struct Figure {
    /// Figure identifier, e.g. `"fig05"`.
    pub id: String,
    /// Human title, e.g. `"Aggregation: 100,000 node network"`.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The curves.
    pub series: Vec<Series>,
}

impl Figure {
    /// Creates an empty figure.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Figure {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Adds a curve.
    pub fn add(&mut self, series: Series) -> &mut Self {
        self.series.push(series);
        self
    }

    /// Renders long-format CSV: `series,x,y` with a header, one row per
    /// point — trivially consumable by gnuplot/pandas.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}: {}", self.id, self.title);
        let _ = writeln!(out, "# x: {} | y: {}", self.x_label, self.y_label);
        let _ = writeln!(out, "series,x,y");
        for s in &self.series {
            for &(x, y) in &s.points {
                let _ = writeln!(out, "{},{x},{y}", s.name);
            }
        }
        out
    }

    /// Writes the CSV to `w`.
    pub fn write_csv<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(self.to_csv().as_bytes())
    }

    /// Writes the CSV under `dir/<id>.csv`, creating `dir` if needed.
    /// Returns the file path.
    pub fn save_csv(&self, dir: &std::path::Path) -> io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.id));
        let mut f = std::fs::File::create(&path)?;
        self.write_csv(&mut f)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_ranges() {
        let mut s = Series::new("one shot");
        assert!(s.is_empty());
        s.push(0.0, 90.0);
        s.push(1.0, 110.0);
        s.push(2.0, 95.0);
        assert_eq!(s.len(), 3);
        assert_eq!(s.y_range(), Some((90.0, 110.0)));
        assert_eq!(s.ys(), vec![90.0, 110.0, 95.0]);
    }

    #[test]
    fn empty_series_has_no_range() {
        assert_eq!(Series::new("x").y_range(), None);
    }

    #[test]
    fn csv_layout() {
        let mut fig = Figure::new("fig99", "Test", "round", "quality %");
        let mut a = Series::new("est1");
        a.push(0.0, 1.5);
        a.push(1.0, 2.5);
        let mut b = Series::new("est2");
        b.push(0.0, 3.0);
        fig.add(a).add(b);
        let csv = fig.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "# fig99: Test");
        assert_eq!(lines[2], "series,x,y");
        assert_eq!(lines[3], "est1,0,1.5");
        assert_eq!(lines[5], "est2,0,3");
        assert_eq!(lines.len(), 6);
    }

    #[test]
    fn save_csv_roundtrip() {
        let dir = std::env::temp_dir().join("p2p_stats_series_test");
        let mut fig = Figure::new("fig_tmp", "t", "x", "y");
        let mut s = Series::new("s");
        s.push(1.0, 2.0);
        fig.add(s);
        let path = fig.save_csv(&dir).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("s,1,2"));
        std::fs::remove_file(path).ok();
    }
}
