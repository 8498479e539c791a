//! Result tables and experiment records.
//!
//! Experiment binaries print fixed-width tables (for eyes) and emit
//! [`ExperimentRecord`] JSON (for `EXPERIMENTS.md` regeneration).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dcs_telemetry::json_string;

/// A fixed-width text table.
///
/// # Examples
///
/// ```
/// use dcs_metrics::Table;
///
/// let mut t = Table::new(vec!["k".into(), "recall".into()]);
/// t.row(vec!["5".into(), "1.00".into()]);
/// let text = t.render();
/// assert!(text.contains("recall"));
/// assert!(text.contains("1.00"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<String>) -> Self {
        Self {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's width differs from the header's.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with padded columns and a separator line.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>w$}", w = w);
            }
            out.push('\n');
        };
        render_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }
}

/// A machine-readable experiment result, one per figure/table run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRecord {
    /// Experiment identifier, e.g. `"fig8a"`.
    pub experiment: String,
    /// Parameter name → value, as strings for stability.
    pub parameters: BTreeMap<String, String>,
    /// Series name → data points.
    pub series: BTreeMap<String, Vec<f64>>,
}

impl ExperimentRecord {
    /// Creates an empty record for `experiment`.
    pub fn new(experiment: impl Into<String>) -> Self {
        Self {
            experiment: experiment.into(),
            parameters: BTreeMap::new(),
            series: BTreeMap::new(),
        }
    }

    /// Sets a parameter.
    pub fn parameter(mut self, name: impl Into<String>, value: impl ToString) -> Self {
        self.parameters.insert(name.into(), value.to_string());
        self
    }

    /// Adds a data series.
    pub fn with_series(mut self, name: impl Into<String>, points: Vec<f64>) -> Self {
        self.series.insert(name.into(), points);
        self
    }

    /// Serializes to pretty JSON.
    ///
    /// Hand-rolled (two flat string maps and one series map) so record
    /// emission needs no JSON dependency: two-space indentation, one
    /// entry per line, maps in key order, empty maps as `{}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = write!(out, "  \"experiment\": {}", json_string(&self.experiment));
        out.push_str(",\n  \"parameters\": {");
        for (i, (name, value)) in self.parameters.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(out, "    {}: {}", json_string(name), json_string(value));
        }
        out.push_str(if self.parameters.is_empty() {
            "},"
        } else {
            "\n  },"
        });
        out.push_str("\n  \"series\": {");
        for (i, (name, points)) in self.series.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let rendered: Vec<String> = points.iter().map(|p| json_number(*p)).collect();
            let _ = write!(out, "    {}: [{}]", json_string(name), rendered.join(", "));
        }
        out.push_str(if self.series.is_empty() { "}" } else { "\n  }" });
        out.push_str("\n}");
        out
    }
}

/// Renders an `f64` as a JSON number (JSON has no NaN/Infinity; they
/// are mapped to `null`, so a failed point reads back as missing).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        let mut s = format!("{x}");
        // `{}` prints integral floats without a decimal point; keep one
        // so the value reads back as a float.
        if !s.contains(['.', 'e', 'E']) {
            s.push_str(".0");
        }
        s
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_pads_and_aligns() {
        let mut t = Table::new(vec!["name".into(), "value".into()]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "12345".into()]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        // All rows same width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["a".into()]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn record_renders_stable_json() {
        let rec = ExperimentRecord::new("fig8a")
            .parameter("U", 8_000_000u64)
            .parameter("z", 1.5f64)
            .with_series("recall", vec![1.0, 0.9, 0.86]);
        let expected = concat!(
            "{\n",
            "  \"experiment\": \"fig8a\",\n",
            "  \"parameters\": {\n",
            "    \"U\": \"8000000\",\n",
            "    \"z\": \"1.5\"\n",
            "  },\n",
            "  \"series\": {\n",
            "    \"recall\": [1.0, 0.9, 0.86]\n",
            "  }\n",
            "}",
        );
        assert_eq!(rec.to_json(), expected);
    }

    #[test]
    fn record_json_escapes_and_handles_empties() {
        let rec = ExperimentRecord::new("has \"quotes\"\nand newline");
        let json = rec.to_json();
        assert!(json.contains(r#""has \"quotes\"\nand newline""#));
        assert!(json.contains("\"parameters\": {},"));
        assert!(json.contains("\"series\": {}"));
        let nan = ExperimentRecord::new("x").with_series("s", vec![f64::NAN]);
        assert!(nan.to_json().contains("[null]"));
    }

    #[test]
    fn empty_table_renders_headers_only() {
        let t = Table::new(vec!["x".into()]);
        assert!(t.is_empty());
        assert_eq!(t.render().lines().count(), 2);
    }
}
