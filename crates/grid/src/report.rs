//! Tabular experiment reports.
//!
//! Every experiment binary prints its results as a [`Table`] — aligned text
//! for the terminal, CSV for downstream plotting — so the EXPERIMENTS.md
//! paper-vs-measured comparison can quote them directly.

use std::fmt;

/// A simple column-aligned table.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Table {
    /// Table title (experiment id + description).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells (stringified by the caller).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given title and headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: vec![],
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the cell count does not match the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
    }

    /// Render as CSV (headers + rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.join(","));
            out.push('\n');
        }
        out
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                w[i] = w[i].max(c.len());
            }
        }
        w
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.widths();
        writeln!(f, "## {}", self.title)?;
        let line: Vec<String> = self
            .headers
            .iter()
            .zip(&w)
            .map(|(h, w)| format!("{h:>w$}"))
            .collect();
        writeln!(f, "{}", line.join("  "))?;
        let total: usize = w.iter().sum::<usize>() + 2 * (w.len().saturating_sub(1));
        writeln!(f, "{}", "-".repeat(total))?;
        for r in &self.rows {
            let line: Vec<String> = r.iter().zip(&w).map(|(c, w)| format!("{c:>w$}")).collect();
            writeln!(f, "{}", line.join("  "))?;
        }
        Ok(())
    }
}

/// Format a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Format a percentage with 1 decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_and_csv() {
        let mut t = Table::new("E0: demo", &["policy", "util", "profit"]);
        t.row(vec!["fcfs".into(), pct(0.55), "$12.00".into()]);
        t.row(vec!["equipartition".into(), pct(0.91), "$19.50".into()]);
        let s = t.to_string();
        assert!(s.contains("## E0: demo"));
        assert!(s.contains("equipartition"));
        assert!(s.contains("91.0%"));
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("policy,util,profit"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(pct(0.333), "33.3%");
    }
}
