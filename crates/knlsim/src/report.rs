//! Plain-text table rendering for the experiment binaries.

use std::fmt;

/// A printable table with a title, column headers and string rows.
#[derive(Clone, Debug, Default)]
pub struct Table {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
    /// Free-form footnotes printed under the table.
    pub notes: Vec<String>,
}

impl Table {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ncol = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (c, cell) in r.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
        }
        writeln!(f, "=== {} ===", self.title)?;
        for (c, h) in self.headers.iter().enumerate() {
            write!(f, "{:>w$}  ", h, w = widths[c])?;
        }
        writeln!(f)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * ncol;
        writeln!(f, "{}", "-".repeat(total))?;
        for r in &self.rows {
            for (c, cell) in r.iter().enumerate() {
                write!(f, "{:>w$}  ", cell, w = widths[c])?;
            }
            writeln!(f)?;
        }
        for n in &self.notes {
            writeln!(f, "  note: {n}")?;
        }
        Ok(())
    }
}

/// Human-readable seconds.
pub fn fmt_secs(s: f64) -> String {
    if !s.is_finite() {
        return "-".into();
    }
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.1}")
    } else {
        format!("{s:.3}")
    }
}

/// Human-readable gigabytes.
pub fn fmt_gb(gb: f64) -> String {
    if !gb.is_finite() {
        return "-".into();
    }
    if gb >= 100.0 {
        format!("{gb:.0}")
    } else if gb >= 1.0 {
        format!("{gb:.1}")
    } else {
        format!("{gb:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["a", "long-header", "c"]);
        t.row(vec!["1".into(), "2".into(), "3".into()]);
        t.row(vec!["1000".into(), "x".into(), "y".into()]);
        t.note("a note");
        let s = t.to_string();
        assert!(s.contains("=== demo ==="));
        assert!(s.contains("long-header"));
        assert!(s.contains("note: a note"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_is_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_secs(1234.5), "1234");
        assert_eq!(fmt_secs(12.34), "12.3");
        assert_eq!(fmt_secs(0.1234), "0.123");
        assert_eq!(fmt_secs(f64::INFINITY), "-");
        assert_eq!(fmt_gb(0.5), "0.50");
        assert_eq!(fmt_gb(417.2), "417");
    }
}
