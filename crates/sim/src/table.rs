//! GitHub-flavoured markdown table construction.
//!
//! Every experiment binary in `requiem-bench` prints its results as
//! markdown tables; `golden/` pins those bytes and `EXPERIMENTS.md`
//! quotes them.

use std::fmt;

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Left-aligned (`:---`).
    Left,
    /// Right-aligned (`---:`), the default for numeric columns.
    Right,
}

/// A simple markdown table builder.
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers. All columns default to
    /// right alignment; call [`Table::align`] to adjust.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        let header: Vec<String> = header.into_iter().map(Into::into).collect();
        let aligns = vec![Align::Right; header.len()];
        Table {
            header,
            aligns,
            rows: Vec::new(),
        }
    }

    /// Set one column's alignment (builder style).
    pub fn align(mut self, col: usize, a: Align) -> Self {
        self.aligns[col] = a;
        self
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the cell count does not match the header.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row has {} cells, table has {} columns",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for Table {
    #[allow(clippy::needless_range_loop)] // index spans header/aligns/widths in parallel
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        // widths must fit the alignment markers too
        for w in &mut widths {
            *w = (*w).max(4);
        }
        let pad = |s: &str, w: usize, a: Align| -> String {
            match a {
                Align::Left => format!("{s:<w$}"),
                Align::Right => format!("{s:>w$}"),
            }
        };
        // header
        write!(f, "|")?;
        for i in 0..ncols {
            write!(f, " {} |", pad(&self.header[i], widths[i], Align::Left))?;
        }
        writeln!(f)?;
        // separator
        write!(f, "|")?;
        for i in 0..ncols {
            let bar = match self.aligns[i] {
                Align::Left => format!(":{}", "-".repeat(widths[i] + 1)),
                Align::Right => format!("{}:", "-".repeat(widths[i] + 1)),
            };
            write!(f, "{bar}|")?;
        }
        writeln!(f)?;
        // rows
        for row in &self.rows {
            write!(f, "|")?;
            for i in 0..ncols {
                write!(f, " {} |", pad(&row[i], widths[i], self.aligns[i]))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_header_separator_rows() {
        let mut t = Table::new(["pattern", "MB/s"]).align(0, Align::Left);
        t.row(["sequential", "310.0"]);
        t.row(["random", "295.5"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("pattern"));
        assert!(lines[1].contains(":-"));
        assert!(lines[1].contains("-:"));
        assert!(lines[2].contains("sequential"));
        assert!(lines[3].contains("295.5"));
    }

    #[test]
    #[should_panic(expected = "row has 1 cells")]
    fn mismatched_row_panics() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn right_alignment_pads_left() {
        let mut t = Table::new(["n"]);
        t.row(["7"]);
        let s = t.to_string();
        // the value row should right-align '7' within at least width 4
        assert!(s.lines().nth(2).unwrap().contains("   7"));
    }
}
