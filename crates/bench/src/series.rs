//! One declaration per reported column.
//!
//! A sweep's rows are typed values; a [`Series`] lists, once and in
//! order, what is reported about a row — a table header, a JSON key, or
//! both, and how to read the value off the row — and renders the
//! markdown [`Table`] and the `[{…},…]` JSON rows from that one list.
//! The two outputs differ only in how a [`V`] prints: `163.05µs` in a
//! table is `163050` under a `_ns` key.

use requiem_sim::Table;

/// A reported value, typed by how it prints in a table and in JSON.
#[derive(Debug, Clone, PartialEq)]
pub enum V {
    /// An integer: `6133` in both.
    Count(u64),
    /// A float with its table and JSON decimals: `Float(x, 0, 1)` prints
    /// `24` and `24.0`.
    Float(f64, usize, usize),
    /// Nanoseconds: adaptive unit in a table (`163.05µs`), the integer
    /// in JSON (`163050`).
    Ns(u64),
    /// A fraction of one with its table and JSON decimals:
    /// `Share(x, 0, 3)` prints `63%` and `0.634`.
    Share(f64, usize, usize),
    /// A ratio to a baseline: `2.00x` in a table, `2.00` in JSON.
    Speedup(f64),
    /// Text (a program constant, never escaped): bare in a table, quoted
    /// in JSON.
    Label(String),
    /// Pre-rendered JSON (a nested object or array): verbatim in both.
    Raw(String),
    /// No value for this row: `—` in a table, `null` in JSON.
    Missing,
}

impl V {
    /// The table cell.
    pub fn cell(&self) -> String {
        match self {
            V::Count(n) => n.to_string(),
            V::Float(x, dp, _) => format!("{x:.dp$}"),
            V::Ns(ns) => crate::fmt_ns(*ns),
            V::Share(x, dp, _) => format!("{:.dp$}%", x * 100.0),
            V::Speedup(x) => format!("{x:.2}x"),
            V::Label(s) | V::Raw(s) => s.clone(),
            V::Missing => "—".to_string(),
        }
    }

    /// The JSON value.
    pub fn json(&self) -> String {
        match self {
            V::Count(n) | V::Ns(n) => n.to_string(),
            V::Float(x, _, dp) | V::Share(x, _, dp) => format!("{x:.dp$}"),
            V::Speedup(x) => format!("{x:.2}"),
            V::Label(s) => format!("\"{s}\""),
            V::Raw(s) => s.clone(),
            V::Missing => "null".to_string(),
        }
    }
}

struct Column<'a, T> {
    header: Option<&'a str>,
    key: Option<&'a str>,
    value: Box<dyn Fn(&T) -> V + 'a>,
}

/// The ordered columns reported about rows of type `T`.
pub struct Series<'a, T> {
    columns: Vec<Column<'a, T>>,
}

impl<'a, T> Default for Series<'a, T> {
    fn default() -> Self {
        Series {
            columns: Vec::new(),
        }
    }
}

impl<'a, T> Series<'a, T> {
    /// An empty column list.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(
        mut self,
        header: Option<&'a str>,
        key: Option<&'a str>,
        value: impl Fn(&T) -> V + 'a,
    ) -> Self {
        self.columns.push(Column {
            header,
            key,
            value: Box::new(value),
        });
        self
    }

    /// A column in both outputs: `header` in the table, `key` in JSON.
    pub fn col(self, header: &'a str, key: &'a str, value: impl Fn(&T) -> V + 'a) -> Self {
        self.push(Some(header), Some(key), value)
    }

    /// A column only the table shows.
    pub fn table_only(self, header: &'a str, value: impl Fn(&T) -> V + 'a) -> Self {
        self.push(Some(header), None, value)
    }

    /// A field only the JSON carries.
    pub fn json_only(self, key: &'a str, value: impl Fn(&T) -> V + 'a) -> Self {
        self.push(None, Some(key), value)
    }

    /// The markdown table of `rows` (every column right-aligned; adjust
    /// with [`Table::align`]).
    pub fn table<'r>(&self, rows: impl IntoIterator<Item = &'r T>) -> Table
    where
        T: 'r,
    {
        let shown = || self.columns.iter().filter(|c| c.header.is_some());
        let mut table = Table::new(shown().filter_map(|c| c.header));
        for row in rows {
            table.row(shown().map(|c| (c.value)(row).cell()));
        }
        table
    }

    /// One row as a JSON object.
    pub fn json_row(&self, row: &T) -> String {
        let fields: Vec<String> = self
            .columns
            .iter()
            .filter_map(|c| Some(format!("\"{}\":{}", c.key?, (c.value)(row).json())))
            .collect();
        format!("{{{}}}", fields.join(","))
    }

    /// `rows` as a JSON array of objects.
    pub fn json<'r>(&self, rows: impl IntoIterator<Item = &'r T>) -> String
    where
        T: 'r,
    {
        let rows: Vec<String> = rows.into_iter().map(|r| self.json_row(r)).collect();
        format!("[{}]", rows.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each `V` against the literal strings the goldens contain.
    #[test]
    fn values_render_as_the_goldens_print_them() {
        let cases = [
            (V::Count(6133), "6133", "6133"),
            (V::Float(24.04, 1, 2), "24.0", "24.04"),
            (V::Float(6133.4, 0, 1), "6133", "6133.4"),
            (V::Ns(163_050), "163.05µs", "163050"),
            (V::Share(0.634, 0, 3), "63%", "0.634"),
            (V::Share(0.1, 0, 1), "10%", "0.1"),
            (V::Speedup(2.0), "2.00x", "2.00"),
            (
                V::Label("flash_batched".into()),
                "flash_batched",
                "\"flash_batched\"",
            ),
            (V::Raw("{\"ok\":3}".into()), "{\"ok\":3}", "{\"ok\":3}"),
            (V::Missing, "—", "null"),
        ];
        for (v, cell, json) in cases {
            assert_eq!(v.cell(), cell, "{v:?} in a table");
            assert_eq!(v.json(), json, "{v:?} in JSON");
        }
    }

    fn series<'a>() -> Series<'a, (u64, f64)> {
        Series::new()
            .col("QD", "qd", |r: &(u64, f64)| V::Count(r.0))
            .table_only("speedup", |r| V::Speedup(r.1))
            .json_only("tps", |r| V::Float(r.1, 0, 1))
    }

    #[test]
    fn table_only_and_json_only_columns_appear_in_one_output_each() {
        let rows = [(1, 1.0), (2, 1.5)];
        let table = series().table(&rows).to_string();
        assert!(table.contains("| QD   | speedup |"), "{table}");
        assert!(table.contains("1.50x") && !table.contains("tps"), "{table}");
        assert_eq!(
            series().json(&rows),
            "[{\"qd\":1,\"tps\":1.0},{\"qd\":2,\"tps\":1.5}]"
        );
    }

    #[test]
    fn no_rows_render_an_empty_array_and_a_header_only_table() {
        let none: [(u64, f64); 0] = [];
        assert_eq!(series().json(&none), "[]");
        let table = series().table(&none);
        assert!(table.is_empty());
        assert_eq!(table.to_string().lines().count(), 2, "header + rule");
    }
}
