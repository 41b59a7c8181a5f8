//! Table rendering: aligned text to stdout, CSV to `results/`.

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::Path;

use paradice_trace::json_escape;

/// One table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Text.
    Text(String),
    /// A number with the given precision.
    Num(f64, usize),
    /// Empty.
    Empty,
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Text(s) => f.write_str(s),
            Cell::Num(v, precision) => write!(f, "{v:.precision$}"),
            Cell::Empty => Ok(()),
        }
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Cell {
        Cell::Text(s.to_owned())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Cell {
        Cell::Text(s)
    }
}

impl From<f64> for Cell {
    fn from(v: f64) -> Cell {
        Cell::Num(v, 2)
    }
}

/// A named table with a header row.
#[derive(Debug, Clone)]
pub struct Table {
    /// The table's id (`"fig2"`, `"table3"`, …) — the CSV file stem.
    pub id: String,
    /// Human title printed above the table.
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &str, title: &str, header: &[&str]) -> Table {
        Table {
            id: id.to_owned(),
            title: title.to_owned(),
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<Cell>) {
        self.rows.push(cells);
    }

    /// Renders aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i >= widths.len() {
                    widths.push(0);
                }
                widths[i] = widths[i].max(cell.to_string().len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        for (i, h) in self.header.iter().enumerate() {
            out.push_str(&format!("{:<width$}  ", h, width = widths[i]));
        }
        out.push('\n');
        for (i, _) in self.header.iter().enumerate() {
            out.push_str(&"-".repeat(widths[i]));
            out.push_str("  ");
        }
        out.push('\n');
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                let text = cell.to_string();
                if matches!(cell, Cell::Num(..)) {
                    out.push_str(&format!("{:>width$}  ", text, width = widths[i]));
                } else {
                    out.push_str(&format!("{:<width$}  ", text, width = widths[i]));
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders the table as one JSON object (`{"id", "title", "header",
    /// "rows"}`): numeric cells become JSON numbers at their display
    /// precision, text cells strings, empty cells `null`.
    pub fn to_json(&self) -> String {
        let header: Vec<String> = self
            .header
            .iter()
            .map(|h| format!("\"{}\"", json_escape(h)))
            .collect();
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let cells: Vec<String> = row
                    .iter()
                    .map(|cell| match cell {
                        Cell::Text(s) => format!("\"{}\"", json_escape(s)),
                        Cell::Num(v, precision) if v.is_finite() => {
                            format!("{v:.precision$}")
                        }
                        Cell::Num(..) | Cell::Empty => "null".to_owned(),
                    })
                    .collect();
                format!("[{}]", cells.join(","))
            })
            .collect();
        format!(
            "{{\"id\":\"{}\",\"title\":\"{}\",\"header\":[{}],\"rows\":[{}]}}",
            json_escape(&self.id),
            json_escape(&self.title),
            header.join(","),
            rows.join(",")
        )
    }

    /// Writes `results/<id>.csv`.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<()> {
        fs::create_dir_all(dir)?;
        let mut file = fs::File::create(dir.join(format!("{}.csv", self.id)))?;
        writeln!(file, "{}", self.header.join(","))?;
        for row in &self.rows {
            let line: Vec<String> = row.iter().map(|c| c.to_string()).collect();
            writeln!(file, "{}", line.join(","))?;
        }
        Ok(())
    }
}

/// Renders a set of tables as the `BENCH_experiments.json` document: the
/// per-figure virtual-time numbers, machine-readable, so performance can
/// be diffed mechanically across revisions.
pub fn render_experiments_json(tables: &[Table]) -> String {
    let body: Vec<String> = tables
        .iter()
        .map(|t| format!("    {}", t.to_json()))
        .collect();
    format!(
        "{{\n  \"schema\": \"paradice-experiments/v1\",\n  \"tables\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut table = Table::new("t", "Test", &["name", "value"]);
        table.row(vec!["alpha".into(), Cell::Num(1.5, 2)]);
        table.row(vec!["beta-long".into(), Cell::Num(10.25, 2)]);
        let text = table.render();
        assert!(text.contains("== Test =="));
        assert!(text.contains("alpha"));
        assert!(text.contains("10.25"));
        // Numbers are right-aligned within the column.
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[3].contains(" 1.50"));
    }

    #[test]
    fn json_rendering_escapes_and_types_cells() {
        let mut table = Table::new("fig9", "Quote \"me\"", &["name", "value"]);
        table.row(vec!["x".into(), Cell::Num(1.25, 2)]);
        table.row(vec![Cell::Empty, Cell::Num(f64::NAN, 2)]);
        let json = table.to_json();
        assert!(json.contains("\"id\":\"fig9\""));
        assert!(json.contains("Quote \\\"me\\\""));
        assert!(json.contains("[\"x\",1.25]"));
        assert!(json.contains("[null,null]"), "empty/NaN cells become null: {json}");
        let doc = render_experiments_json(&[table]);
        assert!(doc.contains("\"schema\": \"paradice-experiments/v1\""));
    }

    #[test]
    fn csv_written() {
        let dir = std::env::temp_dir().join("paradice-report-test");
        let mut table = Table::new("sample", "S", &["a", "b"]);
        table.row(vec![Cell::Text("x".into()), Cell::Num(2.0, 1)]);
        table.write_csv(&dir).unwrap();
        let content = std::fs::read_to_string(dir.join("sample.csv")).unwrap();
        assert_eq!(content, "a,b\nx,2.0\n");
    }
}
