//! Minimal aligned-text table printer, CSV emitter and number formatters.

/// A printable results table; also emits CSV for post-processing.
pub struct Table {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                w[i] = w[i].max(cell.len());
            }
        }
        w
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let w = self.widths();
        let mut out = String::new();
        let _ = writeln!(out, "\n## {}", self.title);
        let line: String = w.iter().map(|x| "-".repeat(x + 2)).collect::<Vec<_>>().join("+");
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!(" {:>width$} ", c, width = w[i]))
                .collect::<Vec<_>>()
                .join("|")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers));
        let _ = writeln!(out, "{line}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row));
        }
        out
    }

    /// Render as CSV (one block per table, prefixed by a comment line).
    /// Cells holding a comma, quote or newline are quoted per RFC 4180,
    /// with embedded quotes doubled.
    pub fn render_csv(&self) -> String {
        let fmt_row =
            |cells: &[String]| cells.iter().map(|c| csv_escape(c)).collect::<Vec<_>>().join(",");
        let mut out = format!("# {}\n{}\n", self.title, fmt_row(&self.headers));
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// RFC 4180 cell escaping: quote when the cell contains a delimiter, a
/// quote or a line break, doubling embedded quotes.
fn csv_escape(cell: &str) -> String {
    if cell.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// Human formatting helpers shared by the experiments.
pub fn kops(ops: usize, nanos: u64) -> String {
    if nanos == 0 {
        return "inf".into();
    }
    format!("{:.1}", ops as f64 / (nanos as f64 / 1e9) / 1e3)
}

pub fn mib(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

pub fn ratio(x: f64) -> String {
    format!("{x:.3}")
}

pub fn micros(nanos: u64) -> String {
    format!("{:.2}", nanos as f64 / 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_and_csv() {
        let mut t = Table::new("demo", &["a", "metric"]);
        t.row(vec!["1".into(), "10.5".into()]);
        t.row(vec!["200".into(), "7".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("metric"));
        let csv = t.render_csv();
        assert!(csv.starts_with("# demo\na,metric\n1,10.5\n"));
    }

    #[test]
    fn csv_escapes_commas_quotes_and_newlines() {
        let mut t = Table::new("esc", &["plain", "tricky"]);
        t.row(vec!["ok".into(), "a,b".into()]);
        t.row(vec!["say \"hi\"".into(), "line1\nline2".into()]);
        let csv = t.render_csv();
        let lines: Vec<&str> = csv.splitn(4, '\n').collect();
        assert_eq!(lines[1], "plain,tricky");
        assert_eq!(lines[2], "ok,\"a,b\"");
        assert_eq!(lines[3], "\"say \"\"hi\"\"\",\"line1\nline2\"\n");
    }

    #[test]
    fn csv_escapes_header_cells_too() {
        let mut t = Table::new("hdr", &["metric, unit"]);
        t.row(vec!["5".into()]);
        assert_eq!(t.render_csv(), "# hdr\n\"metric, unit\"\n5\n");
    }

    #[test]
    fn formatters() {
        assert_eq!(kops(1000, 1_000_000_000), "1.0");
        assert_eq!(mib(1024 * 1024), "1.00");
        assert_eq!(ratio(0.51234), "0.512");
        assert_eq!(micros(1500), "1.50");
    }
}
