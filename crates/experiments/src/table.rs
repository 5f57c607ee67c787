//! Aligned text tables and CSV output for experiment results.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// A simple column-aligned table with a title, printed to stdout by the
/// experiment binaries.
///
/// # Examples
///
/// ```
/// use nocout_experiments::table::Table;
///
/// let mut t = Table::new("Demo", &["Workload", "Speedup"]);
/// t.row(vec!["Web Search".into(), "1.07".into()]);
/// let s = t.render();
/// assert!(s.contains("Web Search"));
/// assert!(s.contains("Speedup"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header arity).
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header length.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table as aligned text.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for i in 0..cols {
                let _ = write!(s, "{:<width$}", cells[i], width = widths[i] + 2);
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let total: usize = widths.iter().map(|w| w + 2).sum();
        let _ = writeln!(out, "{}", "-".repeat(total.saturating_sub(2)));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// The table contents as CSV records (header first).
    pub fn csv_records(&self) -> Vec<Vec<String>> {
        let mut records = vec![self.header.clone()];
        records.extend(self.rows.iter().cloned());
        records
    }
}

/// The output-directory convention: every artifact an experiment binary
/// generates (CSV tables, captured traces, comparison files) lands under
/// `out/` at the invocation directory, which is gitignored. Creates the
/// directory on first use and returns `out/<name>`.
pub fn out_path(name: &str) -> std::path::PathBuf {
    let dir = Path::new("out");
    let _ = std::fs::create_dir_all(dir);
    dir.join(name)
}

/// Writes `records` to `out/<name>` per the output-directory convention
/// and reports the outcome: the success line names the path actually
/// written; a failure goes to stderr instead of pretending the artifact
/// exists.
pub fn report_csv(name: &str, records: &[Vec<String>]) {
    let path = out_path(name);
    match write_csv(&path, records) {
        Ok(()) => println!("(wrote {})", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Writes records as a CSV file. Escaping happens in exactly one place
/// for the whole workspace — [`nocout::campaign::csv_render`] (RFC 4180:
/// fields containing commas, quotes or line breaks are double-quoted,
/// embedded quotes doubled) — shared with `ResultFrame::to_csv`.
///
/// # Errors
///
/// Returns any I/O error from writing the file.
pub fn write_csv(path: &Path, records: &[Vec<String>]) -> io::Result<()> {
    std::fs::write(path, nocout::campaign::csv_render(records))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_alignment() {
        let mut t = Table::new("T", &["A", "Longer"]);
        t.row(vec!["xxxxxx".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[1].starts_with("A"));
        assert!(lines[1].contains("Longer"));
        assert!(lines[3].starts_with("xxxxxx"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new("T", &["A"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn csv_escaping() {
        let dir = std::env::temp_dir().join("nocout_csv_test.csv");
        write_csv(
            &dir,
            &[
                vec!["a,b".into(), "c\"d\"".into()],
                vec!["1".into(), "new\nline".into()],
            ],
        )
        .unwrap();
        let s = std::fs::read_to_string(&dir).unwrap();
        assert!(s.contains("\"a,b\""));
        assert!(s.contains("\"c\"\"d\"\"\""));
        assert!(s.contains("\"new\nline\""));
        let _ = std::fs::remove_file(dir);
    }
}
