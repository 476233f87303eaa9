//! The paper's claims as data, and the helpers of the Criterion benches.
//!
//! [`CLAIMS`] holds one [`Claim`] per reproduced artefact of the paper
//! (E1–E13, Tables 1 and 2, Figure 1): its id, the name of its JSON
//! artefact, the paper reference, what it shows, and a `run` that
//! regenerates the artefact at a [`Scale`] and checks it against the
//! paper's sentence. The `exp` binary runs one claim
//! (`exp <ID> [--smoke] [--json <path>]`); `tests/claims.rs` runs them all
//! at [`Scale::Smoke`] and fails with every violated check.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::path::{Path, PathBuf};

use serde::Serialize;

// Declare a result row once: every field is a JSON field (unless marked
// `#[serde(skip)]`), and a field with `= "header"` is also a table column,
// rendered with `to_string()` or with the `=> |row| …` cell function that
// follows the header.
macro_rules! row {
    (
        struct $name:ident {
            $( $(#$attr:tt)* $field:ident : $ty:ty $( = $header:literal $( => $cell:expr )? )? ),*
            $(,)?
        }
    ) => {
        #[derive(::serde::Serialize)]
        struct $name { $( $(#$attr)* $field: $ty, )* }

        impl $crate::Columns for $name {
            fn header() -> Vec<&'static str> {
                vec![$($($header,)?)*]
            }
            fn cells(&self) -> Vec<String> {
                vec![$($( row!(@cell self, $field $(, $cell)?), )?)*]
            }
        }
    };
    (@cell $row:ident, $field:ident) => { $row.$field.to_string() };
    (@cell $row:ident, $field:ident, $cell:expr) => {{
        let cell: fn(&Self) -> String = $cell;
        cell($row)
    }};
}

mod claims;

pub use claims::CLAIMS;

/// A rendered table: header + rows of equal width.
#[derive(Debug)]
pub(crate) struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Create a table with the given column headers.
    pub(crate) fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        TextTable { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// The table of `rows`, one line per row, columns as `R` declares them.
    pub(crate) fn of<'a, R: Columns + 'a>(rows: impl IntoIterator<Item = &'a R>) -> Self {
        let mut table = TextTable::new(R::header());
        for row in rows {
            table.row(row.cells());
        }
        table
    }

    /// Append a row (must have the same number of cells as the header).
    pub(crate) fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width must match header width");
        self.rows.push(cells);
    }

    /// Render as a GitHub-flavoured markdown table.
    pub(crate) fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let render = |cells: &[String]| {
            let padded: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        let mut out = String::new();
        out.push_str(&render(&self.header));
        out.push('\n');
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&render(&sep));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render(row));
            out.push('\n');
        }
        out
    }
}

/// A row type whose fields are table columns, declared by the crate's
/// `row!` macro (or by hand for a row type of another crate).
pub(crate) trait Columns {
    /// The column headers, in order.
    fn header() -> Vec<&'static str>;
    /// The rendered cells of this row, one per header.
    fn cells(&self) -> Vec<String>;
}

/// How much of a claim's grid to run.
#[derive(Debug, Clone, Copy)]
pub enum Scale {
    /// Small inputs, seconds in a debug build: what `tests/claims.rs` runs.
    Smoke,
    /// The full grid of the artefact.
    Full,
}

impl Scale {
    /// `full` at [`Scale::Full`], `smoke` at [`Scale::Smoke`].
    pub(crate) fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

/// One claim of the paper: what it reproduces, and how to run and check it.
#[derive(Debug)]
pub struct Claim {
    /// `E1`–`E13`, `T1`, `T2` or `F1`.
    pub id: &'static str,
    /// The name of its JSON artefact (`<artefact>.json`).
    pub artefact: &'static str,
    /// The paper reference.
    pub paper: &'static str,
    /// What it shows, as README's experiments table prints it.
    pub shows: &'static str,
    /// Regenerate the artefact and check it.
    pub run: fn(Scale) -> Outcome,
}

/// What running a claim produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The printed report: captions, tables and notes.
    pub report: String,
    /// The rows as a pretty-printed JSON artefact.
    pub json: String,
    /// Printed after the JSON notice when every check holds.
    pub passed: String,
    /// One message per violated check; empty when the claim holds.
    pub failures: Vec<String>,
}

impl Outcome {
    /// The outcome of a one-table claim: `rows` as a captioned table and
    /// as the JSON artefact, then `note`.
    pub(crate) fn new<R: Columns + Serialize>(
        caption: &str,
        rows: &[R],
        note: &str,
        failures: Vec<String>,
    ) -> Self {
        let mut out = Outcome { failures, ..Outcome::default() };
        out.table(caption, &TextTable::of(rows));
        out.note(note);
        out.rows(rows);
        out
    }

    /// Append a captioned table to the report.
    pub(crate) fn table(&mut self, caption: &str, table: &TextTable) {
        self.report.push_str(&format!("\n## {caption}\n\n{}", table.to_markdown()));
    }

    /// Append a paragraph to the report.
    pub(crate) fn note(&mut self, note: &str) {
        self.report.push_str(&format!("\n{note}\n"));
    }

    /// Set the JSON artefact to `rows`.
    pub(crate) fn rows<T: Serialize + ?Sized>(&mut self, rows: &T) {
        self.json = serde_json::to_string_pretty(rows).expect("rows serialise");
    }

    /// Record `failure` unless `ok` holds.
    pub(crate) fn check(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(failure());
        }
    }
}

/// Where a bench or claim writes its JSON artefact when
/// `MPC_BENCH_JSON=<dir>` is set: `<dir>/<artefact>.json`.
pub fn json_output_path(artefact: &str) -> Option<PathBuf> {
    std::env::var("MPC_BENCH_JSON")
        .ok()
        .map(|dir| PathBuf::from(dir).join(format!("{artefact}.json")))
}

/// Write `json` to `path` and say so on stdout.
///
/// The write is atomic: the text goes to a `.tmp` sibling first and is
/// moved into place with a rename, so a reader (the bench gate, a
/// concurrent experiment) never observes a truncated artefact, and a crash
/// mid-write leaves any previous artefact intact.
pub fn write_json(path: &Path, json: &str) {
    if let Some(parent) = path.parent() {
        let _ = fs::create_dir_all(parent);
    }
    let tmp = path.with_extension("json.tmp");
    match fs::write(&tmp, json).and_then(|()| fs::rename(&tmp, path)) {
        Ok(()) => println!("\n(wrote JSON rows to {})", path.display()),
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

/// Serialise bench rows to `MPC_BENCH_JSON/<artefact>.json`, if set.
pub fn maybe_write_json<T: Serialize>(artefact: &str, rows: &T) {
    if let Some(path) = json_output_path(artefact) {
        write_json(&path, &serde_json::to_string_pretty(rows).expect("rows serialise"));
    }
}

/// One machine-readable measurement of a `BENCH_*.json` artefact — the
/// row shape `tools/bench_gate.rs` parses.
#[derive(Debug, Serialize)]
pub struct BenchRow {
    /// `<group>/<case>`.
    pub name: String,
    /// Mean wall-clock nanoseconds per iteration.
    pub mean_ns: u128,
    /// Timed iterations behind the mean.
    pub iterations: u32,
}

impl BenchRow {
    /// Time `f`: one warm-up call, then the mean over `iterations` more.
    pub fn measure<F: FnMut()>(name: impl Into<String>, iterations: u32, mut f: F) -> Self {
        f();
        let start = std::time::Instant::now();
        for _ in 0..iterations {
            f();
        }
        let mean_ns = start.elapsed().as_nanos() / u128::from(iterations.max(1));
        BenchRow { name: name.into(), mean_ns, iterations }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_rendering() {
        let mut t = TextTable::new(["query", "τ*"]);
        t.row(["C3", "3/2"]);
        t.row(["L5", "3"]);
        let md = t.to_markdown();
        assert!(md.contains("| query | τ*"));
        assert!(md.lines().count() == 4);
        assert!(md.contains("| C3 "));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut t = TextTable::new(["a", "b"]);
        t.row(["only one"]);
    }

    row! {
        struct Probe {
            name: String = "name",
            ratio: f64 = "ratio" => |r| format!("{:.2}", r.ratio),
            hidden: bool,
        }
    }

    #[test]
    fn a_row_declares_its_json_fields_and_its_columns_once() {
        let row = Probe { name: "C3".to_string(), ratio: 1.0 / 3.0, hidden: true };
        assert_eq!(Probe::header(), ["name", "ratio"]);
        assert_eq!(row.cells(), ["C3", "0.33"]);
        let json = serde_json::to_string(&row).unwrap();
        assert!(json.contains("\"hidden\":true") && json.contains("\"ratio\":0.333"), "{json}");
        assert!(TextTable::of([&row]).to_markdown().contains("| C3   | 0.33  |"));
    }

    #[test]
    fn json_artefact_write_is_atomic() {
        let dir = std::env::temp_dir().join(format!("mpc-bench-json-{}", std::process::id()));
        std::env::set_var("MPC_BENCH_JSON", &dir);
        maybe_write_json("BENCH_atomic_test", &vec![1u64, 2, 3]);
        let path = dir.join("BENCH_atomic_test.json");
        let content = fs::read_to_string(&path).expect("artefact must exist");
        assert!(content.contains('2'));
        // No temp-file droppings: the rename consumed the staging file.
        assert!(!dir.join("BENCH_atomic_test.json.tmp").exists());
        std::env::remove_var("MPC_BENCH_JSON");
        let _ = fs::remove_dir_all(&dir);
    }
}
