//! Shared helpers for the table/figure regeneration binaries and the
//! Criterion benches.
//!
//! Every binary in `src/bin/` regenerates one artefact of the paper (see
//! the per-experiment index in `DESIGN.md`): it prints a human-readable
//! table to stdout and, when `--json <path>` is passed (or the
//! `MPC_BENCH_JSON` environment variable is set), also writes the rows as
//! JSON so the numbers in `EXPERIMENTS.md` are reproducible artifacts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::path::PathBuf;

use serde::Serialize;

/// A rendered table: header + rows of equal width.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Create a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        TextTable { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Append a row (must have the same number of cells as the header).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width must match header width");
        self.rows.push(cells);
    }

    /// Render as a GitHub-flavoured markdown table.
    pub fn to_markdown(&self) -> String {
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

    /// Print the table to stdout with a caption.
    pub fn print(&self, caption: &str) {
        println!("\n## {caption}\n");
        print!("{}", self.to_markdown());
    }
}

/// Where to write the JSON artefact of an experiment, if requested via
/// `--json <path>` or `MPC_BENCH_JSON=<dir>`.
pub fn json_output_path(experiment: &str) -> Option<PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    if let Some(pos) = args.iter().position(|a| a == "--json") {
        if let Some(path) = args.get(pos + 1) {
            return Some(PathBuf::from(path));
        }
    }
    if let Ok(dir) = std::env::var("MPC_BENCH_JSON") {
        return Some(PathBuf::from(dir).join(format!("{experiment}.json")));
    }
    None
}

/// Serialise the experiment rows to the requested JSON path (if any).
///
/// The write is atomic: rows go to a `.tmp` sibling first and are moved
/// into place with a rename, so a reader (the bench gate, a concurrent
/// experiment) never observes a truncated artefact, and a crash mid-write
/// leaves any previous artefact intact.
pub fn maybe_write_json<T: Serialize>(experiment: &str, rows: &T) {
    if let Some(path) = json_output_path(experiment) {
        if let Some(parent) = path.parent() {
            let _ = fs::create_dir_all(parent);
        }
        let json = match serde_json::to_string_pretty(rows) {
            Ok(json) => json,
            Err(e) => {
                eprintln!("warning: could not serialise rows: {e}");
                return;
            }
        };
        let tmp = path.with_extension("json.tmp");
        let result = fs::write(&tmp, json).and_then(|()| fs::rename(&tmp, &path));
        match result {
            Ok(()) => println!("\n(wrote JSON rows to {})", path.display()),
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
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

/// Parse `--<name> <usize>` (default `default`): used by the sweep flags
/// of the table/figure binaries (e.g. `--k 24`).
pub fn arg_usize(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    if let Some(pos) = args.iter().position(|a| a == name) {
        if let Some(v) = args.get(pos + 1).and_then(|s| s.parse::<usize>().ok()) {
            return v;
        }
    }
    default
}

/// Parse `--<name> <f64>` (default `default`), accepting only values for
/// which `accept` holds (e.g. positivity): the float twin of
/// [`arg_usize`], shared by `--scale`, `--slack` and future flags.
pub fn arg_f64(name: &str, default: f64, accept: fn(f64) -> bool) -> f64 {
    let args: Vec<String> = std::env::args().collect();
    if let Some(pos) = args.iter().position(|a| a == name) {
        if let Some(v) = args.get(pos + 1).and_then(|s| s.parse::<f64>().ok()) {
            if accept(v) {
                return v;
            }
        }
    }
    default
}

/// Cross-check every LP solver path on `q`: the dense tableau oracle, the
/// sparse revised simplex, and (when the family is recognised) the
/// closed form must agree **exactly** — rational equality of `τ*` and of
/// the edge-cover optimum, plus feasibility of every returned solution.
///
/// Returns a description of the first disagreement; the experiment
/// binaries treat any `Err` as fatal (CI smoke runs fail on it).
pub fn verify_lp_solver_agreement(q: &mpc_cq::Query) -> Result<(), String> {
    use mpc_lp::QueryLps;
    let dense = QueryLps::solve_dense(q).map_err(|e| format!("dense oracle failed: {e}"))?;
    let sparse = QueryLps::solve_sparse(q).map_err(|e| format!("sparse solver failed: {e}"))?;
    if dense.covering_number() != sparse.covering_number() {
        return Err(format!(
            "τ* disagreement on {}: dense {} vs sparse {}",
            q.name(),
            dense.covering_number(),
            sparse.covering_number()
        ));
    }
    if dense.edge_cover().total() != sparse.edge_cover().total() {
        return Err(format!(
            "edge-cover disagreement on {}: dense {} vs sparse {}",
            q.name(),
            dense.edge_cover().total(),
            sparse.edge_cover().total()
        ));
    }
    for (label, lps) in [("dense", &dense), ("sparse", &sparse)] {
        if !lps.vertex_cover().is_valid_for(q)
            || !lps.edge_packing().is_valid_for(q)
            || !lps.edge_cover().is_valid_for(q)
            || lps.vertex_cover().total() != lps.edge_packing().total()
        {
            return Err(format!("{label} solution of {} fails validation", q.name()));
        }
    }
    if let Some((family, closed)) = mpc_lp::families::closed_form(q) {
        if closed.covering_number() != dense.covering_number()
            || closed.edge_cover().total() != dense.edge_cover().total()
        {
            return Err(format!(
                "closed form {family} disagrees on {}: τ* {} vs {}",
                q.name(),
                closed.covering_number(),
                dense.covering_number()
            ));
        }
    }
    Ok(())
}

/// Compress long weight vectors for text tables (uniform vectors collapse
/// to `(w ×n)`, very long ones are truncated); JSON artefacts keep the
/// full vectors.
pub fn fmt_weights(weights: &[String]) -> String {
    if weights.len() > 8 && weights.iter().all(|w| w == &weights[0]) {
        return format!("({} ×{})", weights[0], weights.len());
    }
    if weights.len() > 16 {
        return format!("({}, … {} total)", weights[..6].join(", "), weights.len());
    }
    format!("({})", weights.join(", "))
}

/// Parse `--scale <f64>` (default 1.0): all experiment binaries accept it
/// to shrink or grow the workload sizes.
pub fn scale_factor() -> f64 {
    arg_f64("--scale", 1.0, |v| v > 0.0)
}

/// Scale an integer workload parameter by the `--scale` factor, with a
/// minimum of `min`.
pub fn scaled(base: u64, min: u64) -> u64 {
    ((base as f64 * scale_factor()).round() as u64).max(min)
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

    #[test]
    fn scaled_respects_minimum() {
        assert!(scaled(100, 10) >= 10);
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
