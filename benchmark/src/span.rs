//! In-memory spans recorded around the calls into each layer.
//!
//! A span is `(name, start, end, parent, query)`. Spans of one traced query
//! share its id; they are kept in memory and written out as JSON lines when
//! the run ends. A span's *self time* is its duration minus the part of
//! that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.stage`, e.g. `sim.route`; the root of a query is `query`.
    pub name: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The traced query this span belongs to.
    pub query: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans on one thread; nesting follows the call structure.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    query: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            query: 0,
        }
    }

    /// A tracer that records nothing: the untraced runs go through the same
    /// code with this one.
    pub fn disabled() -> Self {
        Tracer { enabled: false, ..Tracer::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            query: self.query,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Run one traced query: a root span named `query` under a fresh id.
    pub fn query<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let out = self.scope("query", f);
        self.query += 1;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"query\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.query, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span, in nanoseconds: its duration minus the union of
/// its children's intervals (clipped to the span, so overlapping or
/// overhanging children are never counted twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (s.start_ns.max(spans[p].start_ns), s.end_ns.min(spans[p].end_ns));
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per traced query, the summed self time in milliseconds of each span
/// name: `result[name][query]`. Queries in which a name never ran hold 0.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let queries = spans.iter().map(|s| s.query as usize + 1).max().unwrap_or(0);
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        by_name.entry(s.name).or_insert_with(|| vec![0.0; queries])[s.query as usize] +=
            self_ns as f64 / 1e6;
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, parent, query: 0, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span("query", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 50, 90),
            span("a.inner", Some(1), 15, 25),
        ];
        // root: 100 − (30 + 40); a: 30 − 10; b and a.inner are leaves.
        assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = vec![
            span("query", None, 10, 110),
            span("a", Some(0), 20, 60),
            span("b", Some(0), 40, 80),
            span("c", Some(0), 100, 150),
        ];
        // Covered: [20, 80) and [100, 110) of the parent's [10, 110).
        assert_eq!(self_times_ns(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn tracer_nests_scopes_and_numbers_queries() {
        let mut t = Tracer::new();
        for _ in 0..2 {
            t.query(|t| {
                t.scope("sim.route", |t| t.scope("sim.route", |_| ()));
                t.scope("sim.union", |_| ());
            });
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 8);
        assert_eq!((spans[0].name, spans[0].parent, spans[0].query), ("query", None, 0));
        assert_eq!((spans[2].parent, spans[3].parent), (Some(1), Some(0)));
        assert_eq!((spans[4].parent, spans[4].query, spans[5].parent), (None, 1, Some(4)));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let by_name = self_ms_by_name(spans);
        assert_eq!(by_name["sim.route"].len(), 2);
        assert_eq!(by_name.len(), 3);
    }

    #[test]
    fn a_disabled_tracer_runs_the_closures_and_records_nothing() {
        let mut t = Tracer::disabled();
        let out = t.query(|t| t.scope("sim.route", |_| 7));
        assert_eq!(out, 7);
        assert!(t.spans().is_empty());
    }
}
