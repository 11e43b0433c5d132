//! Spans recorded around the calls into each layer during a traced pass.
//!
//! Spans stay in memory and are written out once, at exit. A span's self time is
//! its duration minus the part of it that its child spans cover.

use crate::json::{object, Json};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// The query the span belongs to (empty for a pass span).
    pub query: String,
    pub pass: u32,
    /// The engine crate the time is charged to, or `bench` for the harness.
    pub layer: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects the spans of one thread. Clients of a concurrent workload each own a
/// recorder with the same origin and a disjoint id range.
pub struct Recorder {
    origin: Instant,
    first_id: u32,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant, first_id: u32) -> Self {
        Self {
            origin,
            first_id,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a finished interval, `(start_ns, end_ns)`.
    pub fn add(
        &mut self,
        parent: Option<u32>,
        query: &str,
        pass: u32,
        layer: &'static str,
        name: &str,
        (start_ns, end_ns): (u64, u64),
    ) -> u32 {
        let id = self.first_id + self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            query: query.to_string(),
            pass,
            layer,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        id
    }

    /// Start a span now; [`Recorder::close`] ends it.
    pub fn open(
        &mut self,
        parent: Option<u32>,
        query: &str,
        pass: u32,
        layer: &'static str,
        name: &str,
    ) -> u32 {
        let now = self.now_ns();
        self.add(parent, query, pass, layer, name, (now, now))
    }

    pub fn close(&mut self, id: u32) {
        let now = self.now_ns();
        self.spans[(id - self.first_id) as usize].end_ns = now;
    }

    /// Start a span as a child of `parent`, inheriting its query and pass.
    pub fn open_child(&mut self, parent: u32, layer: &'static str, name: &str) -> u32 {
        let now = self.now_ns();
        self.add_child(parent, layer, name, (now, now))
    }

    /// Record a finished interval as a child of `parent`.
    pub fn add_child(
        &mut self,
        parent: u32,
        layer: &'static str,
        name: &str,
        interval: (u64, u64),
    ) -> u32 {
        let (query, pass) = {
            let span = &self.spans[(parent - self.first_id) as usize];
            (span.query.clone(), span.pass)
        };
        self.add(Some(parent), &query, pass, layer, name, interval)
    }

    /// Time one call as a child of `parent`.
    pub fn child<T>(
        &mut self,
        parent: u32,
        layer: &'static str,
        name: &str,
        call: impl FnOnce() -> T,
    ) -> T {
        let id = self.open_child(parent, layer, name);
        let result = call();
        self.close(id);
        result
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, in the order given.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let mut covered = 0;
            let mut frontier = span.start_ns;
            let mut intervals = children.remove(&span.id).unwrap_or_default();
            intervals.sort_unstable();
            for (start, end) in intervals {
                let start = start.max(frontier);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    frontier = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Self time and span count per layer.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, usize)> {
    let mut totals: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let entry = totals.entry(span.layer).or_default();
        entry.0 += self_ns;
        entry.1 += 1;
    }
    totals
}

/// Write one JSON object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        let line = object([
            ("id", u64::from(span.id).into()),
            (
                "parent",
                span.parent.map_or(Json::Null, |p| u64::from(p).into()),
            ),
            ("query", span.query.as_str().into()),
            ("pass", u64::from(span.pass).into()),
            ("layer", span.layer.into()),
            ("name", span.name.as_str().into()),
            ("start_ns", span.start_ns.into()),
            ("end_ns", span.end_ns.into()),
        ]);
        writeln!(out, "{}", line.render())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            query: "q".into(),
            pass: 0,
            layer,
            name: "n".into(),
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = [
            span(0, None, "bench", 0, 100),
            // Two siblings under the root, the second with a nested child.
            span(1, Some(0), "sql", 10, 20),
            span(2, Some(0), "executor", 30, 90),
            span(3, Some(2), "catalog", 40, 60),
        ];
        assert_eq!(self_times(&spans), vec![30, 10, 40, 20]);
        let totals = layer_totals(&spans);
        assert_eq!(totals["bench"], (30, 1));
        assert_eq!(totals["executor"], (40, 1));
        // Self times always add up to the root's duration.
        assert_eq!(totals.values().map(|t| t.0).sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_counted_twice() {
        let spans = [
            span(0, None, "bench", 0, 100),
            span(1, Some(0), "executor", 10, 60),
            span(2, Some(0), "executor", 40, 80),
            // Synthesized from a reported duration that overshoots the parent.
            span(3, Some(0), "core", 90, 130),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn recorder_nests_spans_and_writes_parseable_lines() {
        let mut recorder = Recorder::new(Instant::now(), 100);
        let pass = recorder.open(None, "", 3, "bench", "pass");
        let query = recorder.open(Some(pass), "2d", 3, "bench", "query");
        let answer = recorder.child(query, "sql", "parse", || 42);
        recorder.close(query);
        recorder.close(pass);
        assert_eq!(answer, 42);
        let spans = recorder.into_spans();
        assert_eq!(spans[2].parent, Some(101));
        assert_eq!((spans[2].query.as_str(), spans[2].pass), ("2d", 3));
        assert!(spans[0].start_ns <= spans[2].start_ns && spans[2].end_ns <= spans[0].end_ns);

        // Inside the package's git-ignored output directory, like every other write.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        write_jsonl(&path, &spans).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(lines[2].get("layer").and_then(Json::as_str), Some("sql"));
    }
}
