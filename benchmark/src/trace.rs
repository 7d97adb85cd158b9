//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! layers' public functions; nothing inside the program under test is
//! instrumented. Each span has a name, a start and an end (nanoseconds
//! since the run's origin), an optional parent (an index into the same
//! recorder) and the id of the batch or request it belongs to. The spans
//! stay in memory and are written as JSON when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `planner.plan`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Batch or request id the span belongs to.
    pub id: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder. Recorders on different threads share one origin and
/// are merged with [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder measuring from `origin`.
    pub fn new(origin: Instant) -> Self {
        Self { origin, spans: Vec::new() }
    }

    /// An empty recorder with this one's origin, for another thread.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.origin)
    }

    /// Nanoseconds from the origin to `at`.
    pub fn offset(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span that ran from `start` to `end`; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        id: u64,
    ) -> usize {
        let span =
            Span { name, start_ns: self.offset(start), end_ns: self.offset(end), parent, id };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, id)
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&mut self, index: usize) {
        self.spans[index].end_ns = self.offset(Instant::now());
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, id);
        out
    }

    /// Moves every span of `other` (same origin) into this recorder,
    /// re-basing its parent indexes.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (in milliseconds) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e6).collect()
    }

    /// Total duration (in milliseconds) of every span called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// The spans as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns,
                s.id
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Per-name totals over a span set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed self times: each span's duration minus the part of it that
    /// its children cover.
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the length of the union of
/// its children's intervals, clipped to the span. Overlapping children
/// (spans recorded on several threads under one parent) are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Count, total and self time per span name.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, id: 0 }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 80, 90, Some(0)),
        ];
        // Children cover [10, 60) and [80, 90): 60 of the root's 100 ns.
        assert_eq!(self_times(&spans), vec![40, 30, 30, 10]);
    }

    #[test]
    fn self_time_clips_children_to_the_parent_and_ignores_grandchildren() {
        let spans = vec![
            span("root", 100, 200, None),
            span("early", 50, 120, Some(0)),
            span("late", 190, 250, Some(0)),
            span("nested", 60, 110, Some(1)),
        ];
        assert_eq!(self_times(&spans)[0], 70, "only [100,120) and [190,200) are covered");
        assert_eq!(self_times(&spans)[1], 20, "early minus its own child");
    }

    #[test]
    fn contained_children_do_not_double_count() {
        let spans = vec![
            span("root", 0, 100, None),
            span("outer", 10, 90, Some(0)),
            span("inner", 20, 30, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn layer_times_aggregate_by_name_and_absorb_rebases_parents() {
        let origin = Instant::now();
        let mut main = Tracer::new(origin);
        let root = main.open("root", None, 1);
        main.close(root);
        let mut worker = Tracer::new(origin);
        let parent = worker.open("batch", None, 2);
        worker.time("leaf", Some(parent), 2, || ());
        worker.close(parent);
        main.absorb(worker);
        assert_eq!(main.spans()[2].parent, Some(1));
        let layers = layer_times(main.spans());
        assert_eq!(layers["leaf"].count, 1);
        assert_eq!(layers["batch"].count, 1);
        assert!(layers["batch"].self_ns <= layers["batch"].total_ns);
        assert!(main.to_json("w", 3).contains("\"parent\":1"));
    }
}
