//! In-memory spans recorded around calls into each layer's public API.
//!
//! A span has a name, a start and an end, the session it belongs to and
//! the span that caused it. Spans stay in memory until the run ends and
//! are then written out as JSON lines.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Session the span belongs to.
    pub session: u64,
    /// Layer-qualified name, e.g. `sim.walk`.
    pub name: &'static str,
    /// Index of the causing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Open a span starting now; returns its index.
    pub fn open(&mut self, session: u64, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            session,
            name,
            parent,
            start_ns,
            end_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Close span `id` now; returns its duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        let end = self.ns(Instant::now());
        self.spans[id].end_ns = end;
        self.spans[id].duration_ns()
    }

    /// Record a span whose interval was measured elsewhere.
    pub fn record(
        &mut self,
        session: u64,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            session,
            name,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &mut self,
        session: u64,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let id = self.open(session, name, parent);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// All spans recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `id`: its duration minus the time its direct
    /// children cover. See [`self_time_ns`].
    #[must_use]
    pub fn self_time_ns(&self, id: usize) -> i64 {
        let children: Vec<&Span> = self.spans.iter().filter(|s| s.parent == Some(id)).collect();
        self_time_ns(&self.spans[id], &children)
    }

    /// The spans as JSON lines (one object per span).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"session\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.session, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A span's duration minus the total time covered by the union of its
/// children's intervals. Children nested inside the parent (a walk and
/// the per-breakpoint work it calls back into) subtract their overlap
/// once; children re-executed after the parent (the layer calls that
/// split a session span) subtract their full durations. The result is
/// negative when the re-executed parts take longer than the span.
#[must_use]
pub fn self_time_ns(parent: &Span, children: &[&Span]) -> i64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns, c.end_ns.max(c.start_ns)))
        .collect();
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in intervals {
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                covered += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    if let Some((s, e)) = current {
        covered += e - s;
    }
    parent.duration_ns() as i64 - covered as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            session: 0,
            name: "t",
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_subtract_their_union_once() {
        let parent = span(None, 0, 100);
        let a = span(Some(0), 10, 30);
        let b = span(Some(0), 20, 40); // overlaps a
        let c = span(Some(0), 60, 70);
        assert_eq!(self_time_ns(&parent, &[&a, &b, &c]), 100 - 30 - 10);
    }

    #[test]
    fn reexecuted_children_subtract_full_durations() {
        // A session span followed by its re-executed layer calls.
        let session = span(None, 0, 100);
        let compile = span(Some(0), 150, 160);
        let walk = span(Some(0), 160, 230);
        assert_eq!(self_time_ns(&session, &[&compile, &walk]), 100 - 10 - 70);
        // Re-executed parts that outlast the session make it negative.
        let slow = span(Some(0), 300, 450);
        assert_eq!(self_time_ns(&session, &[&slow]), -50);
    }

    #[test]
    fn no_children_means_all_self_time() {
        assert_eq!(self_time_ns(&span(None, 5, 25), &[]), 20);
    }

    #[test]
    fn tracer_links_children_to_parents() {
        let mut t = Tracer::new();
        let (_, root) = t.time(1, "core.session", None, || ());
        let (_, child) = t.time(1, "sim.walk", Some(root), || ());
        assert_eq!(t.spans()[child].parent, Some(root));
        assert!(t.spans()[root].end_ns >= t.spans()[root].start_ns);
        assert_eq!(t.self_time_ns(child), t.spans()[child].duration_ns() as i64);
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }
}
