//! In-memory span recorder for the traced run.
//!
//! The ledger records spans from its own files, around the calls into
//! each library layer. Two kinds exist:
//!
//! * a **call** span wraps a real call of the traced pipeline and nests
//!   in wall time inside its parent (pass → ingest / assess / install);
//! * a **replay** span times one layer's public function re-run on the
//!   parent call's own inputs, *after* the parent returned. It names
//!   the parent it decomposes but does not overlap it in wall time, so
//!   it never inflates the parent.
//!
//! A span's self time is its duration minus what its children explain:
//! the union of its call children's intervals (clipped to the parent,
//! so overlapping children are not subtracted twice) plus the full
//! duration of each replay child.

use std::time::{Duration, Instant};

use crate::json::Json;

/// Index of a span inside its [`Tracer`].
pub type SpanId = u32;

/// Parent of a root span.
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Call,
    Replay,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Operation index the span belongs to (batch, block or home).
    pub op: u32,
    /// Work done inside the span, counted at the same boundary: frames,
    /// rows, packets or sessions.
    pub items: u32,
    pub kind: Kind,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span buffer, pre-allocated so recording never allocates inside a
/// traced pass (a full buffer is a sizing bug and panics).
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Currently open call spans, innermost last.
    open: Vec<SpanId>,
}

impl Tracer {
    pub fn with_capacity(spans: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(spans),
            open: Vec::with_capacity(8),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, span: Span) -> SpanId {
        assert!(
            self.spans.len() < self.spans.capacity(),
            "trace buffer full ({} spans): size it for the workload",
            self.spans.capacity()
        );
        self.spans.push(span);
        (self.spans.len() - 1) as SpanId
    }

    /// Opens a call span under the innermost open call span.
    pub fn begin(&mut self, name: &'static str, op: u32, items: usize) -> SpanId {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let now = self.now_ns();
        let id = self.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op,
            items: items as u32,
            kind: Kind::Call,
        });
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = now;
    }

    /// Corrects a span's item count when only the call reveals it.
    pub fn set_items(&mut self, id: SpanId, items: usize) {
        self.spans[id as usize].items = items as u32;
    }

    /// Times `work` as a replay child of the (already closed) span
    /// `of`, returning `work`'s result.
    pub fn replay<T>(
        &mut self,
        name: &'static str,
        of: SpanId,
        items: usize,
        work: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.now_ns();
        let result = work();
        let end_ns = self.now_ns();
        self.push(Span {
            name,
            start_ns,
            end_ns,
            parent: of,
            op: self.spans[of as usize].op,
            items: items as u32,
            kind: Kind::Replay,
        });
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Forgets every span but keeps the buffer, for the next pass.
    pub fn clear(&mut self) {
        assert!(self.open.is_empty(), "cleared with a span still open");
        self.spans.clear();
    }

    /// Summed duration of every replay span.
    pub fn replay_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.kind == Kind::Replay)
            .map(Span::duration_ns)
            .sum()
    }

    /// Wall time of a traced pass begun at `start`, without its replays.
    pub fn wall_since(&self, start: Instant) -> Duration {
        start
            .elapsed()
            .saturating_sub(Duration::from_nanos(self.replay_ns()))
    }
}

/// Summed duration of the root spans: the part of a traced pass the
/// layer boundaries account for.
pub fn root_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent == NO_PARENT)
        .map(Span::duration_ns)
        .sum()
}

/// Keeps in `quiet[i]` the fastest repetition of span `i` seen so far
/// (see `clock::Laps` for why). Every traced pass records the same
/// spans in the same order, so positions line up; timestamps are those
/// of the repetition that holds the record.
pub fn keep_fastest(quiet: &mut Vec<Span>, pass: &[Span]) {
    if quiet.is_empty() {
        quiet.extend_from_slice(pass);
        return;
    }
    assert_eq!(
        quiet.len(),
        pass.len(),
        "traced passes record the same spans"
    );
    for (best, span) in quiet.iter_mut().zip(pass) {
        assert_eq!((best.name, best.parent), (span.name, span.parent));
        if span.duration_ns() < best.duration_ns() {
            *best = *span;
        }
    }
}

/// A trace as a JSON array of `{name, start_ns, end_ns, parent, op,
/// items, kind}` objects (`parent` is `null` for roots).
pub fn to_json(spans: &[Span]) -> Json {
    let span = |s: &Span| {
        Json::obj([
            ("name", Json::Str(s.name.into())),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
            (
                "parent",
                if s.parent == NO_PARENT {
                    Json::Null
                } else {
                    Json::Num(f64::from(s.parent))
                },
            ),
            ("op", Json::Num(f64::from(s.op))),
            ("items", Json::Num(f64::from(s.items))),
            (
                "kind",
                Json::Str(
                    match s.kind {
                        Kind::Call => "call",
                        Kind::Replay => "replay",
                    }
                    .into(),
                ),
            ),
        ])
    };
    Json::Arr(spans.iter().map(span).collect())
}

/// Self time of `spans[id]`: duration minus the union of its call
/// children's intervals (clipped to the span) minus the duration of
/// each replay child. Saturates at zero when replays out-cost the span.
pub fn self_time_ns(spans: &[Span], id: SpanId) -> u64 {
    let span = spans[id as usize];
    let mut covered: Vec<(u64, u64)> = Vec::new();
    let mut replayed = 0u64;
    for child in spans.iter().filter(|s| s.parent == id) {
        match child.kind {
            Kind::Replay => replayed += child.duration_ns(),
            Kind::Call => {
                let start = child.start_ns.max(span.start_ns);
                let end = child.end_ns.min(span.end_ns);
                if start < end {
                    covered.push((start, end));
                }
            }
        }
    }
    covered.sort_unstable();
    let mut union = 0u64;
    let mut reach = span.start_ns;
    for (start, end) in covered {
        let start = start.max(reach);
        if end > start {
            union += end - start;
            reach = end;
        }
    }
    span.duration_ns().saturating_sub(union + replayed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: SpanId, kind: Kind) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
            items: 1,
            kind,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_each() {
        let spans = [
            span("pass", 0, 100, NO_PARENT, Kind::Call),
            span("ingest", 10, 40, 0, Kind::Call),
            span("assess", 50, 80, 0, Kind::Call),
            // A grandchild belongs to `ingest`, not to `pass`.
            span("scan", 12, 20, 1, Kind::Call),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 30 - 30);
        assert_eq!(self_time_ns(&spans, 1), 30 - 8);
        assert_eq!(self_time_ns(&spans, 3), 8);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        let spans = [
            span("pass", 0, 100, NO_PARENT, Kind::Call),
            span("a", 10, 60, 0, Kind::Call),
            span("b", 40, 90, 0, Kind::Call),
            // Fully inside `a`: adds nothing to the union.
            span("c", 20, 30, 0, Kind::Call),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 80);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span("pass", 50, 100, NO_PARENT, Kind::Call),
            span("early", 0, 60, 0, Kind::Call),
            span("late", 90, 200, 0, Kind::Call),
            span("outside", 300, 400, 0, Kind::Call),
        ];
        assert_eq!(self_time_ns(&spans, 0), 50 - 10 - 10);
    }

    #[test]
    fn replay_children_subtract_their_whole_duration() {
        let spans = [
            span("ingest", 0, 100, NO_PARENT, Kind::Call),
            // Replays run after the parent returned.
            span("scan", 200, 230, 0, Kind::Replay),
            span("extract", 230, 250, 0, Kind::Replay),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 30 - 20);
        let over = [
            span("ingest", 0, 10, NO_PARENT, Kind::Call),
            span("scan", 20, 50, 0, Kind::Replay),
        ];
        assert_eq!(self_time_ns(&over, 0), 0, "saturates, never wraps");
    }

    #[test]
    fn the_quiet_trace_keeps_each_span_at_its_fastest() {
        let mut quiet = Vec::new();
        let first = [
            span("ingest", 0, 100, NO_PARENT, Kind::Call),
            span("scan", 100, 160, 0, Kind::Replay),
        ];
        let second = [
            span("ingest", 1000, 1080, NO_PARENT, Kind::Call),
            span("scan", 1080, 1170, 0, Kind::Replay),
        ];
        keep_fastest(&mut quiet, &first);
        keep_fastest(&mut quiet, &second);
        assert_eq!(quiet[0], second[0], "second pass ingested faster");
        assert_eq!(quiet[1], first[1], "first pass scanned faster");
        assert_eq!(self_time_ns(&quiet, 0), 80 - 60);
    }

    #[test]
    fn tracer_nests_calls_and_attaches_replays() {
        let mut tracer = Tracer::with_capacity(8);
        let pass = tracer.begin("pass", 0, 1);
        let ingest = tracer.begin("ingest", 3, 1024);
        tracer.end(ingest);
        let answer = tracer.replay("scan", ingest, 1000, || 42);
        tracer.end(pass);
        assert_eq!(answer, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[ingest as usize].parent, pass);
        assert_eq!(spans[2].parent, ingest);
        assert_eq!(spans[2].kind, Kind::Replay);
        assert_eq!((spans[2].op, spans[2].items), (3, 1000), "op is inherited");
        assert_eq!(spans[pass as usize].parent, NO_PARENT);
        assert!(spans[pass as usize].end_ns >= spans[ingest as usize].end_ns);
        assert_eq!(root_ns(spans), spans[pass as usize].duration_ns());
        assert_eq!(tracer.replay_ns(), spans[2].duration_ns());
        tracer.clear();
        assert!(tracer.spans().is_empty());
    }
}
