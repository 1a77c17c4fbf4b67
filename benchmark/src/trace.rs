//! Benchmark-side tracing: one span per call into a layer's public
//! functions, kept in memory and written as JSON lines when the block ends.
//!
//! The spans are recorded from this crate, around the calls; nothing in
//! the program under test is instrumented. A traced run is separate from
//! the run that measures the end-to-end metrics, so the recording cost
//! never lands in a gated number.

use std::borrow::Cow;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in the trace.
    pub id: u32,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    /// Operation id shared by every span of one operation.
    pub op: u64,
    /// Layer-qualified name (`core.observe`), or `op:<scenario>` for the
    /// span around a whole operation.
    pub name: Cow<'static, str>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall-clock length.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder. Spans nest by call order: `enter` makes the
/// innermost open span the parent.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

impl Tracer {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Start the next operation: spans entered from here on carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: impl Into<Cow<'static, str>>) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            op: self.op,
            name: name.into(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    /// Close `id`, which must be the innermost open span; returns its
    /// duration in nanoseconds.
    pub fn exit(&mut self, id: u32) -> u64 {
        let now = self.epoch.elapsed().as_nanos() as u64;
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.duration_ns()
    }

    /// Time `f` as one span.
    pub fn span<R>(&mut self, name: impl Into<Cow<'static, str>>, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every closed span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Write the trace as JSON lines: one object per span with `id`,
    /// `parent`, `op`, `name`, `start_ns`, `end_ns` and `self_ns`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self_times_ns(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            // Names are layer identifiers and scenario ids: no escaping needed.
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.id, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children may nest further (their own
/// children are theirs to subtract) and may overlap each other when the
/// calls ran in parallel; overlapping cover is counted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: "t".into(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100] > a [10,40] > a1 [15,35]; root > b [50,90].
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 15, 35),
            span(3, Some(0), 50, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 10, 20, 40]);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        // Two parallel workers [10,60] and [30,80] cover [10,80] = 70; a
        // child fully inside another adds nothing; one sticking out past
        // the parent is clipped to it.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(0), 30, 80),
            span(3, Some(0), 40, 50),
            span(4, Some(0), 95, 120),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 70 - 5);
    }

    #[test]
    fn tracer_nests_by_call_order_and_shares_the_op_id() {
        let mut t = Tracer::new();
        let op = t.next_op();
        let root = t.enter("op:Q1");
        t.span("core.observe", || ());
        let inner = t.enter("backtest.mqo_replay");
        t.span("backtest.ks", || ());
        t.exit(inner);
        t.exit(root);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert!(s.iter().all(|x| x.op == op));
        assert_eq!(s[1].parent, Some(root));
        assert_eq!(s[3].parent, Some(inner));
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        assert_eq!(t.durations_ms("core.observe").len(), 1);
    }
}
