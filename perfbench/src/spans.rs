//! Outside-in span recording around the public calls into each layer.
//!
//! Every timed call goes through [`Tracer::span`], which always returns
//! the call's host time. With tracing on it also records a [`Span`]:
//! name, start, end, the enclosing span and the matrix cell it served.
//! Spans stay in memory until the run ends; [`Tracer::write_jsonl`]
//! writes them out and [`Tracer::self_times`] folds them into per-layer
//! self time (a span's duration minus the time its children cover).

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::{Duration, Instant};

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// The layer call, e.g. `sim.run` or `mem.replay`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The matrix cell the call served, if any.
    pub cell: Option<u32>,
}

/// Aggregated time of every span with one name.
#[derive(Clone, Debug, PartialEq)]
pub struct SelfTime {
    /// The span name.
    pub name: &'static str,
    /// Spans recorded under it.
    pub count: u64,
    /// Summed duration, milliseconds.
    pub total_ms: f64,
    /// Summed duration minus child-covered time, milliseconds.
    pub self_ms: f64,
}

/// The span recorder. Disabled, it only times calls.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer { origin: Instant::now(), enabled, spans: Vec::new(), open: Vec::new() }
    }

    /// Runs `f` and returns its result with its host time, recording a
    /// span named `name` for `cell` when enabled. Spans opened inside `f`
    /// become its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        cell: Option<u32>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, Duration) {
        if !self.enabled {
            let start = Instant::now();
            let r = f(self);
            return (r, start.elapsed());
        }
        let idx = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: nanos(start - self.origin),
            end_ns: 0,
            parent: self.open.last().copied(),
            cell,
        });
        self.open.push(idx);
        let r = f(self);
        let end = Instant::now();
        self.open.pop();
        self.spans[idx].end_ns = nanos(end - self.origin);
        (r, end - start)
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals and self time, sorted by name.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = by_name.entry(s.name).or_insert(SelfTime {
                name: s.name,
                count: 0,
                total_ms: 0.0,
                self_ms: 0.0,
            });
            e.count += 1;
            e.total_ms += dur as f64 / 1e6;
            e.self_ms += dur.saturating_sub(child) as f64 / 1e6;
        }
        by_name.into_values().collect()
    }

    /// Writes one JSON object per span:
    /// `{"id","name","start_ns","end_ns","parent","cell"}`.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"cell\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.cell.map(u64::from)),
            )?;
        }
        w.flush()
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn opt(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |v| v.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_and_self_time_excludes_them() {
        let mut t = Tracer::new(true);
        t.span("outer", Some(3), |t| {
            t.span("inner", Some(3), |_| std::thread::sleep(Duration::from_millis(2)));
            t.span("inner", Some(3), |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let st = t.self_times();
        let inner = st.iter().find(|s| s.name == "inner").unwrap();
        let outer = st.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.count, 2);
        assert!(inner.total_ms >= 2.0);
        assert!(outer.self_ms < outer.total_ms - 1.9);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().next().unwrap().contains("\"parent\":null,\"cell\":3"));
    }

    #[test]
    fn disabled_tracer_times_without_recording() {
        let mut t = Tracer::new(false);
        let (v, d) = t.span("x", None, |_| 7);
        assert_eq!(v, 7);
        assert!(d < Duration::from_secs(1));
        assert!(t.spans().is_empty());
    }
}
