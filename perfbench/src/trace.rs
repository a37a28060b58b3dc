//! Spans around the benchmark's calls into each layer.
//!
//! A [`Tracer`] always times the closure it wraps, so traced and untraced
//! runs share one code path. With tracing on it also keeps a [`Span`]
//! (name, start, end, parent span, operation id) in memory; the spans are
//! written out as JSON lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call. Times are seconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Start the next operation: spans opened from now on carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Run `f`, returning its value and wall time in seconds, and record
    /// a span when tracing is on. Spans opened inside `f` become its
    /// children.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let start = self.origin.elapsed().as_secs_f64();
        let slot = self.on.then(|| {
            self.spans.push(Span {
                name,
                op: self.op,
                parent: self.open.last().copied(),
                start,
                end: start,
            });
            self.spans.len() - 1
        });
        if let Some(i) = slot {
            self.open.push(i);
        }
        let value = f(self);
        let end = self.origin.elapsed().as_secs_f64();
        if let Some(i) = slot {
            self.open.pop();
            self.spans[i].end = end;
        }
        (value, end - start)
    }

    /// Record a span measured elsewhere (a client request timed on its own
    /// thread) under the current operation, without a parent.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.on {
            self.spans.push(Span {
                name,
                op: self.op,
                parent: None,
                start: start.duration_since(self.origin).as_secs_f64(),
                end: end.duration_since(self.origin).as_secs_f64(),
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (or self times) of the spans called `name`, in order.
    pub fn values(&self, name: &str, self_time: bool) -> Vec<f64> {
        let selfs = if self_time {
            self_times(&self.spans)
        } else {
            Vec::new()
        };
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| if self_time { selfs[i] } else { s.duration() })
            .collect()
    }

    /// Write the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_s\":{:.9},\"end_s\":{:.9}}}",
                s.name, s.op, s.start, s.end
            )?;
        }
        w.flush()
    }
}

/// Each span's duration minus the part of its interval that its children
/// cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for (lo, hi) in kids {
                let (lo, hi) = (lo.max(reach), hi.min(s.end));
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("cycle", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 4.0),
            span("b", Some(0), 5.0, 7.0),
            span("b.inner", Some(2), 5.5, 6.0),
        ];
        assert_eq!(self_times(&spans), vec![5.0, 3.0, 1.5, 0.5]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = [
            span("request", None, 0.0, 10.0),
            span("x", Some(0), 2.0, 6.0),
            span("y", Some(0), 4.0, 8.0),
            span("z", Some(0), 3.0, 5.0),
        ];
        assert_eq!(self_times(&spans)[0], 4.0);
    }

    #[test]
    fn tracer_nests_spans_and_skips_them_when_off() {
        let mut t = Tracer::new(true, Instant::now());
        let op = t.next_op();
        let ((), outer) = t.time("outer", |t| {
            t.time("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        assert!(outer > 0.0);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[1].parent, spans[1].op), (Some(0), op));
        assert!(t.values("outer", true)[0] < t.values("outer", false)[0]);
        assert_eq!(t.values("inner", true), t.values("inner", false));

        let mut off = Tracer::new(false, Instant::now());
        let (v, secs) = off.time("outer", |_| 5);
        assert_eq!(v, 5);
        assert!(secs >= 0.0);
        assert!(off.spans().is_empty());
    }
}
