//! Spans recorded from outside the program, around calls into each layer's
//! public functions. Spans stay in memory and are written out once, as a
//! Chrome trace-event file, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The operation (or set-up round) the span belongs to.
    pub op: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

/// An open span; pass it back to [`Tracer::exit`].
#[must_use]
pub struct Open(usize);

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts operation `op`: later spans carry its id.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op: self.op });
        self.open.push(id);
        Open(id)
    }

    /// Closes `span`, which must be the innermost open span; returns its
    /// duration in nanoseconds.
    pub fn exit(&mut self, span: Open) -> u64 {
        assert_eq!(self.open.pop(), Some(span.0), "spans must close innermost first");
        let end = self.now_ns();
        let s = &mut self.spans[span.0];
        s.end_ns = end;
        end - s.start_ns
    }

    /// Times `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.enter(name);
        let out = f();
        self.exit(s);
        out
    }

    /// A position in the span list; see [`Tracer::self_ns_since`].
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name, in nanoseconds, over the spans recorded
    /// since `mark`: each span's duration minus the time its children
    /// cover.
    pub fn self_ns_since(&self, mark: usize) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len() - mark];
        for s in &self.spans[mark..] {
            if let Some(p) = s.parent.filter(|&p| p >= mark) {
                child_ns[p - mark] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans[mark..].iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(c);
        }
        out
    }

    /// Chrome trace-event JSON (loadable in Perfetto or `chrome://tracing`):
    /// one complete event per span, with its operation id, its own index
    /// and its parent's index in `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut s = String::with_capacity(self.spans.len() * 120 + 32);
        s.push_str("{\"traceEvents\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"op\":{}}}}}",
                sp.name,
                sp.start_ns as f64 / 1e3,
                (sp.end_ns - sp.start_ns) as f64 / 1e3,
                sp.op
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let m = t.mark();
        let outer = t.enter("outer");
        t.span("inner", || std::thread::sleep(std::time::Duration::from_millis(5)));
        let total = t.exit(outer);
        let selfs = t.self_ns_since(m);
        assert!(selfs["inner"] >= 5_000_000);
        assert_eq!(selfs["outer"] + selfs["inner"], total);
        assert!(t.to_chrome_json().contains("\"parent\":0"));
    }
}
