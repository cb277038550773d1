//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! request it belongs to. Spans stay in memory and are written out as
//! JSON lines when the run ends. A span's self time is its duration
//! minus the part of it that its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

/// Per-name totals over a tracer's spans.
#[derive(Debug, Default, Clone)]
pub struct Layer {
    pub calls: u64,
    /// Sum of self times.
    pub self_ns: u64,
    /// Sum of whole durations.
    pub total_ns: u64,
    /// Every span's self time, in recording order.
    pub self_each_ns: Vec<u64>,
}

impl Layer {
    /// Mean self time per call in microseconds (0 without calls).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e3
        }
    }

    /// Median self time per call in microseconds (0 without calls).
    pub fn median_us(&self) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        let each: Vec<f64> = self
            .self_each_ns
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .collect();
        crate::stats::median(&each)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for request `req`. Spans that
    /// `f` opens on the tracer it is handed become children of this one.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    #[cfg(test)]
    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        });
    }

    /// Each span's self time: its duration minus the union of its
    /// children's intervals, clipped to its own.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Totals per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let l = out.entry(s.name).or_default();
            l.calls += 1;
            l.self_ns += self_ns;
            l.total_ns += s.end_ns - s.start_ns;
            l.self_each_ns.push(self_ns);
        }
        out
    }

    /// Write every span as one JSON line: index, name, times, parent,
    /// request id and self time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"req\":{},\"self_ns\":{self_ns}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        w.flush()
    }
}

/// The cost of tracing: the same calls timed untraced and inside spans.
#[derive(Debug, Default)]
pub struct Overhead {
    plain_ns: u64,
    traced_ns: u64,
}

impl Overhead {
    /// Make the `k`-th call of `f` twice, untraced and inside a span named
    /// `name`, alternating which goes first so that warm caches favour
    /// neither; return the traced call's result.
    pub fn call<T>(
        &mut self,
        t: &mut Tracer,
        k: usize,
        name: &'static str,
        id: u64,
        f: impl Fn() -> T,
    ) -> T {
        let untraced = || {
            let t0 = Instant::now();
            drop(f());
            t0.elapsed().as_nanos() as u64
        };
        let untraced_first = !k.is_multiple_of(2);
        if untraced_first {
            self.plain_ns += untraced();
        }
        let t0 = Instant::now();
        let out = t.span(name, id, |_| f());
        self.traced_ns += t0.elapsed().as_nanos() as u64;
        if !untraced_first {
            self.plain_ns += untraced();
        }
        out
    }

    /// Traced time over untraced time, minus 1.
    pub fn ratio(&self) -> f64 {
        self.traced_ns as f64 / self.plain_ns.max(1) as f64 - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        t.push("root", 0, 100, None); // 0
        t.push("a", 10, 30, Some(0)); // 1
        t.push("b", 20, 50, Some(0)); // 2: overlaps a; union with a is 10..50
        t.push("b.leaf", 25, 35, Some(2)); // 3
        t.push("c", 90, 120, Some(0)); // 4: runs past its parent; clipped to 90..100
        let self_ns = t.self_times();
        assert_eq!(self_ns, vec![100 - 40 - 10, 20, 30 - 10, 10, 30]);
        let layers = t.layers();
        assert_eq!(layers["root"].self_ns, 50);
        assert_eq!(layers["b"].total_ns, 30);
        assert_eq!(layers["b.leaf"].calls, 1);
    }

    #[test]
    fn nested_spans_record_their_parent_and_request() {
        let mut t = Tracer::new();
        let v = t.span("outer", 7, |t| t.span("inner", 7, |_| 41) + 1);
        assert_eq!(v, 42);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].req, 7);
        assert!(t.spans[0].start_ns <= t.spans[1].start_ns);
        assert!(t.spans[1].end_ns <= t.spans[0].end_ns);
        let self_ns = t.self_times();
        assert_eq!(
            self_ns[0] + self_ns[1],
            t.spans[0].end_ns - t.spans[0].start_ns
        );
    }
}
