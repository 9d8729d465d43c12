//! In-memory span recording for the traced run.
//!
//! A span is `{id, parent, request, name, start_ns, end_ns}` around one call
//! into a layer. Boundaries crossed thousands of times per operation (the
//! core model's accelerator dispatches) are not stored one by one: a
//! [`TimedBus`] sums them, and the sum and count are attached to the
//! enclosing span as an [`Aggregate`]. A span's self time is its duration
//! minus the part of it its children cover, aggregates included.

use qei_cache::MemoryHierarchy;
use qei_config::Cycles;
use qei_cpu::Bus;
use qei_mem::{MemError, PhysAddr, VirtAddr};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index in the recorder.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation this span belongs to.
    pub request: u64,
    /// Layer boundary name, `crate.step`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// Calls summed into one parent span instead of stored one by one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aggregate {
    /// The span the calls happened inside.
    pub parent: usize,
    /// Boundary name.
    pub name: &'static str,
    /// Summed duration of the calls.
    pub sum_ns: u64,
    /// Number of calls.
    pub count: u64,
}

/// Self time of the interval `span`: its duration minus the union of
/// `children` clipped to it, minus `aggregated_ns` of summed calls made
/// inside it (which by construction overlap none of the children).
pub fn self_time(span: (u64, u64), children: &[(u64, u64)], aggregated_ns: u64) -> u64 {
    let (start, end) = span;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start)
        .saturating_sub(covered)
        .saturating_sub(aggregated_ns)
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    aggregates: Vec<Aggregate>,
    open: Vec<usize>,
    request: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            aggregates: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tags the spans opened from now on with operation `request`.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            request: self.request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn close(&mut self, id: usize) {
        let popped = self.open.pop();
        assert_eq!(popped, Some(id), "spans must close innermost-first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Closes span `id` and every span still open inside it — the cleanup
    /// after an operation panicked part-way through.
    pub fn close_through(&mut self, id: usize) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                return;
            }
        }
        panic!("span {id} was not open");
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(name, f).0
    }

    /// [`Recorder::span`], also returning the span's duration in ns.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name);
        let out = f();
        self.close(id);
        (out, self.duration_ns(id) as f64)
    }

    /// Attaches summed calls to span `parent`.
    pub fn aggregate(&mut self, parent: usize, name: &'static str, sum: Duration, count: u64) {
        self.aggregates.push(Aggregate {
            parent,
            name,
            sum_ns: sum.as_nanos() as u64,
            count,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every aggregate recorded so far.
    pub fn aggregates(&self) -> &[Aggregate] {
        &self.aggregates
    }

    /// Duration of span `id`.
    pub fn duration_ns(&self, id: usize) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    /// Self time of every span, indexed by span id.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut aggregated = vec![0u64; self.spans.len()];
        for a in &self.aggregates {
            aggregated[a.parent] += a.sum_ns;
        }
        self.spans
            .iter()
            .map(|s| self_time((s.start_ns, s.end_ns), &children[s.id], aggregated[s.id]))
            .collect()
    }

    /// The spans and aggregates as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                if i == 0 { "" } else { "," },
                s.id,
                s.request,
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("],\n\"aggregates\":[");
        for (i, a) in self.aggregates.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n{{\"parent\":{},\"name\":\"{}\",\"sum_ns\":{},\"count\":{}}}",
                if i == 0 { "" } else { "," },
                a.parent,
                a.name,
                a.sum_ns,
                a.count
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// A [`Bus`] decorator that times the accelerator dispatches the core model
/// makes through it, leaving every result untouched.
pub struct TimedBus<'b> {
    inner: &'b mut dyn Bus,
    /// Summed dispatch time.
    pub sum: Duration,
    /// Dispatches made.
    pub count: u64,
}

impl<'b> TimedBus<'b> {
    /// Wraps `inner`.
    pub fn new(inner: &'b mut dyn Bus) -> Self {
        TimedBus {
            inner,
            sum: Duration::ZERO,
            count: 0,
        }
    }

    fn timed(&mut self, f: impl FnOnce(&mut dyn Bus) -> Cycles) -> Cycles {
        let started = Instant::now();
        let out = f(self.inner);
        self.sum += started.elapsed();
        self.count += 1;
        out
    }
}

impl Bus for TimedBus<'_> {
    fn mem(&mut self) -> &mut MemoryHierarchy {
        self.inner.mem()
    }

    fn translate(&self, va: VirtAddr) -> Result<PhysAddr, MemError> {
        self.inner.translate(va)
    }

    fn dispatch_blocking(&mut self, now: Cycles, token: u32) -> Cycles {
        self.timed(|bus| bus.dispatch_blocking(now, token))
    }

    fn dispatch_nonblocking(&mut self, now: Cycles, token: u32) -> Cycles {
        self.timed(|bus| bus.dispatch_nonblocking(now, token))
    }

    fn drain_time(&self) -> Cycles {
        self.inner.drain_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time((0, 100), &[(10, 20), (50, 80)], 0), 60);
        assert_eq!(self_time((0, 100), &[], 0), 100);
    }

    #[test]
    fn overlapping_children_count_once() {
        assert_eq!(self_time((0, 100), &[(10, 50), (30, 70), (60, 65)], 0), 40);
        // Children reaching outside the parent are clipped to it.
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 40)], 0), 3);
    }

    #[test]
    fn aggregated_children_are_subtracted() {
        assert_eq!(self_time((0, 100), &[(0, 10)], 30), 60);
        assert_eq!(self_time((0, 10), &[(0, 10)], 5), 0);
    }

    #[test]
    fn recorder_nests_and_attributes() {
        let mut rec = Recorder::default();
        rec.set_request(7);
        let root = rec.open("op");
        let child = rec.open("child");
        let grandchild = rec.span("grandchild", || std::hint::black_box(3));
        assert_eq!(grandchild, 3);
        rec.close(child);
        rec.aggregate(root, "calls", Duration::ZERO, 5);
        rec.close(root);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[2].parent, Some(child));
        assert!(spans.iter().all(|s| s.request == 7));
        // Nested: the grandchild lies inside the child, so the root's self
        // time is its duration minus the child's alone.
        let own = rec.self_times();
        assert_eq!(own[root], rec.duration_ns(root) - rec.duration_ns(child));
        assert_eq!(own[child], rec.duration_ns(child) - rec.duration_ns(2));
        let json = rec.to_json();
        assert!(json.contains("\"name\":\"grandchild\""));
        assert!(json.contains("\"count\":5"));
    }

    #[test]
    fn close_through_unwinds_spans_left_open_by_a_panic() {
        let mut rec = Recorder::default();
        let root = rec.open("op");
        let _inner = rec.open("inner");
        rec.close_through(root);
        let next = rec.open("op");
        assert_eq!(rec.spans()[next].parent, None);
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn closing_out_of_order_is_a_bug() {
        let mut rec = Recorder::default();
        let a = rec.open("a");
        let _b = rec.open("b");
        rec.close(a);
    }
}
