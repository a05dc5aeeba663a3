//! In-memory spans recorded by the benchmark around each public call it
//! makes into a layer. Spans stay in a `Vec` until the run ends; the
//! allocator is sampled at the same boundaries.

use crate::alloc::{self, Snapshot};
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Peak live heap inside the span above its start. Exact for spans
    /// without children; opening a child restarts the tracking.
    pub peak_bytes: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

struct Open {
    index: usize,
    allocs: Snapshot,
    heap_base: usize,
}

pub struct Tracer {
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<Open>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            op: 0,
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::with_capacity(8),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tag the spans opened from now on with op id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Open a span under the innermost open one and return its index.
    pub fn open(&mut self, name: &'static str) -> usize {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().map(|o| o.index),
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
            alloc_bytes: 0,
            peak_bytes: 0,
        });
        let heap_base = alloc::reset_peak();
        let allocs = Snapshot::now();
        self.spans[index].start_ns = self.now_ns();
        self.stack.push(Open {
            index,
            allocs,
            heap_base,
        });
        index
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        let end_ns = self.now_ns();
        let delta = Snapshot::now();
        let open = self.stack.pop().expect("close matches an open");
        let delta = delta.since(open.allocs);
        let span = &mut self.spans[open.index];
        span.end_ns = end_ns;
        span.allocs = delta.allocs;
        span.alloc_bytes = delta.bytes;
        span.peak_bytes = alloc::peak_above(open.heap_base) as u64;
    }

    /// Close spans until `depth` remain open (after a panic unwound past
    /// their `close`).
    pub fn unwind_to(&mut self, depth: usize) {
        while self.stack.len() > depth {
            self.close();
        }
    }

    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, one object per span; `id` is the span's
    /// index and `parent` the index of the span that contains it.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 128);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"op\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"allocs\": {}, \"alloc_bytes\": {}, \
                 \"peak_bytes\": {}}}",
                s.op, s.name, s.start_ns, s.end_ns, s.allocs, s.alloc_bytes, s.peak_bytes
            )
            .expect("writing to a String");
        }
        out
    }
}
