//! Outside-in spans: the benchmark records one span around every call it
//! makes into a product layer, in memory, and writes them out when the
//! run ends. Spans inside the product are a later change; until then a
//! layer's interior is measured by the layer replay (`layers.rs`).

use std::path::Path;

use serde_json::{json, Value};

use crate::stats::median_u64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    /// One whole op as the load generator sees it; the root of its spans.
    Op,
    Parse,
    Submit,
    Wait,
    EngineSearch,
    Ingest,
}

impl SpanName {
    pub const ALL: [SpanName; 6] = [
        SpanName::Op,
        SpanName::Parse,
        SpanName::Submit,
        SpanName::Wait,
        SpanName::EngineSearch,
        SpanName::Ingest,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::Op => "bench.op",
            SpanName::Parse => "core.query.parse",
            SpanName::Submit => "serve.submit",
            SpanName::Wait => "serve.wait",
            SpanName::EngineSearch => "core.engine.search",
            SpanName::Ingest => "serve.ingest",
        }
    }
}

/// "No parent": the span is the root of its op.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: SpanName,
    /// Index of the parent span in the same tracer, or [`ROOT`].
    pub parent: u32,
    /// Spans of one op share this.
    pub op_id: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One load-generator thread's span buffer. Disabled, it costs one branch
/// per call; enabled, two clock reads and a push.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: std::time::Instant,
    spans: Vec<Span>,
    ops: u32,
    /// Index of the current op's root span.
    root: u32,
}

impl Tracer {
    pub fn new(epoch: std::time::Instant) -> Self {
        Tracer { enabled: false, epoch, spans: Vec::new(), ops: 0, root: ROOT }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of the next op; its times are filled in by
    /// [`Tracer::end_op`] from the clock reads the generator takes anyway.
    pub fn begin_op(&mut self) {
        if self.enabled {
            self.root = self.spans.len() as u32;
            self.spans.push(Span {
                name: SpanName::Op,
                parent: ROOT,
                op_id: self.ops,
                start_ns: 0,
                end_ns: 0,
            });
        }
    }

    pub fn end_op(&mut self, start_ns: u64, end_ns: u64) {
        if self.enabled {
            let root = &mut self.spans[self.root as usize];
            root.start_ns = start_ns;
            root.end_ns = end_ns;
            self.ops += 1;
        }
    }

    /// Runs `f` inside a child span of the current op.
    pub fn span<T>(&mut self, name: SpanName, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span { name, parent: self.root, op_id: self.ops, start_ns, end_ns });
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its children cover (children may overlap each other and may stick out
/// of the parent; only covered time inside the parent counts).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<(u32, u64, u64)> = spans
        .iter()
        .filter(|s| s.parent != ROOT)
        .map(|s| (s.parent, s.start_ns, s.end_ns))
        .collect();
    children.sort_unstable();
    let mut out: Vec<u64> =
        spans.iter().map(|s| s.end_ns.saturating_sub(s.start_ns)).collect();
    let mut i = 0;
    while i < children.len() {
        let parent = children[i].0;
        let p = spans[parent as usize];
        let mut covered = 0u64;
        // Sweep this parent's children in start order, merging overlaps.
        let mut reach = p.start_ns;
        while i < children.len() && children[i].0 == parent {
            let (_, start, end) = children[i];
            let start = start.max(reach);
            let end = end.min(p.end_ns);
            if end > start {
                covered += end - start;
                reach = end;
            }
            i += 1;
        }
        out[parent as usize] = out[parent as usize].saturating_sub(covered);
    }
    out
}

/// Median self time in nanoseconds per span name over every tracer, and
/// how many spans of that name there were.
fn median_self_ns(tracers: &[Tracer]) -> Vec<(SpanName, u64, u64)> {
    let mut by_name: Vec<Vec<u64>> = vec![Vec::new(); SpanName::ALL.len()];
    for t in tracers {
        for (span, own) in t.spans().iter().zip(self_times(t.spans())) {
            by_name[span.name as usize].push(own);
        }
    }
    SpanName::ALL
        .iter()
        .zip(by_name)
        .filter(|(_, v)| !v.is_empty())
        .map(|(&name, mut v)| {
            v.sort_unstable();
            (name, median_u64(&v), v.len() as u64)
        })
        .collect()
}

/// How many ops per generator thread the trace file keeps; the medians in
/// its summary still cover every traced op.
pub const OPS_IN_FILE: u32 = 2_000;

/// Writes the first [`OPS_IN_FILE`] ops of every tracer, with the
/// per-name self-time summary, as JSON.
fn write_file(
    path: &Path,
    workload: &str,
    seed: u64,
    tracers: &[Tracer],
) -> std::io::Result<()> {
    let mut spans = Vec::new();
    for (client, t) in tracers.iter().enumerate() {
        let own = self_times(t.spans());
        for (id, (s, own_ns)) in t.spans().iter().zip(own).enumerate() {
            if s.op_id >= OPS_IN_FILE {
                break;
            }
            spans.push(json!({
                "client": client,
                "id": id,
                "parent": if s.parent == ROOT { Value::Null } else { json!(s.parent) },
                "op_id": s.op_id,
                "name": s.name.as_str(),
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "self_ns": own_ns,
            }));
        }
    }
    let summary: Vec<Value> = median_self_ns(tracers)
        .into_iter()
        .map(
            |(name, ns, n)| json!({ "name": name.as_str(), "median_self_ns": ns, "spans": n }),
        )
        .collect();
    let doc = json!({
        "workload": workload,
        "seed": seed,
        "clock": "ns since the benchmark's epoch (process start)",
        "ops_traced": tracers.iter().map(|t| u64::from(t.ops)).sum::<u64>(),
        "ops_in_file_per_client": OPS_IN_FILE,
        "summary": summary,
        "spans": spans,
    });
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let text = serde_json::to_string(&doc).unwrap_or_default();
    std::fs::write(path, text + "\n")
}

/// Everything a traced run reports about its spans: the median self time
/// per span name as `span.<name>.self_us`, and the trace file.
///
/// # Panics
///
/// Panics when the trace file cannot be written: the traced run exists to
/// produce it.
pub fn report(
    tracers: &[Tracer],
    path: &Path,
    workload: &str,
    seed: u64,
    metrics: &mut crate::metrics::MetricSet,
    info: &mut serde_json::Map,
) {
    for (name, ns, n) in median_self_ns(tracers) {
        metrics.set(&format!("span.{}.self_us", name.as_str()), ns as f64 / 1e3, n);
    }
    write_file(path, workload, seed, tracers).expect("writing the trace file");
    info.insert("trace_file".into(), json!(path.display().to_string()));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: SpanName, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span { name, parent, op_id: 0, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_sequential_children() {
        let spans = [
            span(SpanName::Op, ROOT, 100, 200),
            span(SpanName::Parse, 0, 105, 115),
            span(SpanName::Submit, 0, 120, 150),
            span(SpanName::Wait, 0, 150, 195),
        ];
        assert_eq!(self_times(&spans), vec![15, 10, 30, 45]);
    }

    #[test]
    fn self_time_counts_overlap_once_and_clips_to_the_parent() {
        let spans = [
            span(SpanName::Op, ROOT, 100, 200),
            // Overlapping pair covering 110..160.
            span(SpanName::Submit, 0, 110, 150),
            span(SpanName::Wait, 0, 140, 160),
            // Sticks out past the parent's end: only 190..200 counts.
            span(SpanName::Wait, 0, 190, 230),
            // Grandchild: comes off its own parent only.
            span(SpanName::Parse, 1, 120, 130),
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 20, 40, 10]);
    }

    #[test]
    fn tracer_links_children_to_the_op_root() {
        let mut t = Tracer::new(std::time::Instant::now());
        t.begin_op();
        assert_eq!(t.span(SpanName::Parse, || 7), 7);
        t.end_op(1, 2);
        assert!(t.spans().is_empty(), "a disabled tracer records nothing");

        t.set_enabled(true);
        for op in 0..2 {
            t.begin_op();
            t.span(SpanName::Parse, || ());
            t.span(SpanName::EngineSearch, || ());
            t.end_op(10 * op, 10 * op + 5);
        }
        let s = t.spans();
        assert_eq!(s.len(), 6);
        assert_eq!((s[3].name, s[3].parent, s[3].op_id), (SpanName::Op, ROOT, 1));
        assert_eq!((s[5].name, s[5].parent, s[5].op_id), (SpanName::EngineSearch, 3, 1));
        assert_eq!((s[3].start_ns, s[3].end_ns), (10, 15));
    }
}
