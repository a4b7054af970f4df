//! In-memory span recorder for the traced pass.
//!
//! Every span is opened and closed by the benchmark's own code around a call
//! into one of the system's public functions. Spans nest through an explicit
//! stack (`parent` is the span open when this one was opened); *shadow* spans
//! time extra work the real dataflow does not contain (a kernel replayed on
//! the same operands, a second evaluator) and are recorded without a parent
//! so they never count towards a batch's attributed time.

use std::io::Write;
use std::time::Instant;

/// "No batch" / "no shard" / "no parent" in a span's integer fields.
pub const NONE: i64 = -1;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Batch sequence number (warm-up included), or [`NONE`] outside batches.
    pub seq: i64,
    /// Shard index, or [`NONE`] for unsharded work.
    pub shard: i64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, or [`NONE`].
    pub parent: i64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Identifier of an open span, handed back to [`Tracer::close`].
#[derive(Clone, Copy)]
pub struct SpanId(usize);

/// The recorder: spans are kept in memory and written out once at exit.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, seq: i64, shard: i64, parent: i64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            seq,
            shard,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.spans.len() - 1
    }

    /// Open a span nested under the innermost open span.
    pub fn open(&mut self, name: &'static str, seq: i64, shard: i64) -> SpanId {
        let parent = self.stack.last().map_or(NONE, |&p| p as i64);
        let id = self.push(name, seq, shard, parent);
        self.stack.push(id);
        SpanId(id)
    }

    /// Open a shadow span: no parent, not on the nesting stack.
    pub fn open_shadow(&mut self, name: &'static str, seq: i64, shard: i64) -> SpanId {
        SpanId(self.push(name, seq, shard, NONE))
    }

    /// Close a span opened by [`Tracer::open`] or [`Tracer::open_shadow`];
    /// returns its duration in nanoseconds.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let end_ns = self.now_ns();
        if self.stack.last() == Some(&id.0) {
            self.stack.pop();
        }
        let span = &mut self.spans[id.0];
        span.end_ns = end_ns;
        span.duration_ns()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in recording order, in µs.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Sum of the durations of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_us(name).iter().fold(0.0, |sum, us| sum + us) / 1e6
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, workload: &str, out: &mut dyn Write) -> std::io::Result<()> {
        for span in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"workload\":\"{}\",\"seq\":{},\"shard\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                span.name, workload, span.seq, span.shard, span.start_ns, span.end_ns, span.parent
            )?;
        }
        Ok(())
    }
}

/// See [`Tracer::self_ns`].
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Ok(parent) = usize::try_from(span.parent) {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: i64) -> Span {
        Span {
            name,
            seq: 0,
            shard: NONE,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("batch", 0, 100, NONE),
            span("apply", 10, 60, 0),
            span("insert", 20, 30, 1),
            span("update", 60, 95, 0),
            span("shadow", 200, 250, NONE),
        ];
        // batch: 100 - 50 - 35; apply: 50 - 10; leaves keep their duration;
        // the shadow span has no parent and reduces nobody's self time
        assert_eq!(self_times(&spans), vec![15, 40, 10, 35, 50]);
    }

    #[test]
    fn recorder_nests_through_the_stack_and_keeps_shadows_outside() {
        let mut tracer = Tracer::new();
        let batch = tracer.open("batch", 7, NONE);
        let apply = tracer.open("apply", 7, 1);
        let shadow = tracer.open_shadow("kernel", 7, NONE);
        tracer.close(shadow);
        tracer.close(apply);
        let update = tracer.open("update", 7, 1);
        tracer.close(update);
        tracer.close(batch);
        let parents: Vec<i64> = tracer.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![NONE, 0, NONE, 0]);
        assert!(tracer.spans().iter().all(|s| s.end_ns >= s.start_ns));
        let own = tracer.self_ns();
        let batch_span = &tracer.spans()[0];
        assert!(own[0] <= batch_span.duration_ns());

        let mut out = Vec::new();
        tracer.write_jsonl("w", &mut out).expect("writing to a Vec");
        let text = String::from_utf8(out).expect("ASCII");
        assert_eq!(text.lines().count(), 4);
        for line in text.lines() {
            let value = serde_json::from_str(line).expect("each line is JSON");
            for key in [
                "name", "workload", "seq", "shard", "start_ns", "end_ns", "parent",
            ] {
                assert!(value.get(key).is_some(), "{key} missing in {line}");
            }
        }
    }
}
