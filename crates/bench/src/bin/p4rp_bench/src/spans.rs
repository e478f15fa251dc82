//! In-memory spans around the calls into each layer.
//!
//! A span is `(name, start, end, parent, operation id)` on a track. Tracks
//! keep independent parent stacks: the measured operation, each shadow that
//! re-runs it layer by layer, and each server client get their own, so spans
//! nest properly inside a track even though the tracks interleave in time.
//! Nothing is written until the run ends; then the spans become a per-layer
//! self-time table (span minus its child spans) and a Chrome trace-event
//! file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// Spans written to the Chrome trace file; the self-time table always
/// covers every span.
const EXPORT_CAP: usize = 40_000;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    track: u8,
    parent: u32,
    /// The operation (batch, deploy cycle, request) the span belongs to.
    op: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Handle returned by [`Spans::begin`]; pass it back to [`Spans::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    /// Innermost open span per track.
    open: Vec<u32>,
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Spans {
    /// A recorder whose clock starts at `origin` (shared between the
    /// recorders of one run so their spans line up).
    pub fn new(origin: Instant) -> Spans {
        Spans { origin, spans: Vec::new(), open: Vec::new() }
    }

    /// The instant this recorder's clock started at.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, track: u8, name: &'static str, op: u64) -> SpanId {
        let t = usize::from(track);
        if self.open.len() <= t {
            self.open.resize(t + 1, NO_PARENT);
        }
        let id = self.spans.len() as u32;
        let parent = self.open[t];
        self.open[t] = id;
        // The clock is read last on begin and first on end, so bookkeeping
        // stays outside the measured interval.
        self.spans.push(Span { name, track, parent, op, start_ns: 0, end_ns: 0 });
        let now = self.now();
        self.spans[id as usize].start_ns = now;
        SpanId(id)
    }

    pub fn end(&mut self, id: SpanId) -> u64 {
        let now = self.now();
        let s = &mut self.spans[id.0 as usize];
        s.end_ns = now;
        let (track, parent, dur) = (s.track, s.parent, now - s.start_ns);
        debug_assert_eq!(self.open[usize::from(track)], id.0, "spans must close innermost first");
        self.open[usize::from(track)] = parent;
        dur
    }

    /// Append another recorder's spans (a client thread's), re-basing their
    /// parent links.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Per-layer totals; a layer's self time is its spans' time minus the
    /// time of the spans directly inside them.
    pub fn layer_table(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut table: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let row = table.entry(s.name).or_default();
            row.count += 1;
            row.total_ns += dur;
            row.self_ns += dur.saturating_sub(child);
        }
        table
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
    /// event per span, one `tid` per track, the operation id and the parent
    /// in `args`; the self-time table rides along under `layerSelfTimes`.
    pub fn chrome_trace_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().take(EXPORT_CAP).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{workload}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"parent\":{}}}}}",
                s.name,
                s.track,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op,
                if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) },
            );
        }
        let _ = write!(
            out,
            "\n],\"spansRecorded\":{},\"spansExported\":{},\"layerSelfTimes\":{{",
            self.spans.len(),
            self.spans.len().min(EXPORT_CAP)
        );
        for (i, (name, t)) in self.layer_table().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, t.self_ns
            );
        }
        out.push_str("\n}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut s = Spans::new(Instant::now());
        let outer = s.begin(0, "outer", 1);
        let a = s.begin(0, "inner", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.end(a);
        let b = s.begin(0, "inner", 1);
        s.end(b);
        // Another track does not nest under `outer`.
        let other = s.begin(1, "other", 1);
        s.end(other);
        s.end(outer);

        let t = s.layer_table();
        assert_eq!(t["inner"].count, 2);
        assert_eq!(t["outer"].self_ns, t["outer"].total_ns - t["inner"].total_ns);
        assert_eq!(t["other"].self_ns, t["other"].total_ns);
        assert!(t["inner"].total_ns >= 2_000_000);
        assert_eq!(s.durations_ns("inner").iter().sum::<f64>(), t["inner"].total_ns as f64);
    }

    #[test]
    fn absorb_rebases_parents_and_export_parses() {
        let origin = Instant::now();
        let mut main = Spans::new(origin);
        let m = main.begin(0, "main", 0);
        main.end(m);
        let mut client = Spans::new(origin);
        let r = client.begin(2, "request", 7);
        let c = client.begin(2, "child", 7);
        client.end(c);
        client.end(r);
        main.absorb(client);
        assert_eq!(main.spans[2].parent, 1, "child points at the re-based request");
        let t = main.layer_table();
        assert_eq!(t["request"].self_ns, t["request"].total_ns - t["child"].total_ns);

        let doc = serde::json::parse(&main.chrome_trace_json("w")).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).expect("events");
        assert_eq!(events.len(), 3);
        assert!(doc.get("layerSelfTimes").and_then(|l| l.get("request")).is_some());
    }
}
