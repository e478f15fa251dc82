//! Pipeline-wide telemetry: counters, histograms, and the recorder hooks
//! the rest of the simulator reports into.
//!
//! The design splits *instrumentation points* from *storage*:
//!
//! * [`Recorder`] is the hook trait. Every method has a no-op default
//!   body. The frame walk is generic over it and instantiated twice: over
//!   [`NopRecorder`] when no recorder is on, where every hook compiles
//!   away, and over [`FanOut`] when telemetry, attribution or the trace
//!   ring is on, where every hook inlines.
//! * [`MetricsRecorder`] is the storage implementation: per-stage
//!   match/miss/action counters, SALU read-modify-write counts, the
//!   parser-path histogram keyed by parse bitmap, traffic-manager verdict
//!   counters, and the active telemetry **epoch** — a label the control
//!   plane bumps at every program lifecycle event so packet-side
//!   observations can be correlated with control-side spans.
//!
//! Everything here serializes through the workspace's `serde` to one JSON
//! document (see `docs/TELEMETRY.md` for the schema).

use std::collections::BTreeMap;

use crate::pipeline::Gress;
use crate::tm::Verdict;

/// A monotonically increasing event count.
///
/// Wraps `u64` so merging and rate math live in one place and so the JSON
/// schema can evolve independently of the storage type.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Increment by one.
    pub(crate) fn incr(&mut self) {
        self.0 += 1;
    }

    /// Increment by `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    pub fn get(self) -> u64 {
        self.0
    }

    /// Fold another counter in (snapshot aggregation).
    pub(crate) fn merge(&mut self, other: Counter) {
        self.0 += other.0;
    }
}

impl serde::Serialize for Counter {
    fn to_value(&self) -> serde::Value {
        serde::Value::U64(self.0)
    }
}

impl serde::Deserialize for Counter {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        <u64 as serde::Deserialize>::from_value(v).map(Counter)
    }
}

/// A fixed-bound histogram over `u64` samples (latencies in nanoseconds,
/// sizes in bytes).
///
/// `bounds` are inclusive upper bucket edges in ascending order; one
/// overflow bucket past the last edge is implicit, so `counts.len() ==
/// bounds.len() + 1`. Exact `count`/`sum`/`min`/`max` ride alongside the
/// buckets, so means are exact and only quantiles are bucket-resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

serde::impl_serde_struct!(Histogram { bounds, counts, count, sum, min, max });

impl Histogram {
    /// Build with explicit ascending bucket edges.
    pub(crate) fn new(bounds: Vec<u64>) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "edges must ascend");
        let counts = vec![0; bounds.len() + 1];
        Histogram { bounds, counts, count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Build with `n` geometric edges `start, start*factor, …` — the
    /// natural shape for latency distributions.
    pub fn exponential(start: u64, factor: u64, n: usize) -> Histogram {
        assert!(start > 0 && factor > 1, "degenerate geometric edges");
        let mut edge = start;
        let bounds = (0..n)
            .map(|_| {
                let e = edge;
                edge = edge.saturating_mul(factor);
                e
            })
            .collect();
        Histogram::new(bounds)
    }

    /// Record one sample.
    pub fn observe(&mut self, v: u64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact mean, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Largest sample, `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Bucket edges.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Bucket counts (`bounds.len() + 1` entries, last is overflow).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Upper-edge estimate of the `q`-quantile (0 ≤ q ≤ 1), `None` when
    /// empty. Resolution is one bucket; the overflow bucket reports the
    /// exact observed maximum.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(self.bounds.get(idx).copied().unwrap_or(self.max));
            }
        }
        Some(self.max)
    }
}

/// Match/action/SALU counters of one physical stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageMetrics {
    /// Table lookups that matched an installed entry.
    pub hits: Counter,
    /// Table lookups that fell through (default action or no-op).
    pub misses: Counter,
    /// Actions executed (hit or default).
    pub actions: Counter,
    /// SALU read-modify-write invocations touching register memory.
    pub salu_reads: Counter,
    /// SALU invocations that committed a write.
    pub salu_writes: Counter,
}

serde::impl_serde_struct!(StageMetrics { hits, misses, actions, salu_reads, salu_writes });

impl StageMetrics {
    /// Fold another stage's counters in.
    pub(crate) fn merge(&mut self, other: &StageMetrics) {
        self.hits.merge(other.hits);
        self.misses.merge(other.misses);
        self.actions.merge(other.actions);
        self.salu_reads.merge(other.salu_reads);
        self.salu_writes.merge(other.salu_writes);
    }
}

/// Traffic-manager outcome counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TmMetrics {
    /// Unicast forwards enqueued toward an egress port.
    pub forwarded: Counter,
    /// `RETURN` reflections out the ingress port.
    pub returned: Counter,
    /// Drops (explicit verdict, no route, or recirculation cap).
    pub dropped: Counter,
    /// Recirculation passes enqueued on the loopback port.
    pub recirculated: Counter,
    /// Multicast replications enqueued.
    pub multicast: Counter,
    /// `REPORT` copies punted to the CPU port.
    pub reports: Counter,
}

serde::impl_serde_struct!(TmMetrics {
    forwarded,
    returned,
    dropped,
    recirculated,
    multicast,
    reports,
});

impl TmMetrics {
    /// Fold another TM's counters in.
    pub(crate) fn merge(&mut self, other: &TmMetrics) {
        self.forwarded.merge(other.forwarded);
        self.returned.merge(other.returned);
        self.dropped.merge(other.dropped);
        self.recirculated.merge(other.recirculated);
        self.multicast.merge(other.multicast);
        self.reports.merge(other.reports);
    }
}

/// The hook trait the simulator reports events into.
///
/// Every method has an empty default body: implementors override only
/// what they store, and the [`NopRecorder`] overrides nothing.
pub(crate) trait Recorder {
    /// The program context for subsequent per-stage events: the owning
    /// program id read out of the PHV (`p4rp.prog_id`, bound by the
    /// filter table's `set_prog`). 0 means "no program bound yet" — the
    /// stage-0 filter lookup itself always lands there, because the
    /// binding action has not executed when the lookup is recorded.
    /// Only emitted when attribution is enabled on the switch.
    fn prog_ctx(&mut self, prog: u16) {
        let _ = prog;
    }

    /// One table lookup finished in `gress` stage `stage`; `hit` is true
    /// for an installed-entry match (default actions count as misses).
    fn table_lookup(&mut self, gress: Gress, stage: usize, hit: bool) {
        let _ = (gress, stage, hit);
    }

    /// One action body executed in `gress` stage `stage`.
    fn action_executed(&mut self, gress: Gress, stage: usize) {
        let _ = (gress, stage);
    }

    /// One SALU read-modify-write in `gress` stage `stage`; `wrote` is
    /// true when the cycle committed a memory write.
    fn salu_rmw(&mut self, gress: Gress, stage: usize, wrote: bool) {
        let _ = (gress, stage, wrote);
    }

    /// The parser accepted a packet along the path named by `bitmap`.
    fn parser_path(&mut self, bitmap: u16) {
        let _ = bitmap;
    }

    /// The traffic manager resolved a verdict (`report_copy` riding along).
    fn tm_decision(&mut self, verdict: Verdict, report_copy: bool) {
        let _ = (verdict, report_copy);
    }

    /// A frame entered the switch: `packet` is the switch-global packet
    /// id that stamps every subsequent per-packet event (flight-recorder
    /// context; aggregate storage ignores it).
    fn packet_begin(&mut self, packet: u64, port: u16, len: u32) {
        let _ = (packet, port, len);
    }

    /// The packet's parsed five-tuple (addresses big-endian `u32`), when
    /// the frame carries IPv4 + TCP/UDP.
    fn packet_flow(&mut self, packet: u64, src: u32, dst: u32, sport: u16, dport: u16, proto: u8) {
        let _ = (packet, src, dst, sport, dport, proto);
    }

    /// A pipeline pass began (1 = original injection, ≥2 = recirculation).
    fn pass_begin(&mut self, packet: u64, pass: u8) {
        let _ = (packet, pass);
    }

    /// The packet left the switch after `passes` passes.
    fn packet_end(&mut self, packet: u64, passes: u8, dropped: bool) {
        let _ = (packet, passes, dropped);
    }
}

/// The recorder used when telemetry is disabled: stores nothing.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NopRecorder;

impl Recorder for NopRecorder {}

/// The recorder an observed frame runs over: the aggregate
/// [`MetricsRecorder`] and the flight recorder
/// ([`crate::trace::TraceBuffer`]), each when enabled, borrowed in place
/// from the switch for the duration of one frame. A concrete type, so the
/// stage walk instantiated over it is monomorphic and every hook below
/// inlines into it. The two sinks never see each other: each hook is
/// forwarded to both unchanged.
pub(crate) struct FanOut<'a> {
    /// The aggregate counters, when telemetry is on.
    pub(crate) metrics: Option<&'a mut MetricsRecorder>,
    /// The flight recorder, when tracing is on.
    pub(crate) trace: Option<&'a mut crate::trace::TraceBuffer>,
}

impl Recorder for FanOut<'_> {
    #[inline(always)]
    fn prog_ctx(&mut self, prog: u16) {
        if let Some(m) = self.metrics.as_deref_mut() {
            m.prog_ctx(prog);
        }
    }

    #[inline(always)]
    fn table_lookup(&mut self, gress: Gress, stage: usize, hit: bool) {
        if let Some(m) = self.metrics.as_deref_mut() {
            m.table_lookup(gress, stage, hit);
        }
        if let Some(t) = self.trace.as_deref_mut() {
            t.table_lookup(gress, stage, hit);
        }
    }

    #[inline(always)]
    fn action_executed(&mut self, gress: Gress, stage: usize) {
        if let Some(m) = self.metrics.as_deref_mut() {
            m.action_executed(gress, stage);
        }
        if let Some(t) = self.trace.as_deref_mut() {
            t.action_executed(gress, stage);
        }
    }

    #[inline(always)]
    fn salu_rmw(&mut self, gress: Gress, stage: usize, wrote: bool) {
        if let Some(m) = self.metrics.as_deref_mut() {
            m.salu_rmw(gress, stage, wrote);
        }
        if let Some(t) = self.trace.as_deref_mut() {
            t.salu_rmw(gress, stage, wrote);
        }
    }

    #[inline(always)]
    fn parser_path(&mut self, bitmap: u16) {
        if let Some(m) = self.metrics.as_deref_mut() {
            m.parser_path(bitmap);
        }
        if let Some(t) = self.trace.as_deref_mut() {
            t.parser_path(bitmap);
        }
    }

    #[inline(always)]
    fn tm_decision(&mut self, verdict: Verdict, report_copy: bool) {
        if let Some(m) = self.metrics.as_deref_mut() {
            m.tm_decision(verdict, report_copy);
        }
        if let Some(t) = self.trace.as_deref_mut() {
            t.tm_decision(verdict, report_copy);
        }
    }

    #[inline(always)]
    fn packet_begin(&mut self, packet: u64, port: u16, len: u32) {
        if let Some(m) = self.metrics.as_deref_mut() {
            m.packet_begin(packet, port, len);
        }
        if let Some(t) = self.trace.as_deref_mut() {
            t.packet_begin(packet, port, len);
        }
    }

    #[inline(always)]
    fn packet_flow(&mut self, packet: u64, src: u32, dst: u32, sport: u16, dport: u16, proto: u8) {
        if let Some(m) = self.metrics.as_deref_mut() {
            m.packet_flow(packet, src, dst, sport, dport, proto);
        }
        if let Some(t) = self.trace.as_deref_mut() {
            t.packet_flow(packet, src, dst, sport, dport, proto);
        }
    }

    #[inline(always)]
    fn pass_begin(&mut self, packet: u64, pass: u8) {
        if let Some(m) = self.metrics.as_deref_mut() {
            m.pass_begin(packet, pass);
        }
        if let Some(t) = self.trace.as_deref_mut() {
            t.pass_begin(packet, pass);
        }
    }

    #[inline(always)]
    fn packet_end(&mut self, packet: u64, passes: u8, dropped: bool) {
        if let Some(m) = self.metrics.as_deref_mut() {
            m.packet_end(packet, passes, dropped);
        }
        if let Some(t) = self.trace.as_deref_mut() {
            t.packet_end(packet, passes, dropped);
        }
    }
}

/// Extend `v` with default entries so that `idx` is in range: the cold
/// first-touch step of an indexed counter, kept out of the hooks' bodies.
#[cold]
#[inline(never)]
fn grow<T: Clone + Default>(v: &mut Vec<T>, idx: usize) {
    v.resize(idx + 1, T::default());
}

/// Per-gress stage metric vectors, grown on demand.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineMetrics {
    /// Per-stage counters, index = physical stage.
    pub stages: Vec<StageMetrics>,
}

serde::impl_serde_struct!(PipelineMetrics { stages });

impl PipelineMetrics {
    /// Stage `idx`'s counters: an indexed access, plus a growth step the
    /// first time a stage is touched.
    #[inline(always)]
    fn stage_mut(&mut self, idx: usize) -> &mut StageMetrics {
        if idx >= self.stages.len() {
            grow(&mut self.stages, idx);
        }
        &mut self.stages[idx]
    }

    /// Aggregate over all stages.
    pub fn total(&self) -> StageMetrics {
        let mut t = StageMetrics::default();
        for s in &self.stages {
            t.merge(s);
        }
        t
    }

    /// Fold another pipeline's counters in, stage by stage (growing to the
    /// longer of the two).
    pub(crate) fn merge(&mut self, other: &PipelineMetrics) {
        for (idx, s) in other.stages.iter().enumerate() {
            self.stage_mut(idx).merge(s);
        }
    }
}

/// One program's share of the data-plane counters, indexed by the
/// program id the PHV carried when the event fired (see
/// [`Recorder::prog_ctx`]). Slot 0 collects the unattributed remainder —
/// events recorded before the filter table bound a program to the packet
/// — so summing every slot reproduces the global counters exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProgramMetrics {
    /// Packets whose final pass ended under this program.
    pub packets: Counter,
    /// TM forward/return/multicast verdicts under this program.
    pub forwarded: Counter,
    /// TM drop verdicts under this program.
    pub drops: Counter,
    /// TM recirculation verdicts under this program.
    pub recirc_passes: Counter,
    /// Per-stage ingress counters attributed to this program.
    pub ingress: PipelineMetrics,
    /// Per-stage egress counters attributed to this program.
    pub egress: PipelineMetrics,
}

serde::impl_serde_struct!(ProgramMetrics {
    packets,
    forwarded,
    drops,
    recirc_passes,
    ingress,
    egress,
});

impl ProgramMetrics {
    fn gress_mut(&mut self, gress: Gress) -> &mut PipelineMetrics {
        match gress {
            Gress::Ingress => &mut self.ingress,
            Gress::Egress => &mut self.egress,
        }
    }

    /// Total installed-entry hits across both gresses.
    pub fn hits(&self) -> u64 {
        self.ingress.total().hits.get() + self.egress.total().hits.get()
    }

    /// Total SALU read-modify-writes across both gresses.
    pub fn salu_rmws(&self) -> u64 {
        self.ingress.total().salu_reads.get() + self.egress.total().salu_reads.get()
    }

    /// Fold another program slot's counters in.
    pub(crate) fn merge(&mut self, other: &ProgramMetrics) {
        self.packets.merge(other.packets);
        self.forwarded.merge(other.forwarded);
        self.drops.merge(other.drops);
        self.recirc_passes.merge(other.recirc_passes);
        self.ingress.merge(&other.ingress);
        self.egress.merge(&other.egress);
    }
}

/// Packets per accepted parser path, keyed by parse bitmap: a short list
/// kept sorted by bitmap, so counting a pass is a scan of the few paths a
/// parser has, with no key built. It serializes as the JSON object
/// `{"0x%04x": packets}`, keys in ascending order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParserPaths(Vec<(u16, u64)>);

impl ParserPaths {
    /// Count one packet on path `bitmap`; only a path never seen before
    /// allocates.
    #[inline]
    fn bump(&mut self, bitmap: u16) {
        match self.0.iter_mut().find(|(b, _)| *b == bitmap) {
            Some((_, n)) => *n += 1,
            None => self.add(bitmap, 1),
        }
    }

    #[cold]
    fn add(&mut self, bitmap: u16, n: u64) {
        match self.0.binary_search_by_key(&bitmap, |&(b, _)| b) {
            Ok(i) => self.0[i].1 += n,
            Err(i) => self.0.insert(i, (bitmap, n)),
        }
    }

    fn merge(&mut self, other: &ParserPaths) {
        for &(bitmap, n) in &other.0 {
            self.add(bitmap, n);
        }
    }
}

impl<'a> IntoIterator for &'a ParserPaths {
    type Item = (u16, u64);
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, (u16, u64)>>;

    /// `(bitmap, packets)` in ascending bitmap order.
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter().copied()
    }
}

impl serde::Serialize for ParserPaths {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(
            self.0.iter().map(|&(b, n)| (format!("{b:#06x}"), serde::Value::U64(n))).collect(),
        )
    }
}

impl serde::Deserialize for ParserPaths {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let mut paths = ParserPaths::default();
        for (key, n) in BTreeMap::<String, u64>::from_value(v)? {
            let bitmap = key
                .strip_prefix("0x")
                .and_then(|hex| u16::from_str_radix(hex, 16).ok())
                .ok_or_else(|| serde::Error::expected("a parse bitmap key like \"0x0003\""))?;
            paths.add(bitmap, n);
        }
        Ok(paths)
    }
}

/// The storing [`Recorder`]: everything the data plane reports, plus the
/// control plane's current epoch label.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRecorder {
    /// Telemetry epoch: bumped by the control plane at every deploy /
    /// revoke / update so packet-side series can be cut at lifecycle
    /// boundaries.
    pub epoch: u64,
    /// Ingress stage counters.
    pub ingress: PipelineMetrics,
    /// Egress stage counters.
    pub egress: PipelineMetrics,
    /// Packets per accepted parser path (serialized keyed by the parse
    /// bitmap formatted as `0x%04x`).
    pub parser_paths: ParserPaths,
    /// Traffic-manager counters.
    pub tm: TmMetrics,
    /// Per-program attribution slots, indexed by program id (`None` =
    /// attribution disabled, the default — every hook then skips the
    /// per-program bookkeeping behind one branch-on-None). Slot 0 holds
    /// unattributed events; the vector grows on demand to the highest
    /// program id observed.
    pub per_prog: Option<Vec<ProgramMetrics>>,
    /// The program id the current packet is bound to (transient recorder
    /// state, reset at `packet_begin`; serialized so snapshots round-trip
    /// field-for-field).
    pub cur_prog: u64,
}

serde::impl_serde_struct!(MetricsRecorder {
    epoch,
    ingress,
    egress,
    parser_paths,
    tm,
    per_prog,
    cur_prog,
});

impl MetricsRecorder {
    /// Fresh, epoch 0.
    pub fn new() -> MetricsRecorder {
        MetricsRecorder::default()
    }

    fn gress_mut(&mut self, gress: Gress) -> &mut PipelineMetrics {
        match gress {
            Gress::Ingress => &mut self.ingress,
            Gress::Egress => &mut self.egress,
        }
    }

    /// Turn per-program attribution on (idempotent; counters already
    /// accumulated stay global-only). The switch additionally needs to
    /// know which PHV field carries the program id — see
    /// `Switch::set_attribution_field`.
    pub fn enable_attribution(&mut self) {
        self.per_prog.get_or_insert_with(Vec::new);
    }

    /// Whether per-program attribution is on.
    pub fn is_attributing(&self) -> bool {
        self.per_prog.is_some()
    }

    /// The attribution slot for program `prog`, growing the vector on
    /// demand. `None` when attribution is disabled.
    #[inline(always)]
    pub fn prog_metrics_mut(&mut self, prog: u64) -> Option<&mut ProgramMetrics> {
        let pp = self.per_prog.as_mut()?;
        let idx = prog as usize;
        if idx >= pp.len() {
            grow(pp, idx);
        }
        Some(&mut pp[idx])
    }

    /// The attribution slot for the packet currently in flight.
    #[inline(always)]
    fn cur_slot(&mut self) -> Option<&mut ProgramMetrics> {
        let prog = self.cur_prog;
        self.prog_metrics_mut(prog)
    }

    /// Apply `bump` to stage `stage` of `gress`: the global counters, and
    /// the current packet's attribution slot when attribution is on. Both
    /// are indexed increments; only a first touch grows a vector.
    #[inline(always)]
    fn stage_event(&mut self, gress: Gress, stage: usize, bump: impl Fn(&mut StageMetrics)) {
        bump(self.gress_mut(gress).stage_mut(stage));
        if let Some(p) = self.cur_slot() {
            bump(p.gress_mut(gress).stage_mut(stage));
        }
    }

    /// Fold another recorder's counters in — the deterministic aggregation
    /// the parallel engine uses to merge per-worker telemetry. Every
    /// counter is additive and parser paths are keyed maps, so the merge
    /// result is independent of worker count and merge order; the epoch
    /// keeps the later (larger) label. Attribution enablement merges as a
    /// union (slot-wise additive when both sides carry slots), and the
    /// transient `cur_prog` keeps the larger value so the merge stays
    /// commutative.
    pub fn merge(&mut self, other: &MetricsRecorder) {
        self.epoch = self.epoch.max(other.epoch);
        self.ingress.merge(&other.ingress);
        self.egress.merge(&other.egress);
        self.parser_paths.merge(&other.parser_paths);
        self.tm.merge(&other.tm);
        if let Some(theirs) = &other.per_prog {
            let pp = self.per_prog.get_or_insert_with(Vec::new);
            if pp.len() < theirs.len() {
                pp.resize(theirs.len(), ProgramMetrics::default());
            }
            for (slot, o) in pp.iter_mut().zip(theirs) {
                slot.merge(o);
            }
        }
        self.cur_prog = self.cur_prog.max(other.cur_prog);
    }
}

impl Recorder for MetricsRecorder {
    #[inline]
    fn prog_ctx(&mut self, prog: u16) {
        self.cur_prog = u64::from(prog);
    }

    #[inline]
    fn packet_begin(&mut self, _packet: u64, _port: u16, _len: u32) {
        // A fresh frame starts unbound; the filter table re-binds it.
        self.cur_prog = 0;
    }

    #[inline]
    fn table_lookup(&mut self, gress: Gress, stage: usize, hit: bool) {
        self.stage_event(gress, stage, |s| {
            if hit {
                s.hits.incr();
            } else {
                s.misses.incr();
            }
        });
    }

    #[inline]
    fn action_executed(&mut self, gress: Gress, stage: usize) {
        self.stage_event(gress, stage, |s| s.actions.incr());
    }

    #[inline]
    fn salu_rmw(&mut self, gress: Gress, stage: usize, wrote: bool) {
        self.stage_event(gress, stage, |s| {
            s.salu_reads.incr();
            if wrote {
                s.salu_writes.incr();
            }
        });
    }

    #[inline]
    fn parser_path(&mut self, bitmap: u16) {
        self.parser_paths.bump(bitmap);
    }

    #[inline]
    fn tm_decision(&mut self, verdict: Verdict, report_copy: bool) {
        match verdict {
            Verdict::Forward(_) => self.tm.forwarded.incr(),
            Verdict::Return => self.tm.returned.incr(),
            Verdict::Drop => self.tm.dropped.incr(),
            Verdict::Recirculate => self.tm.recirculated.incr(),
            Verdict::Multicast(_) => self.tm.multicast.incr(),
        }
        if report_copy {
            self.tm.reports.incr();
        }
        if let Some(p) = self.cur_slot() {
            match verdict {
                Verdict::Forward(_) | Verdict::Return | Verdict::Multicast(_) => {
                    p.forwarded.incr()
                }
                Verdict::Drop => p.drops.incr(),
                Verdict::Recirculate => p.recirc_passes.incr(),
            }
        }
    }

    #[inline]
    fn packet_end(&mut self, _packet: u64, _passes: u8, _dropped: bool) {
        if let Some(p) = self.cur_slot() {
            p.packets.incr();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_arithmetic() {
        let mut c = Counter::default();
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
        let snap = c;
        c.add(8);
        let mut m = Counter::default();
        m.merge(c);
        m.merge(snap);
        assert_eq!(m.get(), 92);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::new(vec![10, 100, 1000]);
        for v in [5, 10, 11, 100, 101, 5000] {
            h.observe(v);
        }
        assert_eq!(h.bucket_counts(), &[2, 2, 1, 1]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 5 + 10 + 11 + 100 + 101 + 5000);
        assert_eq!(h.max(), Some(5000));
        let mean = h.mean().unwrap();
        assert!((mean - (5227.0 / 6.0)).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles_resolve_to_bucket_edges() {
        let mut h = Histogram::new(vec![10, 100, 1000]);
        for _ in 0..90 {
            h.observe(7);
        }
        for _ in 0..10 {
            h.observe(600);
        }
        assert_eq!(h.quantile(0.5), Some(10));
        assert_eq!(h.quantile(0.95), Some(1000));
        assert_eq!(h.quantile(1.0), Some(1000));
        assert_eq!(Histogram::new(vec![1]).quantile(0.5), None);
        // Overflow bucket reports the observed maximum.
        let mut o = Histogram::new(vec![10]);
        o.observe(99);
        assert_eq!(o.quantile(1.0), Some(99));
    }

    #[test]
    fn exponential_edges() {
        let h = Histogram::exponential(1_000, 10, 4);
        assert_eq!(h.bounds(), &[1_000, 10_000, 100_000, 1_000_000]);
        assert_eq!(h.bucket_counts().len(), 5);
    }

    #[test]
    fn metrics_recorder_routes_events() {
        let mut r = MetricsRecorder::new();
        r.table_lookup(Gress::Ingress, 2, true);
        r.table_lookup(Gress::Ingress, 2, false);
        r.action_executed(Gress::Ingress, 2);
        r.salu_rmw(Gress::Ingress, 2, true);
        r.salu_rmw(Gress::Ingress, 2, false);
        r.table_lookup(Gress::Egress, 0, false);
        r.parser_path(0x0003);
        r.parser_path(0x0003);
        r.parser_path(0x0001);
        r.tm_decision(Verdict::Forward(5), true);
        r.tm_decision(Verdict::Drop, false);
        r.tm_decision(Verdict::Recirculate, false);

        let ig = &r.ingress.stages[2];
        assert_eq!((ig.hits.get(), ig.misses.get(), ig.actions.get()), (1, 1, 1));
        assert_eq!((ig.salu_reads.get(), ig.salu_writes.get()), (2, 1));
        assert_eq!(r.ingress.stages[0], StageMetrics::default(), "untouched stage stays zero");
        assert_eq!(r.egress.stages[0].misses.get(), 1);
        assert_eq!(r.parser_paths.0, vec![(0x0001, 1), (0x0003, 2)], "sorted by bitmap");
        assert_eq!(r.tm.forwarded.get(), 1);
        assert_eq!(r.tm.dropped.get(), 1);
        assert_eq!(r.tm.reports.get(), 1);
        assert_eq!(r.tm.recirculated.get(), 1);
    }

    #[test]
    fn metrics_merge_is_additive_and_order_independent() {
        let mut a = MetricsRecorder::new();
        a.epoch = 2;
        a.table_lookup(Gress::Ingress, 1, true);
        a.parser_path(0x0003);
        a.tm_decision(Verdict::Forward(1), false);
        let mut b = MetricsRecorder::new();
        b.epoch = 5;
        b.table_lookup(Gress::Ingress, 1, false);
        b.table_lookup(Gress::Egress, 3, true);
        b.parser_path(0x0003);
        b.parser_path(0x0001);
        b.tm_decision(Verdict::Drop, true);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge is commutative");
        assert_eq!(ab.epoch, 5);
        let s = &ab.ingress.stages[1];
        assert_eq!((s.hits.get(), s.misses.get()), (1, 1));
        assert_eq!(ab.egress.stages[3].hits.get(), 1);
        assert_eq!(ab.parser_paths.0, vec![(0x0001, 1), (0x0003, 2)]);
        assert_eq!(ab.tm.forwarded.get(), 1);
        assert_eq!(ab.tm.dropped.get(), 1);
        assert_eq!(ab.tm.reports.get(), 1);
    }

    #[test]
    fn attribution_routes_events_to_program_slots() {
        let mut r = MetricsRecorder::new();
        assert!(!r.is_attributing());
        r.enable_attribution();
        assert!(r.is_attributing());

        r.packet_begin(1, 0, 64);
        // Stage 0: the filter lookup fires before the binding action.
        r.table_lookup(Gress::Ingress, 0, true);
        r.prog_ctx(2);
        r.table_lookup(Gress::Ingress, 1, true);
        r.salu_rmw(Gress::Ingress, 1, true);
        r.tm_decision(Verdict::Forward(3), false);
        r.packet_end(1, 1, false);

        r.packet_begin(2, 0, 64);
        r.table_lookup(Gress::Ingress, 0, false);
        r.tm_decision(Verdict::Drop, false);
        r.packet_end(2, 1, true);

        let pp = r.per_prog.as_ref().unwrap();
        assert_eq!(pp.len(), 3);
        // Slot 0: the pre-binding filter lookups plus the unmatched packet.
        assert_eq!(pp[0].ingress.total().hits.get(), 1);
        assert_eq!(pp[0].ingress.total().misses.get(), 1);
        assert_eq!(pp[0].drops.get(), 1);
        assert_eq!(pp[0].packets.get(), 1);
        // Slot 2: everything after the binding.
        assert_eq!(pp[2].ingress.total().hits.get(), 1);
        assert_eq!(pp[2].salu_rmws(), 1);
        assert_eq!(pp[2].forwarded.get(), 1);
        assert_eq!(pp[2].packets.get(), 1);

        // The per-program slots decompose the global counters exactly.
        let hits: u64 = pp.iter().map(|p| p.hits()).sum();
        assert_eq!(hits, r.ingress.total().hits.get() + r.egress.total().hits.get());
        let drops: u64 = pp.iter().map(|p| p.drops.get()).sum();
        assert_eq!(drops, r.tm.dropped.get());

        // Round-trips with attribution slots attached.
        let back: MetricsRecorder =
            serde::json::from_str(&serde::json::to_string(&r)).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn merge_unions_attribution_and_stays_commutative() {
        let mut a = MetricsRecorder::new();
        a.enable_attribution();
        a.prog_ctx(1);
        a.table_lookup(Gress::Ingress, 1, true);
        a.tm_decision(Verdict::Forward(1), false);
        // b never attributed (e.g. a worker forked before the feature
        // was on, or a zero-packet worker).
        let mut b = MetricsRecorder::new();
        b.table_lookup(Gress::Ingress, 1, false);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "attribution merge is commutative");
        assert!(ab.is_attributing());
        let pp = ab.per_prog.as_ref().unwrap();
        assert_eq!(pp[1].forwarded.get(), 1);
        // The unattributed side's lookup stays global-only: slots sum to
        // the *attributed* portion, globals carry everything.
        assert_eq!(ab.ingress.total().misses.get(), 1);
        assert_eq!(pp.iter().map(|p| p.hits()).sum::<u64>(), 1);
    }

    #[test]
    fn nop_recorder_stores_nothing() {
        // Compile-time check that every hook has a default body; the
        // NopRecorder must accept the full event stream.
        let mut n = NopRecorder;
        n.table_lookup(Gress::Ingress, 0, true);
        n.action_executed(Gress::Egress, 1);
        n.salu_rmw(Gress::Ingress, 3, false);
        n.parser_path(7);
        n.tm_decision(Verdict::Return, true);
    }

    #[test]
    fn serde_roundtrip() {
        let mut r = MetricsRecorder::new();
        r.epoch = 9;
        r.table_lookup(Gress::Ingress, 1, true);
        r.parser_path(0x00ff);
        r.tm_decision(Verdict::Multicast(3), false);
        let text = serde::json::to_string_pretty(&r);
        let back: MetricsRecorder = serde::json::from_str(&text).unwrap();
        assert_eq!(back, r);

        let mut h = Histogram::exponential(25_000, 2, 8);
        h.observe(330_000);
        h.observe(25_000);
        let text = serde::json::to_string(&h);
        let back: Histogram = serde::json::from_str(&text).unwrap();
        assert_eq!(back, h);
    }
}
