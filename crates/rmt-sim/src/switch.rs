//! The assembled switch: parser + ingress pipeline + traffic manager +
//! egress pipeline + deparser, with ports, counters, and the recirculation
//! loop.
//!
//! A [`Switch`] is built once (field table, parser, pipelines), then
//! [`Switch::provision`]ed, which validates every stage against its
//! hardware limits — the analogue of loading a compiled P4 binary. After
//! provisioning, the data plane configuration is fixed; only table entries
//! and register values change, through [`Switch::apply_op`], one atomic
//! operation at a time. That per-op atomicity is the substrate for the
//! paper's consistent-update protocol (§4.3, Figure 6).

use crate::error::{SimError, SimResult};
use crate::phv::{FieldId, FieldTable, Phv};
use crate::parser::Parser;
use crate::pipeline::{Gress, Pipeline};
use crate::resources::{check_stage, ChipReport};
use crate::salu::RegArray;
use crate::table::{EntryHandle, Table, TableEntry};
use crate::telemetry::{FanOut, MetricsRecorder, NopRecorder, Recorder};
use crate::tm::{decide, Verdict};
use crate::trace::{frame_five_tuple, TraceBuffer, TraceConfig, TraceStats};

/// Static configuration of a switch.
#[derive(Debug, Clone)]
pub struct SwitchConfig {
    /// Number of external front-panel ports (0..num_ports).
    pub num_ports: u16,
    /// The CPU punt port id (outside the external range).
    pub cpu_port: u16,
    /// The internal recirculation port id.
    pub recirc_port: u16,
    /// Hardware cap on recirculation passes per packet; exceeding it drops
    /// the packet (loop protection).
    pub max_recirc: u8,
    /// Multi-switch deployment (§4.1.3): when set, a recirculation verdict
    /// emits the state-headered frame on this *wire* port toward the next
    /// switch of the chain instead of looping internally.
    pub recirc_wire_port: Option<u16>,
    /// Ports on which arriving frames carry the state header (the chain's
    /// upstream hop); parsing starts in the recirculation state.
    pub recirc_ingress_ports: Vec<u16>,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            num_ports: 64,
            cpu_port: 192,
            recirc_port: 68,
            max_recirc: 8,
            recirc_wire_port: None,
            recirc_ingress_ports: Vec::new(),
        }
    }
}

/// Per-port packet/byte counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortCounters {
    /// Rx pkts.
    pub rx_pkts: u64,
    /// Rx bytes.
    pub rx_bytes: u64,
    /// Tx pkts.
    pub tx_pkts: u64,
    /// Tx bytes.
    pub tx_bytes: u64,
}

/// What happened to one injected frame.
#[derive(Debug, Clone)]
pub struct ProcessOutcome {
    /// Frames emitted on external ports: `(port, bytes)`.
    pub emitted: Vec<(u16, Vec<u8>)>,
    /// Copies punted to the CPU port (`REPORT`).
    pub reports: Vec<Vec<u8>>,
    /// The packet was dropped (explicitly or by parser reject / recirc cap).
    pub dropped: bool,
    /// Pipeline passes consumed (1 = no recirculation).
    pub passes: u8,
    /// Final PHV, for white-box assertions in tests.
    pub phv: Phv,
    /// The frame buffers of the outcome's previous use, handed out again by
    /// [`ProcessOutcome::buffer`]: an outcome that is reused stops
    /// allocating once it has held its largest emission.
    spare: Vec<Vec<u8>>,
}

impl ProcessOutcome {
    /// An empty outcome to pass to [`Switch::process_frame_into`]; reusing
    /// one across calls reuses its buffers.
    pub fn empty() -> ProcessOutcome {
        ProcessOutcome {
            emitted: Vec::new(),
            reports: Vec::new(),
            dropped: false,
            passes: 0,
            phv: Phv::default(),
            spare: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.spare.extend(self.emitted.drain(..).map(|(_, bytes)| bytes));
        self.spare.append(&mut self.reports);
        self.dropped = false;
        self.passes = 0;
    }

    /// An empty frame buffer, recycled where one is spare.
    fn buffer(&mut self) -> Vec<u8> {
        let mut buf = self.spare.pop().unwrap_or_default();
        buf.clear();
        buf
    }
}

/// Addresses a table inside the switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableRef {
    /// Gress.
    pub gress: Gress,
    /// Stage.
    pub stage: usize,
    /// Table.
    pub table: usize,
}

/// Per-table lookup-structure statistics: which index serves the table
/// (`exact` / `lpm` / `tss` / `scan`) and its common-mask partition and
/// tuple-space mask-group counts. Surfaced through the telemetry report's
/// `tables` section (`status --json`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TableIndexStats {
    /// `"ingress"` or `"egress"`.
    pub gress: String,
    /// Stage index.
    pub stage: u64,
    /// Table index within the stage.
    pub table: u64,
    /// Table name.
    pub name: String,
    /// `"exact"`, `"lpm"`, `"tss"`, or `"scan"`.
    pub mode: String,
    /// False when `set_indexed(false)` forces the authoritative scan.
    pub indexed: bool,
    /// Live entries.
    pub entries: u64,
    /// Tuple-space mask groups, summed over the partitions large enough
    /// to keep them (0 unless `mode == "tss"`).
    pub tss_groups: u64,
    /// Common-mask partitions (0 unless `mode == "tss"`).
    pub tss_partitions: u64,
    /// Entries in the largest partition — the number that predicts lookup
    /// cost (0 unless `mode == "tss"`).
    pub tss_max_partition: u64,
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Reserved, always 0: the megaflow result cache is gone, but
    /// `p4rp_bench` still reads this field for `table.cache_hit_ratio`.
    /// Goes with that metric in a `benchmark` PR.
    pub cache_hits: u64,
    /// Reserved, always 0 (see `cache_hits`).
    pub cache_misses: u64,
}

serde::impl_serde_struct!(TableIndexStats {
    gress,
    stage,
    table,
    name,
    mode,
    indexed,
    entries,
    tss_groups,
    tss_partitions,
    tss_max_partition,
    hits,
    misses,
    cache_hits,
    cache_misses,
});

/// Addresses a register array inside the switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayRef {
    /// Gress.
    pub gress: Gress,
    /// Stage.
    pub stage: usize,
    /// Array.
    pub array: usize,
}

/// One atomic control-plane operation.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlOp {
    /// Insert one table entry (the switch allocates its handle).
    InsertEntry { table: TableRef, entry: TableEntry },
    /// Delete one table entry by handle.
    DeleteEntry { table: TableRef, handle: EntryHandle },
    /// Write one register bucket.
    WriteReg { array: ArrayRef, addr: u32, value: u32 },
    /// Read one register bucket.
    ReadReg { array: ArrayRef, addr: u32 },
    /// Snapshot a contiguous register range.
    ReadRegRange { array: ArrayRef, start: u32, len: u32 },
    /// Zero a contiguous register range (bulk DMA-style reset).
    ResetRegRange { array: ArrayRef, start: u32, len: u32 },
}

/// Result of one control operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpResult {
    /// The entry was inserted under this handle.
    Inserted(EntryHandle),
    /// The entry was deleted.
    Deleted,
    /// The bucket was written.
    Written,
    /// The bucket's value.
    Read(u32),
    /// The range's values.
    ReadRange(Vec<u32>),
    /// The range was zeroed.
    Reset,
}

/// The assembled switch.
#[derive(Debug, Clone)]
pub struct Switch {
    /// Cfg.
    pub cfg: SwitchConfig,
    ft: FieldTable,
    parser: Parser,
    ingress: Pipeline,
    egress: Pipeline,
    /// Presence fields zeroed just before final emission — models the
    /// egress deparser invalidating internal-only headers (the P4runpro
    /// recirculation header never escapes to the external network, §4.1.3).
    strip_on_emit: Vec<FieldId>,
    /// Multicast groups (traffic-manager PRE configuration): group id →
    /// egress ports. Group 0 is reserved ("no multicast").
    mcast_groups: std::collections::HashMap<u16, Vec<u16>>,
    provisioned: bool,
    next_handle: u64,
    /// Device generation: bumped by every [`Switch::reset_device`], so the
    /// control plane can tell "my entries vanished" from "the device
    /// rebooted underneath me".
    generation: u64,
    counters: Vec<PortCounters>,
    /// Cpu counters.
    pub cpu_counters: PortCounters,
    /// Drops.
    pub drops: u64,
    /// Recirc passes.
    pub recirc_passes: u64,
    /// Telemetry storage; `None` (the default) keeps the data path on the
    /// no-op recorder.
    telemetry: Option<MetricsRecorder>,
    /// PHV field carrying the owning program id (`p4rp.prog_id`), set by
    /// the control plane when per-program attribution is wanted. `None`
    /// (the default) keeps attribution entirely off the packet path.
    attr_field: Option<FieldId>,
    /// Flight recorder; `None` (the default) records nothing. Boxed so the
    /// disabled switch stays small and clones stay cheap.
    trace: Option<Box<TraceBuffer>>,
    /// Switch-global packet id, stamped on every per-packet trace event.
    /// Always advanced (one add per frame) so ids stay unique across
    /// enable/disable windows of the flight recorder.
    next_packet_id: u64,
    /// Scratch pool reused across packets and recirculation passes: the
    /// working PHV (swapped with the outcome's at the end of a frame), two
    /// ping-pong frame buffers a recirculating packet is rebuilt into, and
    /// the `strip_on_emit` values set aside while a REPORT copy is built.
    scratch_phv: Phv,
    scratch_frame: Vec<u8>,
    scratch_next: Vec<u8>,
    scratch_strip: Vec<u64>,
}

impl Switch {
    /// Assemble a switch from its parts. Call [`Switch::provision`] before
    /// processing packets.
    pub fn assemble(
        cfg: SwitchConfig,
        ft: FieldTable,
        parser: Parser,
        ingress: Pipeline,
        egress: Pipeline,
    ) -> Switch {
        let ports = usize::from(cfg.num_ports);
        let scratch_phv = Phv::new(&ft);
        Switch {
            cfg,
            ft,
            parser,
            ingress,
            egress,
            strip_on_emit: Vec::new(),
            mcast_groups: std::collections::HashMap::new(),
            provisioned: false,
            next_handle: 1,
            generation: 0,
            counters: vec![PortCounters::default(); ports],
            cpu_counters: PortCounters::default(),
            drops: 0,
            recirc_passes: 0,
            telemetry: None,
            attr_field: None,
            trace: None,
            next_packet_id: 0,
            scratch_phv,
            scratch_frame: Vec::new(),
            scratch_next: Vec::new(),
            scratch_strip: Vec::new(),
        }
    }

    /// Turn telemetry on (idempotent); subsequent frames record into the
    /// returned [`MetricsRecorder`]. If an attribution field was already
    /// configured, the recorder comes up attributing.
    pub fn enable_telemetry(&mut self) -> &mut MetricsRecorder {
        let attributing = self.attr_field.is_some();
        let m = self.telemetry.get_or_insert_with(MetricsRecorder::new);
        if attributing {
            m.enable_attribution();
        }
        m
    }

    /// Attribute per-stage telemetry to the program id carried in PHV
    /// field `f` (`p4rp.prog_id`). Takes effect immediately when
    /// telemetry is on, and persists across [`Switch::enable_telemetry`]
    /// / [`Switch::fork_worker`]. Attribution costs one PHV read plus a
    /// recorder call per stage per pass — only when both telemetry and
    /// this field are set; otherwise the packet path keeps its
    /// branch-on-None.
    pub fn set_attribution_field(&mut self, f: FieldId) {
        self.attr_field = Some(f);
        if let Some(m) = &mut self.telemetry {
            m.enable_attribution();
        }
    }

    /// Disarm attribution without touching telemetry: the recorder keeps
    /// its accumulated per-program slots (a future
    /// [`Switch::set_attribution_field`] resumes into them), but new
    /// frames stop reading the PHV field and the stage path reverts to
    /// branch-on-None.
    pub fn clear_attribution_field(&mut self) {
        self.attr_field = None;
    }

    /// Turn telemetry off, returning the accumulated metrics if any.
    pub fn disable_telemetry(&mut self) -> Option<MetricsRecorder> {
        self.telemetry.take()
    }

    /// The accumulated metrics, if telemetry is enabled.
    pub fn telemetry(&self) -> Option<&MetricsRecorder> {
        self.telemetry.as_ref()
    }

    /// Mutable access to the metrics (epoch bumps, resets).
    pub fn telemetry_mut(&mut self) -> Option<&mut MetricsRecorder> {
        self.telemetry.as_mut()
    }

    /// Turn the flight recorder on with the given ring configuration
    /// (idempotent: an already-enabled recorder keeps its ring and its
    /// configuration). Subsequent frames and control operations land in
    /// the returned [`TraceBuffer`].
    pub fn enable_trace(&mut self, cfg: TraceConfig) -> &mut TraceBuffer {
        self.trace.get_or_insert_with(|| Box::new(TraceBuffer::new(cfg)))
    }

    /// Turn the flight recorder off, returning the final ring if it was on.
    pub fn disable_trace(&mut self) -> Option<Box<TraceBuffer>> {
        self.trace.take()
    }

    /// The flight recorder, if enabled.
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.trace.as_deref()
    }

    /// Mutable access to the flight recorder (clock sync, control-side
    /// events, post-mortem dumps).
    pub fn trace_mut(&mut self) -> Option<&mut TraceBuffer> {
        self.trace.as_deref_mut()
    }

    /// Flight-recorder statistics; the disabled sentinel when tracing is
    /// off (`status --json` reports this without a dump).
    pub fn trace_stats(&self) -> TraceStats {
        self.trace.as_ref().map(|t| t.stats()).unwrap_or_else(TraceStats::disabled)
    }

    /// The id the next injected frame will carry in its trace events.
    pub fn next_packet_id(&self) -> u64 {
        self.next_packet_id
    }

    /// Pin the id the next injected frame will carry. The parallel replay
    /// driver stamps each packet with its *global* trace position before
    /// injection, so per-packet trace events carry the same ids a
    /// sequential replay of the same trace would — which is what makes
    /// merged rings worker-count-independent.
    pub fn set_next_packet_id(&mut self, id: u64) {
        self.next_packet_id = id;
    }

    /// Mark headers to strip at final emission (by presence field).
    pub fn set_strip_on_emit(&mut self, presence_fields: Vec<FieldId>) {
        self.strip_on_emit = presence_fields;
    }

    /// Configure a traffic-manager multicast group (PRE programming).
    /// Group 0 is reserved and cannot be configured.
    pub fn set_multicast_group(&mut self, group: u16, ports: Vec<u16>) -> SimResult<()> {
        if group == 0 {
            return Err(SimError::Config("multicast group 0 is reserved".into()));
        }
        for &p in &ports {
            if usize::from(p) >= self.counters.len() {
                return Err(SimError::NoSuchPort(p));
            }
        }
        self.mcast_groups.insert(group, ports);
        Ok(())
    }

    /// Validate the whole configuration against hardware limits and freeze
    /// it. The analogue of pushing a compiled binary to the ASIC.
    pub fn provision(&mut self) -> SimResult<ChipReport> {
        self.parser.validate()?;
        // The parser can only check itself; that every header field fits
        // the PHV field it is extracted into needs the field table. A wider
        // one would be truncated on parse and deparsed short.
        for def in self.parser.headers() {
            let fields = def.fields.iter().map(|hf| (hf.field, hf.bits));
            for (field, bits) in fields.chain([(def.presence, 1)]) {
                if usize::from(field.0) >= self.ft.len() {
                    return Err(SimError::Config(format!(
                        "header `{}` names PHV field {}, which is not registered",
                        def.name, field.0
                    )));
                }
                let spec = self.ft.spec(field);
                if bits > spec.bits {
                    return Err(SimError::Config(format!(
                        "header `{}`: {bits} bits are extracted into `{}`, which holds {}",
                        def.name, spec.name, spec.bits
                    )));
                }
            }
        }
        for pipe in [&self.ingress, &self.egress] {
            for stage in &pipe.stages {
                check_stage(stage, &self.ft)?;
            }
        }
        self.provisioned = true;
        Ok(ChipReport::build(&self.ft, &self.ingress, &self.egress))
    }

    /// Is provisioned.
    pub fn is_provisioned(&self) -> bool {
        self.provisioned
    }

    /// Field table.
    pub fn field_table(&self) -> &FieldTable {
        &self.ft
    }

    /// Parser.
    pub fn parser(&self) -> &Parser {
        &self.parser
    }

    /// Port counters.
    pub fn port_counters(&self, port: u16) -> SimResult<PortCounters> {
        self.counters
            .get(usize::from(port))
            .copied()
            .ok_or(SimError::NoSuchPort(port))
    }

    /// Device generation (bumped by [`Switch::reset_device`]).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Power-cycle the data plane: every table wiped, every register array
    /// zeroed, multicast groups cleared, generation bumped. The compiled
    /// pipeline configuration (parser, table/array shapes) survives — this
    /// models a device reboot that reloads the P4 binary but loses all
    /// runtime state. Entry handles are *not* reused afterwards.
    pub(crate) fn reset_device(&mut self) {
        for pipe in [&mut self.ingress, &mut self.egress] {
            for stage in &mut pipe.stages {
                for table in &mut stage.tables {
                    table.clear();
                }
                for array in &mut stage.arrays {
                    let size = array.size();
                    array.reset_range(0, size).expect("full-array reset is in range");
                }
            }
        }
        self.mcast_groups.clear();
        self.generation += 1;
    }

    /// Every table in the device, in deterministic pipeline order — the
    /// audit surface for control-plane reconciliation.
    pub fn table_refs(&self) -> Vec<TableRef> {
        let mut refs = Vec::new();
        for pipe in [&self.ingress, &self.egress] {
            for (si, stage) in pipe.stages.iter().enumerate() {
                for ti in 0..stage.tables.len() {
                    refs.push(TableRef { gress: stage.gress, stage: si, table: ti });
                }
            }
        }
        refs
    }

    /// Force every table onto the priority-ordered scan (`false`) or its
    /// maintained index (`true`) — the device-wide scan-authority toggle
    /// the benches and the bit-identical replay tests use.
    pub fn set_indexed_all(&mut self, on: bool) {
        for pipe in [&mut self.ingress, &mut self.egress] {
            for stage in &mut pipe.stages {
                for table in &mut stage.tables {
                    table.set_indexed(on);
                }
            }
        }
    }

    /// Lookup-structure statistics for every table, in the same
    /// deterministic order as [`Switch::table_refs`].
    pub fn table_index_stats(&self) -> Vec<TableIndexStats> {
        let mut stats = Vec::new();
        for pipe in [&self.ingress, &self.egress] {
            for (si, stage) in pipe.stages.iter().enumerate() {
                for (ti, t) in stage.tables.iter().enumerate() {
                    stats.push(TableIndexStats {
                        gress: stage.gress.to_string(),
                        stage: si as u64,
                        table: ti as u64,
                        name: t.name.clone(),
                        mode: t.index_mode().to_string(),
                        indexed: t.is_indexed(),
                        entries: t.len() as u64,
                        tss_groups: t.tss_groups() as u64,
                        tss_partitions: t.tss_partitions() as u64,
                        tss_max_partition: t.tss_max_partition() as u64,
                        hits: t.hits,
                        misses: t.misses,
                        cache_hits: 0,
                        cache_misses: 0,
                    });
                }
            }
        }
        stats
    }

    fn pipeline(&self, gress: Gress) -> &Pipeline {
        match gress {
            Gress::Ingress => &self.ingress,
            Gress::Egress => &self.egress,
        }
    }

    fn pipeline_mut(&mut self, gress: Gress) -> &mut Pipeline {
        match gress {
            Gress::Ingress => &mut self.ingress,
            Gress::Egress => &mut self.egress,
        }
    }

    /// Read-only access to a table (monitoring, tests).
    pub fn table(&self, r: TableRef) -> SimResult<&Table> {
        self.pipeline(r.gress).stage(r.stage)?.table(r.table)
    }

    /// Read-only access to a register array.
    pub fn array(&self, r: ArrayRef) -> SimResult<&RegArray> {
        self.pipeline(r.gress).stage(r.stage)?.array(r.array)
    }

    /// Apply one atomic control operation. An insert's entry moves into
    /// the table.
    ///
    /// Atomicity model: operations never interleave with a packet (callers
    /// alternate `process_frame` and `apply_op`), and each operation either
    /// fully applies or fails without effect — RMT's single-entry update
    /// guarantee.
    pub fn apply_op(&mut self, op: ControlOp) -> SimResult<OpResult> {
        self.apply(op).map_err(|refused| refused.0)
    }

    /// [`Switch::apply_op`], handing a refused operation back with the
    /// error, so a batch that stops at it can return it unapplied.
    pub(crate) fn apply(&mut self, op: ControlOp) -> Result<OpResult, Box<(SimError, ControlOp)>> {
        let ControlOp::InsertEntry { table, entry } = op else {
            return self.apply_in_place(&op).map_err(|e| Box::new((e, op)));
        };
        let handle = EntryHandle(self.next_handle);
        let admitted = self
            .pipeline_mut(table.gress)
            .stage_mut(table.stage)
            .and_then(|s| s.table_mut(table.table))
            .and_then(|t| t.admit(&entry).map(|()| t));
        match admitted {
            Ok(t) => {
                t.file(handle, entry);
                self.next_handle += 1;
                Ok(OpResult::Inserted(handle))
            }
            Err(e) => Err(Box::new((e, ControlOp::InsertEntry { table, entry }))),
        }
    }

    /// Every operation but an insert: none owns data the switch keeps.
    fn apply_in_place(&mut self, op: &ControlOp) -> SimResult<OpResult> {
        match op {
            ControlOp::InsertEntry { .. } => unreachable!("inserts move their entry in `apply`"),
            ControlOp::DeleteEntry { table, handle } => {
                let t = self
                    .pipeline_mut(table.gress)
                    .stage_mut(table.stage)?
                    .table_mut(table.table)?;
                t.delete(*handle)?;
                Ok(OpResult::Deleted)
            }
            ControlOp::WriteReg { array, addr, value } => {
                let a = self
                    .pipeline_mut(array.gress)
                    .stage_mut(array.stage)?
                    .array_mut(array.array)?;
                a.write(*addr, *value)?;
                Ok(OpResult::Written)
            }
            ControlOp::ReadReg { array, addr } => {
                let a = self.pipeline(array.gress).stage(array.stage)?.array(array.array)?;
                Ok(OpResult::Read(a.read(*addr)?))
            }
            ControlOp::ReadRegRange { array, start, len } => {
                let a = self.pipeline(array.gress).stage(array.stage)?.array(array.array)?;
                Ok(OpResult::ReadRange(a.read_range(*start, *len)?))
            }
            ControlOp::ResetRegRange { array, start, len } => {
                let a = self
                    .pipeline_mut(array.gress)
                    .stage_mut(array.stage)?
                    .array_mut(array.array)?;
                a.reset_range(*start, *len)?;
                Ok(OpResult::Reset)
            }
        }
    }

    /// Replay one published control-batch delta onto this switch — the
    /// worker side of the snapshot protocol (see [`crate::snapshot`]).
    /// Inserts reuse the master-assigned handle (keeping `next_handle` in
    /// sync so later deletes resolve), and a mid-batch device reset lands
    /// at its recorded position in the op sequence. The delta was built
    /// from operations that already succeeded on an identically shaped
    /// master device, so failures here indicate a diverged clone and are
    /// surfaced rather than skipped.
    pub(crate) fn adopt_delta(&mut self, delta: &crate::snapshot::BatchDelta) -> SimResult<()> {
        use crate::snapshot::AppliedOp;
        for op in &delta.ops {
            match op {
                AppliedOp::Insert { table, handle, entry } => {
                    let t = self
                        .pipeline_mut(table.gress)
                        .stage_mut(table.stage)?
                        .table_mut(table.table)?;
                    t.insert(*handle, entry.clone())?;
                    self.next_handle = self.next_handle.max(handle.0 + 1);
                }
                AppliedOp::Delete { table, handle } => {
                    let t = self
                        .pipeline_mut(table.gress)
                        .stage_mut(table.stage)?
                        .table_mut(table.table)?;
                    t.delete(*handle)?;
                }
                AppliedOp::WriteReg { array, addr, value } => {
                    let a = self
                        .pipeline_mut(array.gress)
                        .stage_mut(array.stage)?
                        .array_mut(array.array)?;
                    a.write(*addr, *value)?;
                }
                AppliedOp::ResetRegRange { array, start, len } => {
                    let a = self
                        .pipeline_mut(array.gress)
                        .stage_mut(array.stage)?
                        .array_mut(array.array)?;
                    a.reset_range(*start, *len)?;
                }
                AppliedOp::Reset => self.reset_device(),
            }
        }
        // Epoch-before-batch, worker edition: the batch's table state and
        // its epoch label become visible to this worker's packets
        // together, between two frames.
        if let Some(m) = &mut self.telemetry {
            m.epoch = m.epoch.max(delta.epoch);
        }
        if let Some(t) = &mut self.trace {
            if delta.epoch > t.epoch() {
                t.set_epoch(delta.epoch);
            }
        }
        Ok(())
    }

    /// Clone this switch for a worker thread: identical provisioned
    /// configuration and table/register contents, but fresh counters and —
    /// when enabled on the master — a fresh telemetry recorder and a fresh
    /// trace ring (same configuration, same epoch/clock position), so
    /// per-worker observations start at zero and merge cleanly.
    pub(crate) fn fork_worker(&self) -> Switch {
        let mut w = self.clone();
        w.counters = vec![PortCounters::default(); w.counters.len()];
        w.cpu_counters = PortCounters::default();
        w.drops = 0;
        w.recirc_passes = 0;
        if let Some(m) = &mut w.telemetry {
            let epoch = m.epoch;
            let attributing = m.is_attributing();
            *m = MetricsRecorder::new();
            m.epoch = epoch;
            if attributing {
                m.enable_attribution();
            }
        }
        if let Some(t) = &mut w.trace {
            let mut fresh = TraceBuffer::new(t.config().clone());
            fresh.set_now(t.now());
            fresh.set_epoch(t.epoch());
            **t = fresh;
        }
        w
    }

    /// Process one frame injected on an external port, running the full
    /// parser → ingress → TM → egress → deparser path, following
    /// recirculations internally until the packet is emitted or dropped.
    pub fn process_frame(&mut self, port: u16, frame: &[u8]) -> SimResult<ProcessOutcome> {
        let mut outcome = ProcessOutcome::empty();
        self.process_frame_into(port, frame, &mut outcome)?;
        Ok(outcome)
    }

    /// [`Switch::process_frame`] into a caller-owned outcome: `outcome` is
    /// cleared and refilled, so an injection loop that keeps one outcome
    /// alive reuses its buffers — emitted frames, report copies and the PHV
    /// — instead of allocating per packet. The working PHV and the
    /// recirculation frame buffers come from the switch's scratch pool,
    /// reused across passes and across packets.
    pub fn process_frame_into(
        &mut self,
        port: u16,
        frame: &[u8],
        outcome: &mut ProcessOutcome,
    ) -> SimResult<()> {
        // The recorder is picked once per frame. Nothing listening is the
        // common case and gets the walk instantiated over `NopRecorder`,
        // where every hook compiles away; anything else gets the one
        // `FanOut` instantiation, which borrows the enabled sinks in place.
        if self.telemetry.is_none() && self.trace.is_none() {
            return self.run_frame(port, frame, outcome, |_, _| NopRecorder, None, None);
        }
        // Per-program attribution: resolve the PHV field to thread through
        // the pipelines once per frame. `None` (attribution off, or
        // telemetry off) keeps every stage on the plain path.
        let attr = match &self.telemetry {
            Some(m) if m.is_attributing() => self.attr_field,
            _ => None,
        };
        // Five-tuple extraction is trace-only work.
        let flow = if self.trace.is_some() { frame_five_tuple(frame) } else { None };
        let r = self.run_frame(
            port,
            frame,
            outcome,
            |metrics, trace| FanOut { metrics: metrics.as_mut(), trace: trace.as_deref_mut() },
            attr,
            flow,
        );
        if let Err(e) = &r {
            if let Some(t) = self.trace.as_deref_mut() {
                t.dump_postmortem(&format!("process_frame error: {e}"));
            }
        }
        r
    }

    /// One frame through the switch, reporting into the recorder `sinks`
    /// builds from the switch's own telemetry and trace slots — which the
    /// walk borrows alongside the rest of the switch, in place.
    fn run_frame<'s, R: Recorder>(
        &'s mut self,
        port: u16,
        frame: &[u8],
        outcome: &mut ProcessOutcome,
        sinks: impl FnOnce(&'s mut Option<MetricsRecorder>, &'s mut Option<Box<TraceBuffer>>) -> R,
        attr: Option<FieldId>,
        flow: Option<(u32, u32, u16, u16, u8)>,
    ) -> SimResult<()> {
        let Switch {
            cfg,
            ft,
            parser,
            ingress,
            egress,
            strip_on_emit,
            mcast_groups,
            provisioned,
            counters,
            cpu_counters,
            drops,
            recirc_passes,
            telemetry,
            trace,
            next_packet_id,
            scratch_phv,
            scratch_frame,
            scratch_next,
            scratch_strip,
            ..
        } = self;
        if !*provisioned {
            return Err(SimError::Config("switch not provisioned".into()));
        }
        if usize::from(port) >= counters.len() {
            return Err(SimError::NoSuchPort(port));
        }
        counters[usize::from(port)].rx_pkts += 1;
        counters[usize::from(port)].rx_bytes += frame.len() as u64;
        outcome.clear();
        let packet = *next_packet_id;
        *next_packet_id += 1;
        let rec = &mut sinks(telemetry, trace);
        let (ft, cfg) = (&*ft, &*cfg);

        let intr = ft.intrinsics();
        let external_port = port;
        // Borrow-check the scratch pool as locals for the duration of the
        // frame; an early `?` return forfeits the buffers' capacity (they
        // re-grow on the next frame), never their correctness.
        let mut rebuilt = std::mem::take(scratch_frame);
        let mut next = std::mem::take(scratch_next);
        let mut stripped = std::mem::take(scratch_strip);
        let mut phv = std::mem::take(scratch_phv);
        let mut from_recirc = cfg.recirc_ingress_ports.contains(&port);
        let mut ingress_port = port;
        let mut passes: u8 = 0;

        rec.packet_begin(packet, port, frame.len() as u32);
        if let Some((src, dst, sport, dport, proto)) = flow {
            rec.packet_flow(packet, src, dst, sport, dport, proto);
        }
        loop {
            passes += 1;
            rec.pass_begin(packet, passes);
            // The first pass reads the caller's bytes where they are; only a
            // recirculating packet is ever copied, by being rebuilt.
            let current: &[u8] = if passes == 1 { frame } else { &rebuilt };
            phv.reset_for(ft);
            let parse = match parser.parse(ft, current, &mut phv, from_recirc) {
                Ok(p) => p,
                Err(SimError::ParserReject) => {
                    *drops += 1;
                    outcome.dropped = true;
                    break;
                }
                Err(e) => return Err(e),
            };
            let payload = &current[parse.payload_offset..];
            phv.set(ft, intr.ingress_port, u64::from(ingress_port));

            rec.parser_path(parse.bitmap);
            ingress.run(ft, &mut phv, rec, attr)?;
            let decision = decide(ft, &phv);
            // Re-sync the program context before the TM verdict: the
            // filter table's binding action ran *after* the last stage-top
            // context refresh, so this is where a fresh binding first
            // becomes visible to the recorder.
            if let Some(f) = attr {
                rec.prog_ctx(phv.get(f) as u16);
            }
            rec.tm_decision(decision.verdict, decision.report_copy);
            // REPORT copies are punted once, on the packet's final pass
            // (the flag rides the recirculation header between passes).
            if decision.report_copy && decision.verdict != Verdict::Recirculate {
                // The copy leaves the switch, so it is built with the
                // internal-only headers stripped; the packet itself keeps
                // them until its own emission.
                stripped.clear();
                for f in strip_on_emit.iter() {
                    stripped.push(phv.get(*f));
                    phv.set(ft, *f, 0);
                }
                let mut bytes = outcome.buffer();
                parser.deparse_into(ft, &phv, payload, &mut bytes);
                for (f, v) in strip_on_emit.iter().zip(&stripped) {
                    phv.set(ft, *f, *v);
                }
                cpu_counters.tx_pkts += 1;
                cpu_counters.tx_bytes += bytes.len() as u64;
                outcome.reports.push(bytes);
            }

            match decision.verdict {
                Verdict::Drop => {
                    // The drop applies at the *end of egress*: a dropped
                    // packet still traverses the egress pipeline so that
                    // egress-RPB state updates (e.g. the cache-write
                    // MEMWRITE before a DROP verdict) take effect.
                    egress.run(ft, &mut phv, rec, attr)?;
                    *drops += 1;
                    outcome.dropped = true;
                    break;
                }
                Verdict::Recirculate => {
                    if passes > cfg.max_recirc {
                        *drops += 1;
                        outcome.dropped = true;
                        break;
                    }
                    egress.run(ft, &mut phv, rec, attr)?;
                    *recirc_passes += 1;
                    // Multi-switch chain: hand the state-headered frame to
                    // the next switch over the wire (the header is *not*
                    // stripped on this port).
                    if let Some(wire) = cfg.recirc_wire_port {
                        let mut bytes = outcome.buffer();
                        parser.deparse_into(ft, &phv, payload, &mut bytes);
                        if let Some(c) = counters.get_mut(usize::from(wire)) {
                            c.tx_pkts += 1;
                            c.tx_bytes += bytes.len() as u64;
                        }
                        outcome.emitted.push((wire, bytes));
                        break;
                    }
                    // Rebuild the frame for the next pass into the spare
                    // buffer and swap — no allocation per recirculation.
                    parser.deparse_into(ft, &phv, payload, &mut next);
                    std::mem::swap(&mut rebuilt, &mut next);
                    from_recirc = true;
                    ingress_port = cfg.recirc_port;
                }
                Verdict::Return | Verdict::Forward(_) | Verdict::Multicast(_) => {
                    // Each replica traverses egress independently (the PRE
                    // clones before the egress pipeline; with identical
                    // egress state the results coincide, so one egress pass
                    // is processed and the frame replicated).
                    egress.run(ft, &mut phv, rec, attr)?;
                    for f in strip_on_emit.iter() {
                        phv.set(ft, *f, 0);
                    }
                    let mut bytes = outcome.buffer();
                    parser.deparse_into(ft, &phv, payload, &mut bytes);
                    let single;
                    let out_ports: &[u16] = match decision.verdict {
                        Verdict::Return => {
                            single = [external_port];
                            &single
                        }
                        Verdict::Forward(p) => {
                            single = [p];
                            &single
                        }
                        Verdict::Multicast(g) => {
                            mcast_groups.get(&g).map(Vec::as_slice).unwrap_or(&[])
                        }
                        _ => unreachable!(),
                    };
                    for &out_port in out_ports {
                        if let Some(c) = counters.get_mut(usize::from(out_port)) {
                            c.tx_pkts += 1;
                            c.tx_bytes += bytes.len() as u64;
                        }
                    }
                    match out_ports.split_last() {
                        None => {
                            *drops += 1;
                            outcome.dropped = true;
                            outcome.spare.push(bytes);
                        }
                        // The last replica takes the deparsed frame itself;
                        // earlier ones are copies of it.
                        Some((&last, earlier)) => {
                            for &out_port in earlier {
                                let mut copy = outcome.buffer();
                                copy.extend_from_slice(&bytes);
                                outcome.emitted.push((out_port, copy));
                            }
                            outcome.emitted.push((last, bytes));
                        }
                    }
                    break;
                }
            }
        }
        rec.packet_end(packet, passes, outcome.dropped);
        outcome.passes = passes;
        // The outcome takes the working PHV; its previous one becomes the
        // next frame's scratch, which every pass resets before use.
        std::mem::swap(&mut outcome.phv, &mut phv);
        *scratch_frame = rebuilt;
        *scratch_next = next;
        *scratch_strip = stripped;
        *scratch_phv = phv;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{ActionDef, Operand, VliwOp};
    use crate::parser::{HeaderDef, HeaderField, NextState, ParseState};
    use crate::pipeline::StageLimits;
    use crate::table::{KeySpec, MatchKind, MatchValue};

    /// Build a minimal switch: one 2-byte header `(tag, port)`, a single
    /// ingress table forwarding on `tag`, empty egress.
    fn tiny_switch() -> (Switch, FieldId, FieldId) {
        let mut ft = FieldTable::new();
        let f_tag = ft.register("hdr.t.tag", 8).unwrap();
        let f_dst = ft.register("hdr.t.dst", 8).unwrap();
        let v_t = ft.register("hdr.t.$valid", 1).unwrap();
        let intr = ft.intrinsics();

        let mut parser = Parser::new();
        let h = parser.add_header(HeaderDef {
            name: "t".into(),
            len_bytes: 2,
            fields: vec![
                HeaderField { field: f_tag, bit_offset: 0, bits: 8 },
                HeaderField { field: f_dst, bit_offset: 8, bits: 8 },
            ],
            presence: v_t,
            checksum_at: None,
            bitmap_bit: 0,
        });
        let s = parser.add_state(ParseState {
            header: h,
            select: None,
            transitions: vec![],
            default: NextState::Accept,
        });
        parser.set_start(s);

        let mut ingress = Pipeline::new(Gress::Ingress, 2, StageLimits::default());
        let egress = Pipeline::new(Gress::Egress, 2, StageLimits::default());

        let mut fwd = Table::new(
            "fwd",
            KeySpec::new(vec![(f_tag, MatchKind::Exact)]),
            vec![
                ActionDef {
                    name: "to_dst".into(),
                    ops: vec![
                        VliwOp::set(intr.egress_spec, Operand::Field(f_dst)),
                        VliwOp::set(intr.egress_valid, Operand::Const(1)),
                    ],
                    hash: None,
                    salu: None,
                },
                ActionDef {
                    name: "drop".into(),
                    ops: vec![VliwOp::set(intr.drop_flag, Operand::Const(1))],
                    hash: None,
                    salu: None,
                },
            ],
            16,
        );
        fwd.set_default_action(1, vec![]);
        ingress.stage_mut(0).unwrap().add_table(fwd);

        let sw = Switch::assemble(SwitchConfig::default(), ft, parser, ingress, egress);
        (sw, f_tag, f_dst)
    }

    #[test]
    fn must_provision_before_processing() {
        let (mut sw, _, _) = tiny_switch();
        assert!(sw.process_frame(0, &[1, 2]).is_err());
        sw.provision().unwrap();
        assert!(sw.process_frame(0, &[1, 2]).is_ok());
    }

    #[test]
    fn forward_and_default_drop() {
        let (mut sw, _, _) = tiny_switch();
        sw.provision().unwrap();
        // Install: tag 7 → forward to hdr dst field.
        sw.apply_op(ControlOp::InsertEntry {
            table: TableRef { gress: Gress::Ingress, stage: 0, table: 0 },
            entry: TableEntry {
                matches: vec![MatchValue::Exact(7)],
                priority: 0,
                action: 0,
                data: vec![],
            },
        })
        .unwrap();
        let out = sw.process_frame(3, &[7, 9, 0xAA]).unwrap();
        assert_eq!(out.emitted, vec![(9u16, vec![7, 9, 0xAA])]);
        assert!(!out.dropped);
        // Unknown tag → default action drops.
        let out = sw.process_frame(3, &[8, 9]).unwrap();
        assert!(out.dropped);
        assert!(out.emitted.is_empty());
        assert_eq!(sw.drops, 1);
    }

    #[test]
    fn counters_track_rx_tx() {
        let (mut sw, _, _) = tiny_switch();
        sw.provision().unwrap();
        sw.apply_op(ControlOp::InsertEntry {
            table: TableRef { gress: Gress::Ingress, stage: 0, table: 0 },
            entry: TableEntry {
                matches: vec![MatchValue::Exact(1)],
                priority: 0,
                action: 0,
                data: vec![],
            },
        })
        .unwrap();
        sw.process_frame(2, &[1, 5, 0, 0]).unwrap();
        assert_eq!(sw.port_counters(2).unwrap().rx_pkts, 1);
        assert_eq!(sw.port_counters(2).unwrap().rx_bytes, 4);
        assert_eq!(sw.port_counters(5).unwrap().tx_pkts, 1);
    }

    #[test]
    fn parser_reject_counts_as_drop() {
        let (mut sw, _, _) = tiny_switch();
        sw.provision().unwrap();
        let out = sw.process_frame(0, &[1]).unwrap(); // 1 byte < header
        assert!(out.dropped);
        assert_eq!(sw.drops, 1);
    }

    #[test]
    fn entry_insert_delete_roundtrip() {
        let (mut sw, _, _) = tiny_switch();
        sw.provision().unwrap();
        let tref = TableRef { gress: Gress::Ingress, stage: 0, table: 0 };
        let r = sw
            .apply_op(ControlOp::InsertEntry {
                table: tref,
                entry: TableEntry {
                    matches: vec![MatchValue::Exact(1)],
                    priority: 0,
                    action: 0,
                    data: vec![],
                },
            })
            .unwrap();
        let handle = match r {
            OpResult::Inserted(h) => h,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(sw.table(tref).unwrap().len(), 1);
        sw.apply_op(ControlOp::DeleteEntry { table: tref, handle }).unwrap();
        assert_eq!(sw.table(tref).unwrap().len(), 0);
        // Deleting again fails cleanly.
        assert!(sw.apply_op(ControlOp::DeleteEntry { table: tref, handle }).is_err());
    }

    #[test]
    fn handles_are_unique() {
        let (mut sw, _, _) = tiny_switch();
        sw.provision().unwrap();
        let tref = TableRef { gress: Gress::Ingress, stage: 0, table: 0 };
        let mut handles = std::collections::HashSet::new();
        for i in 0..5u64 {
            let r = sw
                .apply_op(ControlOp::InsertEntry {
                    table: tref,
                    entry: TableEntry {
                        matches: vec![MatchValue::Exact(i)],
                        priority: 0,
                        action: 0,
                        data: vec![],
                    },
                })
                .unwrap();
            if let OpResult::Inserted(h) = r {
                assert!(handles.insert(h));
            }
        }
    }

    #[test]
    fn reg_ops_roundtrip() {
        let (mut sw, _, _) = tiny_switch();
        // Add an array pre-provision.
        sw.pipeline_mut(Gress::Ingress)
            .stage_mut(1)
            .unwrap()
            .add_array(RegArray::new("m", 16));
        sw.provision().unwrap();
        let aref = ArrayRef { gress: Gress::Ingress, stage: 1, array: 0 };
        sw.apply_op(ControlOp::WriteReg { array: aref, addr: 3, value: 42 }).unwrap();
        assert_eq!(
            sw.apply_op(ControlOp::ReadReg { array: aref, addr: 3 }).unwrap(),
            OpResult::Read(42)
        );
        assert_eq!(
            sw.apply_op(ControlOp::ReadRegRange { array: aref, start: 2, len: 3 }).unwrap(),
            OpResult::ReadRange(vec![0, 42, 0])
        );
        sw.apply_op(ControlOp::ResetRegRange { array: aref, start: 0, len: 16 }).unwrap();
        assert_eq!(
            sw.apply_op(ControlOp::ReadReg { array: aref, addr: 3 }).unwrap(),
            OpResult::Read(0)
        );
    }

    #[test]
    fn recirculation_cap_drops_loopers() {
        // A pipeline that unconditionally recirculates must be cut off at
        // the configured maximum (loop protection), not spin forever.
        let (mut sw, _, _) = tiny_switch();
        let intr = sw.field_table().intrinsics();
        let mut loop_tbl = Table::new(
            "loop",
            KeySpec::new(vec![(intr.ingress_port, MatchKind::Ternary)]),
            vec![ActionDef {
                name: "again".into(),
                ops: vec![VliwOp::set(intr.recirc_flag, Operand::Const(1))],
                hash: None,
                salu: None,
            }],
            4,
        );
        loop_tbl.set_default_action(0, vec![]);
        sw.pipeline_mut(Gress::Ingress).stage_mut(1).unwrap().add_table(loop_tbl);
        sw.provision().unwrap();
        let out = sw.process_frame(0, &[1, 2]).unwrap();
        assert!(out.dropped);
        assert_eq!(out.passes, sw.cfg.max_recirc + 1);
        assert!(sw.recirc_passes >= u64::from(sw.cfg.max_recirc));
    }

    #[test]
    fn multicast_groups_validated_and_replicate() {
        let (mut sw, _, _) = tiny_switch();
        let intr = sw.field_table().intrinsics();
        let mut mc = Table::new(
            "mc",
            KeySpec::new(vec![(intr.ingress_port, MatchKind::Ternary)]),
            vec![ActionDef {
                name: "to_group".into(),
                ops: vec![VliwOp::set(intr.mcast_group, Operand::Const(7))],
                hash: None,
                salu: None,
            }],
            4,
        );
        mc.set_default_action(0, vec![]);
        sw.pipeline_mut(Gress::Ingress).stage_mut(1).unwrap().add_table(mc);
        sw.provision().unwrap();
        assert!(sw.set_multicast_group(0, vec![1]).is_err(), "group 0 reserved");
        assert!(sw.set_multicast_group(7, vec![1, 999]).is_err(), "bad port");
        sw.set_multicast_group(7, vec![2, 4, 6]).unwrap();
        // Give the packet a unicast forward too: multicast outranks it.
        sw.apply_op(ControlOp::InsertEntry {
            table: TableRef { gress: Gress::Ingress, stage: 0, table: 0 },
            entry: TableEntry {
                matches: vec![MatchValue::Exact(9)],
                priority: 0,
                action: 0,
                data: vec![],
            },
        })
        .unwrap();
        let out = sw.process_frame(0, &[9, 9]).unwrap();
        let ports: Vec<u16> = out.emitted.iter().map(|(p, _)| *p).collect();
        assert_eq!(ports, vec![2, 4, 6]);
        assert_eq!(sw.port_counters(4).unwrap().tx_pkts, 1);
    }

    #[test]
    fn bad_port_rejected() {
        let (mut sw, _, _) = tiny_switch();
        sw.provision().unwrap();
        assert!(matches!(sw.process_frame(500, &[1, 2]), Err(SimError::NoSuchPort(500))));
    }

    #[test]
    fn header_field_wider_than_its_phv_field_is_rejected_at_provision() {
        // Eight header bits into a four-bit PHV field: `Phv::set` would
        // truncate on parse and the deparser would emit the short value.
        let mut ft = FieldTable::new();
        let narrow = ft.register("hdr.t.narrow", 4).unwrap();
        let v_t = ft.register("hdr.t.$valid", 1).unwrap();
        let mut parser = Parser::new();
        let h = parser.add_header(HeaderDef {
            name: "t".into(),
            len_bytes: 1,
            fields: vec![HeaderField { field: narrow, bit_offset: 0, bits: 8 }],
            presence: v_t,
            checksum_at: None,
            bitmap_bit: 0,
        });
        parser.add_state(ParseState {
            header: h,
            select: None,
            transitions: vec![],
            default: NextState::Accept,
        });
        parser.validate().expect("the parser alone cannot see PHV widths");
        let ingress = Pipeline::new(Gress::Ingress, 1, StageLimits::default());
        let egress = Pipeline::new(Gress::Egress, 1, StageLimits::default());
        let mut sw = Switch::assemble(SwitchConfig::default(), ft, parser, ingress, egress);
        match sw.provision() {
            Err(SimError::Config(msg)) => assert!(msg.contains("hdr.t.narrow"), "{msg}"),
            other => panic!("expected a config error, got {other:?}"),
        }
        assert!(!sw.is_provisioned());
    }

    /// Install `tag 7 → forward to the frame's dst byte` in [`tiny_switch`]'s
    /// stage-0 table.
    fn forward_tag_7(sw: &mut Switch) {
        sw.apply_op(ControlOp::InsertEntry {
            table: TableRef { gress: Gress::Ingress, stage: 0, table: 0 },
            entry: TableEntry {
                matches: vec![MatchValue::Exact(7)],
                priority: 0,
                action: 0,
                data: vec![],
            },
        })
        .unwrap();
    }

    #[test]
    fn failed_frame_keeps_the_sinks_and_writes_the_postmortem() {
        // Stage 1 reads a 4-bucket array at the address the frame's second
        // byte names, so a frame can walk the SALU out of range mid-pipeline.
        let (mut sw, _, f_dst) = tiny_switch();
        let stage = sw.pipeline_mut(Gress::Ingress).stage_mut(1).unwrap();
        stage.add_array(RegArray::new("m", 4));
        let mut read = Table::new(
            "read",
            KeySpec::new(vec![(f_dst, MatchKind::Ternary)]),
            vec![ActionDef {
                name: "read".into(),
                ops: vec![],
                hash: None,
                salu: Some(crate::action::SaluCall {
                    array: 0,
                    addr: Operand::Field(f_dst),
                    operand: Operand::Const(0),
                    instr: crate::salu::SaluInstr::READ,
                    alt_instr: None,
                    select_flag: None,
                    output: None,
                }),
            }],
            4,
        );
        read.set_default_action(0, vec![]);
        stage.add_table(read);
        sw.provision().unwrap();
        forward_tag_7(&mut sw);
        let dir = std::env::temp_dir().join(format!("rmt-sim-frame-err-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        sw.enable_telemetry();
        sw.enable_trace(TraceConfig {
            postmortem_dir: Some(dir.to_string_lossy().into_owned()),
            ..TraceConfig::default()
        });

        let mut outcome = ProcessOutcome::empty();
        sw.process_frame_into(3, &[7, 2, 0xAA], &mut outcome).unwrap();
        let events_before = sw.trace().unwrap().stats().recorded;

        let err = sw.process_frame_into(3, &[7, 9, 0xAA], &mut outcome).unwrap_err();
        assert!(matches!(err, SimError::AddrOutOfRange { .. }), "{err:?}");
        let trace = sw.trace().expect("the flight recorder is still on");
        assert!(trace.stats().recorded > events_before, "and kept the failed frame's events");
        let [dump] = &trace.postmortems[..] else {
            panic!("one post-mortem, got {:?}", trace.postmortems);
        };
        let text = std::fs::read_to_string(dump).unwrap();
        assert!(text.contains("process_frame error"), "{text}");
        let m = sw.telemetry().expect("telemetry is still on");
        // Two stage-0 hits and the first frame's stage-1 default action; the
        // failing lookup was counted before its action ran.
        assert_eq!(m.ingress.total().hits.get(), 2);
        assert_eq!(m.ingress.total().misses.get(), 2);

        // The next frame is processed as if nothing had happened.
        sw.process_frame_into(3, &[7, 1, 0xBB], &mut outcome).unwrap();
        assert_eq!(outcome.emitted, vec![(1u16, vec![7, 1, 0xBB])]);
        assert_eq!(outcome.passes, 1);
        assert_eq!(sw.telemetry().unwrap().ingress.total().hits.get(), 3);
        assert_eq!(sw.trace().unwrap().postmortems.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reused_outcome_recycles_its_frame_buffers() {
        let (mut sw, _, _) = tiny_switch();
        sw.provision().unwrap();
        forward_tag_7(&mut sw);
        let mut outcome = ProcessOutcome::empty();
        sw.process_frame_into(0, &[7, 9, 1, 2, 3], &mut outcome).unwrap();
        let first = outcome.emitted[0].1.as_ptr();
        // A drop in between parks the buffer; the next emission takes it back.
        sw.process_frame_into(0, &[8, 9], &mut outcome).unwrap();
        assert!(outcome.dropped && outcome.emitted.is_empty());
        sw.process_frame_into(0, &[7, 4, 5], &mut outcome).unwrap();
        assert_eq!(outcome.emitted, vec![(4u16, vec![7, 4, 5])]);
        assert_eq!(outcome.emitted[0].1.as_ptr(), first, "same allocation, refilled");
    }
}
