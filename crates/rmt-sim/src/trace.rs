//! Flight recorder: a causally ordered trace of per-packet journeys
//! interleaved with control-plane events.
//!
//! The telemetry subsystem (PR 1, [`crate::telemetry`]) answers "how much"
//! — aggregate counters cut at epoch boundaries. This module answers
//! "in what order": every hook point the [`crate::telemetry::Recorder`]
//! already sees, plus per-packet context (a packet id threaded through the
//! parser, stages, SALUs, traffic manager, and recirculation passes) and
//! control-channel events (batch begin/end, per-entry insert/delete,
//! epoch bumps, program lifecycle spans), lands in **one** stream ordered
//! by a global monotonic sequence number and stamped with the simulated
//! clock. That stream is the inspectable form of the paper's central
//! claim: programs are linked onto a *running* pipeline without any packet
//! ever observing a half-installed state (§4.3, Figure 6).
//!
//! Design constraints, in order:
//!
//! * **Disabled tracing costs nothing.** A switch with no recorder on runs
//!   its frames over [`crate::telemetry::NopRecorder`], where every hook
//!   compiles away. With tracing on, the frame walk is instantiated over
//!   the concrete [`crate::telemetry::FanOut`] recorder, so the hooks
//!   below inline into the stage loop.
//! * **Recording is a few register stores.** [`TraceBuffer`] is a ring of
//!   preallocated 40-byte integer slots: the clock, the epoch and three
//!   words of kind payload (see "Slot layout" below). The hot packet hooks
//!   build those words in registers; no [`TraceEvent`] is built on the
//!   record path. The sequence number is implied by ring position, and
//!   [`TraceBuffer::events`] decodes slots back into [`TraceEvent`]s.
//! * **Steady state allocates nothing.** Wraparound overwrites the oldest
//!   slot and counts it in [`TraceBuffer::dropped_events`], so drop
//!   accounting is exact and the sequence numbers of retained events stay
//!   contiguous.
//! * **Violations are caught live.** An [`InvariantChecker`] observes
//!   every event as it is recorded and promotes the offline assertions of
//!   `tests/consistency.rs` — no packet interleaves with a control batch's
//!   entry writes, entry writes never split an epoch — into online checks.
//!   A firing checker triggers a post-mortem dump of the last ring
//!   contents to a `postmortem-*.txt` artifact.
//!
//! On top of the stream sit three consumers: the Chrome trace-event JSON
//! exporter ([`chrome_trace`], viewable in Perfetto with control ops and
//! packet journeys on separate tracks), the human-readable packet-journey
//! reconstruction ([`journey`]), and the event filter ([`TraceFilter`])
//! behind `p4rp-ctl`'s `trace dump` subcommand. `docs/TRACING.md` has the
//! schema and a Perfetto how-to.

use std::collections::HashMap;

use crate::clock::Nanos;
use crate::pipeline::Gress;
use crate::switch::{ControlOp, OpResult};
use crate::tm::Verdict;

/// Default ring capacity: enough for the experiment-scale deploy → replay
/// → revoke scenarios to complete with zero drops (~40 events per packet
/// through the provisioned P4runpro pipeline).
pub(crate) const DEFAULT_TRACE_CAPACITY: usize = 1 << 18;

/// How many trailing events a post-mortem dump renders by default.
pub(crate) const DEFAULT_POSTMORTEM_LAST: usize = 256;

/// What happened, without its stamp. Every variant is `Copy` and carries
/// no heap payload, so a ring slot is one fixed-size write.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEventKind {
    /// A frame entered the switch on an external port.
    PacketStart {
        /// Packet id (switch-global, monotonic).
        packet: u64,
        /// Ingress port.
        port: u16,
        /// Frame length in bytes.
        len: u32,
    },
    /// The packet's five-tuple, when the frame parses as IPv4 + TCP/UDP —
    /// the key the `trace dump flow …` filter selects on.
    PacketFlow {
        /// Packet id.
        packet: u64,
        /// IPv4 source address (big-endian u32).
        src: u32,
        /// IPv4 destination address (big-endian u32).
        dst: u32,
        /// Source port.
        sport: u16,
        /// Destination port.
        dport: u16,
        /// IP protocol number.
        proto: u8,
    },
    /// A pipeline pass began (pass 1 = original injection, ≥2 =
    /// recirculation).
    PassBegin {
        /// Packet id.
        packet: u64,
        /// Pass number, 1-based.
        pass: u8,
    },
    /// The parser accepted the packet along the path named by `bitmap`.
    ParserPath {
        /// Packet id.
        packet: u64,
        /// Pass number.
        pass: u8,
        /// Parse-path bitmap.
        bitmap: u16,
    },
    /// One table lookup finished.
    TableLookup {
        /// Packet id.
        packet: u64,
        /// Gress.
        gress: Gress,
        /// Physical stage.
        stage: u16,
        /// Installed-entry match (default actions count as misses).
        hit: bool,
    },
    /// One action body executed.
    ActionExecuted {
        /// Packet id.
        packet: u64,
        /// Gress.
        gress: Gress,
        /// Physical stage.
        stage: u16,
    },
    /// One SALU read-modify-write.
    SaluRmw {
        /// Packet id.
        packet: u64,
        /// Gress.
        gress: Gress,
        /// Physical stage.
        stage: u16,
        /// The cycle committed a memory write.
        wrote: bool,
    },
    /// The traffic manager resolved this pass's verdict.
    TmVerdict {
        /// Packet id.
        packet: u64,
        /// Pass number.
        pass: u8,
        /// Verdict.
        verdict: Verdict,
        /// A `REPORT` copy rides along.
        report: bool,
    },
    /// The packet left the switch (emitted or dropped).
    PacketEnd {
        /// Packet id.
        packet: u64,
        /// Pipeline passes consumed.
        passes: u8,
        /// The packet was dropped.
        dropped: bool,
    },
    /// A control-channel batch opened.
    BatchBegin {
        /// Batch id (channel-global, monotonic).
        batch: u64,
        /// Operations in the batch.
        ops: u32,
    },
    /// A control-channel batch closed.
    BatchEnd {
        /// Batch id.
        batch: u64,
        /// Operations applied (smaller than announced on fail-stop).
        ops: u32,
        /// Modeled batch latency, nanoseconds.
        cost_ns: u64,
    },
    /// One table entry was inserted.
    EntryInsert {
        /// Gress.
        gress: Gress,
        /// Stage.
        stage: u16,
        /// Table within the stage.
        table: u16,
        /// The handle the switch allocated.
        handle: u64,
    },
    /// One table entry was deleted.
    EntryDelete {
        /// Gress.
        gress: Gress,
        /// Stage.
        stage: u16,
        /// Table within the stage.
        table: u16,
        /// The deleted handle.
        handle: u64,
    },
    /// One register bucket was written (or a range reset).
    RegWrite {
        /// Gress.
        gress: Gress,
        /// Stage.
        stage: u16,
        /// Array within the stage.
        array: u16,
        /// Bucket address (range resets record the start).
        addr: u32,
    },
    /// The control plane opened a new telemetry epoch.
    EpochBump {
        /// The epoch now active.
        epoch: u64,
    },
    /// A program lifecycle event completed (the control-track span of a
    /// `p4rp-ctl` deploy or revoke).
    Lifecycle {
        /// Deploy or revoke.
        kind: LifecycleKind,
        /// Program id.
        prog_id: u16,
        /// Epoch the event opened.
        epoch: u64,
        /// Simulated update delay, nanoseconds.
        dur_ns: u64,
    },
    /// The fault plan fired a trigger on the control channel.
    FaultInjected {
        /// Which fault.
        fault: crate::fault::FaultKind,
        /// Global control-op index the trigger fired at.
        at_op: u64,
    },
    /// The controller started rolling back a partially applied plan.
    RollbackBegin {
        /// Program id being undone.
        prog_id: u16,
    },
    /// The rollback finished (fully, or stopped short by a double fault).
    RollbackEnd {
        /// Program id.
        prog_id: u16,
        /// Undo operations applied.
        ops: u32,
        /// Every applied op was undone; `false` means the program wedged.
        complete: bool,
    },
    /// The controller started auditing device state against its own view.
    ReconcileBegin {
        /// Device generation at audit time.
        generation: u64,
    },
    /// The reconciliation pass finished.
    ReconcileEnd {
        /// Entries re-installed on the device.
        reinstalled: u32,
        /// Divergent entries garbage-collected.
        deleted: u32,
    },
    /// The SLO watchdog observed a threshold crossing (armed thresholds
    /// only; emitted once per non-breach → breach transition, so a
    /// sustained breach is one event, not a flood).
    SloViolation {
        /// Which service-level objective was breached.
        slo: SloKind,
        /// Program the breach is attributed to; 0 = switch-global.
        prog_id: u16,
        /// Observed value in the SLO's integer unit (ppm for rates,
        /// nanoseconds for latencies, a plain count otherwise).
        observed: u64,
        /// The armed threshold in the same unit.
        threshold: u64,
    },
    /// The runtime-control server dequeued a client request for
    /// execution (the `p4rp-ctl::server` service thread picked it up).
    RequestBegin {
        /// Server-assigned client session id.
        client: u32,
        /// Client-chosen request id.
        request: u64,
        /// What the request asked for.
        op: RequestOp,
    },
    /// The server produced the request's response.
    RequestEnd {
        /// Server-assigned client session id.
        client: u32,
        /// Client-chosen request id.
        request: u64,
        /// What the request asked for.
        op: RequestOp,
        /// The request executed without error.
        ok: bool,
        /// Sim-clock time from submission to response, nanoseconds.
        dur_ns: u64,
    },
    /// The server refused a request without executing it (backpressure,
    /// rate limit, queued past its timeout, or drain).
    RequestRejected {
        /// Server-assigned client session id.
        client: u32,
        /// Client-chosen request id (0 when rejected before parsing).
        request: u64,
        /// Why the request was refused.
        reason: RejectReason,
    },
}

/// What a [`TraceEventKind::RequestBegin`] asked the control plane for —
/// the verb set of the `p4rp-ctl::server` line protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOp {
    /// Link a program.
    Deploy,
    /// Unlink a program.
    Revoke,
    /// Telemetry report snapshot.
    Status,
    /// Prometheus exposition snapshot.
    Metrics,
    /// Flight-recorder statistics.
    Trace,
    /// Liveness probe.
    Ping,
    /// Graceful drain.
    Shutdown,
}

impl RequestOp {
    /// Short stable name (dump rows, Chrome trace `name`, protocol verb).
    pub(crate) fn name(self) -> &'static str {
        match self {
            RequestOp::Deploy => "deploy",
            RequestOp::Revoke => "revoke",
            RequestOp::Status => "status",
            RequestOp::Metrics => "metrics",
            RequestOp::Trace => "trace",
            RequestOp::Ping => "ping",
            RequestOp::Shutdown => "shutdown",
        }
    }
}

/// Why a [`TraceEventKind::RequestRejected`] refused its request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The client's bounded in-flight queue was full (backpressure).
    Busy,
    /// The client's token bucket was empty (rate limit).
    RateLimited,
    /// The request sat queued past its timeout before execution.
    Timeout,
    /// The server is draining; new work is refused.
    Draining,
    /// The request line failed to parse (malformed JSON, unknown op,
    /// bad field types).
    Parse,
}

impl RejectReason {
    /// Short stable name (dump rows, protocol `error` field).
    pub fn name(self) -> &'static str {
        match self {
            RejectReason::Busy => "busy",
            RejectReason::RateLimited => "rate_limited",
            RejectReason::Timeout => "timeout",
            RejectReason::Draining => "draining",
            RejectReason::Parse => "parse",
        }
    }
}

/// Which service-level objective a [`TraceEventKind::SloViolation`]
/// records. Units are integers so watchdog evaluation — and therefore
/// the trace fingerprint — is bit-for-bit deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloKind {
    /// TM drop rate over all processed passes, parts-per-million.
    DropRate,
    /// Cumulative fault-aborted deploys (a plain count).
    DeployFailure,
    /// p99 of the control-channel write latency, nanoseconds.
    P99Latency,
}

impl SloKind {
    /// Short stable name (render rows, Prometheus labels).
    pub(crate) fn name(self) -> &'static str {
        match self {
            SloKind::DropRate => "drop_rate",
            SloKind::DeployFailure => "deploy_failure",
            SloKind::P99Latency => "p99_latency",
        }
    }
}

/// Which lifecycle event a [`TraceEventKind::Lifecycle`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleKind {
    /// Program deployed.
    Deploy,
    /// Program revoked.
    Revoke,
}

impl core::fmt::Display for LifecycleKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LifecycleKind::Deploy => write!(f, "deploy"),
            LifecycleKind::Revoke => write!(f, "revoke"),
        }
    }
}

impl TraceEventKind {
    /// The packet id this event belongs to, `None` for control-side events.
    pub(crate) fn packet(&self) -> Option<u64> {
        match *self {
            TraceEventKind::PacketStart { packet, .. }
            | TraceEventKind::PacketFlow { packet, .. }
            | TraceEventKind::PassBegin { packet, .. }
            | TraceEventKind::ParserPath { packet, .. }
            | TraceEventKind::TableLookup { packet, .. }
            | TraceEventKind::ActionExecuted { packet, .. }
            | TraceEventKind::SaluRmw { packet, .. }
            | TraceEventKind::TmVerdict { packet, .. }
            | TraceEventKind::PacketEnd { packet, .. } => Some(packet),
            _ => None,
        }
    }

    /// Short event-type name (Chrome trace `name`, dump rows).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::PacketStart { .. } => "packet_start",
            TraceEventKind::PacketFlow { .. } => "packet_flow",
            TraceEventKind::PassBegin { .. } => "pass_begin",
            TraceEventKind::ParserPath { .. } => "parser_path",
            TraceEventKind::TableLookup { .. } => "table_lookup",
            TraceEventKind::ActionExecuted { .. } => "action",
            TraceEventKind::SaluRmw { .. } => "salu_rmw",
            TraceEventKind::TmVerdict { .. } => "tm_verdict",
            TraceEventKind::PacketEnd { .. } => "packet_end",
            TraceEventKind::BatchBegin { .. } => "batch_begin",
            TraceEventKind::BatchEnd { .. } => "batch_end",
            TraceEventKind::EntryInsert { .. } => "entry_insert",
            TraceEventKind::EntryDelete { .. } => "entry_delete",
            TraceEventKind::RegWrite { .. } => "reg_write",
            TraceEventKind::EpochBump { .. } => "epoch_bump",
            TraceEventKind::Lifecycle { .. } => "lifecycle",
            TraceEventKind::FaultInjected { .. } => "fault_injected",
            TraceEventKind::RollbackBegin { .. } => "rollback_begin",
            TraceEventKind::RollbackEnd { .. } => "rollback_end",
            TraceEventKind::ReconcileBegin { .. } => "reconcile_begin",
            TraceEventKind::ReconcileEnd { .. } => "reconcile_end",
            TraceEventKind::SloViolation { .. } => "slo_violation",
            TraceEventKind::RequestBegin { .. } => "request_begin",
            TraceEventKind::RequestEnd { .. } => "request_end",
            TraceEventKind::RequestRejected { .. } => "request_rejected",
        }
    }
}

/// One stamped slot of the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Global monotonic sequence number — the causal order.
    pub seq: u64,
    /// Simulated clock at record time, nanoseconds.
    pub t_ns: u64,
    /// Telemetry epoch active at record time.
    pub epoch: u64,
    /// What happened.
    pub kind: TraceEventKind,
}

impl TraceEvent {
    /// One human-readable dump row.
    pub fn render(&self) -> String {
        let head = format!("#{:<8} {:>12}ns e{:<3}", self.seq, self.t_ns, self.epoch);
        let body = match self.kind {
            TraceEventKind::PacketStart { packet, port, len } => {
                format!("pkt {packet:<6} start      port {port}, {len} B")
            }
            TraceEventKind::PacketFlow { packet, src, dst, sport, dport, proto } => format!(
                "pkt {packet:<6} flow       {}.{}.{}.{}:{sport} > {}.{}.{}.{}:{dport}/{proto}",
                src >> 24,
                (src >> 16) & 0xff,
                (src >> 8) & 0xff,
                src & 0xff,
                dst >> 24,
                (dst >> 16) & 0xff,
                (dst >> 8) & 0xff,
                dst & 0xff
            ),
            TraceEventKind::PassBegin { packet, pass } => {
                format!("pkt {packet:<6} pass {pass}")
            }
            TraceEventKind::ParserPath { packet, pass, bitmap } => {
                format!("pkt {packet:<6} parse      pass {pass} path {bitmap:#06x}")
            }
            TraceEventKind::TableLookup { packet, gress, stage, hit } => format!(
                "pkt {packet:<6} lookup     {gress} stage {stage} {}",
                if hit { "hit" } else { "miss" }
            ),
            TraceEventKind::ActionExecuted { packet, gress, stage } => {
                format!("pkt {packet:<6} action     {gress} stage {stage}")
            }
            TraceEventKind::SaluRmw { packet, gress, stage, wrote } => format!(
                "pkt {packet:<6} salu       {gress} stage {stage} {}",
                if wrote { "write" } else { "read" }
            ),
            TraceEventKind::TmVerdict { packet, pass, verdict, report } => format!(
                "pkt {packet:<6} verdict    pass {pass} {verdict:?}{}",
                if report { " +report" } else { "" }
            ),
            TraceEventKind::PacketEnd { packet, passes, dropped } => format!(
                "pkt {packet:<6} end        {passes} pass(es), {}",
                if dropped { "dropped" } else { "emitted" }
            ),
            TraceEventKind::BatchBegin { batch, ops } => {
                format!("ctl batch {batch} begin ({ops} ops)")
            }
            TraceEventKind::BatchEnd { batch, ops, cost_ns } => {
                format!("ctl batch {batch} end   ({ops} ops, {cost_ns} ns)")
            }
            TraceEventKind::EntryInsert { gress, stage, table, handle } => {
                format!("ctl insert {gress} stage {stage} table {table} handle {handle}")
            }
            TraceEventKind::EntryDelete { gress, stage, table, handle } => {
                format!("ctl delete {gress} stage {stage} table {table} handle {handle}")
            }
            TraceEventKind::RegWrite { gress, stage, array, addr } => {
                format!("ctl regwrite {gress} stage {stage} array {array} addr {addr}")
            }
            TraceEventKind::EpochBump { epoch } => format!("ctl epoch → {epoch}"),
            TraceEventKind::Lifecycle { kind, prog_id, epoch, dur_ns } => {
                format!("ctl {kind} prog {prog_id} (epoch {epoch}, {dur_ns} ns)")
            }
            TraceEventKind::FaultInjected { fault, at_op } => {
                format!("ctl fault {} at op {at_op}", fault.name())
            }
            TraceEventKind::RollbackBegin { prog_id } => {
                format!("ctl rollback prog {prog_id} begin")
            }
            TraceEventKind::RollbackEnd { prog_id, ops, complete } => format!(
                "ctl rollback prog {prog_id} end   ({ops} ops, {})",
                if complete { "complete" } else { "wedged" }
            ),
            TraceEventKind::ReconcileBegin { generation } => {
                format!("ctl reconcile begin (device gen {generation})")
            }
            TraceEventKind::ReconcileEnd { reinstalled, deleted } => {
                format!("ctl reconcile end   (+{reinstalled} reinstalled, -{deleted} gc'd)")
            }
            TraceEventKind::SloViolation { slo, prog_id, observed, threshold } => format!(
                "ctl slo {} prog {prog_id} ({observed} > {threshold})",
                slo.name()
            ),
            TraceEventKind::RequestBegin { client, request, op } => {
                format!("srv req c{client}#{request} {} begin", op.name())
            }
            TraceEventKind::RequestEnd { client, request, op, ok, dur_ns } => format!(
                "srv req c{client}#{request} {} end   ({}, {dur_ns} ns)",
                op.name(),
                if ok { "ok" } else { "err" }
            ),
            TraceEventKind::RequestRejected { client, request, reason } => {
                format!("srv req c{client}#{request} rejected ({})", reason.name())
            }
        };
        format!("{head}  {body}")
    }
}

// ---- slot layout -------------------------------------------------------
//
// A ring slot is `t_ns`, `epoch` and three payload words `[head, a, b]`.
// `head` carries the kind tag in its low byte and the kind's narrow fields
// above it; `a` and `b` carry the wide ones:
//
// | kind            | head: field @ first bit                          | a                    | b             |
// |-----------------|--------------------------------------------------|----------------------|---------------|
// | packet_start    | port @8, len @24                                 | packet               |               |
// | packet_flow     | proto @8, sport @16, dport @32                   | packet               | src, dst @32  |
// | pass_begin      | pass @8                                          | packet               |               |
// | parser_path     | pass @8, bitmap @16                              | packet               |               |
// | table_lookup    | gress @8, stage @16, hit @32                     | packet               |               |
// | action          | gress @8, stage @16                              | packet               |               |
// | salu_rmw        | gress @8, stage @16, wrote @32                   | packet               |               |
// | tm_verdict      | pass @8, verdict code @16, its port @19, report @35 | packet            |               |
// | packet_end      | passes @8, dropped @16                           | packet               |               |
// | batch_begin/end | ops @8                                           | batch                | cost_ns (end) |
// | entry_*         | gress @8, stage @16, table @32                   | handle               |               |
// | reg_write       | gress @8, stage @16, array @32                   | addr                 |               |
// | epoch_bump      |                                                  | epoch                |               |
// | lifecycle       | kind @8, prog @16                                | epoch                | dur_ns        |
// | fault_injected  | fault @8                                         | at_op                |               |
// | rollback_*      | complete @8, prog @16, ops @32                   |                      |               |
// | reconcile_begin |                                                  | generation           |               |
// | reconcile_end   |                                                  | reinstalled, deleted @32 |           |
// | slo_violation   | slo @8, prog @16                                 | observed             | threshold     |
// | request_*       | op or reason @8, ok @16, client @32              | request              | dur_ns (end)  |
//
// Packet-side tags come first, so "is this a packet event" is one compare.

const PACKET_START: u64 = 0;
const PACKET_FLOW: u64 = 1;
const PASS_BEGIN: u64 = 2;
const PARSER_PATH: u64 = 3;
const TABLE_LOOKUP: u64 = 4;
const ACTION: u64 = 5;
const SALU_RMW: u64 = 6;
const TM_VERDICT: u64 = 7;
const PACKET_END: u64 = 8;
const BATCH_BEGIN: u64 = 9;
const BATCH_END: u64 = 10;
const ENTRY_INSERT: u64 = 11;
const ENTRY_DELETE: u64 = 12;
const REG_WRITE: u64 = 13;
const EPOCH_BUMP: u64 = 14;
const LIFECYCLE: u64 = 15;
const FAULT_INJECTED: u64 = 16;
const ROLLBACK_BEGIN: u64 = 17;
const ROLLBACK_END: u64 = 18;
const RECONCILE_BEGIN: u64 = 19;
const RECONCILE_END: u64 = 20;
const SLO_VIOLATION: u64 = 21;
const REQUEST_BEGIN: u64 = 22;
const REQUEST_END: u64 = 23;
const REQUEST_REJECTED: u64 = 24;

// Field-less enums are stored as their declaration index (`as u64`) and
// decoded through these tables, in declaration order.
const GRESSES: [Gress; 2] = [Gress::Ingress, Gress::Egress];
const LIFECYCLES: [LifecycleKind; 2] = [LifecycleKind::Deploy, LifecycleKind::Revoke];
const FAULTS: [crate::fault::FaultKind; 4] = {
    use crate::fault::FaultKind::*;
    [FailOp, BatchTimeout, ChannelDrop, DeviceReset]
};
const SLOS: [SloKind; 3] = [SloKind::DropRate, SloKind::DeployFailure, SloKind::P99Latency];
const REQUEST_OPS: [RequestOp; 7] = {
    use RequestOp::*;
    [Deploy, Revoke, Status, Metrics, Trace, Ping, Shutdown]
};
const REJECTS: [RejectReason; 5] = {
    use RejectReason::*;
    [Busy, RateLimited, Timeout, Draining, Parse]
};

/// One ring slot: the stamp without its sequence number, plus the kind's
/// three payload words. Written field by field from registers.
#[derive(Debug, Clone, Copy)]
struct Slot {
    t_ns: u64,
    epoch: u64,
    head: u64,
    a: u64,
    b: u64,
}

/// The `head` word of the per-stage packet kinds.
#[inline(always)]
fn stage_head(tag: u64, gress: Gress, stage: u16, flag: bool) -> u64 {
    tag | (gress as u64) << 8 | u64::from(stage) << 16 | u64::from(flag) << 32
}

/// The `head` word of a `tm_verdict`.
#[inline(always)]
fn verdict_head(pass: u8, verdict: Verdict, report: bool) -> u64 {
    let verdict = match verdict {
        Verdict::Forward(port) => u64::from(port) << 3,
        Verdict::Return => 1,
        Verdict::Drop => 2,
        Verdict::Recirculate => 3,
        Verdict::Multicast(group) => 4 | u64::from(group) << 3,
    };
    TM_VERDICT | u64::from(pass) << 8 | verdict << 16 | u64::from(report) << 35
}

/// The `head` word of a `packet_start`.
#[inline(always)]
fn start_head(port: u16, len: u32) -> u64 {
    PACKET_START | u64::from(port) << 8 | u64::from(len) << 24
}

/// The `head` and `b` words of a `packet_flow`.
#[inline(always)]
fn flow_words(src: u32, dst: u32, sport: u16, dport: u16, proto: u8) -> (u64, u64) {
    let head = PACKET_FLOW | u64::from(proto) << 8 | u64::from(sport) << 16 | u64::from(dport) << 32;
    (head, u64::from(src) | u64::from(dst) << 32)
}

/// The `head` word of a `parser_path`.
#[inline(always)]
fn parser_head(pass: u8, bitmap: u16) -> u64 {
    PARSER_PATH | u64::from(pass) << 8 | u64::from(bitmap) << 16
}

/// The `head` word of a `packet_end`.
#[inline(always)]
fn end_head(passes: u8, dropped: bool) -> u64 {
    PACKET_END | u64::from(passes) << 8 | u64::from(dropped) << 16
}

/// The `head` word of the request kinds.
#[inline(always)]
fn request_head(tag: u64, code: u64, ok: bool, client: u32) -> u64 {
    tag | code << 8 | u64::from(ok) << 16 | u64::from(client) << 32
}

impl TraceEventKind {
    /// The three payload words of this kind. The packet hooks of
    /// [`TraceBuffer`] build the same words directly, through the same
    /// helpers, without this match.
    fn encode(&self) -> [u64; 3] {
        use TraceEventKind as K;
        match *self {
            K::PacketStart { packet, port, len } => [start_head(port, len), packet, 0],
            K::PacketFlow { packet, src, dst, sport, dport, proto } => {
                let (head, b) = flow_words(src, dst, sport, dport, proto);
                [head, packet, b]
            }
            K::PassBegin { packet, pass } => [PASS_BEGIN | u64::from(pass) << 8, packet, 0],
            K::ParserPath { packet, pass, bitmap } => [parser_head(pass, bitmap), packet, 0],
            K::TableLookup { packet, gress, stage, hit } => {
                [stage_head(TABLE_LOOKUP, gress, stage, hit), packet, 0]
            }
            K::ActionExecuted { packet, gress, stage } => {
                [stage_head(ACTION, gress, stage, false), packet, 0]
            }
            K::SaluRmw { packet, gress, stage, wrote } => {
                [stage_head(SALU_RMW, gress, stage, wrote), packet, 0]
            }
            K::TmVerdict { packet, pass, verdict, report } => {
                [verdict_head(pass, verdict, report), packet, 0]
            }
            K::PacketEnd { packet, passes, dropped } => [end_head(passes, dropped), packet, 0],
            K::BatchBegin { batch, ops } => [BATCH_BEGIN | u64::from(ops) << 8, batch, 0],
            K::BatchEnd { batch, ops, cost_ns } => {
                [BATCH_END | u64::from(ops) << 8, batch, cost_ns]
            }
            K::EntryInsert { gress, stage, table, handle } => {
                [stage_head(ENTRY_INSERT, gress, stage, false) | u64::from(table) << 32, handle, 0]
            }
            K::EntryDelete { gress, stage, table, handle } => {
                [stage_head(ENTRY_DELETE, gress, stage, false) | u64::from(table) << 32, handle, 0]
            }
            K::RegWrite { gress, stage, array, addr } => [
                stage_head(REG_WRITE, gress, stage, false) | u64::from(array) << 32,
                u64::from(addr),
                0,
            ],
            K::EpochBump { epoch } => [EPOCH_BUMP, epoch, 0],
            K::Lifecycle { kind, prog_id, epoch, dur_ns } => {
                [LIFECYCLE | (kind as u64) << 8 | u64::from(prog_id) << 16, epoch, dur_ns]
            }
            K::FaultInjected { fault, at_op } => [FAULT_INJECTED | (fault as u64) << 8, at_op, 0],
            K::RollbackBegin { prog_id } => [ROLLBACK_BEGIN | u64::from(prog_id) << 16, 0, 0],
            K::RollbackEnd { prog_id, ops, complete } => [
                ROLLBACK_END
                    | u64::from(complete) << 8
                    | u64::from(prog_id) << 16
                    | u64::from(ops) << 32,
                0,
                0,
            ],
            K::ReconcileBegin { generation } => [RECONCILE_BEGIN, generation, 0],
            K::ReconcileEnd { reinstalled, deleted } => {
                [RECONCILE_END, u64::from(reinstalled) | u64::from(deleted) << 32, 0]
            }
            K::SloViolation { slo, prog_id, observed, threshold } => {
                [SLO_VIOLATION | (slo as u64) << 8 | u64::from(prog_id) << 16, observed, threshold]
            }
            K::RequestBegin { client, request, op } => {
                [request_head(REQUEST_BEGIN, op as u64, false, client), request, 0]
            }
            K::RequestEnd { client, request, op, ok, dur_ns } => {
                [request_head(REQUEST_END, op as u64, ok, client), request, dur_ns]
            }
            K::RequestRejected { client, request, reason } => {
                [request_head(REQUEST_REJECTED, reason as u64, false, client), request, 0]
            }
        }
    }

    /// The kind three payload words encode; the inverse of
    /// [`TraceEventKind::encode`].
    fn decode([head, a, b]: [u64; 3]) -> TraceEventKind {
        use TraceEventKind as K;
        // Narrow fields are cut out of `head` by their width.
        let u8_at = |shift: u32| (head >> shift) as u8;
        let u16_at = |shift: u32| (head >> shift) as u16;
        let u32_at = |shift: u32| (head >> shift) as u32;
        let bit = |shift: u32| head >> shift & 1 == 1;
        let gress = GRESSES[usize::from(u8_at(8) & 1)];
        let code = usize::from(u8_at(8));
        match head & 0xff {
            PACKET_START => K::PacketStart { packet: a, port: u16_at(8), len: u32_at(24) },
            PACKET_FLOW => K::PacketFlow {
                packet: a,
                src: b as u32,
                dst: (b >> 32) as u32,
                sport: u16_at(16),
                dport: u16_at(32),
                proto: u8_at(8),
            },
            PASS_BEGIN => K::PassBegin { packet: a, pass: u8_at(8) },
            PARSER_PATH => K::ParserPath { packet: a, pass: u8_at(8), bitmap: u16_at(16) },
            TABLE_LOOKUP => K::TableLookup { packet: a, gress, stage: u16_at(16), hit: bit(32) },
            ACTION => K::ActionExecuted { packet: a, gress, stage: u16_at(16) },
            SALU_RMW => K::SaluRmw { packet: a, gress, stage: u16_at(16), wrote: bit(32) },
            TM_VERDICT => {
                let arg = u16_at(19);
                let verdict = match head >> 16 & 0b111 {
                    0 => Verdict::Forward(arg),
                    1 => Verdict::Return,
                    2 => Verdict::Drop,
                    3 => Verdict::Recirculate,
                    _ => Verdict::Multicast(arg),
                };
                K::TmVerdict { packet: a, pass: u8_at(8), verdict, report: bit(35) }
            }
            PACKET_END => K::PacketEnd { packet: a, passes: u8_at(8), dropped: bit(16) },
            BATCH_BEGIN => K::BatchBegin { batch: a, ops: u32_at(8) },
            BATCH_END => K::BatchEnd { batch: a, ops: u32_at(8), cost_ns: b },
            ENTRY_INSERT => {
                K::EntryInsert { gress, stage: u16_at(16), table: u16_at(32), handle: a }
            }
            ENTRY_DELETE => {
                K::EntryDelete { gress, stage: u16_at(16), table: u16_at(32), handle: a }
            }
            REG_WRITE => {
                K::RegWrite { gress, stage: u16_at(16), array: u16_at(32), addr: a as u32 }
            }
            EPOCH_BUMP => K::EpochBump { epoch: a },
            LIFECYCLE => K::Lifecycle {
                kind: LIFECYCLES[code],
                prog_id: u16_at(16),
                epoch: a,
                dur_ns: b,
            },
            FAULT_INJECTED => K::FaultInjected { fault: FAULTS[code], at_op: a },
            ROLLBACK_BEGIN => K::RollbackBegin { prog_id: u16_at(16) },
            ROLLBACK_END => {
                K::RollbackEnd { prog_id: u16_at(16), ops: u32_at(32), complete: bit(8) }
            }
            RECONCILE_BEGIN => K::ReconcileBegin { generation: a },
            RECONCILE_END => K::ReconcileEnd { reinstalled: a as u32, deleted: (a >> 32) as u32 },
            SLO_VIOLATION => K::SloViolation {
                slo: SLOS[code],
                prog_id: u16_at(16),
                observed: a,
                threshold: b,
            },
            REQUEST_BEGIN => {
                K::RequestBegin { client: u32_at(32), request: a, op: REQUEST_OPS[code] }
            }
            REQUEST_END => K::RequestEnd {
                client: u32_at(32),
                request: a,
                op: REQUEST_OPS[code],
                ok: bit(16),
                dur_ns: b,
            },
            REQUEST_REJECTED => {
                K::RequestRejected { client: u32_at(32), request: a, reason: REJECTS[code] }
            }
            tag => unreachable!("trace slot with unknown tag {tag}"),
        }
    }
}

impl Slot {
    fn event(&self, seq: u64) -> TraceEvent {
        TraceEvent {
            seq,
            t_ns: self.t_ns,
            epoch: self.epoch,
            kind: TraceEventKind::decode([self.head, self.a, self.b]),
        }
    }
}

/// Flight-recorder statistics, reported by `status --json` so drop
/// accounting is visible without a dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStats {
    /// Tracing is currently enabled.
    pub enabled: bool,
    /// Ring capacity in events.
    pub capacity: u64,
    /// Events recorded since enable (including those since overwritten).
    pub recorded: u64,
    /// Events lost to ring wraparound.
    pub dropped: u64,
    /// Events currently retained in the ring.
    pub retained: u64,
    /// Invariant violations observed.
    pub violations: u64,
}

serde::impl_serde_struct!(TraceStats {
    enabled,
    capacity,
    recorded,
    dropped,
    retained,
    violations,
});

impl TraceStats {
    /// The stats of a switch that never had tracing enabled.
    pub fn disabled() -> TraceStats {
        TraceStats {
            enabled: false,
            capacity: 0,
            recorded: 0,
            dropped: 0,
            retained: 0,
            violations: 0,
        }
    }
}

/// Flight-recorder configuration.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Ring capacity in events (preallocated at enable time).
    pub capacity: usize,
    /// Directory post-mortem dumps are written to; `None` disables the
    /// artifact (violations are still counted and retained).
    pub postmortem_dir: Option<String>,
    /// Trailing events a post-mortem dump renders.
    pub postmortem_last: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity: DEFAULT_TRACE_CAPACITY,
            postmortem_dir: Some("results".into()),
            postmortem_last: DEFAULT_POSTMORTEM_LAST,
        }
    }
}

/// One invariant violation the online checker observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Sequence number of the offending event.
    pub seq: u64,
    /// What rule broke.
    pub rule: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

impl core::fmt::Display for Violation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "#{}: {} — {}", self.seq, self.rule, self.detail)
    }
}

/// The online invariant checker: the stream-level form of
/// `tests/consistency.rs`.
///
/// Rules:
///
/// 1. **`packet-during-batch`** — no packet-side event may land between a
///    control batch's `BatchBegin` and `BatchEnd`. This is the atomicity
///    substrate of the consistent-update protocol: packets interleave
///    *between* operations of a batch only through the planner's two-batch
///    ordering, never *inside* the channel's critical section.
/// 2. **`epoch-splits-batch`** — an `EpochBump` never lands inside a
///    batch: entry writes of one lifecycle event all see one epoch.
/// 3. **`epoch-regression`** — epochs only move forward.
/// 4. **`seq-regression`** — sequence numbers are strictly increasing
///    (structural; fires only if the ring is corrupted).
#[derive(Debug, Clone, Default)]
pub(crate) struct InvariantChecker {
    in_batch: Option<u64>,
    last_epoch: u64,
    last_seq: Option<u64>,
}

impl InvariantChecker {
    /// Fresh checker.
    pub(crate) fn new() -> InvariantChecker {
        InvariantChecker::default()
    }

    /// Observe one event; `Some` means the invariant broke at this event.
    pub(crate) fn observe(&mut self, ev: &TraceEvent) -> Option<Violation> {
        if let Some(last) = self.last_seq {
            if ev.seq <= last {
                return Some(Violation {
                    seq: ev.seq,
                    rule: "seq-regression",
                    detail: format!("seq {} after {}", ev.seq, last),
                });
            }
        }
        self.last_seq = Some(ev.seq);

        match ev.kind {
            TraceEventKind::BatchBegin { batch, .. } => {
                self.in_batch = Some(batch);
            }
            TraceEventKind::BatchEnd { .. } => {
                self.in_batch = None;
            }
            TraceEventKind::EpochBump { epoch } => {
                if let Some(batch) = self.in_batch {
                    // The bump still happened: keep tracking it so a later
                    // regression is judged against the real watermark.
                    self.last_epoch = self.last_epoch.max(epoch);
                    return Some(Violation {
                        seq: ev.seq,
                        rule: "epoch-splits-batch",
                        detail: format!("epoch bump to {epoch} inside batch {batch}"),
                    });
                }
                if epoch < self.last_epoch {
                    return Some(Violation {
                        seq: ev.seq,
                        rule: "epoch-regression",
                        detail: format!("epoch {epoch} after {}", self.last_epoch),
                    });
                }
                self.last_epoch = epoch;
            }
            _ => {
                if let (Some(batch), Some(packet)) = (self.in_batch, ev.kind.packet()) {
                    return Some(Violation {
                        seq: ev.seq,
                        rule: "packet-during-batch",
                        detail: format!(
                            "packet {packet} event `{}` inside batch {batch}",
                            ev.kind.name()
                        ),
                    });
                }
            }
        }
        None
    }
}

/// The flight recorder: a fixed-capacity ring of fixed-width event slots
/// with exact drop accounting, the current packet/pass context for the
/// [`crate::telemetry::Recorder`] hooks, and the inline
/// [`InvariantChecker`].
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    /// Retained slots; once full, `head` is the oldest. The sequence number
    /// of a slot is implied: the newest is `next_seq - 1`, and retained
    /// sequence numbers are contiguous.
    slots: Vec<Slot>,
    head: usize,
    next_seq: u64,
    dropped: u64,
    now_ns: u64,
    epoch: u64,
    next_batch: u64,
    cur_packet: u64,
    cur_pass: u8,
    checker: InvariantChecker,
    violations: Vec<Violation>,
    cfg: TraceConfig,
    /// Paths of post-mortem artifacts written so far.
    pub postmortems: Vec<String>,
}

impl Default for TraceBuffer {
    fn default() -> Self {
        TraceBuffer::new(TraceConfig::default())
    }
}

impl TraceBuffer {
    /// Preallocate a ring with the given configuration.
    pub(crate) fn new(cfg: TraceConfig) -> TraceBuffer {
        let capacity = cfg.capacity.max(1);
        TraceBuffer {
            slots: Vec::with_capacity(capacity),
            head: 0,
            next_seq: 0,
            dropped: 0,
            now_ns: 0,
            epoch: 0,
            next_batch: 0,
            cur_packet: 0,
            cur_pass: 0,
            checker: InvariantChecker::new(),
            violations: Vec::new(),
            cfg: TraceConfig { capacity, ..cfg },
            postmortems: Vec::new(),
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.cfg.capacity
    }

    /// The ring's configuration (used to fork per-worker rings with the
    /// master's settings).
    pub(crate) fn config(&self) -> &TraceConfig {
        &self.cfg
    }

    /// Events recorded since enable (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// Events lost to wraparound.
    pub(crate) fn dropped_events(&self) -> u64 {
        self.dropped
    }

    /// Advance the trace clock (the control channel syncs its simulated
    /// clock here; replay harnesses stamp packet timestamps).
    pub fn set_now(&mut self, t: Nanos) {
        self.now_ns = t.0;
    }

    /// Current trace clock.
    pub(crate) fn now(&self) -> Nanos {
        Nanos(self.now_ns)
    }

    /// Sync the epoch label without recording an event — used when tracing
    /// is enabled mid-run and the control plane is already past epoch 0.
    /// A *change* of epoch during tracing goes through
    /// [`TraceBuffer::note_epoch`] so the bump lands in the stream.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.checker.last_epoch = epoch;
    }

    /// The epoch currently stamped on new events.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Invariant violations observed so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> TraceStats {
        TraceStats {
            enabled: true,
            capacity: self.cfg.capacity as u64,
            recorded: self.next_seq,
            dropped: self.dropped,
            retained: self.slots.len() as u64,
            violations: self.violations.len() as u64,
        }
    }

    /// Append one event to the ring, running the invariant checker. A
    /// violation triggers the post-mortem dump (once per violation, capped
    /// at 16 retained violations).
    pub(crate) fn record(&mut self, kind: TraceEventKind) {
        let ev = TraceEvent { seq: self.next_seq, t_ns: self.now_ns, epoch: self.epoch, kind };
        self.next_seq += 1;
        let violation = self.checker.observe(&ev);
        let [head, a, b] = kind.encode();
        self.push(head, a, b);
        if let Some(v) = violation {
            if self.violations.len() < 16 {
                self.violations.push(v.clone());
                self.dump_postmortem(&format!("invariant violation: {v}"));
            }
        }
    }

    /// [`TraceBuffer::record`] for a packet-side event already encoded as
    /// its payload words. While no control batch is open the checker's only
    /// effect on a packet event is advancing its sequence watermark, so
    /// that is all this does; inside a batch the event takes the checked
    /// path, which fires `packet-during-batch`.
    #[inline(always)]
    fn record_packet(&mut self, head: u64, a: u64, b: u64) {
        if self.checker.in_batch.is_some() {
            return self.record(TraceEventKind::decode([head, a, b]));
        }
        self.checker.last_seq = Some(self.next_seq);
        self.next_seq += 1;
        self.push(head, a, b);
    }

    /// Append an already-stamped event (its `t_ns`/`epoch` preserved, its
    /// `seq` renumbered into this ring's sequence). The merge path for
    /// per-worker rings: the online invariant checker is *not* re-run —
    /// worker rings were each checked live, and a merged interleaving
    /// legitimately nests packets inside control batches that ran
    /// concurrently on other threads.
    pub(crate) fn absorb(&mut self, ev: TraceEvent) {
        self.next_seq += 1;
        let [head, a, b] = ev.kind.encode();
        self.push_slot(Slot { t_ns: ev.t_ns, epoch: ev.epoch, head, a, b });
    }

    /// Fold `n` pre-merge drops into this ring's exact drop count (events
    /// a source ring lost to wraparound before the merge saw them).
    pub(crate) fn add_dropped(&mut self, n: u64) {
        self.dropped += n;
    }

    /// Store one event stamped with the current clock and epoch.
    #[inline(always)]
    fn push(&mut self, head: u64, a: u64, b: u64) {
        self.push_slot(Slot { t_ns: self.now_ns, epoch: self.epoch, head, a, b });
    }

    #[inline(always)]
    fn push_slot(&mut self, slot: Slot) {
        if self.slots.len() < self.cfg.capacity {
            self.slots.push(slot);
        } else {
            // Wraparound: the oldest retained event is evicted — exact
            // drop accounting, no allocation.
            self.slots[self.head] = slot;
            self.head += 1;
            if self.head == self.slots.len() {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }

    /// Retained events, oldest first (causal order), decoded from their
    /// slots.
    pub fn events(&self) -> impl Iterator<Item = TraceEvent> + Clone + '_ {
        let (older, newer) = self.slots.split_at(self.head);
        let oldest = self.next_seq - self.slots.len() as u64;
        newer.iter().chain(older).zip(oldest..).map(|(slot, seq)| slot.event(seq))
    }

    /// The last `n` retained events, oldest first.
    pub(crate) fn tail(&self, n: usize) -> Vec<TraceEvent> {
        let skip = self.slots.len().saturating_sub(n);
        self.events().skip(skip).collect()
    }

    // ---- control-side hooks -------------------------------------------

    /// A control batch opened; returns its id for [`TraceBuffer::batch_end`].
    pub fn batch_begin(&mut self, ops: usize) -> u64 {
        let batch = self.next_batch;
        self.next_batch += 1;
        self.record(TraceEventKind::BatchBegin { batch, ops: ops as u32 });
        batch
    }

    /// A control batch closed after `ops` applied operations.
    pub fn batch_end(&mut self, batch: u64, ops: usize, cost: Nanos) {
        self.record(TraceEventKind::BatchEnd { batch, ops: ops as u32, cost_ns: cost.0 });
    }

    /// One applied control operation (reads are not traced — they cannot
    /// affect packet-visible state).
    pub(crate) fn control_op(&mut self, op: &ControlOp, result: &OpResult) {
        match (op, result) {
            (ControlOp::InsertEntry { table, .. }, OpResult::Inserted(h)) => {
                self.record(TraceEventKind::EntryInsert {
                    gress: table.gress,
                    stage: table.stage as u16,
                    table: table.table as u16,
                    handle: h.0,
                });
            }
            (ControlOp::DeleteEntry { table, handle }, _) => {
                self.record(TraceEventKind::EntryDelete {
                    gress: table.gress,
                    stage: table.stage as u16,
                    table: table.table as u16,
                    handle: handle.0,
                });
            }
            (ControlOp::WriteReg { array, addr, .. }, _) => {
                self.record(TraceEventKind::RegWrite {
                    gress: array.gress,
                    stage: array.stage as u16,
                    array: array.array as u16,
                    addr: *addr,
                });
            }
            (ControlOp::ResetRegRange { array, start, .. }, _) => {
                self.record(TraceEventKind::RegWrite {
                    gress: array.gress,
                    stage: array.stage as u16,
                    array: array.array as u16,
                    addr: *start,
                });
            }
            _ => {}
        }
    }

    /// The control plane opened a new epoch: record the bump and stamp all
    /// subsequent events with it.
    pub fn note_epoch(&mut self, epoch: u64) {
        self.record(TraceEventKind::EpochBump { epoch });
        self.epoch = epoch;
    }

    /// A program lifecycle event completed.
    pub fn lifecycle(&mut self, kind: LifecycleKind, prog_id: u16, epoch: u64, dur: Nanos) {
        self.record(TraceEventKind::Lifecycle { kind, prog_id, epoch, dur_ns: dur.0 });
    }

    /// The fault plan fired a trigger on the control channel.
    pub(crate) fn fault_injected(&mut self, fault: crate::fault::FaultKind, at_op: u64) {
        self.record(TraceEventKind::FaultInjected { fault, at_op });
    }

    /// The controller started undoing a partially applied plan.
    pub fn rollback_begin(&mut self, prog_id: u16) {
        self.record(TraceEventKind::RollbackBegin { prog_id });
    }

    /// The rollback finished (`complete` = every applied op undone).
    pub fn rollback_end(&mut self, prog_id: u16, ops: u32, complete: bool) {
        self.record(TraceEventKind::RollbackEnd { prog_id, ops, complete });
    }

    /// The controller started a device-state audit.
    pub fn reconcile_begin(&mut self, generation: u64) {
        self.record(TraceEventKind::ReconcileBegin { generation });
    }

    /// The reconciliation pass finished.
    pub fn reconcile_end(&mut self, reinstalled: u32, deleted: u32) {
        self.record(TraceEventKind::ReconcileEnd { reinstalled, deleted });
    }

    /// The SLO watchdog crossed into breach on one objective.
    pub fn slo_violation(&mut self, slo: SloKind, prog_id: u16, observed: u64, threshold: u64) {
        self.record(TraceEventKind::SloViolation { slo, prog_id, observed, threshold });
    }

    /// The runtime-control server dequeued a client request.
    pub fn request_begin(&mut self, client: u32, request: u64, op: RequestOp) {
        self.record(TraceEventKind::RequestBegin { client, request, op });
    }

    /// The runtime-control server finished a client request.
    pub fn request_end(&mut self, client: u32, request: u64, op: RequestOp, ok: bool, dur_ns: u64) {
        self.record(TraceEventKind::RequestEnd { client, request, op, ok, dur_ns });
    }

    /// The runtime-control server refused a client request unexecuted.
    pub fn request_rejected(&mut self, client: u32, request: u64, reason: RejectReason) {
        self.record(TraceEventKind::RequestRejected { client, request, reason });
    }

    // ---- post-mortem ---------------------------------------------------

    /// Render the last `postmortem_last` events plus the reason into a
    /// `postmortem-<seq>.txt` artifact under the configured directory.
    /// Returns the path when a file was written.
    pub(crate) fn dump_postmortem(&mut self, reason: &str) -> Option<String> {
        let dir = self.cfg.postmortem_dir.clone()?;
        let text = self.render_postmortem(reason);
        let path = format!("{dir}/postmortem-{}.txt", self.next_seq);
        if std::fs::create_dir_all(&dir).is_err() || std::fs::write(&path, text).is_err() {
            return None;
        }
        self.postmortems.push(path.clone());
        Some(path)
    }

    /// The post-mortem text (also used when the artifact directory is
    /// disabled).
    pub(crate) fn render_postmortem(&self, reason: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("post-mortem: {reason}\n"));
        let s = self.stats();
        out.push_str(&format!(
            "ring: {} recorded, {} dropped, {} retained (capacity {})\n",
            s.recorded, s.dropped, s.retained, s.capacity
        ));
        for v in &self.violations {
            out.push_str(&format!("violation {v}\n"));
        }
        out.push_str(&format!("last {} events:\n", self.cfg.postmortem_last));
        for ev in self.tail(self.cfg.postmortem_last) {
            out.push_str(&ev.render());
            out.push('\n');
        }
        out
    }
}

/// The packet hooks build their slot words in place (the same helpers
/// [`TraceEventKind::encode`] uses), so no [`TraceEventKind`] exists on
/// the record path.
impl crate::telemetry::Recorder for TraceBuffer {
    #[inline]
    fn table_lookup(&mut self, gress: Gress, stage: usize, hit: bool) {
        let head = stage_head(TABLE_LOOKUP, gress, stage as u16, hit);
        self.record_packet(head, self.cur_packet, 0);
    }

    #[inline]
    fn action_executed(&mut self, gress: Gress, stage: usize) {
        let head = stage_head(ACTION, gress, stage as u16, false);
        self.record_packet(head, self.cur_packet, 0);
    }

    #[inline]
    fn salu_rmw(&mut self, gress: Gress, stage: usize, wrote: bool) {
        let head = stage_head(SALU_RMW, gress, stage as u16, wrote);
        self.record_packet(head, self.cur_packet, 0);
    }

    #[inline]
    fn parser_path(&mut self, bitmap: u16) {
        self.record_packet(parser_head(self.cur_pass, bitmap), self.cur_packet, 0);
    }

    #[inline]
    fn tm_decision(&mut self, verdict: Verdict, report_copy: bool) {
        let head = verdict_head(self.cur_pass, verdict, report_copy);
        self.record_packet(head, self.cur_packet, 0);
    }

    #[inline]
    fn packet_begin(&mut self, packet: u64, port: u16, len: u32) {
        self.cur_packet = packet;
        self.cur_pass = 0;
        self.record_packet(start_head(port, len), packet, 0);
    }

    #[inline]
    fn packet_flow(&mut self, packet: u64, src: u32, dst: u32, sport: u16, dport: u16, proto: u8) {
        let (head, b) = flow_words(src, dst, sport, dport, proto);
        self.record_packet(head, packet, b);
    }

    #[inline]
    fn pass_begin(&mut self, packet: u64, pass: u8) {
        self.cur_packet = packet;
        self.cur_pass = pass;
        self.record_packet(PASS_BEGIN | u64::from(pass) << 8, packet, 0);
    }

    #[inline]
    fn packet_end(&mut self, packet: u64, passes: u8, dropped: bool) {
        self.record_packet(end_head(passes, dropped), packet, 0);
    }
}

// ---- merging -----------------------------------------------------------

/// Merge several rings (the master's control ring plus per-worker packet
/// rings) into one causally ordered ring, deterministically: events sort
/// by trace time, then control-before-packet, then packet id, then source
/// sequence — none of which depend on how packets were sharded across
/// workers, so the merged stream is worker-count-independent whenever
/// packet ids are (the parallel driver assigns them by global trace
/// position). Sequence numbers are renumbered contiguously and drop
/// accounting is exact: the merged ring starts from the sum of the source
/// rings' drops and adds its own wraparound drops on top.
///
/// The online [`InvariantChecker`] is deliberately *not* re-run on the
/// merged stream (see [`TraceBuffer::absorb`]); consult each source
/// ring's [`TraceBuffer::violations`] instead.
pub(crate) fn merge_rings<'a>(
    rings: impl IntoIterator<Item = &'a TraceBuffer>,
    cfg: TraceConfig,
) -> TraceBuffer {
    let mut all: Vec<TraceEvent> = Vec::new();
    let mut dropped = 0;
    let mut now = 0u64;
    let mut epoch = 0u64;
    for r in rings {
        dropped += r.dropped_events();
        now = now.max(r.now().0);
        epoch = epoch.max(r.epoch());
        all.extend(r.events());
    }
    all.sort_by_key(|ev| {
        let packet = ev.kind.packet();
        (ev.t_ns, packet.is_some(), packet.unwrap_or(0), ev.seq)
    });
    let mut out = TraceBuffer::new(cfg);
    out.add_dropped(dropped);
    for ev in all {
        out.absorb(ev);
    }
    out.set_now(Nanos(now));
    out.set_epoch(epoch);
    out
}

/// Extract the IPv4 five-tuple of an Ethernet frame (big-endian addresses),
/// `None` unless the frame is IPv4 carrying TCP or UDP. This is the
/// flow key the [`TraceEventKind::PacketFlow`] event and the
/// [`TraceFilter::Flow`] selector use; it deliberately reads raw bytes so
/// `rmt-sim` needs no packet-format dependency.
pub fn frame_five_tuple(frame: &[u8]) -> Option<(u32, u32, u16, u16, u8)> {
    if frame.len() < 34 || frame[12] != 0x08 || frame[13] != 0x00 {
        return None;
    }
    let ihl = usize::from(frame[14] & 0x0f) * 4;
    if !(20..=60).contains(&ihl) {
        return None;
    }
    let proto = frame[23];
    if proto != 6 && proto != 17 {
        return None;
    }
    let l4 = 14 + ihl;
    if frame.len() < l4 + 4 {
        return None;
    }
    let src = u32::from_be_bytes([frame[26], frame[27], frame[28], frame[29]]);
    let dst = u32::from_be_bytes([frame[30], frame[31], frame[32], frame[33]]);
    let sport = u16::from_be_bytes([frame[l4], frame[l4 + 1]]);
    let dport = u16::from_be_bytes([frame[l4 + 2], frame[l4 + 3]]);
    Some((src, dst, sport, dport, proto))
}

// ---- journeys ----------------------------------------------------------

/// One pipeline pass of a reconstructed journey.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JourneyPass {
    /// Pass number (1-based).
    pub pass: u8,
    /// Parse-path bitmap, when the parser event is retained.
    pub bitmap: Option<u16>,
    /// `(gress, stage, hit)` per table lookup, pipeline order.
    pub lookups: Vec<(Gress, u16, bool)>,
    /// `(gress, stage)` per executed action.
    pub actions: Vec<(Gress, u16)>,
    /// `(gress, stage, wrote)` per SALU cycle.
    pub salus: Vec<(Gress, u16, bool)>,
    /// The pass's TM verdict.
    pub verdict: Option<(Verdict, bool)>,
}

/// A packet's reconstructed journey through the switch.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketJourney {
    /// Packet id.
    pub packet: u64,
    /// Ingress port, when the start event is retained.
    pub port: Option<u16>,
    /// Frame length, when the start event is retained.
    pub len: Option<u32>,
    /// Five-tuple `(src, dst, sport, dport, proto)`, when parsed.
    pub flow: Option<(u32, u32, u16, u16, u8)>,
    /// Per-pass records, pass order.
    pub passes: Vec<JourneyPass>,
    /// Terminal record `(passes, dropped)`, when the end event is retained.
    pub end: Option<(u8, bool)>,
    /// Every distinct epoch stamped on this packet's events.
    pub epochs: Vec<u64>,
    /// True when the ring evicted part of this journey (its first retained
    /// event is not `PacketStart`).
    pub truncated: bool,
}

impl PacketJourney {
    /// The final pass's verdict, if retained.
    pub fn final_verdict(&self) -> Option<Verdict> {
        self.passes.iter().rev().find_map(|p| p.verdict.map(|(v, _)| v))
    }

    /// Recirculation count: passes beyond the first.
    pub fn recirculations(&self) -> usize {
        self.passes.len().saturating_sub(1)
    }

    /// Distinct `(gress, stage)` pairs that *hit* an installed entry.
    pub fn stages_hit(&self) -> Vec<(Gress, u16)> {
        let mut out: Vec<(Gress, u16)> = Vec::new();
        for p in &self.passes {
            for &(g, s, hit) in &p.lookups {
                if hit && !out.contains(&(g, s)) {
                    out.push((g, s));
                }
            }
        }
        out
    }

    /// Human-readable multi-line rendering.
    pub fn render(&self) -> String {
        let mut out = format!("packet {}", self.packet);
        if let Some(port) = self.port {
            out.push_str(&format!(" (port {port}, {} B)", self.len.unwrap_or(0)));
        }
        if let Some((src, dst, sport, dport, proto)) = self.flow {
            out.push_str(&format!(
                " {}.{}.{}.{}:{sport} > {}.{}.{}.{}:{dport}/{proto}",
                src >> 24,
                (src >> 16) & 0xff,
                (src >> 8) & 0xff,
                src & 0xff,
                dst >> 24,
                (dst >> 16) & 0xff,
                (dst >> 8) & 0xff,
                dst & 0xff
            ));
        }
        if self.truncated {
            out.push_str(" [truncated]");
        }
        out.push('\n');
        for p in &self.passes {
            out.push_str(&format!("  pass {}:", p.pass));
            if let Some(b) = p.bitmap {
                out.push_str(&format!(" parse {b:#06x}"));
            }
            for &(g, s, hit) in &p.lookups {
                out.push_str(&format!(" {g}[{s}]{}", if hit { "+" } else { "-" }));
            }
            for &(g, s, wrote) in &p.salus {
                out.push_str(&format!(" salu:{g}[{s}]{}", if wrote { "w" } else { "r" }));
            }
            if let Some((v, report)) = p.verdict {
                out.push_str(&format!(" → {v:?}{}", if report { "+report" } else { "" }));
            }
            out.push('\n');
        }
        if let Some((passes, dropped)) = self.end {
            out.push_str(&format!(
                "  end: {passes} pass(es), {}, epochs {:?}\n",
                if dropped { "dropped" } else { "emitted" },
                self.epochs
            ));
        }
        out
    }
}

/// Reconstruct one packet's journey from a causally ordered event slice.
/// Returns `None` when no event of that packet is retained.
pub fn journey(events: impl IntoIterator<Item = TraceEvent>, packet: u64) -> Option<PacketJourney> {
    let mut events = events.into_iter().filter(|ev| ev.kind.packet() == Some(packet));
    let mut j = PacketJourney::starting_at(packet, events.next()?);
    events.for_each(|ev| j.absorb(ev));
    Some(j)
}

/// Group every retained journey by packet id, oldest packet first, in one
/// pass over the events.
pub fn journeys(events: impl IntoIterator<Item = TraceEvent>) -> Vec<PacketJourney> {
    let mut out: Vec<PacketJourney> = Vec::new();
    let mut index: HashMap<u64, usize> = HashMap::new();
    for ev in events {
        let Some(packet) = ev.kind.packet() else { continue };
        match index.get(&packet) {
            Some(&i) => out[i].absorb(ev),
            None => {
                index.insert(packet, out.len());
                out.push(PacketJourney::starting_at(packet, ev));
            }
        }
    }
    out
}

impl PacketJourney {
    /// A journey opened by `first`, the packet's oldest retained event.
    fn starting_at(packet: u64, first: TraceEvent) -> PacketJourney {
        let mut j = PacketJourney {
            packet,
            port: None,
            len: None,
            flow: None,
            passes: Vec::new(),
            end: None,
            epochs: Vec::new(),
            truncated: !matches!(first.kind, TraceEventKind::PacketStart { .. }),
        };
        j.absorb(first);
        j
    }

    /// Fold one of this packet's events into the journey.
    fn absorb(&mut self, ev: TraceEvent) {
        if !self.epochs.contains(&ev.epoch) {
            self.epochs.push(ev.epoch);
        }
        match ev.kind {
            TraceEventKind::PacketStart { port, len, .. } => {
                self.port = Some(port);
                self.len = Some(len);
            }
            TraceEventKind::PacketFlow { src, dst, sport, dport, proto, .. } => {
                self.flow = Some((src, dst, sport, dport, proto));
            }
            TraceEventKind::PassBegin { pass, .. } => {
                self.passes.push(JourneyPass { pass, ..JourneyPass::default() });
            }
            TraceEventKind::ParserPath { pass, bitmap, .. } => {
                last_pass(self, pass).bitmap = Some(bitmap);
            }
            TraceEventKind::TableLookup { gress, stage, hit, .. } => {
                last_pass(self, 1).lookups.push((gress, stage, hit));
            }
            TraceEventKind::ActionExecuted { gress, stage, .. } => {
                last_pass(self, 1).actions.push((gress, stage));
            }
            TraceEventKind::SaluRmw { gress, stage, wrote, .. } => {
                last_pass(self, 1).salus.push((gress, stage, wrote));
            }
            TraceEventKind::TmVerdict { pass, verdict, report, .. } => {
                last_pass(self, pass).verdict = Some((verdict, report));
            }
            TraceEventKind::PacketEnd { passes, dropped, .. } => {
                self.end = Some((passes, dropped));
            }
            _ => {}
        }
    }
}

/// The journey's current pass record, opening one when events arrive with
/// their `PassBegin` evicted.
fn last_pass(j: &mut PacketJourney, pass: u8) -> &mut JourneyPass {
    if j.passes.is_empty() {
        j.passes.push(JourneyPass { pass, ..JourneyPass::default() });
    }
    j.passes.last_mut().expect("just ensured non-empty")
}

// ---- filtering ---------------------------------------------------------

/// Event selection for `trace dump`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFilter {
    /// Everything.
    All,
    /// Control-side events only.
    Control,
    /// Packet-side events only.
    Packets,
    /// Events touching one table (lookups plus its entry churn).
    Table {
        /// Gress.
        gress: Gress,
        /// Stage.
        stage: u16,
        /// Table within the stage.
        table: u16,
    },
    /// Events of packets whose five-tuple involves this IPv4 address (and
    /// port, when given) as source or destination.
    Flow {
        /// IPv4 address, big-endian u32.
        addr: u32,
        /// Optional source-or-destination port.
        port: Option<u16>,
    },
}

/// Apply a filter over a causally ordered stream, returning retained
/// events oldest first. Flow filters resolve the matching packet ids from
/// the stream's `PacketFlow` events first, then keep every event of those
/// packets.
pub fn filter_events(
    events: impl IntoIterator<Item = TraceEvent> + Clone,
    filter: TraceFilter,
) -> Vec<TraceEvent> {
    let flow_packets: std::collections::HashSet<u64> = match filter {
        TraceFilter::Flow { addr, port } => events
            .clone()
            .into_iter()
            .filter_map(|ev| match ev.kind {
                TraceEventKind::PacketFlow { packet, src, dst, sport, dport, .. } => {
                    let addr_ok = src == addr || dst == addr;
                    let port_ok = port.is_none_or(|p| sport == p || dport == p);
                    (addr_ok && port_ok).then_some(packet)
                }
                _ => None,
            })
            .collect(),
        _ => Default::default(),
    };
    events
        .into_iter()
        .filter(|ev| match filter {
            TraceFilter::All => true,
            TraceFilter::Control => ev.kind.packet().is_none(),
            TraceFilter::Packets => ev.kind.packet().is_some(),
            TraceFilter::Table { gress, stage, table } => match ev.kind {
                TraceEventKind::TableLookup { gress: g, stage: s, .. } => {
                    g == gress && s == stage
                }
                TraceEventKind::EntryInsert { gress: g, stage: s, table: t, .. }
                | TraceEventKind::EntryDelete { gress: g, stage: s, table: t, .. } => {
                    g == gress && s == stage && t == table
                }
                _ => false,
            },
            TraceFilter::Flow { .. } => {
                ev.kind.packet().is_some_and(|p| flow_packets.contains(&p))
            }
        })
        .collect()
}

// ---- Chrome trace export ----------------------------------------------

fn chrome_args(fields: Vec<(&str, serde::Value)>) -> serde::Value {
    serde::Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

#[allow(clippy::too_many_arguments)]
fn chrome_event(
    name: &str,
    cat: &str,
    ph: &str,
    ts_us: f64,
    pid: u64,
    tid: u64,
    extra: Vec<(&str, serde::Value)>,
    args: Vec<(&str, serde::Value)>,
) -> serde::Value {
    let mut fields = vec![
        ("name".to_string(), serde::Value::Str(name.to_string())),
        ("cat".to_string(), serde::Value::Str(cat.to_string())),
        ("ph".to_string(), serde::Value::Str(ph.to_string())),
        ("ts".to_string(), serde::Value::F64(ts_us)),
        ("pid".to_string(), serde::Value::U64(pid)),
        ("tid".to_string(), serde::Value::U64(tid)),
    ];
    for (k, v) in extra {
        fields.push((k.to_string(), v));
    }
    fields.push(("args".to_string(), chrome_args(args)));
    serde::Value::Object(fields)
}

const CONTROL_PID: u64 = 1;
const PACKET_PID: u64 = 2;

/// Export a causally ordered stream as a Chrome trace-event document
/// (Perfetto-viewable). Control-plane events land on one process track
/// (`pid 1`): batches and lifecycle spans as complete (`X`) slices, entry
/// churn and epoch bumps as instants. Packet journeys land on a second
/// process track (`pid 2`) with one thread row per packet id, every hook
/// event an instant carrying its payload in `args`.
pub(crate) fn chrome_trace(events: impl IntoIterator<Item = TraceEvent>) -> serde::Value {
    let mut out: Vec<serde::Value> = vec![
        chrome_event(
            "process_name",
            "__metadata",
            "M",
            0.0,
            CONTROL_PID,
            0,
            vec![],
            vec![("name", serde::Value::Str("control-plane".into()))],
        ),
        chrome_event(
            "process_name",
            "__metadata",
            "M",
            0.0,
            PACKET_PID,
            0,
            vec![],
            vec![("name", serde::Value::Str("packet-journeys".into()))],
        ),
    ];
    for ev in events {
        let ts = ev.t_ns as f64 / 1e3;
        let seq = ("seq", serde::Value::U64(ev.seq));
        let epoch = ("epoch", serde::Value::U64(ev.epoch));
        let v = match ev.kind {
            TraceEventKind::BatchBegin { .. } => continue, // folded into BatchEnd's slice
            TraceEventKind::BatchEnd { batch, ops, cost_ns } => chrome_event(
                "batch",
                "control",
                "X",
                ts,
                CONTROL_PID,
                0,
                vec![("dur", serde::Value::F64(cost_ns as f64 / 1e3))],
                vec![
                    seq,
                    epoch,
                    ("batch", serde::Value::U64(batch)),
                    ("ops", serde::Value::U64(u64::from(ops))),
                ],
            ),
            TraceEventKind::Lifecycle { kind, prog_id, epoch: e, dur_ns } => chrome_event(
                match kind {
                    LifecycleKind::Deploy => "deploy",
                    LifecycleKind::Revoke => "revoke",
                },
                "lifecycle",
                "X",
                ts,
                CONTROL_PID,
                1,
                vec![("dur", serde::Value::F64(dur_ns as f64 / 1e3))],
                vec![
                    seq,
                    ("prog_id", serde::Value::U64(u64::from(prog_id))),
                    ("epoch", serde::Value::U64(e)),
                ],
            ),
            TraceEventKind::EntryInsert { gress, stage, table, handle }
            | TraceEventKind::EntryDelete { gress, stage, table, handle } => chrome_event(
                ev.kind.name(),
                "control",
                "i",
                ts,
                CONTROL_PID,
                0,
                vec![("s", serde::Value::Str("t".into()))],
                vec![
                    seq,
                    epoch,
                    ("gress", serde::Value::Str(gress.to_string())),
                    ("stage", serde::Value::U64(u64::from(stage))),
                    ("table", serde::Value::U64(u64::from(table))),
                    ("handle", serde::Value::U64(handle)),
                ],
            ),
            TraceEventKind::RegWrite { gress, stage, array, addr } => chrome_event(
                "reg_write",
                "control",
                "i",
                ts,
                CONTROL_PID,
                0,
                vec![("s", serde::Value::Str("t".into()))],
                vec![
                    seq,
                    epoch,
                    ("gress", serde::Value::Str(gress.to_string())),
                    ("stage", serde::Value::U64(u64::from(stage))),
                    ("array", serde::Value::U64(u64::from(array))),
                    ("addr", serde::Value::U64(u64::from(addr))),
                ],
            ),
            TraceEventKind::EpochBump { epoch: e } => chrome_event(
                "epoch_bump",
                "control",
                "i",
                ts,
                CONTROL_PID,
                0,
                vec![("s", serde::Value::Str("p".into()))],
                vec![seq, ("epoch", serde::Value::U64(e))],
            ),
            TraceEventKind::FaultInjected { fault, at_op } => chrome_event(
                "fault_injected",
                "fault",
                "i",
                ts,
                CONTROL_PID,
                0,
                vec![("s", serde::Value::Str("p".into()))],
                vec![
                    seq,
                    epoch,
                    ("fault", serde::Value::Str(fault.name().into())),
                    ("at_op", serde::Value::U64(at_op)),
                ],
            ),
            TraceEventKind::RollbackBegin { prog_id } => chrome_event(
                "rollback_begin",
                "fault",
                "i",
                ts,
                CONTROL_PID,
                0,
                vec![("s", serde::Value::Str("t".into()))],
                vec![seq, epoch, ("prog_id", serde::Value::U64(u64::from(prog_id)))],
            ),
            TraceEventKind::RollbackEnd { prog_id, ops, complete } => chrome_event(
                "rollback_end",
                "fault",
                "i",
                ts,
                CONTROL_PID,
                0,
                vec![("s", serde::Value::Str("t".into()))],
                vec![
                    seq,
                    epoch,
                    ("prog_id", serde::Value::U64(u64::from(prog_id))),
                    ("ops", serde::Value::U64(u64::from(ops))),
                    ("complete", serde::Value::Bool(complete)),
                ],
            ),
            TraceEventKind::ReconcileBegin { generation } => chrome_event(
                "reconcile_begin",
                "fault",
                "i",
                ts,
                CONTROL_PID,
                0,
                vec![("s", serde::Value::Str("t".into()))],
                vec![seq, epoch, ("generation", serde::Value::U64(generation))],
            ),
            TraceEventKind::ReconcileEnd { reinstalled, deleted } => chrome_event(
                "reconcile_end",
                "fault",
                "i",
                ts,
                CONTROL_PID,
                0,
                vec![("s", serde::Value::Str("t".into()))],
                vec![
                    seq,
                    epoch,
                    ("reinstalled", serde::Value::U64(u64::from(reinstalled))),
                    ("deleted", serde::Value::U64(u64::from(deleted))),
                ],
            ),
            TraceEventKind::SloViolation { slo, prog_id, observed, threshold } => chrome_event(
                "slo_violation",
                "slo",
                "i",
                ts,
                CONTROL_PID,
                0,
                vec![("s", serde::Value::Str("t".into()))],
                vec![
                    seq,
                    epoch,
                    ("slo", serde::Value::Str(slo.name().into())),
                    ("prog_id", serde::Value::U64(u64::from(prog_id))),
                    ("observed", serde::Value::U64(observed)),
                    ("threshold", serde::Value::U64(threshold)),
                ],
            ),
            TraceEventKind::RequestBegin { client, request, op } => chrome_event(
                op.name(),
                "server",
                "i",
                ts,
                CONTROL_PID,
                2,
                vec![("s", serde::Value::Str("t".into()))],
                vec![
                    seq,
                    epoch,
                    ("client", serde::Value::U64(u64::from(client))),
                    ("request", serde::Value::U64(request)),
                ],
            ),
            TraceEventKind::RequestEnd { client, request, op, ok, dur_ns } => chrome_event(
                op.name(),
                "server",
                "X",
                ts,
                CONTROL_PID,
                2,
                vec![("dur", serde::Value::F64(dur_ns as f64 / 1e3))],
                vec![
                    seq,
                    epoch,
                    ("client", serde::Value::U64(u64::from(client))),
                    ("request", serde::Value::U64(request)),
                    ("ok", serde::Value::Bool(ok)),
                ],
            ),
            TraceEventKind::RequestRejected { client, request, reason } => chrome_event(
                "request_rejected",
                "server",
                "i",
                ts,
                CONTROL_PID,
                2,
                vec![("s", serde::Value::Str("t".into()))],
                vec![
                    seq,
                    epoch,
                    ("client", serde::Value::U64(u64::from(client))),
                    ("request", serde::Value::U64(request)),
                    ("reason", serde::Value::Str(reason.name().into())),
                ],
            ),
            kind => {
                let packet = kind.packet().unwrap_or(0);
                let mut args = vec![seq, epoch, ("packet", serde::Value::U64(packet))];
                match kind {
                    TraceEventKind::PacketStart { port, len, .. } => {
                        args.push(("port", serde::Value::U64(u64::from(port))));
                        args.push(("len", serde::Value::U64(u64::from(len))));
                    }
                    TraceEventKind::ParserPath { pass, bitmap, .. } => {
                        args.push(("pass", serde::Value::U64(u64::from(pass))));
                        args.push(("bitmap", serde::Value::Str(format!("{bitmap:#06x}"))));
                    }
                    TraceEventKind::TableLookup { gress, stage, hit, .. } => {
                        args.push(("gress", serde::Value::Str(gress.to_string())));
                        args.push(("stage", serde::Value::U64(u64::from(stage))));
                        args.push(("hit", serde::Value::Bool(hit)));
                    }
                    TraceEventKind::SaluRmw { gress, stage, wrote, .. } => {
                        args.push(("gress", serde::Value::Str(gress.to_string())));
                        args.push(("stage", serde::Value::U64(u64::from(stage))));
                        args.push(("wrote", serde::Value::Bool(wrote)));
                    }
                    TraceEventKind::TmVerdict { pass, verdict, report, .. } => {
                        args.push(("pass", serde::Value::U64(u64::from(pass))));
                        args.push(("verdict", serde::Value::Str(format!("{verdict:?}"))));
                        args.push(("report", serde::Value::Bool(report)));
                    }
                    TraceEventKind::PacketEnd { passes, dropped, .. } => {
                        args.push(("passes", serde::Value::U64(u64::from(passes))));
                        args.push(("dropped", serde::Value::Bool(dropped)));
                    }
                    _ => {}
                }
                chrome_event(
                    kind.name(),
                    "packet",
                    "i",
                    ts,
                    PACKET_PID,
                    packet,
                    vec![("s", serde::Value::Str("t".into()))],
                    args,
                )
            }
        };
        out.push(v);
    }
    serde::Value::Object(vec![
        ("traceEvents".to_string(), serde::Value::Array(out)),
        ("displayTimeUnit".to_string(), serde::Value::Str("ns".to_string())),
    ])
}

/// [`chrome_trace`] rendered to a pretty-printed JSON string.
pub fn chrome_trace_json(events: impl IntoIterator<Item = TraceEvent>) -> String {
    serde::json::to_string_pretty(&chrome_trace(events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Recorder;

    fn pkt_events(t: &mut TraceBuffer, packet: u64) {
        t.packet_begin(packet, 3, 64);
        t.pass_begin(packet, 1);
        t.parser_path(0x0003);
        t.table_lookup(Gress::Ingress, 0, true);
        t.action_executed(Gress::Ingress, 0);
        t.tm_decision(Verdict::Forward(9), false);
        t.packet_end(packet, 1, false);
    }

    #[test]
    fn ring_wraparound_keeps_seq_monotonic_and_drops_exact() {
        let mut t = TraceBuffer::new(TraceConfig {
            capacity: 8,
            postmortem_dir: None,
            ..TraceConfig::default()
        });
        for i in 0..30u64 {
            t.record(TraceEventKind::EpochBump { epoch: i });
        }
        assert_eq!(t.recorded(), 30);
        assert_eq!(t.dropped_events(), 22);
        assert_eq!(t.stats().retained, 8);
        let seqs: Vec<u64> = t.events().map(|e| e.seq).collect();
        assert_eq!(seqs, (22..30).collect::<Vec<_>>(), "last 8, contiguous, oldest first");
        let s = t.stats();
        assert_eq!((s.recorded, s.dropped, s.retained), (30, 22, 8));
        assert!(s.enabled);
    }

    #[test]
    fn journey_reconstruction_matches_recorded_hooks() {
        let mut t = TraceBuffer::new(TraceConfig { capacity: 64, ..TraceConfig::default() });
        pkt_events(&mut t, 7);
        // A second packet that recirculates once and drops.
        t.packet_begin(8, 0, 80);
        t.pass_begin(8, 1);
        t.parser_path(0x0001);
        t.table_lookup(Gress::Ingress, 0, false);
        t.tm_decision(Verdict::Recirculate, false);
        t.pass_begin(8, 2);
        t.parser_path(0x0001);
        t.table_lookup(Gress::Ingress, 0, true);
        t.salu_rmw(Gress::Ingress, 1, true);
        t.tm_decision(Verdict::Drop, true);
        t.packet_end(8, 2, true);

        let j7 = journey(t.events(), 7).unwrap();
        assert_eq!(j7.port, Some(3));
        assert_eq!(j7.final_verdict(), Some(Verdict::Forward(9)));
        assert_eq!(j7.recirculations(), 0);
        assert_eq!(j7.stages_hit(), vec![(Gress::Ingress, 0)]);
        assert_eq!(j7.end, Some((1, false)));
        assert!(!j7.truncated);

        let j8 = journey(t.events(), 8).unwrap();
        assert_eq!(j8.passes.len(), 2);
        assert_eq!(j8.recirculations(), 1);
        assert_eq!(j8.final_verdict(), Some(Verdict::Drop));
        assert_eq!(j8.passes[1].salus, vec![(Gress::Ingress, 1, true)]);
        assert_eq!(j8.end, Some((2, true)));
        assert!(j8.render().contains("pass 2"));

        assert_eq!(journeys(t.events()).len(), 2);
        assert!(journey(t.events(), 99).is_none());
    }

    /// `journeys` groups in one pass what `journey` finds packet by packet:
    /// the same journeys, oldest packet first, when packets interleave
    /// event by event between control events and the ring has cut one
    /// packet's head and another's tail.
    #[test]
    fn journeys_equals_journey_per_packet_in_first_seen_order() {
        let mut t = TraceBuffer::new(TraceConfig { capacity: 256, ..TraceConfig::default() });
        for packet in 1..=4 {
            pkt_events(&mut t, packet);
        }
        let mut per_packet: Vec<Vec<TraceEvent>> = (1..=4)
            .map(|p| t.events().filter(|e| e.kind.packet() == Some(p)).collect())
            .collect();
        per_packet[0].drain(..2);
        per_packet[2].truncate(3);
        let mut evs = Vec::new();
        for round in 0..7 {
            for p in [3, 0, 2, 1] {
                evs.extend(per_packet[p].get(round).map(|&e| TraceEvent { epoch: round as u64, ..e }));
            }
            evs.push(TraceEvent {
                seq: 0,
                t_ns: 0,
                epoch: round as u64,
                kind: TraceEventKind::EpochBump { epoch: round as u64 },
            });
        }
        let got = journeys(evs.iter().copied());
        let want: Vec<PacketJourney> =
            [4, 1, 3, 2].iter().map(|&p| journey(evs.iter().copied(), p).unwrap()).collect();
        assert_eq!(got, want);
        assert_eq!(got.iter().map(|j| j.truncated).collect::<Vec<_>>(), [false, true, false, false]);
        assert_eq!((got[2].end, got[3].end), (None, Some((1, false))));
        assert_eq!(got[3].epochs, (0..7).collect::<Vec<u64>>());
    }

    #[test]
    fn checker_fires_on_packet_during_batch() {
        let mut t = TraceBuffer::new(TraceConfig {
            capacity: 64,
            postmortem_dir: None,
            ..TraceConfig::default()
        });
        let b = t.batch_begin(2);
        // Corrupted interleaving: a packet event lands inside the batch.
        t.packet_begin(1, 0, 64);
        assert_eq!(t.violations().len(), 1);
        assert_eq!(t.violations()[0].rule, "packet-during-batch");
        t.batch_end(b, 2, Nanos::from_micros(600));
        // Clean traffic afterwards does not re-fire.
        pkt_events(&mut t, 2);
        assert_eq!(t.violations().len(), 1);
    }

    #[test]
    fn checker_fires_on_epoch_split_and_regression() {
        let mut t = TraceBuffer::new(TraceConfig {
            capacity: 64,
            postmortem_dir: None,
            ..TraceConfig::default()
        });
        t.note_epoch(1);
        let b = t.batch_begin(1);
        t.note_epoch(2);
        t.batch_end(b, 1, Nanos::ZERO);
        assert_eq!(t.violations()[0].rule, "epoch-splits-batch");
        t.note_epoch(1);
        assert_eq!(t.violations()[1].rule, "epoch-regression");
    }

    #[test]
    fn postmortem_renders_reason_and_tail() {
        let mut t = TraceBuffer::new(TraceConfig {
            capacity: 16,
            postmortem_dir: None,
            postmortem_last: 4,
        });
        pkt_events(&mut t, 1);
        let text = t.render_postmortem("unit test");
        assert!(text.contains("post-mortem: unit test"), "{text}");
        assert!(text.contains("last 4 events"), "{text}");
        assert!(text.lines().count() >= 6, "{text}");
        // Disabled directory → no artifact.
        assert!(t.dump_postmortem("x").is_none());
    }

    #[test]
    fn filters_select_tables_and_flows() {
        let mut t = TraceBuffer::new(TraceConfig { capacity: 128, ..TraceConfig::default() });
        t.packet_begin(1, 0, 64);
        t.packet_flow(1, 0x0a000001, 0x0a000002, 1000, 7777, 17);
        t.pass_begin(1, 1);
        t.table_lookup(Gress::Ingress, 2, true);
        t.packet_end(1, 1, false);
        t.packet_begin(2, 0, 64);
        t.packet_flow(2, 0x0a000003, 0x0a000004, 2000, 8888, 6);
        t.pass_begin(2, 1);
        t.table_lookup(Gress::Egress, 2, false);
        t.packet_end(2, 1, false);
        t.record(TraceEventKind::EntryInsert {
            gress: Gress::Ingress,
            stage: 2,
            table: 0,
            handle: 5,
        });

        let tbl = filter_events(
            t.events(),
            TraceFilter::Table { gress: Gress::Ingress, stage: 2, table: 0 },
        );
        assert_eq!(tbl.len(), 2, "one lookup + one insert: {tbl:?}");

        let flow = filter_events(
            t.events(),
            TraceFilter::Flow { addr: 0x0a000001, port: None },
        );
        assert!(flow.iter().all(|e| e.kind.packet() == Some(1)));
        assert_eq!(flow.len(), 5);
        let flow_port = filter_events(
            t.events(),
            TraceFilter::Flow { addr: 0x0a000003, port: Some(9999) },
        );
        assert!(flow_port.is_empty());

        let ctl = filter_events(t.events(), TraceFilter::Control);
        assert_eq!(ctl.len(), 1);
        let pkts = filter_events(t.events(), TraceFilter::Packets);
        assert_eq!(pkts.len(), t.events().count() - 1);
    }

    #[test]
    fn chrome_trace_shapes_tracks_and_roundtrips() {
        let mut t = TraceBuffer::new(TraceConfig { capacity: 128, ..TraceConfig::default() });
        let b = t.batch_begin(1);
        t.record(TraceEventKind::EntryInsert {
            gress: Gress::Ingress,
            stage: 0,
            table: 0,
            handle: 1,
        });
        t.batch_end(b, 1, Nanos::from_micros(930));
        t.note_epoch(1);
        t.lifecycle(LifecycleKind::Deploy, 1, 1, Nanos::from_millis(4));
        pkt_events(&mut t, 1);

        let text = chrome_trace_json(t.events());
        let doc = serde::json::parse(&text).unwrap();
        let evs = doc.get("traceEvents").unwrap().as_array().unwrap();
        // 2 metadata + all events except the folded BatchBegin.
        assert_eq!(evs.len(), 2 + t.events().count() - 1);
        let phases: Vec<&str> = evs
            .iter()
            .filter_map(|e| match e.get("ph") {
                Some(serde::Value::Str(s)) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert!(phases.contains(&"X"), "batch + lifecycle slices");
        assert!(phases.contains(&"i"), "instants");
        assert!(phases.contains(&"M"), "track metadata");
        // Batch slice carries its duration in microseconds.
        let batch = evs
            .iter()
            .find(|e| matches!(e.get("name"), Some(serde::Value::Str(s)) if s == "batch"))
            .unwrap();
        assert_eq!(batch.get("dur"), Some(&serde::Value::F64(930.0)));
    }

    /// Position of `k` among the kinds. Exhaustive on purpose: a new
    /// variant fails to compile here until it is added to the list below,
    /// next to the encoding [`TraceEventKind::encode`] cannot omit either.
    fn variant_index(k: &TraceEventKind) -> usize {
        use TraceEventKind as K;
        match k {
            K::PacketStart { .. } => 0,
            K::PacketFlow { .. } => 1,
            K::PassBegin { .. } => 2,
            K::ParserPath { .. } => 3,
            K::TableLookup { .. } => 4,
            K::ActionExecuted { .. } => 5,
            K::SaluRmw { .. } => 6,
            K::TmVerdict { .. } => 7,
            K::PacketEnd { .. } => 8,
            K::BatchBegin { .. } => 9,
            K::BatchEnd { .. } => 10,
            K::EntryInsert { .. } => 11,
            K::EntryDelete { .. } => 12,
            K::RegWrite { .. } => 13,
            K::EpochBump { .. } => 14,
            K::Lifecycle { .. } => 15,
            K::FaultInjected { .. } => 16,
            K::RollbackBegin { .. } => 17,
            K::RollbackEnd { .. } => 18,
            K::ReconcileBegin { .. } => 19,
            K::ReconcileEnd { .. } => 20,
            K::SloViolation { .. } => 21,
            K::RequestBegin { .. } => 22,
            K::RequestEnd { .. } => 23,
            K::RequestRejected { .. } => 24,
        }
    }

    /// Every kind, each field at zero and at the top of its width, and
    /// every value of every field-less enum a kind carries.
    fn every_kind() -> Vec<TraceEventKind> {
        use TraceEventKind as K;
        let mut kinds = Vec::new();
        for (w64, w32, w16, w8, flag) in [(0, 0, 0, 0, false), (u64::MAX, u32::MAX, u16::MAX, u8::MAX, true)] {
            for gress in GRESSES {
                kinds.extend([
                    K::TableLookup { packet: w64, gress, stage: w16, hit: flag },
                    K::ActionExecuted { packet: w64, gress, stage: w16 },
                    K::SaluRmw { packet: w64, gress, stage: w16, wrote: flag },
                    K::EntryInsert { gress, stage: w16, table: w16, handle: w64 },
                    K::EntryDelete { gress, stage: w16, table: w16, handle: w64 },
                    K::RegWrite { gress, stage: w16, array: w16, addr: w32 },
                ]);
            }
            let verdicts = [
                Verdict::Forward(w16),
                Verdict::Return,
                Verdict::Drop,
                Verdict::Recirculate,
                Verdict::Multicast(w16),
            ];
            for verdict in verdicts {
                kinds.push(K::TmVerdict { packet: w64, pass: w8, verdict, report: flag });
            }
            kinds.extend([
                K::PacketStart { packet: w64, port: w16, len: w32 },
                K::PacketFlow { packet: w64, src: w32, dst: w32, sport: w16, dport: w16, proto: w8 },
                K::PassBegin { packet: w64, pass: w8 },
                K::ParserPath { packet: w64, pass: w8, bitmap: w16 },
                K::PacketEnd { packet: w64, passes: w8, dropped: flag },
                K::BatchBegin { batch: w64, ops: w32 },
                K::BatchEnd { batch: w64, ops: w32, cost_ns: w64 },
                K::EpochBump { epoch: w64 },
                K::RollbackBegin { prog_id: w16 },
                K::RollbackEnd { prog_id: w16, ops: w32, complete: flag },
                K::ReconcileBegin { generation: w64 },
                K::ReconcileEnd { reinstalled: w32, deleted: w32 },
            ]);
            for kind in LIFECYCLES {
                kinds.push(K::Lifecycle { kind, prog_id: w16, epoch: w64, dur_ns: w64 });
            }
            for fault in FAULTS {
                kinds.push(K::FaultInjected { fault, at_op: w64 });
            }
            for slo in SLOS {
                kinds.push(K::SloViolation { slo, prog_id: w16, observed: w64, threshold: w64 });
            }
            for op in REQUEST_OPS {
                kinds.push(K::RequestBegin { client: w32, request: w64, op });
                kinds.push(K::RequestEnd { client: w32, request: w64, op, ok: flag, dur_ns: w64 });
            }
            for reason in REJECTS {
                kinds.push(K::RequestRejected { client: w32, request: w64, reason });
            }
        }
        kinds
    }

    #[test]
    fn every_kind_round_trips_through_its_slot() {
        let mut covered = [false; 25];
        for kind in every_kind() {
            covered[variant_index(&kind)] = true;
            assert_eq!(TraceEventKind::decode(kind.encode()), kind);
        }
        assert!(covered.iter().all(|&c| c), "every variant sampled: {covered:?}");
    }

    #[test]
    fn packet_hooks_build_the_slots_encode_would() {
        use TraceEventKind as K;
        let mut t = TraceBuffer::new(TraceConfig { capacity: 64, ..TraceConfig::default() });
        t.packet_begin(9, 3, 1500);
        t.packet_flow(9, 0x0a000001, 0xc0a80002, 1234, 7777, 17);
        t.pass_begin(9, 2);
        t.parser_path(0xbeef);
        t.table_lookup(Gress::Egress, 11, true);
        t.action_executed(Gress::Egress, 11);
        t.salu_rmw(Gress::Ingress, 4, true);
        t.tm_decision(Verdict::Multicast(300), true);
        t.packet_end(9, 2, true);
        let kinds: Vec<TraceEventKind> = t.events().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [
                K::PacketStart { packet: 9, port: 3, len: 1500 },
                K::PacketFlow { packet: 9, src: 0x0a000001, dst: 0xc0a80002, sport: 1234, dport: 7777, proto: 17 },
                K::PassBegin { packet: 9, pass: 2 },
                K::ParserPath { packet: 9, pass: 2, bitmap: 0xbeef },
                K::TableLookup { packet: 9, gress: Gress::Egress, stage: 11, hit: true },
                K::ActionExecuted { packet: 9, gress: Gress::Egress, stage: 11 },
                K::SaluRmw { packet: 9, gress: Gress::Ingress, stage: 4, wrote: true },
                K::TmVerdict { packet: 9, pass: 2, verdict: Verdict::Multicast(300), report: true },
                K::PacketEnd { packet: 9, passes: 2, dropped: true },
            ]
        );
    }

    #[test]
    fn small_rings_wrap_with_exact_accounting_and_stamps() {
        for capacity in [1, 2, 7] {
            let mut t = TraceBuffer::new(TraceConfig {
                capacity,
                postmortem_dir: None,
                ..TraceConfig::default()
            });
            // What was recorded, in order, as the ring should decode it.
            let mut expected: Vec<TraceEvent> = Vec::new();
            let stamp = |t: &TraceBuffer, kind| TraceEvent {
                seq: t.recorded() - 1,
                t_ns: t.now().0,
                epoch: t.epoch(),
                kind,
            };
            for i in 0..20u64 {
                // The clock moves mid-ring, and the epoch changes halfway.
                t.set_now(Nanos(1_000 * i));
                if i == 10 {
                    t.note_epoch(3);
                    expected.push(TraceEvent { epoch: 0, ..stamp(&t, TraceEventKind::EpochBump { epoch: 3 }) });
                }
                t.table_lookup(Gress::Ingress, i as usize, i % 2 == 0);
                let kind = TraceEventKind::TableLookup {
                    packet: 0,
                    gress: Gress::Ingress,
                    stage: i as u16,
                    hit: i % 2 == 0,
                };
                expected.push(stamp(&t, kind));
            }
            let s = t.stats();
            assert_eq!(s.recorded, expected.len() as u64, "capacity {capacity}");
            assert_eq!(s.recorded, s.retained + s.dropped, "capacity {capacity}");
            assert_eq!(s.retained, capacity as u64, "capacity {capacity}");
            let kept: Vec<TraceEvent> = t.events().collect();
            let seqs: Vec<u64> = kept.iter().map(|e| e.seq).collect();
            assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1), "contiguous: {seqs:?}");
            assert_eq!(kept, expected[expected.len() - capacity..], "capacity {capacity}");
            assert_eq!(t.tail(1), expected[expected.len() - 1..]);
        }
    }

    #[test]
    fn packet_events_inside_a_batch_each_fire_the_checker() {
        let mut t = TraceBuffer::new(TraceConfig {
            capacity: 64,
            postmortem_dir: None,
            ..TraceConfig::default()
        });
        pkt_events(&mut t, 1);
        assert!(t.violations().is_empty(), "no batch open: the fast path only");
        let b = t.batch_begin(1); // seq 7
        pkt_events(&mut t, 2); // seqs 8..=14
        t.batch_end(b, 1, Nanos::ZERO);
        pkt_events(&mut t, 3);
        let seqs: Vec<u64> = t.violations().iter().map(|v| v.seq).collect();
        assert_eq!(seqs, (8..=14).collect::<Vec<_>>(), "one violation per packet event");
        assert!(t.violations().iter().all(|v| v.rule == "packet-during-batch"));
        assert_eq!(
            t.violations()[0].detail,
            "packet 2 event `packet_start` inside batch 0"
        );
        // The events themselves are recorded unchanged on either path.
        let seqs: Vec<u64> = t.events().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..t.recorded()).collect::<Vec<_>>());
        assert_eq!(t.events().filter(|e| e.kind.packet() == Some(2)).count(), 7);
    }

    #[test]
    fn stats_serde_roundtrip() {
        let s = TraceStats {
            enabled: true,
            capacity: 256,
            recorded: 300,
            dropped: 44,
            retained: 256,
            violations: 1,
        };
        let text = serde::json::to_string(&s);
        let back: TraceStats = serde::json::from_str(&text).unwrap();
        assert_eq!(back, s);
        assert!(!TraceStats::disabled().enabled);
    }
}
