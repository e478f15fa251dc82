//! Control-plane telemetry: program lifecycle spans, resource-utilization
//! gauges, and the unified [`TelemetryReport`] that joins them with the
//! data plane's packet-side counters.
//!
//! The split mirrors the paper's measurement methodology: Figure 7 and
//! Table 1 are *control-side* quantities (solver wall-clock, update
//! delay), Figures 8/18/19 are *resource* gauges, and the case studies of
//! §6.4 correlate *packet-side* series with lifecycle events. The
//! [`LifecycleSpan`] carries the telemetry **epoch** so those series can
//! be cut at exactly the right packet (see `rmt_sim::telemetry` and
//! `traffic::replay::BucketStats::epoch`).
//!
//! Everything serializes to one JSON document through the workspace
//! `serde`; `docs/TELEMETRY.md` documents the schema.

use crate::resman::ResourceManager;
use p4rp_dataplane::{INIT_TABLE_SIZE, RECIRC_TABLE_SIZE};
use rmt_sim::parallel::WorkerStats;
use rmt_sim::switch::TableIndexStats;
use rmt_sim::telemetry::{Histogram, MetricsRecorder};
use rmt_sim::trace::TraceStats;
use std::collections::BTreeMap;

/// Version of the `status --json` document. Bump on any field addition,
/// removal, or rename, and keep `docs/TELEMETRY.md`'s schema section in
/// step. Version 1 retroactively names the document as it stood before
/// explicit versioning; version 2 added `schema_version` itself plus the
/// per-program (`programs`), SLO (`slo`), and time-series (`series`)
/// sections; version 3 added the per-table lookup-structure section
/// (`tables`); version 4 added the runtime-control server section
/// (`server`, see `docs/SERVER.md`); version 5 added `tss_partitions` and
/// `tss_max_partition` to `tables` (`tss_groups` now sums over partitions);
/// version 6 added `solver_truncated` to spans, whose `seq` now counts past
/// the [`SPAN_HISTORY`] spans the document keeps; version 7 removed `cache`
/// and `cache_entries` from `tables` with the megaflow result cache
/// (`cache_hits` / `cache_misses` stay as reserved zeros).
pub const SCHEMA_VERSION: u64 = 7;

/// Lifecycle spans a controller keeps (the most recent ones). A span is
/// ~200 bytes; a controller churning 16 000 deploys a second would
/// otherwise grow by hundreds of MiB a minute.
pub const SPAN_HISTORY: usize = 4096;

/// One program lifecycle event as the controller executed it.
///
/// A `deploy` span carries the compile-side timings and what it wrote; a
/// `revoke` span carries what it removed. `update` is revoke + deploy and
/// therefore emits two spans. All durations are nanoseconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LifecycleSpan {
    /// Monotonic span index within this controller (spans recorded
    /// before this one, evicted ones included).
    pub seq: u64,
    /// `"deploy"` or `"revoke"`.
    pub kind: String,
    /// Program name.
    pub program: String,
    /// Program identifier carried in recirculation headers.
    pub prog_id: u64,
    /// Telemetry epoch active *after* this event: packet-side series
    /// tagged with this epoch saw the post-event data plane.
    pub epoch: u64,
    /// Wall-clock parse + semantic check time (deploy only).
    pub parse_wall_ns: u64,
    /// Wall-clock allocation-scheme computation (Figure 7; deploy only).
    pub solver_wall_ns: u64,
    /// Branch-and-bound nodes the solver explored (deploy only).
    pub solver_nodes: u64,
    /// Inner solves that ran out of the node budget and kept their best
    /// answer so far (deploy only; 0 = the placement is exact).
    pub solver_truncated: u64,
    /// Wall-clock spent applying batches through the control channel —
    /// the controller-side cost of the install/remove, as opposed to the
    /// simulated device latency in `update_delay_ns`.
    pub channel_wall_ns: u64,
    /// Table entries inserted through the control channel.
    pub entries_written: u64,
    /// Table entries deleted through the control channel.
    pub entries_revoked: u64,
    /// Register-memory buckets granted from the free lists.
    pub memory_claimed: u64,
    /// Register-memory buckets returned to the free lists after reset.
    pub memory_released: u64,
    /// Simulated data plane update latency (Table 1).
    pub update_delay_ns: u64,
    /// Channel faults this event hit mid-plan (injected or real).
    pub faults: u64,
    /// Transient-fault retries this event consumed.
    pub retries: u64,
    /// Undo operations applied rolling back this event's partial state.
    pub rollback_ops: u64,
}

serde::impl_serde_struct!(LifecycleSpan {
    seq,
    kind,
    program,
    prog_id,
    epoch,
    parse_wall_ns,
    solver_wall_ns,
    solver_nodes,
    solver_truncated,
    channel_wall_ns,
    entries_written,
    entries_revoked,
    memory_claimed,
    memory_released,
    update_delay_ns,
    faults,
    retries,
    rollback_ops,
});

impl LifecycleSpan {
    /// One human-readable row (the `status --metrics` rendering).
    pub(crate) fn render(&self) -> String {
        let mut row = format!(
            "#{} {:<6} {:<12} id {:<3} epoch {:<3} +{} entries, -{} entries, \
             +{}/-{} buckets, alloc {:.2} ms, apply {:.2} ms, update {:.2} ms",
            self.seq,
            self.kind,
            self.program,
            self.prog_id,
            self.epoch,
            self.entries_written,
            self.entries_revoked,
            self.memory_claimed,
            self.memory_released,
            self.solver_wall_ns as f64 / 1e6,
            self.channel_wall_ns as f64 / 1e6,
            self.update_delay_ns as f64 / 1e6,
        );
        if self.solver_truncated > 0 {
            row.push_str(&format!(", {} truncated solve(s)", self.solver_truncated));
        }
        if self.faults + self.retries + self.rollback_ops > 0 {
            row.push_str(&format!(
                ", {} fault(s), {} retries, {} undo ops",
                self.faults, self.retries, self.rollback_ops
            ));
        }
        row
    }
}

/// Point-in-time utilization gauges from the resource manager (the
/// Figure 8 / 18 / 19 quantities).
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceGauges {
    /// Fraction of RPB register memory allocated, whole data plane.
    pub memory_utilization: f64,
    /// Fraction of RPB table entries in use, whole data plane.
    pub entry_utilization: f64,
    /// Per-RPB memory utilization (Figure 18 heatmap rows).
    pub memory_per_rpb: Vec<f64>,
    /// Per-RPB entry utilization (Figure 19 heatmap rows).
    pub entries_per_rpb: Vec<f64>,
    /// Initialization-table filter entries in use.
    pub init_used: u64,
    /// Initialization-table capacity.
    pub init_capacity: u64,
    /// Recirculation-block filter entries in use.
    pub recirc_used: u64,
    /// Recirculation-block capacity.
    pub recirc_capacity: u64,
}

serde::impl_serde_struct!(ResourceGauges {
    memory_utilization,
    entry_utilization,
    memory_per_rpb,
    entries_per_rpb,
    init_used,
    init_capacity,
    recirc_used,
    recirc_capacity,
});

impl ResourceGauges {
    /// Snapshot the gauges from a live resource manager.
    pub fn collect(rm: &ResourceManager) -> ResourceGauges {
        ResourceGauges {
            memory_utilization: rm.memory_utilization(),
            entry_utilization: rm.entry_utilization(),
            memory_per_rpb: rm.memory_utilization_per_rpb(),
            entries_per_rpb: rm.entry_utilization_per_rpb(),
            init_used: rm.init_entries_used() as u64,
            init_capacity: INIT_TABLE_SIZE as u64,
            recirc_used: rm.recirc_entries_used() as u64,
            recirc_capacity: RECIRC_TABLE_SIZE as u64,
        }
    }
}

/// Fault-injection and recovery counters (see `docs/CHAOS.md`): how often
/// the control channel misbehaved and what the transactional controller
/// did about it. All zeros when no fault plan is armed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Triggers the channel's fault plan has fired.
    pub faults_injected: u64,
    /// Deploys that hit a mid-install fault (rolled back or wedged).
    pub deploy_faults: u64,
    /// Revokes that hit a mid-remove fault (finished by reconcile or a
    /// later retry).
    pub revoke_faults: u64,
    /// Transient-fault batch retries (timeouts, channel drops).
    pub retries: u64,
    /// Rollbacks executed after a mid-plan fault.
    pub rollbacks: u64,
    /// Undo operations applied across all rollbacks.
    pub rollback_ops: u64,
    /// Reconciliation passes completed.
    pub reconciles: u64,
    /// Programs currently wedged (cleanup itself faulted; a later revoke
    /// or reconcile retires them).
    pub wedged: u64,
    /// Device generation last observed (bumped by every device reset).
    pub device_generation: u64,
}

serde::impl_serde_struct!(FaultStats {
    faults_injected,
    deploy_faults,
    revoke_faults,
    retries,
    rollbacks,
    rollback_ops,
    reconciles,
    wedged,
    device_generation,
});

/// Sharded multi-worker engine status (see `docs/PERF.md`): how many
/// workers are active, the snapshot generation the control plane has
/// published up to, and each worker's packet/trace counters. The
/// `dataplane` section of the enclosing report already carries the
/// *merged* counters, so this section is purely the per-worker breakdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelStats {
    /// Active worker count (0 = sequential engine).
    pub workers: u64,
    /// Latest control-state snapshot generation published to workers.
    pub snapshot_generation: u64,
    /// Per-worker counters, in worker order.
    pub per_worker: Vec<WorkerStats>,
}

serde::impl_serde_struct!(ParallelStats {
    workers,
    snapshot_generation,
    per_worker,
});

/// Runtime-control server counters (see `docs/SERVER.md`): connection
/// accept/refuse totals, per-request outcome counters split by rejection
/// reason, batching effectiveness, HTTP scrape handling, and the
/// sim-clock submit→response latency histogram. `None` in the enclosing
/// report when no server has run on this controller.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStats {
    /// Connections accepted into client sessions.
    pub accepted: u64,
    /// Connections refused at accept because `max_clients` sessions were
    /// already live.
    pub rejected_max_clients: u64,
    /// Requests parsed while the server was not draining (executed, or
    /// refused by the rate limit or the timeout).
    pub requests: u64,
    /// Responses whose operation executed successfully.
    pub responses_ok: u64,
    /// Responses whose operation executed and failed (e.g. a deploy the
    /// allocator refused) — distinct from rejections, which never execute.
    pub responses_err: u64,
    /// Always 0: each session runs one request at a time, so there is no
    /// in-flight window to overflow. Kept for the report's schema.
    pub rejected_busy: u64,
    /// Requests refused by the per-client token-bucket rate limit.
    pub rejected_rate_limited: u64,
    /// Requests that waited for the controller lock past their timeout.
    pub rejected_timeout: u64,
    /// Requests refused because the server was draining.
    pub rejected_draining: u64,
    /// Request lines that failed to parse (malformed JSON, unknown op,
    /// bad field types, longer than `server::MAX_LINE`).
    pub parse_errors: u64,
    /// Executed requests: each is its own critical section.
    pub batches: u64,
    /// Executed deploys.
    pub batched_deploys: u64,
    /// Executed revokes.
    pub batched_revokes: u64,
    /// One-shot HTTP `GET /metrics` scrapes answered `200 OK`.
    pub http_gets: u64,
    /// One-shot HTTP requests refused (`405` non-GET, `404` other path).
    pub http_rejected: u64,
    /// Sim-clock read→response latency over executed requests, ns.
    pub request_latency: Histogram,
}

serde::impl_serde_struct!(ServerStats {
    accepted,
    rejected_max_clients,
    requests,
    responses_ok,
    responses_err,
    rejected_busy,
    rejected_rate_limited,
    rejected_timeout,
    rejected_draining,
    parse_errors,
    batches,
    batched_deploys,
    batched_revokes,
    http_gets,
    http_rejected,
    request_latency,
});

impl ServerStats {
    /// Zeroed counters with the same latency-bucket shape as the control
    /// channel's write histogram.
    pub(crate) fn new() -> ServerStats {
        ServerStats {
            accepted: 0,
            rejected_max_clients: 0,
            requests: 0,
            responses_ok: 0,
            responses_err: 0,
            rejected_busy: 0,
            rejected_rate_limited: 0,
            rejected_timeout: 0,
            rejected_draining: 0,
            parse_errors: 0,
            batches: 0,
            batched_deploys: 0,
            batched_revokes: 0,
            http_gets: 0,
            http_rejected: 0,
            request_latency: Histogram::exponential(10_000, 2, 12),
        }
    }

    /// Total requests refused without executing.
    pub fn rejected(&self) -> u64 {
        self.rejected_busy
            + self.rejected_rate_limited
            + self.rejected_timeout
            + self.rejected_draining
    }
}

impl Default for ServerStats {
    fn default() -> ServerStats {
        ServerStats::new()
    }
}

/// One resident program's resource footprint joined with its attributed
/// packet-side counters — the row type behind `p4rp top` and the
/// `programs` section of `status --json`.
///
/// Slot `prog_id == 0` is the synthetic `(unattributed)` program: packet
/// events observed before the initialization filter binds a program id
/// (stage-0 filter lookups, packets matching no resident program). Its
/// `entries`/`memory`/`resource_share` are always zero.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProgramUsage {
    /// Program name (`"(unattributed)"` for slot 0).
    pub name: String,
    /// Program identifier carried in recirculation headers.
    pub prog_id: u64,
    /// Packets attributed to this program (attribution at packet end).
    pub packets: u64,
    /// TM forward/return/multicast verdicts attributed to this program.
    pub forwarded: u64,
    /// TM drop verdicts attributed to this program.
    pub drops: u64,
    /// Recirculation passes attributed to this program.
    pub recirc_passes: u64,
    /// Match-table hits (ingress + egress) attributed to this program.
    pub hits: u64,
    /// Stateful-ALU read-modify-writes attributed to this program.
    pub salu_rmws: u64,
    /// Table entries this program holds (control-side residency).
    pub entries: u64,
    /// Register-memory buckets this program holds.
    pub memory: u64,
    /// This program's fraction of all program-held entries + buckets,
    /// in `[0, 1]`; zero when nothing is allocated.
    pub resource_share: f64,
}

serde::impl_serde_struct!(ProgramUsage {
    name,
    prog_id,
    packets,
    forwarded,
    drops,
    recirc_passes,
    hits,
    salu_rmws,
    entries,
    memory,
    resource_share,
});

impl ProgramUsage {
    /// One human-readable row (the `p4rp top` / `status --metrics`
    /// rendering).
    pub fn render(&self) -> String {
        format!(
            "{:<16} id {:<3} pkts {:<8} fwd {:<8} drop {:<6} recirc {:<6} \
             hits {:<8} salu {:<6} entries {:<4} mem {:<5} share {:.1}%",
            self.name,
            self.prog_id,
            self.packets,
            self.forwarded,
            self.drops,
            self.recirc_passes,
            self.hits,
            self.salu_rmws,
            self.entries,
            self.memory,
            self.resource_share * 100.0
        )
    }
}

/// SLO watchdog thresholds. Each limit is optional; the watchdog is
/// *armed* when at least one is set. Rates use integer parts-per-million
/// and latencies integer nanoseconds so evaluation is bit-exact across
/// replays of the same seed (see `docs/CHAOS.md`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SloThresholds {
    /// Maximum TM drop rate in parts-per-million of terminal verdicts.
    pub max_drop_ppm: Option<u64>,
    /// Maximum faulted deploys (`FaultStats::deploy_faults`).
    pub max_deploy_failures: Option<u64>,
    /// Maximum p99 control-channel write latency in nanoseconds.
    pub max_p99_write_ns: Option<u64>,
}

serde::impl_serde_struct!(SloThresholds {
    max_drop_ppm,
    max_deploy_failures,
    max_p99_write_ns,
});

impl SloThresholds {
    /// True when at least one limit is set.
    pub(crate) fn is_armed(&self) -> bool {
        self.max_drop_ppm.is_some()
            || self.max_deploy_failures.is_some()
            || self.max_p99_write_ns.is_some()
    }
}

/// Watchdog state as reported by `status --json` / `watchdog status`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SloStatus {
    /// The armed thresholds.
    pub thresholds: SloThresholds,
    /// Total `SloViolation` trace events emitted (breach *transitions*,
    /// not checks: a breach that persists across checks counts once until
    /// it clears).
    pub violations: u64,
    /// SLO kinds currently in breach (`"drop_rate"`,
    /// `"deploy_failure"`, `"p99_latency"`), stable order.
    pub breached: Vec<String>,
}

serde::impl_serde_struct!(SloStatus {
    thresholds,
    violations,
    breached,
});

/// One bucket of the telemetry time series: counter *deltas* since the
/// previous point plus latency snapshots, cut at a sim-clock instant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeriesPoint {
    /// Sim-clock timestamp of the cut (nanoseconds).
    pub t_ns: u64,
    /// Telemetry epoch active at the cut.
    pub epoch: u64,
    /// TM forwarded-verdict delta since the previous point.
    pub forwarded: u64,
    /// TM drop-verdict delta since the previous point.
    pub drops: u64,
    /// TM recirculation-verdict delta since the previous point.
    pub recirc: u64,
    /// p99 control-channel write latency at the cut (snapshot, ns; 0
    /// when no writes have been observed).
    pub ctl_write_p99_ns: u64,
    /// Per-program packet deltas, keyed by decimal program id. Only
    /// programs with a nonzero delta appear; empty when attribution is
    /// off.
    pub per_prog_packets: BTreeMap<String, u64>,
}

serde::impl_serde_struct!(SeriesPoint {
    t_ns,
    epoch,
    forwarded,
    drops,
    recirc,
    ctl_write_p99_ns,
    per_prog_packets,
});

/// Fixed-capacity windowed time series over the merged dataplane
/// counters. Fed on epoch bumps and replay ticks (event-driven — the
/// simulator has no background clock); keeps the most recent
/// `capacity` points and evicts the oldest beyond that. The `last_*`
/// fields are the internal cumulative cursor the deltas are computed
/// against; they serialize so a report round-trips losslessly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesRing {
    /// Maximum retained points.
    pub capacity: u64,
    /// Points evicted so far (total samples = `evicted + points.len()`).
    pub evicted: u64,
    /// Retained points, oldest first.
    pub points: Vec<SeriesPoint>,
    /// Cumulative-counter cursor: TM forwarded at the last cut.
    pub last_forwarded: u64,
    /// Cumulative-counter cursor: TM drops at the last cut.
    pub last_drops: u64,
    /// Cumulative-counter cursor: TM recirculations at the last cut.
    pub last_recirc: u64,
    /// Cumulative-counter cursor: per-program packets at the last cut,
    /// indexed by program id.
    pub last_per_prog: Vec<u64>,
}

serde::impl_serde_struct!(SeriesRing {
    capacity,
    evicted,
    points,
    last_forwarded,
    last_drops,
    last_recirc,
    last_per_prog,
});

impl SeriesRing {
    /// An empty ring retaining at most `capacity` points (min 1).
    pub(crate) fn new(capacity: usize) -> SeriesRing {
        SeriesRing {
            capacity: capacity.max(1) as u64,
            evicted: 0,
            points: Vec::new(),
            last_forwarded: 0,
            last_drops: 0,
            last_recirc: 0,
            last_per_prog: Vec::new(),
        }
    }

    /// Cut one bucket at sim-time `t_ns`: push the counter deltas since
    /// the previous cut (computed against the internal cumulative
    /// cursor) and the current p99 write latency, evicting the oldest
    /// point if the ring is full. A cut with no traffic still records a
    /// point — gaps in the series are real idle windows.
    pub(crate) fn sample(
        &mut self,
        t_ns: u64,
        epoch: u64,
        dp: Option<&MetricsRecorder>,
        ctl_write_p99_ns: u64,
    ) {
        let (fwd, drops, recirc) = match dp {
            Some(m) => (
                m.tm.forwarded.get() + m.tm.returned.get() + m.tm.multicast.get(),
                m.tm.dropped.get(),
                m.tm.recirculated.get(),
            ),
            None => (self.last_forwarded, self.last_drops, self.last_recirc),
        };
        let mut per_prog_packets = BTreeMap::new();
        if let Some(pp) = dp.and_then(|m| m.per_prog.as_ref()) {
            if self.last_per_prog.len() < pp.len() {
                self.last_per_prog.resize(pp.len(), 0);
            }
            for (id, (slot, last)) in pp.iter().zip(self.last_per_prog.iter_mut()).enumerate() {
                let now = slot.packets.get();
                if now > *last {
                    per_prog_packets.insert(id.to_string(), now - *last);
                }
                *last = now;
            }
        }
        self.points.push(SeriesPoint {
            t_ns,
            epoch,
            forwarded: fwd.saturating_sub(self.last_forwarded),
            drops: drops.saturating_sub(self.last_drops),
            recirc: recirc.saturating_sub(self.last_recirc),
            ctl_write_p99_ns,
            per_prog_packets,
        });
        self.last_forwarded = fwd;
        self.last_drops = drops;
        self.last_recirc = recirc;
        while self.points.len() as u64 > self.capacity {
            self.points.remove(0);
            self.evicted += 1;
        }
    }
}

/// The single JSON document `status --metrics` is built from: control
/// spans + resource gauges + control-channel write latency + (when
/// enabled) the data plane's packet-side counters.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryReport {
    /// Document version ([`SCHEMA_VERSION`]); see `docs/TELEMETRY.md`.
    pub schema_version: u64,
    /// Current telemetry epoch (number of lifecycle events so far).
    pub epoch: u64,
    /// Programs currently deployed.
    pub programs_deployed: u64,
    /// The most recent [`SPAN_HISTORY`] lifecycle events, oldest first.
    pub spans: Vec<LifecycleSpan>,
    /// Resource-manager gauges at snapshot time.
    pub resources: ResourceGauges,
    /// Latency histogram over every mutating control-channel operation.
    pub control_write_latency: Histogram,
    /// Packet-side counters; `None` when dataplane telemetry is disabled.
    pub dataplane: Option<MetricsRecorder>,
    /// Flight-recorder statistics (`TraceStats::disabled()` when the
    /// flight recorder is off — see `docs/TRACING.md`).
    pub trace: TraceStats,
    /// Fault-injection and recovery counters (`docs/CHAOS.md`).
    pub faults: FaultStats,
    /// Multi-worker engine status; `None` when running sequentially.
    pub parallel: Option<ParallelStats>,
    /// Per-program usage rows, one per resident program plus the
    /// synthetic `(unattributed)` slot 0; empty when attribution is off.
    pub programs: Vec<ProgramUsage>,
    /// SLO watchdog state; `None` when the watchdog is disarmed.
    pub slo: Option<SloStatus>,
    /// Windowed time series; `None` when series collection is off.
    pub series: Option<SeriesRing>,
    /// Per-table lookup-structure rows (index mode, partitions,
    /// tuple-space groups), in pipeline order.
    pub tables: Vec<TableIndexStats>,
    /// Runtime-control server counters; `None` when no server has run on
    /// this controller (`docs/SERVER.md`).
    pub server: Option<ServerStats>,
}

serde::impl_serde_struct!(TelemetryReport {
    schema_version,
    epoch,
    programs_deployed,
    spans,
    resources,
    control_write_latency,
    dataplane,
    trace,
    faults,
    parallel,
    programs,
    slo,
    series,
    tables,
    server,
});

impl TelemetryReport {
    /// Serialize to the canonical pretty-printed JSON document.
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }

    /// Parse a document produced by [`TelemetryReport::to_json`].
    pub fn from_json(text: &str) -> Result<TelemetryReport, serde::Error> {
        serde::json::from_str(text)
    }

    /// The human-readable multi-section summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "telemetry epoch {} | programs deployed: {}\n",
            self.epoch, self.programs_deployed
        ));
        let r = &self.resources;
        out.push_str(&format!(
            "resources: memory {:.1}% | entries {:.1}% | init {}/{} | recirc {}/{}\n",
            r.memory_utilization * 100.0,
            r.entry_utilization * 100.0,
            r.init_used,
            r.init_capacity,
            r.recirc_used,
            r.recirc_capacity
        ));
        let h = &self.control_write_latency;
        match h.mean() {
            Some(mean) => out.push_str(&format!(
                "control writes: {} ops, mean {:.1} µs, p99 ≤ {:.0} µs, max {:.0} µs\n",
                h.count(),
                mean / 1e3,
                h.quantile(0.99).unwrap_or(0) as f64 / 1e3,
                h.max().unwrap_or(0) as f64 / 1e3
            )),
            None => out.push_str("control writes: none\n"),
        }
        if self.spans.is_empty() {
            out.push_str("lifecycle spans: none\n");
        } else {
            out.push_str("lifecycle spans:\n");
            for s in &self.spans {
                out.push_str("  ");
                out.push_str(&s.render());
                out.push('\n');
            }
        }
        let fs = &self.faults;
        if fs == &FaultStats::default() {
            out.push_str("faults: none\n");
        } else {
            out.push_str(&format!(
                "faults: {} injected | deploys {} / revokes {} hit | {} retries | \
                 {} rollbacks ({} undo ops) | {} reconciles | {} wedged | device gen {}\n",
                fs.faults_injected,
                fs.deploy_faults,
                fs.revoke_faults,
                fs.retries,
                fs.rollbacks,
                fs.rollback_ops,
                fs.reconciles,
                fs.wedged,
                fs.device_generation
            ));
        }
        if self.trace.enabled {
            out.push_str(&format!(
                "flight recorder: {} recorded, {} dropped, {} retained (capacity {}), \
                 {} violations\n",
                self.trace.recorded,
                self.trace.dropped,
                self.trace.retained,
                self.trace.capacity,
                self.trace.violations
            ));
        } else {
            out.push_str("flight recorder: disabled\n");
        }
        match &self.dataplane {
            None => out.push_str("dataplane telemetry: disabled\n"),
            Some(dp) => {
                let ig = dp.ingress.total();
                let eg = dp.egress.total();
                out.push_str(&format!(
                    "dataplane (epoch {}): ingress {} hits / {} misses / {} salu writes, \
                     egress {} hits, tm fwd {} drop {} recirc {} report {}\n",
                    dp.epoch,
                    ig.hits.get(),
                    ig.misses.get(),
                    ig.salu_writes.get(),
                    eg.hits.get(),
                    dp.tm.forwarded.get(),
                    dp.tm.dropped.get(),
                    dp.tm.recirculated.get(),
                    dp.tm.reports.get()
                ));
                let paths: Vec<String> =
                    dp.parser_paths.into_iter().map(|(k, v)| format!("{k:#06x}×{v}")).collect();
                if !paths.is_empty() {
                    out.push_str(&format!("parser paths: {}\n", paths.join(" ")));
                }
            }
        }
        if !self.programs.is_empty() {
            out.push_str("per-program:\n");
            for p in &self.programs {
                out.push_str("  ");
                out.push_str(&p.render());
                out.push('\n');
            }
        }
        match &self.slo {
            None => out.push_str("slo watchdog: disarmed\n"),
            Some(slo) => {
                let t = &slo.thresholds;
                let mut limits = Vec::new();
                if let Some(v) = t.max_drop_ppm {
                    limits.push(format!("drop ≤ {v} ppm"));
                }
                if let Some(v) = t.max_deploy_failures {
                    limits.push(format!("deploy faults ≤ {v}"));
                }
                if let Some(v) = t.max_p99_write_ns {
                    limits.push(format!("write p99 ≤ {v} ns"));
                }
                out.push_str(&format!(
                    "slo watchdog: armed ({}) | {} violation(s){}\n",
                    limits.join(", "),
                    slo.violations,
                    if slo.breached.is_empty() {
                        String::new()
                    } else {
                        format!(" | in breach: {}", slo.breached.join(", "))
                    }
                ));
            }
        }
        if let Some(s) = &self.series {
            out.push_str(&format!(
                "series: {} point(s) retained (capacity {}, {} evicted)\n",
                s.points.len(),
                s.capacity,
                s.evicted
            ));
        }
        if let Some(sv) = &self.server {
            out.push_str(&format!(
                "server: {} session(s) accepted ({} refused) | {} requests, \
                 {} ok / {} err / {} rejected ({} busy, {} rate-limited, \
                 {} timed out, {} draining) | {} parse error(s) | \
                 {} batch(es): {} deploys + {} revokes | http {} scraped / {} refused\n",
                sv.accepted,
                sv.rejected_max_clients,
                sv.requests,
                sv.responses_ok,
                sv.responses_err,
                sv.rejected(),
                sv.rejected_busy,
                sv.rejected_rate_limited,
                sv.rejected_timeout,
                sv.rejected_draining,
                sv.parse_errors,
                sv.batches,
                sv.batched_deploys,
                sv.batched_revokes,
                sv.http_gets,
                sv.http_rejected
            ));
            if let Some(mean) = sv.request_latency.mean() {
                out.push_str(&format!(
                    "server latency: mean {:.1} µs, p99 ≤ {:.0} µs, max {:.0} µs\n",
                    mean / 1e3,
                    sv.request_latency.quantile(0.99).unwrap_or(0) as f64 / 1e3,
                    sv.request_latency.max().unwrap_or(0) as f64 / 1e3
                ));
            }
        }
        let occupied: Vec<&TableIndexStats> = self
            .tables
            .iter()
            .filter(|t| t.entries > 0 || t.hits + t.misses > 0)
            .collect();
        if !occupied.is_empty() {
            out.push_str("table indexes:\n");
            for t in occupied {
                out.push_str(&format!(
                    "  {}[{}].{}: {} entries, {}{}, {} hits / {} misses",
                    t.gress, t.stage, t.name, t.entries,
                    if t.indexed { "" } else { "scan-forced " },
                    t.mode,
                    t.hits, t.misses
                ));
                if t.tss_partitions > 0 {
                    out.push_str(&format!(
                        ", {} partition(s) of at most {}, {} mask group(s)",
                        t.tss_partitions, t.tss_max_partition, t.tss_groups
                    ));
                }
                out.push('\n');
            }
        }
        if let Some(p) = &self.parallel {
            out.push_str(&format!(
                "parallel engine: {} workers | snapshot generation {}\n",
                p.workers, p.snapshot_generation
            ));
            for w in &p.per_worker {
                out.push_str(&format!(
                    "  worker {}: {} pkts, {} drops, {} recirc passes, gen {}, \
                     trace {} recorded / {} dropped\n",
                    w.worker,
                    w.packets,
                    w.drops,
                    w.recirc_passes,
                    w.snapshot_generation,
                    w.trace_recorded,
                    w.trace_dropped
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(seq: u64, kind: &str) -> LifecycleSpan {
        LifecycleSpan {
            seq,
            kind: kind.into(),
            program: "p".into(),
            prog_id: 1,
            epoch: seq + 1,
            parse_wall_ns: 80_000,
            solver_wall_ns: 1_500_000,
            solver_nodes: 42,
            solver_truncated: 0,
            channel_wall_ns: 120_000,
            entries_written: if kind == "deploy" { 9 } else { 0 },
            entries_revoked: if kind == "revoke" { 9 } else { 0 },
            memory_claimed: if kind == "deploy" { 64 } else { 0 },
            memory_released: if kind == "revoke" { 64 } else { 0 },
            update_delay_ns: 4_000_000,
            faults: 0,
            retries: 0,
            rollback_ops: 0,
        }
    }

    #[test]
    fn report_roundtrips_through_json() {
        let mut h = Histogram::exponential(10_000, 2, 12);
        h.observe(330_000);
        h.observe(25_000);
        let mut ring = SeriesRing::new(4);
        ring.sample(1_000, 1, None, 25_000);
        let report = TelemetryReport {
            schema_version: SCHEMA_VERSION,
            epoch: 2,
            programs_deployed: 0,
            spans: vec![span(0, "deploy"), span(1, "revoke")],
            resources: ResourceGauges::collect(&ResourceManager::new()),
            control_write_latency: h,
            dataplane: Some(MetricsRecorder::new()),
            trace: TraceStats {
                enabled: true,
                capacity: 1 << 18,
                recorded: 1234,
                dropped: 0,
                retained: 1234,
                violations: 0,
            },
            faults: FaultStats {
                faults_injected: 3,
                deploy_faults: 1,
                revoke_faults: 0,
                retries: 2,
                rollbacks: 1,
                rollback_ops: 7,
                reconciles: 1,
                wedged: 0,
                device_generation: 1,
            },
            parallel: Some(ParallelStats {
                workers: 2,
                snapshot_generation: 5,
                per_worker: vec![
                    WorkerStats {
                        worker: 0,
                        packets: 10,
                        drops: 1,
                        recirc_passes: 2,
                        snapshot_generation: 5,
                        trace_recorded: 40,
                        trace_dropped: 0,
                    },
                    WorkerStats { worker: 1, packets: 7, ..WorkerStats::default() },
                ],
            }),
            programs: vec![ProgramUsage {
                name: "cache".into(),
                prog_id: 1,
                packets: 17,
                forwarded: 15,
                drops: 2,
                recirc_passes: 3,
                hits: 34,
                salu_rmws: 5,
                entries: 9,
                memory: 1024,
                resource_share: 1.0,
            }],
            slo: Some(SloStatus {
                thresholds: SloThresholds {
                    max_drop_ppm: Some(100_000),
                    max_deploy_failures: None,
                    max_p99_write_ns: Some(500_000),
                },
                violations: 1,
                breached: vec!["drop_rate".into()],
            }),
            series: Some(ring),
            tables: vec![TableIndexStats {
                gress: "ingress".into(),
                stage: 1,
                table: 0,
                name: "rpb1".into(),
                mode: "tss".into(),
                indexed: true,
                entries: 12,
                tss_groups: 3,
                tss_partitions: 2,
                tss_max_partition: 10,
                hits: 100,
                misses: 4,
                cache_hits: 0,
                cache_misses: 0,
            }],
            server: Some({
                let mut sv = ServerStats::new();
                sv.accepted = 4;
                sv.requests = 20;
                sv.responses_ok = 17;
                sv.responses_err = 1;
                sv.rejected_busy = 2;
                sv.batches = 6;
                sv.batched_deploys = 5;
                sv.batched_revokes = 3;
                sv.request_latency.observe(80_000);
                sv
            }),
        };
        let text = report.to_json();
        let back = TelemetryReport::from_json(&text).unwrap();
        assert_eq!(back, report);
        // And with the optional sections disabled.
        let disabled = TelemetryReport {
            dataplane: None,
            parallel: None,
            slo: None,
            series: None,
            programs: Vec::new(),
            tables: Vec::new(),
            server: None,
            ..report
        };
        let back = TelemetryReport::from_json(&disabled.to_json()).unwrap();
        assert_eq!(back, disabled);
    }

    #[test]
    fn summary_renders_every_section() {
        let report = TelemetryReport {
            schema_version: SCHEMA_VERSION,
            epoch: 2,
            programs_deployed: 1,
            spans: vec![span(0, "deploy")],
            resources: ResourceGauges::collect(&ResourceManager::new()),
            control_write_latency: Histogram::exponential(10_000, 2, 12),
            dataplane: None,
            trace: TraceStats::disabled(),
            faults: FaultStats::default(),
            parallel: None,
            programs: Vec::new(),
            slo: None,
            series: None,
            tables: Vec::new(),
            server: None,
        };
        let s = report.summary();
        assert!(s.contains("telemetry epoch 2"), "{s}");
        assert!(s.contains("deploy"), "{s}");
        assert!(s.contains("+9 entries"), "{s}");
        assert!(s.contains("control writes: none"), "{s}");
        assert!(s.contains("faults: none"), "{s}");
        assert!(s.contains("flight recorder: disabled"), "{s}");
        assert!(s.contains("dataplane telemetry: disabled"), "{s}");
        assert!(s.contains("slo watchdog: disarmed"), "{s}");
    }

    #[test]
    fn summary_renders_program_slo_and_series_sections() {
        let mut ring = SeriesRing::new(2);
        ring.sample(1_000, 1, None, 0);
        ring.sample(2_000, 1, None, 0);
        ring.sample(3_000, 2, None, 0);
        let report = TelemetryReport {
            schema_version: SCHEMA_VERSION,
            epoch: 2,
            programs_deployed: 1,
            spans: Vec::new(),
            resources: ResourceGauges::collect(&ResourceManager::new()),
            control_write_latency: Histogram::exponential(10_000, 2, 12),
            dataplane: None,
            trace: TraceStats::disabled(),
            faults: FaultStats::default(),
            parallel: None,
            programs: vec![ProgramUsage {
                name: "heavyhitter".into(),
                prog_id: 2,
                packets: 420,
                drops: 7,
                resource_share: 0.375,
                ..ProgramUsage::default()
            }],
            slo: Some(SloStatus {
                thresholds: SloThresholds {
                    max_drop_ppm: Some(1_000),
                    max_deploy_failures: Some(2),
                    max_p99_write_ns: None,
                },
                violations: 3,
                breached: vec!["drop_rate".into()],
            }),
            series: Some(ring),
            tables: Vec::new(),
            server: Some({
                let mut sv = ServerStats::new();
                sv.accepted = 3;
                sv.requests = 12;
                sv.responses_ok = 9;
                sv.rejected_busy = 2;
                sv.rejected_rate_limited = 1;
                sv.request_latency.observe(40_000);
                sv
            }),
        };
        let s = report.summary();
        assert!(s.contains("per-program:"), "{s}");
        assert!(s.contains("heavyhitter"), "{s}");
        assert!(s.contains("share 37.5%"), "{s}");
        assert!(s.contains("slo watchdog: armed"), "{s}");
        assert!(s.contains("drop ≤ 1000 ppm"), "{s}");
        assert!(s.contains("3 violation(s)"), "{s}");
        assert!(s.contains("in breach: drop_rate"), "{s}");
        assert!(s.contains("series: 2 point(s) retained (capacity 2, 1 evicted)"), "{s}");
        assert!(s.contains("server: 3 session(s) accepted"), "{s}");
        assert!(s.contains("12 requests"), "{s}");
        assert!(s.contains("2 busy, 1 rate-limited"), "{s}");
        assert!(s.contains("server latency:"), "{s}");
    }

    #[test]
    fn series_ring_buckets_deltas_and_evicts_oldest() {
        let mut dp = MetricsRecorder::new();
        dp.enable_attribution();
        let mut ring = SeriesRing::new(2);
        dp.tm.forwarded.add(10);
        dp.tm.dropped.add(1);
        dp.prog_metrics_mut(1).unwrap().packets.add(4);
        ring.sample(1_000, 1, Some(&dp), 111);
        dp.tm.forwarded.add(5);
        dp.tm.recirculated.add(2);
        dp.prog_metrics_mut(1).unwrap().packets.add(1);
        dp.prog_metrics_mut(2).unwrap().packets.add(6);
        ring.sample(2_000, 1, Some(&dp), 222);
        // Idle cut: still records a (zero-delta) point and evicts the
        // oldest because capacity is 2.
        ring.sample(3_000, 2, Some(&dp), 222);
        assert_eq!(ring.points.len(), 2);
        assert_eq!(ring.evicted, 1);
        let p = &ring.points[0];
        assert_eq!((p.t_ns, p.forwarded, p.drops, p.recirc), (2_000, 5, 0, 2));
        assert_eq!(p.ctl_write_p99_ns, 222);
        assert_eq!(p.per_prog_packets.get("1"), Some(&1));
        assert_eq!(p.per_prog_packets.get("2"), Some(&6));
        let idle = &ring.points[1];
        assert_eq!((idle.forwarded, idle.drops, idle.recirc), (0, 0, 0));
        assert!(idle.per_prog_packets.is_empty());
        assert_eq!(idle.epoch, 2);
    }

    #[test]
    fn fault_summary_and_span_counters_render_when_nonzero() {
        let mut sp = span(0, "deploy");
        sp.faults = 1;
        sp.retries = 2;
        sp.rollback_ops = 5;
        let row = sp.render();
        assert!(row.contains("1 fault(s), 2 retries, 5 undo ops"), "{row}");
        let report = TelemetryReport {
            schema_version: SCHEMA_VERSION,
            epoch: 1,
            programs_deployed: 0,
            spans: vec![sp],
            resources: ResourceGauges::collect(&ResourceManager::new()),
            control_write_latency: Histogram::exponential(10_000, 2, 12),
            dataplane: None,
            trace: TraceStats::disabled(),
            faults: FaultStats { faults_injected: 4, wedged: 1, ..FaultStats::default() },
            parallel: Some(ParallelStats {
                workers: 2,
                snapshot_generation: 3,
                per_worker: vec![WorkerStats::default()],
            }),
            programs: Vec::new(),
            slo: None,
            series: None,
            tables: Vec::new(),
            server: None,
        };
        let s = report.summary();
        assert!(s.contains("4 injected"), "{s}");
        assert!(s.contains("1 wedged"), "{s}");
        assert!(s.contains("parallel engine: 2 workers"), "{s}");
        assert!(s.contains("snapshot generation 3"), "{s}");
    }

    #[test]
    fn gauges_track_resource_manager() {
        use p4rp_dataplane::RpbId;
        let mut rm = ResourceManager::new();
        assert!(rm.take(RpbId(1), 0, 1024));
        rm.charge_init(2);
        rm.charge_recirc(3);
        let g = ResourceGauges::collect(&rm);
        assert!(g.memory_utilization > 0.0);
        assert_eq!(g.init_used, 2);
        assert_eq!(g.recirc_used, 3);
        assert_eq!(g.init_capacity, INIT_TABLE_SIZE as u64);
        assert!(g.memory_per_rpb[0] > 0.0 && g.memory_per_rpb[1] == 0.0);
    }
}
