//! The P4runpro controller: the deploy / revoke / monitor lifecycle
//! (§3.1, §3.2).
//!
//! `deploy` runs the full runtime-compilation pipeline — parse, semantic
//! check, lowering, constraint-based allocation against the live resource
//! state, memory granting, entry generation, and the consistent two-batch
//! install of Figure 6 — then records everything needed to later revoke
//! the program. Timings are split the way the paper reports them: parse
//! and allocation are measured wall-clock (real computation, Figure 7);
//! the data plane update advances the simulated `bfrt`-calibrated control
//! channel (Table 1).

use crate::resman::ResourceManager;
use crate::telemetry::{
    FaultStats, LifecycleSpan, ParallelStats, ProgramUsage, ResourceGauges, SeriesRing,
    ServerStats, SloStatus, SloThresholds, TelemetryReport, SCHEMA_VERSION, SPAN_HISTORY,
};
use p4rp_compiler::alloc::{allocate, AllocConfig, Allocation};
use p4rp_compiler::consistency::{plan_install, plan_remove, InstalledHandles};
use p4rp_compiler::entrygen::{generate_cached, EntryGenCache, ProgramImage};
use p4rp_compiler::ir::{lower, MemDecl, ProgramIr};
use p4rp_compiler::CompileError;
use p4rp_dataplane::{provision, Dataplane, RpbId, RPB_MEM_SIZE};
use p4rp_lang::{check, parse, CheckContext};
use rmt_sim::clock::Nanos;
use rmt_sim::control::{BatchOutcome, ControlChannel, LatencyModel};
use rmt_sim::error::SimError;
use rmt_sim::fault::FaultPlan;
use rmt_sim::parallel::WorkerPool;
use rmt_sim::switch::{ControlOp, OpResult, ProcessOutcome, Switch, SwitchConfig, TableRef};
use rmt_sim::table::{EntryHandle, TableEntry};
use rmt_sim::telemetry::{MetricsRecorder, ProgramMetrics};
use rmt_sim::trace::{LifecycleKind, SloKind, TraceBuffer, TraceConfig, TraceStats};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::{Duration, Instant};

/// How many times a transient channel fault (timeout, drop) is retried
/// before the surrounding plan gives up.
const MAX_RETRIES: u32 = 3;

/// Controller errors.
#[derive(Debug)]
pub enum CtlError {
    /// Compile.
    Compile(CompileError),
    /// Sim.
    Sim(SimError),
    /// DuplicateProgram.
    DuplicateProgram(String),
    /// NoSuchProgram.
    NoSuchProgram(String),
    /// NoSuchMemory.
    NoSuchMemory { program: String, memory: String },
    /// AddressOutOfRange.
    AddressOutOfRange { memory: String, addr: u32, size: u32 },
    /// A mid-plan channel fault aborted this deploy; every applied
    /// operation was rolled back (or wiped by the device reset), so the
    /// device and the resource manager are unchanged. After a device
    /// reset, [`Controller::needs_reconcile`] is set.
    /// DeployFault.
    DeployFault { program: String, fault: SimError },
    /// Cleanup itself faulted (a double fault): the program's inert
    /// remnants stay parked on the device and its resources stay charged.
    /// `revoke` of the program retries the cleanup; `reconcile()` also
    /// retires it.
    /// Wedged.
    Wedged { program: String, fault: SimError },
}

impl core::fmt::Display for CtlError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CtlError::Compile(e) => write!(f, "compile error: {e}"),
            CtlError::Sim(e) => write!(f, "data plane error: {e}"),
            CtlError::DuplicateProgram(n) => write!(f, "program `{n}` is already deployed"),
            CtlError::NoSuchProgram(n) => write!(f, "no deployed program `{n}`"),
            CtlError::NoSuchMemory { program, memory } => {
                write!(f, "program `{program}` has no memory `{memory}`")
            }
            CtlError::AddressOutOfRange { memory, addr, size } => {
                write!(f, "address {addr} out of range for `{memory}` (size {size})")
            }
            CtlError::DeployFault { program, fault } => {
                write!(f, "deploy of `{program}` aborted and rolled back: {fault}")
            }
            CtlError::Wedged { program, fault } => {
                write!(f, "program `{program}` is wedged (cleanup faulted: {fault}); retry revoke")
            }
        }
    }
}

impl std::error::Error for CtlError {}

impl From<CompileError> for CtlError {
    fn from(e: CompileError) -> Self {
        CtlError::Compile(e)
    }
}

impl From<SimError> for CtlError {
    fn from(e: SimError) -> Self {
        CtlError::Sim(e)
    }
}

/// CtlResult.
pub type CtlResult<T> = Result<T, CtlError>;

/// A deployed program's full record.
#[derive(Debug, Clone)]
pub struct InstalledProgram {
    /// Image.
    pub image: ProgramImage,
    /// Handles.
    pub handles: InstalledHandles,
    /// Allocation.
    pub allocation: Allocation,
}

/// What `deploy` reports per program (the Figure 7 / Table 1 quantities).
#[derive(Debug, Clone)]
pub struct DeployReport {
    /// Human-readable name.
    pub name: String,
    /// Prog id.
    pub prog_id: u16,
    /// Wall-clock parse + check time (≈2 ms in the paper, negligible).
    pub parse_wall: Duration,
    /// Wall-clock allocation-scheme computation (Figure 7).
    pub alloc_wall: Duration,
    /// Alloc nodes.
    pub alloc_nodes: u64,
    /// Inner solves of the allocation that ran out of `node_budget`
    /// (0 = the placement is the exact optimum).
    pub truncated_solves: u64,
    /// Wall-clock spent applying batches through the control channel
    /// (entry encode + table mutation on this side of the simulated
    /// `bfrt` latency, which is reported separately as `update_delay`).
    pub channel_wall: Duration,
    /// Simulated data plane update latency (Table 1).
    pub update_delay: Nanos,
    /// Entries installed.
    pub entries_installed: usize,
    /// Depth.
    pub depth: usize,
    /// Passes.
    pub passes: u8,
}

/// What `revoke` reports.
#[derive(Debug, Clone)]
pub struct RevokeReport {
    /// Human-readable name.
    pub name: String,
    /// Update delay.
    pub update_delay: Nanos,
}

/// A program whose cleanup double-faulted: its undo (or removal) plan is
/// parked here, its resources stay charged, and every retry of `revoke`
/// re-applies whatever is still pending. The filter deletions sort first
/// in the pending list, so a wedged program stops matching packets at the
/// first successful retry step.
#[derive(Debug, Clone)]
struct WedgedProgram {
    image: ProgramImage,
    pending_ops: Vec<ControlOp>,
}

/// What [`Controller::ship`] did with an ordered plan of control batches.
#[derive(Default)]
struct Shipped {
    /// The plan flattened, in ship order.
    ops: Vec<ControlOp>,
    /// Results of the applied prefix of `ops`.
    results: Vec<OpResult>,
    /// Modeled latency of every RPC sent, summed.
    cost: Nanos,
    /// The fault that stopped the plan, if any.
    error: Option<SimError>,
    retries: u64,
}

impl Shipped {
    /// Entry deletions that landed.
    fn deleted(&self) -> u64 {
        self.results.iter().filter(|r| matches!(r, OpResult::Deleted)).count() as u64
    }

    /// The ops a fault kept from landing.
    fn remaining(&self) -> Vec<ControlOp> {
        self.ops[self.results.len()..].to_vec()
    }
}

/// One device-resident entry in an audit/reconcile snapshot: its handle,
/// its content, and whether a resident program has claimed it.
type DevicePoolEntry = (EntryHandle, TableEntry, bool);

/// What `audit` reports: the device's entry population compared, by
/// content, against what the resource manager says should be installed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Entries the installed programs' plans expect on the device.
    pub expected: usize,
    /// Expected entries found (content match, handle reclaimed).
    pub present: usize,
    /// Expected entries absent (e.g. wiped by a device reset).
    pub missing: usize,
    /// Device entries no installed program claims (e.g. wedged remnants).
    pub unexpected: usize,
    /// Programs parked in the wedged state.
    pub wedged: usize,
}

impl AuditReport {
    /// Device state and resource-manager state agree exactly.
    pub fn clean(&self) -> bool {
        self.missing == 0 && self.unexpected == 0 && self.wedged == 0
    }
}

/// What `reconcile` reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReconcileReport {
    /// Entries re-installed for surviving programs.
    pub reinstalled: usize,
    /// Divergent device entries garbage-collected.
    pub deleted: usize,
    /// Wedged programs retired (entries gc'd, resources refunded).
    pub wedged_cleared: usize,
    /// Simulated channel time the repair batches took.
    pub update_delay: Nanos,
}

/// The assembled control plane.
pub struct Controller {
    switch: Switch,
    dp: Dataplane,
    channel: ControlChannel,
    resman: ResourceManager,
    programs: HashMap<String, InstalledProgram>,
    next_prog_id: u16,
    free_ids: Vec<u16>,
    alloc_cfg: AllocConfig,
    check_ctx: CheckContext,
    /// Telemetry epoch: bumped at every lifecycle event that mutates the
    /// data plane, mirrored into the switch's recorder when enabled.
    epoch: u64,
    /// The most recent [`SPAN_HISTORY`] lifecycle spans, oldest first.
    spans: VecDeque<LifecycleSpan>,
    /// `seq` of the next span: spans recorded since provisioning.
    span_seq: u64,
    entry_cache: EntryGenCache,
    /// Programs whose cleanup double-faulted; disjoint from `programs`.
    wedged: HashMap<String, WedgedProgram>,
    /// Cumulative fault/recovery counters. `faults_injected` only carries
    /// counts from *retired* fault plans; the armed plan's count and the
    /// live wedged / generation figures are folded in by `fault_stats()`.
    fault_stats: FaultStats,
    /// A device reset left the controller's view divergent from the
    /// device; cleared by a successful `reconcile()`.
    needs_reconcile: bool,
    /// The sharded multi-worker data plane, when enabled
    /// ([`Controller::enable_workers`]). `None` keeps the sequential
    /// engine on a branch-not-taken.
    workers: Option<WorkerPool>,
    /// Windowed time series over the merged dataplane counters; fed on
    /// epoch bumps and explicit [`Controller::tick_series`] calls.
    series: Option<SeriesRing>,
    /// The armed SLO watchdog ([`Controller::arm_watchdog`]).
    watchdog: Option<Watchdog>,
    /// Counters from the most recent / live `p4rp-ctl::server` run on
    /// this controller; `None` until a server has served it.
    server_stats: Option<ServerStats>,
}

/// The armed SLO watchdog: thresholds plus per-kind breach latches, so a
/// breach that persists across checks emits exactly one `SloViolation`
/// trace event per non-breach → breach transition.
#[derive(Debug, Clone, Default)]
struct Watchdog {
    thresholds: SloThresholds,
    /// Latched breach state, indexed drop-rate / deploy-failure / p99.
    breached: [bool; 3],
    violations: u64,
}

impl Watchdog {
    fn status(&self) -> SloStatus {
        let names = ["drop_rate", "deploy_failure", "p99_latency"];
        SloStatus {
            thresholds: self.thresholds.clone(),
            violations: self.violations,
            breached: self
                .breached
                .iter()
                .zip(names)
                .filter(|(b, _)| **b)
                .map(|(_, n)| n.to_string())
                .collect(),
        }
    }
}

impl Controller {
    /// Provision the P4runpro data plane and initialize the control plane.
    pub fn new(switch_cfg: SwitchConfig, alloc_cfg: AllocConfig) -> CtlResult<Controller> {
        let (switch, dp) = provision(switch_cfg)?;
        let mut check_ctx = CheckContext::with_fields(dp.fields.field_names());
        check_ctx.max_memory = u64::from(RPB_MEM_SIZE);
        Ok(Controller {
            switch,
            dp,
            channel: ControlChannel::new(LatencyModel::default()),
            resman: ResourceManager::new(),
            programs: HashMap::new(),
            next_prog_id: 1,
            free_ids: Vec::new(),
            alloc_cfg,
            check_ctx,
            epoch: 0,
            spans: VecDeque::new(),
            span_seq: 0,
            entry_cache: EntryGenCache::default(),
            wedged: HashMap::new(),
            fault_stats: FaultStats::default(),
            needs_reconcile: false,
            workers: None,
            series: None,
            watchdog: None,
            server_stats: None,
        })
    }

    /// Provision with the paper's default configuration (R = 1, f1 with
    /// α = 0.7 / β = 0.3).
    pub fn with_defaults() -> CtlResult<Controller> {
        Controller::new(SwitchConfig::default(), AllocConfig::default())
    }

    /// Switch.
    pub fn switch(&self) -> &Switch {
        &self.switch
    }

    /// Switch mut.
    pub fn switch_mut(&mut self) -> &mut Switch {
        &mut self.switch
    }

    /// Dataplane.
    pub fn dataplane(&self) -> &Dataplane {
        &self.dp
    }

    /// Resources.
    pub fn resources(&self) -> &ResourceManager {
        &self.resman
    }

    /// Channel.
    pub fn channel(&self) -> &ControlChannel {
        &self.channel
    }

    /// Mutable channel access (arming fault plans, advancing the clock,
    /// reconnecting after a drop in tests and chaos scenarios).
    pub fn channel_mut(&mut self) -> &mut ControlChannel {
        &mut self.channel
    }

    /// Arm the control channel with a deterministic fault plan. The
    /// previously armed plan's fired count is folded into the cumulative
    /// stats before it is replaced.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_stats.faults_injected += self.channel.fault.faults_fired();
        self.channel.fault = plan;
    }

    /// Faults fired over the controller's lifetime, across every plan
    /// ever armed.
    fn faults_fired_total(&self) -> u64 {
        self.fault_stats.faults_injected + self.channel.fault.faults_fired()
    }

    /// Cumulative fault / recovery counters (live snapshot).
    pub fn fault_stats(&self) -> FaultStats {
        FaultStats {
            faults_injected: self.faults_fired_total(),
            wedged: self.wedged.len() as u64,
            device_generation: self.switch.generation(),
            ..self.fault_stats.clone()
        }
    }

    /// Did a device reset (or a fault while repairing one) leave the
    /// controller's view divergent from the device? Cleared by a
    /// successful [`Controller::reconcile`].
    pub fn needs_reconcile(&self) -> bool {
        self.needs_reconcile
    }

    /// Names of wedged programs, in no particular order.
    pub fn wedged_programs(&self) -> impl Iterator<Item = &String> {
        self.wedged.keys()
    }

    /// Alloc config.
    pub fn alloc_config(&self) -> &AllocConfig {
        &self.alloc_cfg
    }

    /// Switch the control channel between per-entry RPCs (off) and one
    /// bulk RPC per plan billed at marginal per-op cost (on). This is the
    /// only place the choice is made: every install, removal, rollback,
    /// wedged-cleanup and reconcile batch is shipped and billed by the
    /// channel's mode.
    pub fn set_fast_path(&mut self, on: bool) {
        self.channel.model.bulk = on;
    }

    /// Entry-generation shape-cache hit/miss counters.
    pub fn entry_cache_stats(&self) -> (u64, u64) {
        (self.entry_cache.hits, self.entry_cache.misses)
    }

    /// Deployed programs.
    pub fn deployed_programs(&self) -> impl Iterator<Item = (&String, &InstalledProgram)> {
        self.programs.iter()
    }

    /// Program.
    pub fn program(&self, name: &str) -> Option<&InstalledProgram> {
        self.programs.get(name)
    }

    /// Turn on packet-side telemetry in the switch, synchronized to the
    /// controller's current epoch.
    pub fn enable_telemetry(&mut self) {
        let epoch = self.epoch;
        self.switch.enable_telemetry().epoch = epoch;
    }

    /// Turn on per-program attribution: packet-side events accumulate
    /// into per-program slots keyed by the `p4rp.prog_id` PHV field the
    /// initialization filter's `set_prog` action writes (slot 0 catches
    /// everything observed before the filter binds — stage-0 lookups,
    /// unmatched packets). Implies [`Controller::enable_telemetry`].
    /// Workers forked afterwards inherit the attribution field; enabling
    /// after `enable_workers` upgrades the live pool too.
    pub fn enable_attribution(&mut self) {
        self.enable_telemetry();
        let f = self.dp.fields.prog_id;
        self.switch.set_attribution_field(f);
        if let Some(pool) = &mut self.workers {
            for w in pool.workers_mut() {
                w.switch_mut().set_attribution_field(f);
            }
        }
    }

    /// Is per-program attribution on?
    pub(crate) fn attribution_enabled(&self) -> bool {
        self.switch.telemetry().is_some_and(|m| m.is_attributing())
    }

    /// Turn on windowed time-series collection retaining the most recent
    /// `capacity` points. Buckets are cut on every epoch bump and every
    /// explicit [`Controller::tick_series`] call (event-driven — the
    /// simulator has no background clock). No-op if already on.
    pub fn enable_series(&mut self, capacity: usize) {
        if self.series.is_none() {
            self.series = Some(SeriesRing::new(capacity));
        }
    }

    /// Cut one series bucket at the channel clock's current instant.
    /// Replay drivers call this at tick boundaries; `bump_epoch` calls it
    /// on every lifecycle event. No-op when series collection is off.
    pub(crate) fn tick_series(&mut self) {
        if self.series.is_none() {
            return;
        }
        let dp = self.merged_dataplane();
        let p99 = self.channel.write_latency.quantile(0.99).unwrap_or(0);
        let t_ns = self.channel.clock.now().0;
        let epoch = self.epoch;
        if let Some(s) = &mut self.series {
            s.sample(t_ns, epoch, dp.as_ref(), p99);
        }
    }

    /// The collected time series, if enabled.
    pub(crate) fn series(&self) -> Option<&SeriesRing> {
        self.series.as_ref()
    }

    /// Arm (or re-arm) the SLO watchdog. Re-arming resets the breach
    /// latches and the violation count.
    pub fn arm_watchdog(&mut self, thresholds: SloThresholds) {
        self.watchdog = Some(Watchdog { thresholds, ..Watchdog::default() });
    }

    /// Disarm the watchdog, returning its final status.
    pub(crate) fn disarm_watchdog(&mut self) -> Option<SloStatus> {
        self.watchdog.take().map(|w| w.status())
    }

    /// Watchdog state, `None` when disarmed.
    pub(crate) fn watchdog_status(&self) -> Option<SloStatus> {
        self.watchdog.as_ref().map(Watchdog::status)
    }

    /// Evaluate the armed SLO thresholds against current counters,
    /// emitting one `SloViolation` trace event per non-breach → breach
    /// transition (a breach that clears re-arms its latch). Returns the
    /// number of new violations this check produced; 0 when disarmed.
    ///
    /// Every input is a sim-clock / seeded-state quantity — merged TM
    /// verdicts, fault counters, the simulated write-latency histogram —
    /// so a chaos replay of the same seed produces bit-identical events
    /// (see `docs/CHAOS.md`).
    pub(crate) fn slo_check(&mut self) -> u64 {
        let Some(w) = self.watchdog.as_ref() else { return 0 };
        let t = w.thresholds.clone();
        // (latch index, kind, attributed program, observed, limit)
        let mut checks: Vec<(usize, SloKind, u16, u64, u64)> = Vec::new();
        if let Some(limit) = t.max_drop_ppm {
            let mut observed = 0u64;
            let mut prog = 0u16;
            if let Some(m) = self.merged_dataplane() {
                let drops = m.tm.dropped.get();
                let total = drops
                    + m.tm.forwarded.get()
                    + m.tm.returned.get()
                    + m.tm.multicast.get();
                observed = drops.saturating_mul(1_000_000).checked_div(total).unwrap_or(0);
                // Attribute the breach to the heaviest dropper (ties →
                // lowest id; 0 when attribution is off).
                if let Some(pp) = &m.per_prog {
                    let mut best = 0u64;
                    for (id, slot) in pp.iter().enumerate() {
                        let d = slot.drops.get();
                        if d > best {
                            best = d;
                            prog = id as u16;
                        }
                    }
                }
            }
            checks.push((0, SloKind::DropRate, prog, observed, limit));
        }
        if let Some(limit) = t.max_deploy_failures {
            checks.push((1, SloKind::DeployFailure, 0, self.fault_stats().deploy_faults, limit));
        }
        if let Some(limit) = t.max_p99_write_ns {
            let observed = self.channel.write_latency.quantile(0.99).unwrap_or(0);
            checks.push((2, SloKind::P99Latency, 0, observed, limit));
        }
        let now = self.channel.clock.now();
        let w = self.watchdog.as_mut().expect("armed above");
        let mut emit: Vec<(SloKind, u16, u64, u64)> = Vec::new();
        for (idx, kind, prog, observed, limit) in checks {
            let breach = observed > limit;
            if breach && !w.breached[idx] {
                w.violations += 1;
                emit.push((kind, prog, observed, limit));
            }
            w.breached[idx] = breach;
        }
        let fresh = emit.len() as u64;
        if !emit.is_empty() {
            if let Some(tr) = self.switch.trace_mut() {
                tr.set_now(now);
                for (kind, prog, observed, limit) in emit {
                    tr.slo_violation(kind, prog, observed, limit);
                }
            }
        }
        fresh
    }

    /// Install/replace the runtime-control server counters (called by
    /// `server::serve` at every service tick so `status --json` reads
    /// fresh numbers even while the server is live).
    pub(crate) fn set_server_stats(&mut self, stats: ServerStats) {
        self.server_stats = Some(stats);
    }

    /// Current telemetry epoch (number of lifecycle events so far).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Turn on the flight recorder, synchronized to the controller's
    /// current epoch and the control channel's simulated clock.
    pub fn enable_trace(&mut self, cfg: TraceConfig) -> &mut TraceBuffer {
        let epoch = self.epoch;
        let now = self.channel.clock.now();
        let t = self.switch.enable_trace(cfg);
        t.set_epoch(epoch);
        t.set_now(now);
        t
    }

    /// Turn the flight recorder off, returning the final ring.
    pub fn disable_trace(&mut self) -> Option<Box<TraceBuffer>> {
        self.switch.disable_trace()
    }

    /// The flight recorder, if enabled.
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.switch.trace()
    }

    /// Mutable access to the flight recorder, if enabled.
    pub fn trace_mut(&mut self) -> Option<&mut TraceBuffer> {
        self.switch.trace_mut()
    }

    /// Flight-recorder stats (the disabled sentinel when tracing is off).
    pub fn trace_stats(&self) -> TraceStats {
        self.switch.trace_stats()
    }

    /// The most recent [`SPAN_HISTORY`] lifecycle spans, oldest first.
    /// `seq` keeps counting past evicted spans.
    pub fn lifecycle_spans(
        &self,
    ) -> impl DoubleEndedIterator<Item = &LifecycleSpan> + ExactSizeIterator {
        self.spans.iter()
    }

    /// Record a span under the next `seq`, evicting the oldest one once
    /// the history is full (a controller lives through unboundedly many
    /// deploys; totals live in the epoch and the channel counters).
    fn push_span(&mut self, span: LifecycleSpan) {
        debug_assert_eq!(span.seq, self.span_seq);
        self.span_seq += 1;
        if self.spans.len() == SPAN_HISTORY {
            self.spans.pop_front();
        }
        self.spans.push_back(span);
    }

    /// Snapshot the full telemetry report: spans + gauges + control-channel
    /// latency + (when enabled) the data plane's packet-side counters.
    pub fn telemetry_report(&self) -> TelemetryReport {
        // With the parallel engine on, packet-side counters are the
        // master's merged with every worker's — the report reads the
        // same whatever the worker count.
        let dataplane = self.merged_dataplane();
        let programs = self.program_usage(dataplane.as_ref());
        TelemetryReport {
            schema_version: SCHEMA_VERSION,
            epoch: self.epoch,
            programs_deployed: self.programs.len() as u64,
            spans: self.spans.iter().cloned().collect(),
            resources: ResourceGauges::collect(&self.resman),
            control_write_latency: self.channel.write_latency.clone(),
            dataplane,
            trace: self.switch.trace_stats(),
            faults: self.fault_stats(),
            parallel: self.workers.as_ref().map(|pool| ParallelStats {
                workers: pool.len() as u64,
                snapshot_generation: self.channel.snapshot_generation(),
                per_worker: pool.stats(),
            }),
            programs,
            slo: self.watchdog.as_ref().map(Watchdog::status),
            series: self.series.clone(),
            tables: self.switch.table_index_stats(),
            server: self.server_stats.clone(),
        }
    }

    /// Force every table (master and workers) onto the priority-ordered
    /// scan (`false`) or its maintained index (`true`) — the scan-authority
    /// toggle for bit-identical replay comparisons.
    pub fn set_indexed(&mut self, on: bool) {
        self.switch.set_indexed_all(on);
        if let Some(pool) = self.workers.as_mut() {
            for w in pool.workers_mut() {
                w.switch_mut().set_indexed_all(on);
            }
        }
    }

    /// Per-program usage rows: control-side residency (entries, memory)
    /// joined with the merged attributed packet counters. Row order is
    /// deterministic (ascending program id, the synthetic slot 0 first).
    /// Empty when attribution is off.
    fn program_usage(&self, dp: Option<&MetricsRecorder>) -> Vec<ProgramUsage> {
        let Some(pp) = dp.and_then(|m| m.per_prog.as_deref()) else {
            return Vec::new();
        };
        let mut resident: BTreeMap<u64, (&str, u64, u64)> = BTreeMap::new();
        for (name, p) in &self.programs {
            let mem: u64 = p.image.mem_regions.iter().map(|r| u64::from(r.size)).sum();
            resident.insert(
                u64::from(p.image.prog_id),
                (name.as_str(), p.image.entry_count() as u64, mem),
            );
        }
        let total_res: u64 = resident.values().map(|(_, e, m)| e + m).sum();
        let max_resident = resident.keys().next_back().map_or(0, |id| *id as usize + 1);
        let slots = pp.len().max(max_resident).max(1);
        let empty = ProgramMetrics::default();
        let mut rows = Vec::new();
        for id in 0..slots {
            let m = pp.get(id).unwrap_or(&empty);
            let (name, entries, memory) = match resident.get(&(id as u64)) {
                Some((n, e, mm)) => ((*n).to_string(), *e, *mm),
                None if id == 0 => ("(unattributed)".to_string(), 0, 0),
                None => {
                    // A revoked program's slot: keep the row only if it
                    // actually observed traffic.
                    if m.packets.get() + m.forwarded.get() + m.drops.get() + m.hits() == 0 {
                        continue;
                    }
                    ("(retired)".to_string(), 0, 0)
                }
            };
            rows.push(ProgramUsage {
                name,
                prog_id: id as u64,
                packets: m.packets.get(),
                forwarded: m.forwarded.get(),
                drops: m.drops.get(),
                recirc_passes: m.recirc_passes.get(),
                hits: m.hits(),
                salu_rmws: m.salu_rmws(),
                entries,
                memory,
                resource_share: if total_res == 0 {
                    0.0
                } else {
                    (entries + memory) as f64 / total_res as f64
                },
            });
        }
        rows
    }

    /// A lifecycle event is about to mutate the data plane: open a new
    /// epoch so packet-side series split at this boundary.
    fn bump_epoch(&mut self) -> u64 {
        self.epoch += 1;
        let epoch = self.epoch;
        if let Some(rec) = self.switch.telemetry_mut() {
            rec.epoch = epoch;
        }
        // The bump lands in the trace *outside* any batch (the install /
        // remove batches follow it), which is exactly what the
        // epoch-splits-batch invariant demands.
        let now = self.channel.clock.now();
        if let Some(t) = self.switch.trace_mut() {
            t.set_now(now);
            t.note_epoch(epoch);
        }
        // Every lifecycle boundary cuts a time-series bucket and runs an
        // SLO check — both no-ops when the feature is off.
        self.tick_series();
        self.slo_check();
        epoch
    }

    fn take_prog_id(&mut self) -> CtlResult<u16> {
        if let Some(id) = self.free_ids.pop() {
            return Ok(id);
        }
        if self.next_prog_id == u16::MAX {
            return Err(CtlError::Compile(CompileError::ProgramIdsExhausted));
        }
        let id = self.next_prog_id;
        self.next_prog_id += 1;
        Ok(id)
    }

    /// Apply one batch through the channel, absorbing transient faults
    /// (timeout, channel drop) with a reconnect and bounded exponential
    /// backoff on the simulated clock. Transient faults apply nothing,
    /// so re-sending the whole batch is safe. Returns the final outcome
    /// and the number of retries taken.
    fn apply_with_retry(&mut self, ops: &[ControlOp]) -> (BatchOutcome, u64) {
        let mut retries = 0u64;
        loop {
            let out = self.channel.apply_batch(&mut self.switch, ops);
            match out.error {
                Some(SimError::ChannelTimeout) | Some(SimError::ChannelDown)
                    if retries < u64::from(MAX_RETRIES) =>
                {
                    if !self.channel.is_connected() {
                        self.channel.reconnect();
                    }
                    self.channel.clock.advance(Nanos::from_micros(500 << retries));
                    retries += 1;
                }
                _ => {
                    self.fault_stats.retries += retries;
                    return (out, retries);
                }
            }
        }
    }

    /// Ship an ordered plan of control batches to the device: one RPC for
    /// the whole plan when the channel is in bulk mode, else one RPC per
    /// batch, stopping at the first fault. Batch order is plan order in
    /// both modes, so Figure 6's body-then-filter (and filter-then-body)
    /// sequencing holds whichever way the plan travels. A plan of no
    /// batches sends nothing; an empty batch is still an RPC.
    fn ship(&mut self, plan: impl IntoIterator<Item = Vec<ControlOp>>) -> Shipped {
        let mut rpcs: Vec<Vec<ControlOp>> = plan.into_iter().collect();
        if self.channel.model.bulk && rpcs.len() > 1 {
            rpcs = vec![rpcs.into_iter().flatten().collect()];
        }
        let mut sent = Shipped::default();
        for rpc in rpcs {
            if sent.error.is_none() {
                let (out, retries) = self.apply_with_retry(&rpc);
                sent.results.extend(out.results);
                sent.cost += out.cost;
                sent.error = out.error;
                sent.retries += retries;
            }
            sent.ops.extend(rpc);
        }
        sent
    }

    /// Return every resource a program image holds: its memory regions,
    /// entry budgets, init/recirc charges, and its program id.
    fn refund_program(&mut self, image: &ProgramImage) {
        for r in &image.mem_regions {
            self.resman.unlock_memory(r.rpb, r.offset, r.size);
        }
        let mut per_rpb: HashMap<RpbId, usize> = HashMap::new();
        for (rpb, _) in &image.rpb_entries {
            *per_rpb.entry(*rpb).or_insert(0) += 1;
        }
        for (rpb, n) in per_rpb {
            self.resman.refund_entries(rpb, n);
        }
        self.resman.refund_init(1);
        self.resman.refund_recirc(image.recirc_ids.len());
        self.free_ids.push(image.prog_id);
    }

    /// Undo the applied prefix of a faulted install with its own
    /// epoch-guarded batch. Returns how many undo ops landed, plus the
    /// leftover ops and the second fault if the rollback itself faulted
    /// (short of a device reset, which finishes the job by wiping).
    fn rollback(
        &mut self,
        prog_id: u16,
        undo: Vec<ControlOp>,
    ) -> (u64, Option<(Vec<ControlOp>, SimError)>) {
        if undo.is_empty() {
            self.fault_stats.rollbacks += 1;
            return (0, None);
        }
        self.bump_epoch();
        let now = self.channel.clock.now();
        if let Some(t) = self.switch.trace_mut() {
            t.set_now(now);
            t.rollback_begin(prog_id);
        }
        let mut sent = self.ship([undo]);
        let undone = sent.results.len() as u64;
        self.fault_stats.rollback_ops += undone;
        let double = match sent.error.take() {
            None => None,
            Some(SimError::DeviceReset { .. }) => {
                // The wipe took the rest of the prefix with it.
                self.needs_reconcile = true;
                None
            }
            Some(f) => Some((sent.remaining(), f)),
        };
        let complete = double.is_none();
        if complete {
            self.fault_stats.rollbacks += 1;
        }
        let now = self.channel.clock.now();
        if let Some(t) = self.switch.trace_mut() {
            t.set_now(now);
            t.rollback_end(prog_id, undone as u32, complete);
        }
        (undone, double)
    }

    /// The front half of a deploy — parse, check, lower — with the
    /// wall-clock parse + check time. Touches neither the device nor the
    /// resource manager, so `update` runs it before it revokes anything.
    fn compile(&self, source: &str) -> CtlResult<(Vec<ProgramIr>, Duration)> {
        let t0 = Instant::now();
        let unit = parse(source).map_err(CompileError::from)?;
        check(&unit, &self.check_ctx).map_err(CompileError::from)?;
        let parse_wall = t0.elapsed();
        let mems: Vec<MemDecl> = unit
            .annotations
            .iter()
            .map(|a| MemDecl { name: a.name.clone(), size: a.size as u32 })
            .collect();
        let irs = unit.programs.iter().map(|p| lower(p, &mems)).collect::<Result<_, _>>()?;
        Ok((irs, parse_wall))
    }

    /// Commit compiled programs one after another, best-effort: an error
    /// aborts at the failing program, leaving earlier ones installed
    /// (first-come-first-serve, §4.3).
    fn install(
        &mut self,
        irs: Vec<ProgramIr>,
        parse_wall: Duration,
    ) -> CtlResult<Vec<DeployReport>> {
        irs.into_iter().map(|ir| self.commit(ir, parse_wall)).collect()
    }

    /// Deploy every program in a P4runpro source string: compile the whole
    /// source, then allocate and install its programs in order.
    pub fn deploy(&mut self, source: &str) -> CtlResult<Vec<DeployReport>> {
        let (irs, parse_wall) = self.compile(source)?;
        self.install(irs, parse_wall)
    }

    /// Commit one lowered program to the data plane: allocate against the
    /// live resource view (Figure 7 timing), grant memory, generate entries
    /// (through the shape cache), charge budgets, and install via the
    /// Figure 6 consistent batch order.
    fn commit(&mut self, ir: ProgramIr, parse_wall: Duration) -> CtlResult<DeployReport> {
        if self.programs.contains_key(&ir.name) || self.wedged.contains_key(&ir.name) {
            return Err(CtlError::DuplicateProgram(ir.name));
        }
        let t_alloc = Instant::now();
        let allocation = allocate(&ir, self.resman.alloc_view(), &self.alloc_cfg)?;
        let alloc_wall = t_alloc.elapsed();

        // Grant physical memory where the solver placed each vmem.
        let mut offsets: HashMap<String, (RpbId, u32)> = HashMap::new();
        let mut granted: Vec<(RpbId, u32, u32)> = Vec::new();
        for m in &ir.memories {
            let rpb = allocation.mem_rpb[&m.name];
            match self.resman.grant_memory(rpb, m.size) {
                Some(off) => {
                    offsets.insert(m.name.clone(), (rpb, off));
                    granted.push((rpb, off, m.size));
                }
                None => {
                    for (r, o, s) in granted {
                        self.resman.unlock_memory(r, o, s);
                    }
                    return Err(CtlError::Compile(CompileError::AllocationFailed {
                        reason: format!("memory grant for `{}` failed", m.name),
                    }));
                }
            }
        }

        let prog_id = self.take_prog_id()?;
        let image = match generate_cached(
            &mut self.entry_cache,
            &ir,
            &allocation,
            &offsets,
            prog_id,
            &self.dp.fields,
            self.switch.field_table(),
        ) {
            Ok(i) => i,
            Err(e) => {
                for (r, o, s) in granted {
                    self.resman.unlock_memory(r, o, s);
                }
                self.free_ids.push(prog_id);
                return Err(e.into());
            }
        };

        // Charge entry budgets: RPBs (validated by the solver),
        // initialization paths, and the recirculation block.
        let mut per_rpb: HashMap<RpbId, usize> = HashMap::new();
        for (rpb, _) in &image.rpb_entries {
            *per_rpb.entry(*rpb).or_insert(0) += 1;
        }
        let init_ok = self.resman.charge_init(1);
        if !init_ok || !self.resman.charge_recirc(image.recirc_ids.len()) {
            if init_ok {
                self.resman.refund_init(1);
            }
            for (r, o, s) in granted {
                self.resman.unlock_memory(r, o, s);
            }
            self.free_ids.push(prog_id);
            return Err(CtlError::Compile(CompileError::InitTableFull {
                path: "initialization/recirculation block".into(),
            }));
        }
        for (rpb, n) in &per_rpb {
            // Solver-validated; charge unconditionally.
            let ok = self.resman.charge_entries(*rpb, *n);
            debug_assert!(ok, "solver and resource manager disagree");
        }

        // Consistent install: program components first, filters last.
        // The install mutates the data plane, so it opens a new
        // telemetry epoch before the first batch lands.
        let memory_claimed: u64 = ir.memories.iter().map(|m| u64::from(m.size)).sum();
        let faults_before = self.faults_fired_total();
        let epoch = self.bump_epoch();
        let batches = plan_install(&image, &self.dp, self.switch.field_table())?;
        let boundary = batches[0].ops.len();
        let t_chan = Instant::now();
        let sent = self.ship(batches.into_iter().map(|b| b.ops));
        let update_delay = sent.cost;
        let mut handles = InstalledHandles {
            mem_regions: image.mem_regions.clone(),
            ..Default::default()
        };
        for (k, (op, res)) in sent.ops.iter().zip(&sent.results).enumerate() {
            if let (ControlOp::InsertEntry { table, .. }, OpResult::Inserted(h)) = (op, res) {
                let rec = if k < boundary {
                    &mut handles.body_handles
                } else {
                    &mut handles.filter_handles
                };
                rec.push((*table, *h));
            }
        }
        let entries_written = (handles.body_handles.len() + handles.filter_handles.len()) as u64;
        let channel_wall = t_chan.elapsed();

        if let Some(fault) = sent.error {
            // Mid-install fault. The filter activation is always the last
            // op of the plan, so the half-installed program was never
            // packet-visible; undoing the applied prefix (filters first,
            // then body in reverse) restores the device exactly, and a
            // device reset has already wiped it wholesale.
            self.fault_stats.deploy_faults += 1;
            let mut rollback_ops = 0u64;
            let mut parked: Option<SimError> = None;
            if matches!(fault, SimError::DeviceReset { .. }) {
                self.needs_reconcile = true;
            } else {
                let mut undo: Vec<ControlOp> =
                    Vec::with_capacity(handles.filter_handles.len() + handles.body_handles.len());
                for &(table, handle) in handles.filter_handles.iter().rev() {
                    undo.push(ControlOp::DeleteEntry { table, handle });
                }
                for &(table, handle) in handles.body_handles.iter().rev() {
                    undo.push(ControlOp::DeleteEntry { table, handle });
                }
                let (undone, double) = self.rollback(prog_id, undo);
                rollback_ops = undone;
                if let Some((mut pending, second)) = double {
                    // Double fault: park the leftovers. The regions were
                    // zero at grant time, but a partially active filter
                    // could see traffic before the retry lands — reset
                    // them as part of the parked cleanup.
                    for r in &image.mem_regions {
                        pending.push(ControlOp::ResetRegRange {
                            array: r.rpb.array_ref(),
                            start: r.offset,
                            len: r.size,
                        });
                    }
                    self.wedged.insert(
                        ir.name.clone(),
                        WedgedProgram { image: image.clone(), pending_ops: pending },
                    );
                    parked = Some(second);
                }
            }
            if parked.is_none() {
                self.refund_program(&image);
            }
            self.push_span(LifecycleSpan {
                seq: self.span_seq,
                kind: "deploy-fault".into(),
                program: ir.name.clone(),
                prog_id: u64::from(prog_id),
                epoch,
                parse_wall_ns: parse_wall.as_nanos() as u64,
                solver_wall_ns: alloc_wall.as_nanos() as u64,
                solver_nodes: allocation.nodes_explored,
                solver_truncated: allocation.truncated_solves,
                channel_wall_ns: channel_wall.as_nanos() as u64,
                entries_written,
                entries_revoked: rollback_ops,
                memory_claimed: 0,
                memory_released: 0,
                update_delay_ns: update_delay.0,
                faults: self.faults_fired_total() - faults_before,
                retries: sent.retries,
                rollback_ops,
            });
            return Err(match parked {
                Some(second) => CtlError::Wedged { program: ir.name, fault: second },
                None => CtlError::DeployFault { program: ir.name, fault },
            });
        }

        let now = self.channel.clock.now();
        if let Some(t) = self.switch.trace_mut() {
            t.set_now(now);
            t.lifecycle(LifecycleKind::Deploy, prog_id, epoch, update_delay);
        }

        self.push_span(LifecycleSpan {
            seq: self.span_seq,
            kind: "deploy".into(),
            program: ir.name.clone(),
            prog_id: u64::from(prog_id),
            epoch,
            parse_wall_ns: parse_wall.as_nanos() as u64,
            solver_wall_ns: alloc_wall.as_nanos() as u64,
            solver_nodes: allocation.nodes_explored,
            solver_truncated: allocation.truncated_solves,
            channel_wall_ns: channel_wall.as_nanos() as u64,
            entries_written,
            entries_revoked: 0,
            memory_claimed,
            memory_released: 0,
            update_delay_ns: update_delay.0,
            faults: self.faults_fired_total() - faults_before,
            retries: sent.retries,
            rollback_ops: 0,
        });

        let report = DeployReport {
            name: ir.name.clone(),
            prog_id,
            parse_wall,
            alloc_wall,
            alloc_nodes: allocation.nodes_explored,
            truncated_solves: allocation.truncated_solves,
            channel_wall,
            update_delay,
            entries_installed: image.entry_count(),
            depth: ir.depth(),
            passes: image.passes,
        };
        self.programs.insert(ir.name, InstalledProgram { image, handles, allocation });
        Ok(report)
    }

    /// Revoke a deployed program (Figure 6 left half): filters first, then
    /// components, then lock + reset + release its memory.
    pub fn revoke(&mut self, name: &str) -> CtlResult<RevokeReport> {
        if self.wedged.contains_key(name) {
            return self.finish_wedged(name);
        }
        let installed = self
            .programs
            .remove(name)
            .ok_or_else(|| CtlError::NoSuchProgram(name.to_string()))?;

        // Lock regions before the reset batch touches them.
        for r in &installed.handles.mem_regions {
            self.resman.lock_memory(r.rpb, r.offset, r.size);
        }

        // The remove batches mutate the data plane: new telemetry epoch.
        let faults_before = self.faults_fired_total();
        let epoch = self.bump_epoch();
        // Filter deletions lead the plan, so the program stops matching
        // before any component disappears.
        let t_chan = Instant::now();
        let mut sent = self.ship(plan_remove(&installed.handles).into_iter().map(|b| b.ops));
        let channel_wall = t_chan.elapsed();
        let update_delay = sent.cost;
        let entries_revoked = sent.deleted();

        if let Some(f) = sent.error.take() {
            self.fault_stats.revoke_faults += 1;
            if matches!(f, SimError::DeviceReset { .. }) {
                // Forward recovery: the wipe finished the removal (it also
                // zeroed the locked regions), so fall through to the
                // refunds. Other programs diverged, though.
                self.needs_reconcile = true;
            } else {
                // Park the rest of the plan: the program's resources stay
                // charged (regions stay locked) until a retried revoke or
                // a reconcile retires it.
                let prog_id = installed.image.prog_id;
                self.wedged.insert(
                    name.to_string(),
                    WedgedProgram { image: installed.image, pending_ops: sent.remaining() },
                );
                self.push_span(LifecycleSpan {
                    seq: self.span_seq,
                    kind: "revoke-fault".into(),
                    program: name.to_string(),
                    prog_id: u64::from(prog_id),
                    epoch,
                    parse_wall_ns: 0,
                    solver_wall_ns: 0,
                    solver_nodes: 0,
                    solver_truncated: 0,
                    channel_wall_ns: channel_wall.as_nanos() as u64,
                    entries_written: 0,
                    entries_revoked,
                    memory_claimed: 0,
                    memory_released: 0,
                    update_delay_ns: update_delay.0,
                    faults: self.faults_fired_total() - faults_before,
                    retries: sent.retries,
                    rollback_ops: 0,
                });
                return Err(CtlError::Wedged { program: name.to_string(), fault: f });
            }
        }

        self.refund_program(&installed.image);

        let memory_released: u64 = installed
            .handles
            .mem_regions
            .iter()
            .map(|r| u64::from(r.size))
            .sum();
        let now = self.channel.clock.now();
        if let Some(t) = self.switch.trace_mut() {
            t.set_now(now);
            t.lifecycle(LifecycleKind::Revoke, installed.image.prog_id, epoch, update_delay);
        }
        self.push_span(LifecycleSpan {
            seq: self.span_seq,
            kind: "revoke".into(),
            program: name.to_string(),
            prog_id: u64::from(installed.image.prog_id),
            epoch,
            parse_wall_ns: 0,
            solver_wall_ns: 0,
            solver_nodes: 0,
            solver_truncated: 0,
            channel_wall_ns: channel_wall.as_nanos() as u64,
            entries_written: 0,
            entries_revoked,
            memory_claimed: 0,
            memory_released,
            update_delay_ns: update_delay.0,
            faults: self.faults_fired_total() - faults_before,
            retries: sent.retries,
            rollback_ops: 0,
        });

        Ok(RevokeReport { name: name.to_string(), update_delay })
    }

    /// Retry a wedged program's parked cleanup. Idempotent: every call
    /// re-applies whatever is still pending (deletes whose handles a
    /// device reset already wiped are satisfied trivially and dropped);
    /// once the device is clean the program's resources are refunded and
    /// the name becomes free again.
    fn finish_wedged(&mut self, name: &str) -> CtlResult<RevokeReport> {
        let w = self.wedged.remove(name).expect("caller checked the wedged map");
        let pending: Vec<ControlOp> = w
            .pending_ops
            .into_iter()
            .filter(|op| match op {
                ControlOp::DeleteEntry { table, handle } => self
                    .switch
                    .table(*table)
                    .map(|t| t.contains(*handle))
                    .unwrap_or(false),
                _ => true,
            })
            .collect();
        let faults_before = self.faults_fired_total();
        let epoch = self.bump_epoch();
        let prog_id = w.image.prog_id;
        let now = self.channel.clock.now();
        if let Some(t) = self.switch.trace_mut() {
            t.set_now(now);
            t.rollback_begin(prog_id);
        }
        let t_chan = Instant::now();
        let mut sent = self.ship([pending]);
        let update_delay = sent.cost;
        let undone = sent.results.len() as u64;
        self.fault_stats.rollback_ops += undone;
        let complete = match &sent.error {
            None => true,
            Some(SimError::DeviceReset { .. }) => {
                self.needs_reconcile = true;
                true
            }
            Some(_) => false,
        };
        let now = self.channel.clock.now();
        if let Some(t) = self.switch.trace_mut() {
            t.set_now(now);
            t.rollback_end(prog_id, undone as u32, complete);
        }
        if !complete {
            let f = sent.error.take().expect("incomplete cleanup carries its fault");
            self.wedged.insert(
                name.to_string(),
                WedgedProgram { image: w.image, pending_ops: sent.remaining() },
            );
            return Err(CtlError::Wedged { program: name.to_string(), fault: f });
        }
        self.fault_stats.rollbacks += 1;
        self.refund_program(&w.image);
        let channel_wall = t_chan.elapsed();
        let now = self.channel.clock.now();
        if let Some(t) = self.switch.trace_mut() {
            t.set_now(now);
            t.lifecycle(LifecycleKind::Revoke, prog_id, epoch, update_delay);
        }
        self.push_span(LifecycleSpan {
            seq: self.span_seq,
            kind: "revoke".into(),
            program: name.to_string(),
            prog_id: u64::from(prog_id),
            epoch,
            parse_wall_ns: 0,
            solver_wall_ns: 0,
            solver_nodes: 0,
            solver_truncated: 0,
            channel_wall_ns: channel_wall.as_nanos() as u64,
            entries_written: 0,
            entries_revoked: sent.deleted(),
            memory_claimed: 0,
            memory_released: w.image.mem_regions.iter().map(|r| u64::from(r.size)).sum(),
            update_delay_ns: update_delay.0,
            faults: self.faults_fired_total() - faults_before,
            retries: sent.retries,
            rollback_ops: undone,
        });
        Ok(RevokeReport { name: name.to_string(), update_delay })
    }

    /// Snapshot the device's per-table entry population, with claim marks
    /// for the content-matching passes.
    fn device_pool(&self) -> CtlResult<HashMap<TableRef, Vec<DevicePoolEntry>>> {
        let mut pool = HashMap::new();
        for tref in self.switch.table_refs() {
            let t = self.switch.table(tref)?;
            let v: Vec<_> = t.iter_entries().map(|(h, e)| (h, e.clone(), false)).collect();
            if !v.is_empty() {
                pool.insert(tref, v);
            }
        }
        Ok(pool)
    }

    /// Audit the device against the resource manager's view: re-derive
    /// every installed program's install plan and content-match it against
    /// the entries actually on the device. Read-only; `reconcile()` is
    /// the mutating counterpart.
    pub fn audit(&self) -> CtlResult<AuditReport> {
        let mut pool = self.device_pool()?;
        let mut rep = AuditReport { wedged: self.wedged.len(), ..Default::default() };
        let mut names: Vec<&String> = self.programs.keys().collect();
        names.sort();
        for name in names {
            let p = &self.programs[name];
            let batches = plan_install(&p.image, &self.dp, self.switch.field_table())?;
            for batch in &batches {
                for op in &batch.ops {
                    if let ControlOp::InsertEntry { table, entry } = op {
                        rep.expected += 1;
                        let found = pool
                            .get_mut(table)
                            .and_then(|v| v.iter_mut().find(|(_, e, c)| !*c && e == entry));
                        match found {
                            Some(slot) => {
                                slot.2 = true;
                                rep.present += 1;
                            }
                            None => rep.missing += 1,
                        }
                    }
                }
            }
        }
        rep.unexpected =
            pool.values().flat_map(|v| v.iter()).filter(|(_, _, c)| !*c).count();
        Ok(rep)
    }

    fn trace_reconcile_end(&mut self, reinstalled: u32, deleted: u32) {
        let now = self.channel.clock.now();
        if let Some(t) = self.switch.trace_mut() {
            t.set_now(now);
            t.reconcile_end(reinstalled, deleted);
        }
    }

    /// Repair the device after a reset (or any other divergence): retire
    /// wedged programs, garbage-collect device entries no installed
    /// program claims, and re-install what the surviving programs are
    /// missing — body entries first, filter activation last, so a program
    /// under repair is never half packet-visible. Register *contents* are
    /// not restored (a reset zeroes them, exactly like a freshly granted
    /// region); programs rebuild that state from traffic.
    ///
    /// One pass converges when no fault interferes; under an armed fault
    /// plan a pass can itself fault (the error is returned, partial
    /// progress is kept and recorded), so callers loop until
    /// [`Controller::audit`] reports clean.
    pub fn reconcile(&mut self) -> CtlResult<ReconcileReport> {
        let generation = self.switch.generation();
        self.bump_epoch();
        let now = self.channel.clock.now();
        if let Some(t) = self.switch.trace_mut() {
            t.set_now(now);
            t.reconcile_begin(generation);
        }
        let mut rep = ReconcileReport::default();

        // Retire wedged programs: refund now, sweep their leftover entries
        // as "unexpected" below, and reset their regions in the gc batch.
        let mut wedge_resets: Vec<ControlOp> = Vec::new();
        let mut wnames: Vec<String> = self.wedged.keys().cloned().collect();
        wnames.sort();
        for n in &wnames {
            let w = self.wedged.remove(n).expect("key was just listed");
            for r in &w.image.mem_regions {
                wedge_resets.push(ControlOp::ResetRegRange {
                    array: r.rpb.array_ref(),
                    start: r.offset,
                    len: r.size,
                });
            }
            self.refund_program(&w.image);
            rep.wedged_cleared += 1;
        }

        // Content-match the device against every installed program's
        // re-derived plan, splitting each into kept handles and missing ops.
        struct Repair {
            name: String,
            keep: [Vec<(TableRef, EntryHandle)>; 2],
            missing: [Vec<ControlOp>; 2],
        }
        let mut pool = self.device_pool()?;
        let mut names: Vec<String> = self.programs.keys().cloned().collect();
        names.sort();
        let mut repairs: Vec<Repair> = Vec::new();
        for name in &names {
            let p = &self.programs[name];
            let batches = plan_install(&p.image, &self.dp, self.switch.field_table())?;
            let mut rp = Repair {
                name: name.clone(),
                keep: [Vec::new(), Vec::new()],
                missing: [Vec::new(), Vec::new()],
            };
            for (sec, batch) in batches.iter().enumerate().take(2) {
                for op in &batch.ops {
                    if let ControlOp::InsertEntry { table, entry } = op {
                        let found = pool
                            .get_mut(table)
                            .and_then(|v| v.iter_mut().find(|(_, e, c)| !*c && e == entry));
                        match found {
                            Some(slot) => {
                                slot.2 = true;
                                rp.keep[sec].push((*table, slot.0));
                            }
                            None => rp.missing[sec].push(op.clone()),
                        }
                    }
                }
            }
            repairs.push(rp);
        }

        // Garbage-collect unclaimed entries (deterministic device order)
        // plus the retired wedged programs' register regions.
        let mut gc: Vec<ControlOp> = Vec::new();
        for tref in self.switch.table_refs() {
            if let Some(v) = pool.get(&tref) {
                for (h, _, claimed) in v {
                    if !claimed {
                        gc.push(ControlOp::DeleteEntry { table: tref, handle: *h });
                    }
                }
            }
        }
        gc.extend(wedge_resets);
        if !gc.is_empty() {
            let sent = self.ship([gc]);
            rep.update_delay += sent.cost;
            rep.deleted += sent.deleted() as usize;
            if let Some(f) = sent.error {
                // Partial sweep; the next pass finds the rest again.
                self.trace_reconcile_end(rep.reinstalled as u32, rep.deleted as u32);
                return Err(CtlError::Sim(f));
            }
        }

        // Repair each surviving program and rebuild its handle record
        // from the claims plus the fresh inserts.
        for rp in repairs {
            let boundary = rp.missing[0].len();
            let mut keep = rp.keep;
            // A section with nothing missing costs no RPC.
            let sent = self.ship(rp.missing.into_iter().filter(|b| !b.is_empty()));
            rep.update_delay += sent.cost;
            for (k, (op, res)) in sent.ops.iter().zip(&sent.results).enumerate() {
                if let (ControlOp::InsertEntry { table, .. }, OpResult::Inserted(h)) = (op, res) {
                    rep.reinstalled += 1;
                    keep[usize::from(k >= boundary)].push((*table, *h));
                }
            }
            let [body, filters] = keep;
            let p = self.programs.get_mut(&rp.name).expect("program is installed");
            p.handles.body_handles = body;
            p.handles.filter_handles = filters;
            if let Some(f) = sent.error {
                // Partially repaired: what landed is recorded, so the next
                // pass claims it by content and continues from there.
                self.trace_reconcile_end(rep.reinstalled as u32, rep.deleted as u32);
                return Err(CtlError::Sim(f));
            }
        }

        self.needs_reconcile = false;
        self.fault_stats.reconciles += 1;
        self.trace_reconcile_end(rep.reinstalled as u32, rep.deleted as u32);
        Ok(rep)
    }

    /// Incremental update of a running program (§7 "Incremental Update"):
    /// implemented the way the prototype does it — revoke the old program
    /// and allocate the new one through the compiler. Returns the combined
    /// deploy report with the revocation's update delay folded in.
    ///
    /// The new source is compiled before anything is revoked, so a source
    /// that does not compile leaves the running program, its memory and its
    /// entries untouched. Allocation needs the old program's resources back,
    /// so it runs after the revoke: if it (or the install) fails, the old
    /// program is gone — the prototype's revoke-then-redeploy semantics.
    pub fn update(&mut self, name: &str, new_source: &str) -> CtlResult<DeployReport> {
        let (irs, parse_wall) = self.compile(new_source)?;
        let revoke = self.revoke(name)?;
        let mut reports = self.install(irs, parse_wall)?;
        let mut report = reports.remove(0);
        report.update_delay += revoke.update_delay;
        Ok(report)
    }

    /// Read a program's virtual memory through the monitoring path
    /// (virtual → physical address translation, §3.2).
    pub fn read_memory(&mut self, program: &str, memory: &str) -> CtlResult<Vec<u32>> {
        let region = self.find_region(program, memory)?;
        let op = ControlOp::ReadRegRange {
            array: region.0.array_ref(),
            start: region.1,
            len: region.2,
        };
        let (mut results, _) = self.channel.apply_batch(&mut self.switch, &[op]).into_result()?;
        match results.pop() {
            Some(OpResult::ReadRange(v)) => Ok(v),
            _ => unreachable!("read returns a range"),
        }
    }

    /// Write one bucket of a program's virtual memory (raw-API bucket
    /// updates, e.g. filling the load balancer's DIP pool, Appendix B.2).
    pub fn write_memory(&mut self, program: &str, memory: &str, vaddr: u32, value: u32) -> CtlResult<()> {
        let (rpb, offset, size) = self.find_region(program, memory)?;
        if vaddr >= size {
            return Err(CtlError::AddressOutOfRange { memory: memory.into(), addr: vaddr, size });
        }
        let op = ControlOp::WriteReg { array: rpb.array_ref(), addr: offset + vaddr, value };
        self.channel.apply_batch(&mut self.switch, &[op]).into_result()?;
        Ok(())
    }

    fn find_region(&self, program: &str, memory: &str) -> CtlResult<(RpbId, u32, u32)> {
        let p = self
            .programs
            .get(program)
            .ok_or_else(|| CtlError::NoSuchProgram(program.to_string()))?;
        p.image
            .mem_regions
            .iter()
            .find(|r| r.name == memory)
            .map(|r| (r.rpb, r.offset, r.size))
            .ok_or_else(|| CtlError::NoSuchMemory {
                program: program.to_string(),
                memory: memory.to_string(),
            })
    }

    /// Configure a traffic-manager multicast group (§7 extension).
    pub fn set_multicast_group(&mut self, group: u16, ports: Vec<u16>) -> CtlResult<()> {
        Ok(self.switch.set_multicast_group(group, ports)?)
    }

    /// Process one frame through the active engine (traffic path);
    /// [`Controller::inject_into`] allocating a fresh outcome.
    pub fn inject(&mut self, port: u16, frame: &[u8]) -> CtlResult<ProcessOutcome> {
        let mut out = ProcessOutcome::empty();
        self.inject_into(port, frame, &mut out)?;
        Ok(out)
    }

    /// Inject one frame through the active engine into a caller-owned
    /// outcome (replay loops reuse one outcome across packets, so a warm
    /// frame allocates nothing). With a worker pool
    /// ([`Controller::enable_workers`]) the frame is sharded to its
    /// flow's worker under a globally assigned packet id, so traces stay
    /// worker-count-independent; without one the master switch processes it.
    pub fn inject_into(
        &mut self,
        port: u16,
        frame: &[u8],
        outcome: &mut ProcessOutcome,
    ) -> CtlResult<()> {
        let Some(pool) = self.workers.as_mut() else {
            return Ok(self.switch.process_frame_into(port, frame, outcome)?);
        };
        // The master's packet-id cursor stays the single id authority:
        // advance it per injection so sequential and parallel runs hand
        // out identical ids, whatever the interleaving of engines.
        let id = self.switch.next_packet_id();
        self.switch.set_next_packet_id(id + 1);
        let now = self.channel.clock.now();
        let shard = pool.shard_for(frame);
        let w = pool.worker_mut(shard);
        if let Some(t) = w.switch_mut().trace_mut() {
            t.set_now(now);
        }
        Ok(w.inject_at(id, port, frame, outcome)?)
    }

    /// Turn on the sharded multi-worker data plane with `n` workers.
    ///
    /// Enables snapshot publication on the control channel (so every
    /// subsequent deploy/revoke batch flows to workers as one atomic
    /// delta) and forks `n` worker switches from the master's current
    /// state; from here on [`Controller::inject`] / `inject_into` shard
    /// every frame onto its flow's worker. Call *after* enabling
    /// telemetry/tracing so the workers inherit recorders. With `n <= 1`
    /// this still routes injections through one worker — use it only
    /// when you want the parallel engine's code path; the default
    /// (`None`) costs the sequential path one branch.
    pub fn enable_workers(&mut self, n: usize) -> &WorkerPool {
        let publisher = &*self.channel.enable_snapshots();
        self.workers = Some(WorkerPool::new(&self.switch, publisher, n));
        self.workers.as_ref().expect("just installed")
    }

    /// Tear the worker pool down, returning it for final inspection. The
    /// master switch is untouched (it never processed the workers'
    /// packets).
    pub fn disable_workers(&mut self) -> Option<WorkerPool> {
        self.workers.take()
    }

    /// The worker pool, if the parallel engine is on.
    pub fn workers(&self) -> Option<&WorkerPool> {
        self.workers.as_ref()
    }

    /// The worker pool, mutably (threaded replay drivers borrow the
    /// workers through this).
    pub fn workers_mut(&mut self) -> Option<&mut WorkerPool> {
        self.workers.as_mut()
    }

    /// Packet-side telemetry with every worker's counters folded in
    /// (master ∪ workers); identical to the master's recorder when the
    /// parallel engine is off. `None` when telemetry is disabled.
    pub(crate) fn merged_dataplane(&self) -> Option<MetricsRecorder> {
        let mut merged = self.switch.telemetry().cloned()?;
        if let Some(pool) = &self.workers {
            for w in pool.workers() {
                if let Some(m) = w.switch().telemetry() {
                    merged.merge(m);
                }
            }
        }
        Some(merged)
    }

    /// The flight-recorder ring with every worker's packet events merged
    /// in deterministic order (see `rmt_sim::trace::merge_rings`);
    /// a clone of the master's ring when the parallel engine is off.
    /// `None` when tracing is disabled.
    pub fn merged_trace(&self) -> Option<TraceBuffer> {
        match &self.workers {
            Some(pool) => pool.merged_trace(&self.switch),
            None => self.switch.trace().cloned(),
        }
    }
}

#[cfg(test)]
mod tests;
