//! The P4runpro controller: the deploy / revoke / monitor lifecycle
//! (§3.1, §3.2).
//!
//! `deploy` runs the full runtime-compilation pipeline — parse, semantic
//! check, lowering, constraint-based allocation against the live resource
//! state, committing the memory regions the solver placed, entry
//! generation, and the consistent two-batch install of Figure 6 — then
//! records everything needed to later revoke the program. Timings are
//! split the way the paper reports them: parse and allocation are measured
//! wall-clock (real computation, Figure 7); the data plane update advances
//! the simulated `bfrt`-calibrated control channel (Table 1).

use crate::resman::ResourceManager;
use crate::telemetry::{
    FaultStats, LifecycleSpan, ParallelStats, ProgramUsage, ResourceGauges, SeriesRing,
    ServerStats, SloStatus, SloThresholds, TelemetryReport, SCHEMA_VERSION, SPAN_HISTORY,
};
use p4rp_compiler::alloc::{allocate, AllocConfig, Allocation};
use p4rp_compiler::consistency::{plan_install, plan_remove, Batch, InstalledHandles};
use p4rp_compiler::entrygen::{generate_cached, EntryGenCache, ProgramImage};
use p4rp_compiler::ir::{lower, MemDecl, ProgramIr};
use p4rp_compiler::CompileError;
use p4rp_dataplane::{provision, Dataplane, RpbId, NUM_RPBS, RPB_MEM_SIZE};
use p4rp_lang::{check, parse, CheckContext, LangError, SourceUnit};
use rmt_sim::clock::Nanos;
use rmt_sim::control::{BatchOutcome, ControlChannel, LatencyModel};
use rmt_sim::error::SimError;
use rmt_sim::fault::FaultPlan;
use rmt_sim::parallel::WorkerPool;
use rmt_sim::switch::{ControlOp, OpResult, ProcessOutcome, Switch, SwitchConfig, TableRef};
use rmt_sim::table::EntryHandle;
use rmt_sim::telemetry::{MetricsRecorder, ProgramMetrics};
use rmt_sim::trace::{LifecycleKind, SloKind, TraceBuffer, TraceConfig, TraceStats};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
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

/// Installed entries, as [`InstalledHandles`] records them.
type Handles = Vec<(TableRef, EntryHandle)>;

/// What [`Controller::ship`] did with an ordered plan of control batches.
#[derive(Default)]
struct Shipped {
    /// The plan flattened, in ship order.
    ops: Vec<ControlOp>,
    /// Results of the applied prefix of `ops`.
    results: Vec<OpResult>,
    /// The fault that stopped the plan, if any.
    error: Option<SimError>,
}

impl Shipped {
    /// `handles` (`[body, filters]`) plus those of the entry insertions
    /// that landed, split at plan op index `boundary`.
    fn inserted(&self, boundary: usize, mut handles: [Handles; 2]) -> [Handles; 2] {
        for (k, (op, res)) in self.ops.iter().zip(&self.results).enumerate() {
            if let (ControlOp::InsertEntry { table, .. }, OpResult::Inserted(h)) = (op, res) {
                handles[usize::from(k >= boundary)].push((*table, *h));
            }
        }
        handles
    }

    /// The ops a fault kept from landing, with the fault — `None` when the
    /// plan finished, or when a device reset finished it by wiping.
    fn unfinished(mut self) -> Option<(Vec<ControlOp>, SimError)> {
        match self.error {
            None | Some(SimError::DeviceReset { .. }) => None,
            Some(f) => Some((self.ops.split_off(self.results.len()), f)),
        }
    }
}

/// Whatever a program has been granted so far, given back through
/// [`Controller::release`]: a deploy being staged fills one in grant by
/// grant ([`Controller::grant`]), a resident or wedged program's is
/// re-derived from its image.
#[derive(Default)]
struct Claim {
    /// Granted memory regions: `(rpb, offset, size)`.
    regions: Vec<(RpbId, u32, u32)>,
    prog_id: Option<u16>,
    /// Initialization-table entries charged.
    init: usize,
    /// Recirculation-block entries charged.
    recirc: usize,
    /// Table entries charged per RPB (`RpbId(i + 1)` at index `i`).
    entries: [usize; NUM_RPBS],
}

impl Claim {
    /// Everything a fully staged program holds.
    fn of(image: &ProgramImage) -> Claim {
        let mut claim = Claim {
            regions: image.mem_regions.iter().map(|r| (r.rpb, r.offset, r.size)).collect(),
            prog_id: Some(image.prog_id),
            init: 1,
            recirc: image.recirc_ids.len(),
            entries: [0; NUM_RPBS],
        };
        for (rpb, _) in &image.rpb_entries {
            claim.entries[usize::from(rpb.0) - 1] += 1;
        }
        claim
    }
}

/// The register writes that zero a program's memory regions.
fn reset_ops(image: &ProgramImage) -> impl Iterator<Item = ControlOp> + '_ {
    image.mem_regions.iter().map(|r| ControlOp::ResetRegRange {
        array: r.rpb.array_ref(),
        start: r.offset,
        len: r.size,
    })
}

/// One installed program's re-derived install plan matched by content
/// against the device, per section (`[body, filters]`): the handles of the
/// entries found, and the inserts of those that are not there.
#[derive(Default)]
struct Matched {
    name: String,
    keep: [Handles; 2],
    missing: [Vec<ControlOp>; 2],
}

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
            self.traced(|tr| {
                for (kind, prog, observed, limit) in emit {
                    tr.slo_violation(kind, prog, observed, limit);
                }
            });
        }
        fresh
    }

    /// The runtime-control server counters, zeroed on first use.
    /// `server::serve` updates them in place under its lock, so
    /// `status --json` reads live numbers while the server runs.
    pub(crate) fn server_stats_mut(&mut self) -> &mut ServerStats {
        self.server_stats.get_or_insert_with(ServerStats::new)
    }

    /// Current telemetry epoch (number of lifecycle events so far).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Turn on the flight recorder, synchronized to the controller's
    /// current epoch and the control channel's simulated clock.
    pub fn enable_trace(&mut self, cfg: TraceConfig) -> &mut TraceBuffer {
        let epoch = self.epoch;
        self.switch.enable_trace(cfg);
        self.traced(|t| t.set_epoch(epoch));
        self.switch.trace_mut().expect("just enabled")
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

    /// Run `f` on the flight recorder, if one is on, stamped with the
    /// control channel's simulated clock: every control-side trace event
    /// is recorded through here.
    pub(crate) fn traced(&mut self, f: impl FnOnce(&mut TraceBuffer)) {
        let now = self.channel.clock.now();
        if let Some(t) = self.switch.trace_mut() {
            t.set_now(now);
            f(t);
        }
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
        self.traced(|t| t.note_epoch(epoch));
        // Every lifecycle boundary cuts a time-series bucket and runs an
        // SLO check — both no-ops when the feature is off.
        self.tick_series();
        self.slo_check();
        epoch
    }

    /// The bracket every data-plane-mutating event runs inside. It opens a
    /// new epoch and snapshots the fault counter and the wall clock;
    /// `event` hands its plans to [`Controller::ship`], which adds what
    /// they did to the event's one record; on the way out the closing
    /// trace event is emitted and the caller's `report` derived from the
    /// record. `Some(kind)` is a program's deploy or revoke: a `lifecycle`
    /// event on success, and the record is kept as a span named after the
    /// kind, or `kind-fault` if the event failed. `None` is a reconcile
    /// pass: `reconcile_begin` / `reconcile_end` frame it, no span is kept.
    fn bracket<R>(
        &mut self,
        kind: Option<LifecycleKind>,
        program: &str,
        prog_id: u16,
        event: impl FnOnce(&mut Controller, &mut LifecycleSpan) -> CtlResult<()>,
        report: impl FnOnce(&LifecycleSpan) -> R,
    ) -> CtlResult<R> {
        let faults_before = self.faults_fired_total();
        let generation = self.switch.generation();
        let epoch = self.bump_epoch();
        if kind.is_none() {
            self.traced(|t| t.reconcile_begin(generation));
        }
        let mut span = LifecycleSpan {
            seq: self.span_seq,
            kind: kind.map(|k| k.to_string()).unwrap_or_default(),
            program: program.to_string(),
            prog_id: u64::from(prog_id),
            epoch,
            ..LifecycleSpan::default()
        };
        let t_chan = Instant::now();
        let outcome = event(self, &mut span);
        span.channel_wall_ns = t_chan.elapsed().as_nanos() as u64;
        span.faults = self.faults_fired_total() - faults_before;
        let outcome = outcome.map(|()| report(&span));
        let Some(kind) = kind else {
            let (reinstalled, deleted) = (span.entries_written as u32, span.entries_revoked as u32);
            self.traced(|t| t.reconcile_end(reinstalled, deleted));
            return outcome;
        };
        if outcome.is_ok() {
            let update_delay = Nanos(span.update_delay_ns);
            self.traced(|t| t.lifecycle(kind, prog_id, epoch, update_delay));
        } else {
            span.kind.push_str("-fault");
        }
        // File the span under the next `seq`, evicting the oldest one once
        // the history is full (a controller lives through unboundedly many
        // deploys; totals live in the epoch and the channel counters).
        self.span_seq += 1;
        if self.spans.len() == SPAN_HISTORY {
            self.spans.pop_front();
        }
        self.spans.push_back(span);
        outcome
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
    ///
    /// What the plan did is added to `span`, the record of the bracketed
    /// event it belongs to. A device reset wipes every program, not only
    /// that event's, so it is flagged for [`Controller::reconcile`] here.
    fn ship(
        &mut self,
        span: &mut LifecycleSpan,
        plan: impl IntoIterator<Item = Vec<ControlOp>>,
    ) -> Shipped {
        let mut rpcs: Vec<Vec<ControlOp>> = plan.into_iter().collect();
        if self.channel.model.bulk && rpcs.len() > 1 {
            rpcs = vec![rpcs.into_iter().flatten().collect()];
        }
        let mut sent = Shipped::default();
        for rpc in rpcs {
            if sent.error.is_none() {
                let (out, retries) = self.apply_with_retry(&rpc);
                sent.results.extend(out.results);
                sent.error = out.error;
                span.update_delay_ns += out.cost.0;
                span.retries += retries;
            }
            sent.ops.extend(rpc);
        }
        for res in &sent.results {
            match res {
                OpResult::Inserted(_) => span.entries_written += 1,
                OpResult::Deleted => span.entries_revoked += 1,
                _ => {}
            }
        }
        self.needs_reconcile |= matches!(sent.error, Some(SimError::DeviceReset { .. }));
        sent
    }

    /// The one unwind: ship `cleanup` — the undo of a faulted install's
    /// applied prefix, or a wedged program's parked ops, one batch either
    /// way — between `rollback_begin` and `rollback_end`. Returns the
    /// leftover ops and the second fault if the cleanup itself faulted
    /// (short of a device reset, which finishes the job by wiping).
    fn unwind(
        &mut self,
        span: &mut LifecycleSpan,
        prog_id: u16,
        cleanup: impl IntoIterator<Item = Vec<ControlOp>>,
    ) -> Option<(Vec<ControlOp>, SimError)> {
        self.traced(|t| t.rollback_begin(prog_id));
        let sent = self.ship(span, cleanup);
        let undone = sent.results.len() as u64;
        span.rollback_ops += undone;
        self.fault_stats.rollback_ops += undone;
        let left = sent.unfinished();
        self.fault_stats.rollbacks += u64::from(left.is_none());
        self.traced(|t| t.rollback_end(prog_id, undone as u32, left.is_none()));
        left
    }

    /// Give back everything `claim` holds: the one path resources return
    /// by, whether a deploy failed, a revoke finished or a wedged program
    /// was retired.
    fn release(&mut self, claim: Claim) {
        for (rpb, offset, size) in claim.regions {
            self.resman.unlock_memory(rpb, offset, size);
        }
        for (rpb, n) in (1..).map(RpbId).zip(claim.entries) {
            self.resman.refund_entries(rpb, n);
        }
        self.resman.refund_init(claim.init);
        self.resman.refund_recirc(claim.recirc);
        if let Some(id) = claim.prog_id {
            self.free_ids.push(id);
        }
    }

    /// The front half of a deploy — parse, check, lower — with the
    /// wall-clock parse + check time. Touches neither the device nor the
    /// resource manager, so `update` runs it before it revokes anything.
    fn compile(&self, source: &str) -> CtlResult<(Vec<ProgramIr>, Duration)> {
        let t0 = Instant::now();
        let unit = parse(source).map_err(CompileError::from)?;
        check(&unit, &self.check_ctx).map_err(CompileError::from)?;
        self.check_filter_widths(&unit).map_err(CompileError::from)?;
        let parse_wall = t0.elapsed();
        let mems: Vec<MemDecl> = unit
            .annotations
            .iter()
            .map(|a| MemDecl { name: a.name.clone(), size: a.size as u32 })
            .collect();
        let irs = unit.programs.iter().map(|p| lower(p, &mems)).collect::<Result<_, _>>()?;
        Ok((irs, parse_wall))
    }

    /// Every filter literal must fit its field: the initialization table
    /// matches the field's bits only, so a wider value or mask would
    /// install a filter other than the one written. Fields the checker
    /// already refused are skipped.
    fn check_filter_widths(&self, unit: &SourceUnit) -> Result<(), Vec<LangError>> {
        let mut errs = Vec::new();
        for prog in &unit.programs {
            for f in &prog.filters {
                let Some(id) = self.dp.fields.lookup(&f.field) else {
                    continue;
                };
                let bits = self.switch.field_table().spec(id).bits;
                for (what, v) in [("value", f.value), ("mask", f.mask)] {
                    if bits < 64 && v >> bits != 0 {
                        errs.push(LangError::check(
                            format!("filter {what} {v} exceeds the {bits}-bit field `{}`", f.field),
                            prog.line,
                            1,
                        ));
                    }
                }
            }
        }
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
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

    /// Grant `ir` what its allocation asks for — the memory regions the
    /// solver placed, a program id, and (for the entries the shape cache
    /// generates) the init / recirculation / RPB budgets — and plan the
    /// install. Each grant is written into `claim` the moment it is made,
    /// so whichever step fails, the caller releases exactly that.
    ///
    /// The solver decided against the resource manager's own free state,
    /// so a region or an RPB entry it placed is refused only if that state
    /// changed in between: a stale view, reported, never repaired here.
    fn grant(
        &mut self,
        claim: &mut Claim,
        ir: &ProgramIr,
        allocation: &Allocation,
    ) -> CtlResult<(ProgramImage, Vec<Batch>)> {
        let stale = |what: String| CompileError::AllocationFailed {
            reason: format!("{what} is not free: stale resource view"),
        };
        for &(rpb, offset, size) in &allocation.regions {
            if !self.resman.take(rpb, offset, size) {
                return Err(stale(format!("RPB {} [{offset}, {})", rpb.0, offset + size)).into());
            }
            claim.regions.push((rpb, offset, size));
        }
        let prog_id = self.take_prog_id()?;
        claim.prog_id = Some(prog_id);
        let image = generate_cached(
            &mut self.entry_cache,
            ir,
            allocation,
            prog_id,
            &self.dp.fields,
            self.switch.field_table(),
        )?;

        // Charge entry budgets: initialization paths, the recirculation
        // block, and RPBs.
        let full = || {
            CompileError::InitTableFull { path: "initialization/recirculation block".into() }
        };
        if !self.resman.charge_init(1) {
            return Err(full().into());
        }
        claim.init = 1;
        if !self.resman.charge_recirc(image.recirc_ids.len()) {
            return Err(full().into());
        }
        claim.recirc = image.recirc_ids.len();
        for (rpb, _) in &image.rpb_entries {
            if !self.resman.charge_entries(*rpb, 1) {
                return Err(stale(format!("an entry of RPB {}", rpb.0)).into());
            }
            claim.entries[usize::from(rpb.0) - 1] += 1;
        }
        let plan = plan_install(&image, &self.dp, self.switch.field_table())?;
        Ok((image, plan))
    }

    /// Commit one lowered program to the data plane: allocate against the
    /// live resource view (Figure 7 timing), take the regions the solver
    /// placed, generate entries (through the shape cache), charge budgets,
    /// and install via the Figure 6 consistent batch order.
    fn commit(&mut self, ir: ProgramIr, parse_wall: Duration) -> CtlResult<DeployReport> {
        if self.programs.contains_key(&ir.name) || self.wedged.contains_key(&ir.name) {
            return Err(CtlError::DuplicateProgram(ir.name));
        }
        let t_alloc = Instant::now();
        let allocation = allocate(&ir, self.resman.alloc_view(), &self.alloc_cfg)?;
        let alloc_wall = t_alloc.elapsed();

        // Whatever a failed staging was granted goes straight back; a staged
        // program's claim is re-derived from its image from here on.
        let mut claim = Claim::default();
        let staged = self.grant(&mut claim, &ir, &allocation);
        let (image, plan) = staged.inspect_err(|_| self.release(claim))?;
        let (prog_id, depth, passes) = (image.prog_id, ir.depth(), image.passes);

        // Consistent install: program components first, filters last.
        let install = |ctl: &mut Controller, span: &mut LifecycleSpan| {
            span.parse_wall_ns = parse_wall.as_nanos() as u64;
            span.solver_wall_ns = alloc_wall.as_nanos() as u64;
            span.solver_nodes = allocation.nodes_explored;
            span.solver_truncated = allocation.truncated_solves;
            let boundary = plan[0].ops.len();
            let sent = ctl.ship(span, plan.into_iter().map(|b| b.ops));
            let [body_handles, filter_handles] = sent.inserted(boundary, Default::default());
            let Some(fault) = sent.error else {
                span.memory_claimed = ir.memories.iter().map(|m| u64::from(m.size)).sum();
                let handles = InstalledHandles { filter_handles, body_handles };
                let installed = InstalledProgram { image, handles };
                ctl.programs.insert(ir.name.clone(), installed);
                return Ok(());
            };
            // Mid-install fault. The filter activation is always the last
            // op of the plan, so the half-installed program was never
            // packet-visible; undoing the applied prefix (filters first,
            // then body in reverse) restores the device exactly, and a
            // device reset has already wiped it wholesale.
            ctl.fault_stats.deploy_faults += 1;
            let undo: Vec<ControlOp> = filter_handles
                .iter()
                .rev()
                .chain(body_handles.iter().rev())
                .map(|&(table, handle)| ControlOp::DeleteEntry { table, handle })
                .collect();
            let parked = if matches!(fault, SimError::DeviceReset { .. }) {
                None
            } else if undo.is_empty() {
                ctl.fault_stats.rollbacks += 1;
                None
            } else {
                // The undo mutates the data plane again: its own epoch.
                ctl.bump_epoch();
                ctl.unwind(span, prog_id, [undo])
            };
            let program = ir.name.clone();
            let Some((mut pending_ops, fault)) = parked else {
                ctl.release(Claim::of(&image));
                return Err(CtlError::DeployFault { program, fault });
            };
            // Double fault: park the leftovers, resources stay charged. The
            // regions were zero at grant time, but a partially active
            // filter could see traffic before the retry lands — reset them
            // as part of the parked cleanup.
            pending_ops.extend(reset_ops(&image));
            ctl.wedged.insert(ir.name.clone(), WedgedProgram { image, pending_ops });
            Err(CtlError::Wedged { program, fault })
        };
        self.bracket(Some(LifecycleKind::Deploy), &ir.name, prog_id, install, |span| DeployReport {
            name: span.program.clone(),
            prog_id,
            parse_wall,
            alloc_wall,
            alloc_nodes: span.solver_nodes,
            truncated_solves: span.solver_truncated,
            channel_wall: Duration::from_nanos(span.channel_wall_ns),
            update_delay: Nanos(span.update_delay_ns),
            entries_installed: span.entries_written as usize,
            depth,
            passes,
        })
    }

    /// Revoke a deployed program (Figure 6 left half): filters first, then
    /// components, then lock + reset + release its memory.
    ///
    /// Revoking a wedged program retries its parked cleanup instead.
    /// Idempotent: every call re-applies whatever is still pending (deletes
    /// whose handles a device reset already wiped are satisfied trivially
    /// and dropped); once the device is clean the program's resources are
    /// refunded and the name becomes free again. The two retirements
    /// differ only in where the pending ops come from.
    pub fn revoke(&mut self, name: &str) -> CtlResult<RevokeReport> {
        let parked = self.wedged.remove(name);
        let wedged = parked.is_some();
        let (image, plan): (_, Vec<Vec<ControlOp>>) = if let Some(w) = parked {
            let live = |op: &ControlOp| match op {
                ControlOp::DeleteEntry { table, handle } => {
                    self.switch.table(*table).is_ok_and(|t| t.contains(*handle))
                }
                _ => true,
            };
            (w.image, vec![w.pending_ops.into_iter().filter(live).collect()])
        } else {
            let installed = self
                .programs
                .remove(name)
                .ok_or_else(|| CtlError::NoSuchProgram(name.to_string()))?;
            // Lock regions before the reset batch touches them.
            for r in &installed.image.mem_regions {
                self.resman.lock_memory(r.rpb, r.offset, r.size);
            }
            // Filter deletions lead the plan, so the program stops matching
            // before any component disappears.
            let plan = plan_remove(&installed.image, &installed.handles);
            let plan = plan.into_iter().map(|b| b.ops).collect();
            (installed.image, plan)
        };
        let prog_id = image.prog_id;

        let retire = |ctl: &mut Controller, span: &mut LifecycleSpan| {
            let left = if wedged {
                ctl.unwind(span, prog_id, plan)
            } else {
                let sent = ctl.ship(span, plan);
                ctl.fault_stats.revoke_faults += u64::from(sent.error.is_some());
                sent.unfinished()
            };
            if let Some((pending_ops, fault)) = left {
                // Park the rest of the plan: the program's resources stay
                // charged (regions stay locked) until a retried revoke or
                // a reconcile retires it.
                ctl.wedged.insert(name.to_string(), WedgedProgram { image, pending_ops });
                return Err(CtlError::Wedged { program: name.to_string(), fault });
            }
            // Done — or a device reset finished the removal and zeroed the
            // locked regions: forward recovery, on to the refunds.
            span.memory_released = image.mem_regions.iter().map(|r| u64::from(r.size)).sum();
            ctl.release(Claim::of(&image));
            Ok(())
        };
        self.bracket(Some(LifecycleKind::Revoke), name, prog_id, retire, |span| RevokeReport {
            name: span.program.clone(),
            update_delay: Nanos(span.update_delay_ns),
        })
    }

    /// The one content match: every installed program's re-derived install
    /// plan (programs in name order) against the entries actually on the
    /// device. Returns the per-program matches and, in device order, the
    /// deletion of every entry no program claimed. [`Controller::audit`]
    /// counts the result, [`Controller::reconcile`] repairs from it.
    fn match_device(&self) -> CtlResult<(Vec<Matched>, Vec<ControlOp>)> {
        // Device entries a program has claimed (handles are switch-unique).
        let mut claimed: HashSet<EntryHandle> = HashSet::new();
        let mut names: Vec<&String> = self.programs.keys().collect();
        names.sort();
        let mut matched = Vec::with_capacity(names.len());
        for name in names {
            let image = &self.programs[name].image;
            let sections = plan_install(image, &self.dp, self.switch.field_table())?;
            let mut m = Matched { name: name.clone(), ..Matched::default() };
            for (sec, batch) in sections.into_iter().enumerate() {
                for op in batch.ops {
                    let ControlOp::InsertEntry { table, entry } = &op else { continue };
                    let mut on_device = self.switch.table(*table)?.iter_entries();
                    match on_device.find(|(h, e)| *e == entry && !claimed.contains(h)) {
                        Some((handle, _)) => {
                            claimed.insert(handle);
                            m.keep[sec].push((*table, handle));
                        }
                        None => m.missing[sec].push(op),
                    }
                }
            }
            matched.push(m);
        }
        let mut unclaimed: Vec<ControlOp> = Vec::new();
        for table in self.switch.table_refs() {
            for (handle, _) in self.switch.table(table)?.iter_entries() {
                if !claimed.contains(&handle) {
                    unclaimed.push(ControlOp::DeleteEntry { table, handle });
                }
            }
        }
        Ok((matched, unclaimed))
    }

    /// Audit the device against the resource manager's view: re-derive
    /// every installed program's install plan and content-match it against
    /// the entries actually on the device. Read-only; `reconcile()` is
    /// the mutating counterpart.
    pub fn audit(&self) -> CtlResult<AuditReport> {
        let (matched, unclaimed) = self.match_device()?;
        let sum = |f: fn(&Matched) -> usize| matched.iter().map(f).sum::<usize>();
        let present = sum(|m| m.keep[0].len() + m.keep[1].len());
        let missing = sum(|m| m.missing[0].len() + m.missing[1].len());
        Ok(AuditReport {
            expected: present + missing,
            present,
            missing,
            unexpected: unclaimed.len(),
            wedged: self.wedged.len(),
        })
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
        let mut wedged_cleared = 0;
        let repair = |ctl: &mut Controller, span: &mut LifecycleSpan| {
            // Retire wedged programs: refund now, sweep their leftover
            // entries as unclaimed below, and reset their regions in the
            // gc batch.
            let mut wedge_resets: Vec<ControlOp> = Vec::new();
            let mut wnames: Vec<String> = ctl.wedged.keys().cloned().collect();
            wnames.sort();
            for n in &wnames {
                let w = ctl.wedged.remove(n).expect("key was just listed");
                wedge_resets.extend(reset_ops(&w.image));
                ctl.release(Claim::of(&w.image));
                wedged_cleared += 1;
            }

            // Garbage-collect unclaimed entries (deterministic device
            // order) plus the retired wedged programs' register regions.
            let (matched, mut gc) = ctl.match_device()?;
            gc.extend(wedge_resets);
            if !gc.is_empty() {
                if let Some(f) = ctl.ship(span, [gc]).error {
                    // Partial sweep; the next pass finds the rest again.
                    return Err(CtlError::Sim(f));
                }
            }

            // Repair each surviving program and rebuild its handle record
            // from the claims plus the fresh inserts.
            for m in matched {
                let boundary = m.missing[0].len();
                // A section with nothing missing costs no RPC.
                let sent = ctl.ship(span, m.missing.into_iter().filter(|b| !b.is_empty()));
                let p = ctl.programs.get_mut(&m.name).expect("program is installed");
                [p.handles.body_handles, p.handles.filter_handles] = sent.inserted(boundary, m.keep);
                if let Some(f) = sent.error {
                    // Partially repaired: what landed is recorded, so the
                    // next pass claims it by content and continues from there.
                    return Err(CtlError::Sim(f));
                }
            }
            ctl.needs_reconcile = false;
            ctl.fault_stats.reconciles += 1;
            Ok(())
        };
        let rep = self.bracket(None, "", 0, repair, |span| ReconcileReport {
            reinstalled: span.entries_written as usize,
            deleted: span.entries_revoked as usize,
            wedged_cleared: 0,
            update_delay: Nanos(span.update_delay_ns),
        })?;
        Ok(ReconcileReport { wedged_cleared, ..rep })
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
