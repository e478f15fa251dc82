//! The adapter: every call the benchmark makes into the system under test
//! lives in this file (the README lists the API it relies on).
//!
//! Measured controllers are `Controller::with_defaults()` with no knob set,
//! except the three `enable_*` calls of [`Sut::observe`]. The shadows below
//! re-run the measured frames layer by layer on *copies* of the deployed
//! switch state, so layer times are taken from outside, around the layers'
//! public functions, while the measured controller stays untouched.

use crate::spans::Spans;
use crate::stats::Fingerprint;
use netpkt::{CacheOp, FiveTuple};
use p4rp_compiler::{allocate, lower, MemDecl};
use p4rp_ctl::{serve, Client, Controller, ServerConfig};
use p4rp_lang::{check, parse, CheckContext};
use p4rp_progs::{instance, instance_filter, sources, Family, WorkloadParams};
use rmt_sim::parser::Parser;
use rmt_sim::phv::{FieldTable, Phv};
use rmt_sim::pipeline::{Gress, Pipeline, StageLimits};
use rmt_sim::switch::{ArrayRef, ProcessOutcome, Switch};
use rmt_sim::tm::{decide, Verdict};
use rmt_sim::trace::TraceConfig;
use serde::Value;
use std::hint::black_box;
use std::net::{Ipv4Addr, TcpListener};
use std::thread::JoinHandle;

// ---------------------------------------------------------------------------
// Inputs the system's own libraries build: program sources and frames.
// ---------------------------------------------------------------------------

/// The twelve single-pass program families, in deployment round-robin order.
pub const SHALLOW: [&str; 12] =
    ["cache", "lb", "dqacc", "l2", "l3", "tun", "calc", "ecn", "cms", "bf", "sumax", "hll"];
/// The cheap-to-place subset the shallow churn draws from (solver ~ 12 us).
pub const CHURN: [&str; 7] = ["l2", "l3", "tun", "cms", "bf", "sumax", "hll"];
/// Depth 11-23, two passes: the allocation solver dominates.
pub const DEEP: [&str; 3] = ["hh", "nc", "fw"];

fn family(name: &str) -> Family {
    *Family::ALL.iter().find(|f| f.name() == name).expect("known program family")
}

/// Families whose programs read the NetCache header.
pub fn wants_netcache(family_name: &str) -> bool {
    matches!(family_name, "cache" | "nc" | "calc")
}

/// Source and name of instance `i` of a family (filter: exact destination
/// address [`instance_addr`]`(i)`).
pub fn program(family_name: &str, i: usize) -> (String, String) {
    let src = instance(family(family_name), i, WorkloadParams::default());
    (src, format!("{family_name}_{i:05}"))
}

/// The destination address instance `i`'s filter matches, read out of the
/// filter itself (`<hdr.ipv4.dst, a.b.c.d, 0xffffffff>`).
pub fn instance_addr(i: usize) -> Ipv4Addr {
    let filter = instance_filter(i);
    let addr = filter.split(',').nth(1).map(str::trim);
    addr.and_then(|a| a.parse().ok()).expect("instance filters match one destination address")
}

/// The NetCache case-study program: every frame to the cache port, one
/// resident key.
pub fn cache_program(key: u32) -> String {
    sources::cache("cache", "<hdr.udp.dst_port, 7777, 0xffff>", 1024, &[(key, 512)])
}

/// One wildcard program that forwards everything to port 1.
pub const FORWARD_ALL: &str = "program fwd(<hdr.ipv4.src, 0.0.0.0, 0x00000000>) { FORWARD(1); }";

pub fn plain_frame(tuple: &FiveTuple, payload: usize) -> Vec<u8> {
    traffic::frame_for(tuple, payload)
}

pub fn netcache_read(tuple: &FiveTuple, key: u64) -> Vec<u8> {
    traffic::netcache_frame(tuple, CacheOp::Read, key, 0)
}

// ---------------------------------------------------------------------------
// The measured controller.
// ---------------------------------------------------------------------------

/// What one successful deploy reported (the deterministic part, plus the
/// system's own channel-apply wall time).
#[derive(Debug, Clone, Copy, Default)]
pub struct DeployFacts {
    pub entries: u64,
    pub passes: u64,
    pub alloc_nodes: u64,
    pub sim_update_ns: u64,
    pub channel_wall_ns: u64,
}

impl DeployFacts {
    pub fn digest(&self, fp: &mut Fingerprint) {
        fp.u64(self.entries);
        fp.u64(self.passes);
        fp.u64(self.sim_update_ns);
    }
}

pub struct Sut {
    ctl: Controller,
    outcome: ProcessOutcome,
}

impl Sut {
    /// Provision a switch with the paper's defaults.
    pub fn new() -> Sut {
        let ctl = Controller::with_defaults().expect("default provisioning succeeds");
        Sut { ctl, outcome: ProcessOutcome::empty() }
    }

    pub fn deploy(&mut self, source: &str) -> Result<DeployFacts, String> {
        let reports = self.ctl.deploy(source).map_err(|e| e.to_string())?;
        let mut facts = DeployFacts::default();
        for r in &reports {
            facts.entries += r.entries_installed as u64;
            facts.passes += u64::from(r.passes);
            facts.alloc_nodes += r.alloc_nodes;
            facts.sim_update_ns += r.update_delay.0;
            facts.channel_wall_ns += r.channel_wall.as_nanos() as u64;
        }
        Ok(facts)
    }

    /// Revoke; returns the simulated device delay in ns.
    pub fn revoke(&mut self, name: &str) -> Result<u64, String> {
        self.ctl.revoke(name).map(|r| r.update_delay.0).map_err(|e| e.to_string())
    }

    /// One frame through the switch; the outcome is readable until the next
    /// call.
    #[inline]
    pub fn inject(&mut self, port: u16, frame: &[u8]) -> Result<&ProcessOutcome, String> {
        match self.ctl.inject_into(port, frame, &mut self.outcome) {
            Ok(()) => Ok(&self.outcome),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Telemetry, per-program attribution and the trace ring, all on: the
    /// only knobs ever set on a measured controller.
    pub fn observe(&mut self) {
        self.ctl.enable_telemetry();
        self.ctl.enable_attribution();
        self.ctl.enable_trace(TraceConfig { postmortem_dir: None, ..TraceConfig::default() });
    }

    /// Device content matches the resource manager's view.
    pub fn audit_clean(&self) -> bool {
        self.ctl.audit().is_ok_and(|a| a.clean())
    }

    /// `(events recorded, events dropped)` of the trace ring.
    pub fn trace_counts(&self) -> (u64, u64) {
        let s = self.ctl.trace_stats();
        (s.recorded, s.dropped)
    }

    /// `(hits, misses)` of the entry-template cache.
    pub fn entry_cache_counts(&self) -> (u64, u64) {
        self.ctl.entry_cache_stats()
    }

    /// Fold every port's counters, the drop count and the recirculation
    /// count into `fp`.
    pub fn digest_counters(&self, fp: &mut Fingerprint) {
        let sw = self.ctl.switch();
        for port in 0..sw.cfg.num_ports {
            let c = sw.port_counters(port).expect("port in range");
            for v in [c.rx_pkts, c.rx_bytes, c.tx_pkts, c.tx_bytes] {
                fp.u64(v);
            }
        }
        fp.u64(sw.drops);
        fp.u64(sw.recirc_passes);
    }

    /// A copy of the switch forced onto the priority-ordered scan: the
    /// semantic authority the output check replays against. Never timed.
    pub fn scan_authority(&self) -> ShadowSwitch {
        let mut shadow = self.shadow_switch();
        shadow.sw.set_indexed_all(false);
        shadow
    }

    /// A copy of the switch as deployed now, with every recorder off — also
    /// when the measured controller observes, so the difference between the
    /// two is what observing costs.
    pub fn shadow_switch(&self) -> ShadowSwitch {
        let mut sw = self.ctl.switch().clone();
        sw.disable_telemetry();
        sw.disable_trace();
        sw.clear_attribution_field();
        ShadowSwitch { sw, outcome: ProcessOutcome::empty() }
    }

    /// A copy of the switch that counts lookups, SALU accesses and verdicts
    /// with the system's own telemetry, from zero. Never timed.
    pub fn counting_switch(&self) -> ShadowSwitch {
        let mut shadow = self.shadow_switch();
        shadow.sw.enable_telemetry();
        shadow
    }

    /// Copies of the parser and both pipelines, to be driven layer by layer.
    pub fn layer_walk(&self) -> LayerWalk {
        LayerWalk::from_switch(self.ctl.switch())
    }

    /// The context `Controller::deploy` checks programs against.
    pub fn front_half(&self) -> FrontHalf {
        let mut ctx = CheckContext::with_fields(self.ctl.dataplane().fields.field_names());
        ctx.max_memory = u64::from(p4rp_dataplane::RPB_MEM_SIZE);
        FrontHalf { ctx }
    }
}

/// Everything a frame's fate consists of, folded to one word: emitted ports
/// and bytes, report copies, the drop flag, the pass count.
pub fn fate(outcome: &ProcessOutcome) -> u64 {
    let mut fp = Fingerprint::new();
    for (port, bytes) in &outcome.emitted {
        fp.u64(u64::from(*port) << 32 | bytes.len() as u64);
        fp.bytes(bytes);
    }
    for report in &outcome.reports {
        fp.u64(report.len() as u64);
        fp.bytes(report);
    }
    u64::from(fp.value())
        | u64::from(outcome.passes) << 32
        | u64::from(outcome.dropped) << 40
        | (outcome.emitted.len() as u64) << 41
}

/// Bytes a frame put on the wire (all replicas).
pub fn emitted_bytes(outcome: &ProcessOutcome) -> u64 {
    outcome.emitted.iter().map(|(_, b)| b.len() as u64).sum()
}

// ---------------------------------------------------------------------------
// Shadows of the deployed switch.
// ---------------------------------------------------------------------------

pub struct ShadowSwitch {
    sw: Switch,
    outcome: ProcessOutcome,
}

/// What the system's telemetry counted on a [`Sut::counting_switch`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FrameCounts {
    pub lookups: u64,
    pub hits: u64,
    pub salu_rmws: u64,
}

/// Table population and result-cache use across a switch's tables.
#[derive(Debug, Clone, Copy, Default)]
pub struct TableCounts {
    pub entries_max: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl ShadowSwitch {
    #[inline]
    pub fn process(&mut self, port: u16, frame: &[u8]) -> Result<&ProcessOutcome, String> {
        match self.sw.process_frame_into(port, frame, &mut self.outcome) {
            Ok(()) => Ok(&self.outcome),
            Err(e) => Err(e.to_string()),
        }
    }

    pub fn frame_counts(&self) -> FrameCounts {
        let Some(m) = self.sw.telemetry() else {
            return FrameCounts::default();
        };
        let (i, e) = (m.ingress.total(), m.egress.total());
        let hits = i.hits.get() + e.hits.get();
        FrameCounts {
            lookups: hits + i.misses.get() + e.misses.get(),
            hits,
            salu_rmws: i.salu_reads.get() + e.salu_reads.get(),
        }
    }

    pub fn table_counts(&self) -> TableCounts {
        let mut c = TableCounts::default();
        for t in self.sw.table_index_stats() {
            c.entries_max = c.entries_max.max(t.entries);
            c.cache_hits += t.cache_hits;
            c.cache_misses += t.cache_misses;
        }
        c
    }
}

/// Frames per timed layer span: the clock is read once per batch per layer.
pub const BATCH: usize = 256;

/// Which spans a [`LayerWalk::walk`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkMode {
    /// Frame-major, as the switch runs: `parser.parse`, `pipeline.ingress`,
    /// `tm.decide`, `pipeline.egress`, `parser.deparse`.
    Layers,
    /// Stage-major (equivalent on a feed-forward pipeline): `table.lookup`
    /// is timed alone, once per stage, ahead of the stage's execution.
    Lookups,
}

/// The parser and both pipelines of a deployed switch, rebuilt from its
/// read-only accessors, holding a batch of PHVs between layers.
pub struct LayerWalk {
    ft: FieldTable,
    parser: Parser,
    ingress: Pipeline,
    egress: Pipeline,
    recirc_port: u16,
    max_recirc: u8,
    phvs: Vec<Phv>,
    bufs: Vec<Vec<u8>>,
    payload_at: Vec<usize>,
    verdicts: Vec<Verdict>,
    spare: Vec<u8>,
    live: Vec<usize>,
}

fn copy_pipeline(sw: &Switch, gress: Gress) -> Pipeline {
    let refs: Vec<_> = sw.table_refs().into_iter().filter(|r| r.gress == gress).collect();
    let stages = refs.iter().map(|r| r.stage + 1).max().unwrap_or(0);
    let mut pipe = Pipeline::new(gress, stages, StageLimits::default());
    for r in refs {
        let table = sw.table(r).expect("listed table exists").clone();
        pipe.stages[r.stage].add_table(table);
    }
    for (stage, s) in pipe.stages.iter_mut().enumerate() {
        let mut array = 0;
        while let Ok(a) = sw.array(ArrayRef { gress, stage, array }) {
            s.add_array(a.clone());
            array += 1;
        }
    }
    pipe
}

impl LayerWalk {
    fn from_switch(sw: &Switch) -> LayerWalk {
        let ft = sw.field_table().clone();
        LayerWalk {
            phvs: vec![Phv::new(&ft); BATCH],
            ft,
            parser: sw.parser().clone(),
            ingress: copy_pipeline(sw, Gress::Ingress),
            egress: copy_pipeline(sw, Gress::Egress),
            recirc_port: sw.cfg.recirc_port,
            max_recirc: sw.cfg.max_recirc,
            bufs: vec![Vec::new(); BATCH],
            payload_at: vec![0; BATCH],
            verdicts: vec![Verdict::Drop; BATCH],
            spare: Vec::new(),
            live: Vec::with_capacity(BATCH),
        }
    }

    fn run_pipeline(
        &mut self,
        gress: Gress,
        mode: WalkMode,
        spans: &mut Spans,
        track: u8,
        op: u64,
    ) -> Result<(), String> {
        let (pipe, name) = match gress {
            Gress::Ingress => (&mut self.ingress, "pipeline.ingress"),
            Gress::Egress => (&mut self.egress, "pipeline.egress"),
        };
        match mode {
            WalkMode::Layers => {
                let s = spans.begin(track, name, op);
                for &i in &self.live {
                    pipe.process(&self.ft, &mut self.phvs[i]).map_err(|e| e.to_string())?;
                }
                spans.end(s);
            }
            WalkMode::Lookups => {
                for stage in &mut pipe.stages {
                    let s = spans.begin(track, "table.lookup", op);
                    for &i in &self.live {
                        for table in &mut stage.tables {
                            black_box(table.lookup(&self.phvs[i]).map(|r| r.hit));
                        }
                    }
                    spans.end(s);
                    for &i in &self.live {
                        stage.execute(&self.ft, &mut self.phvs[i]).map_err(|e| e.to_string())?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Run up to [`BATCH`] frames through parse -> ingress -> TM -> egress
    /// -> deparse, a layer at a time, following recirculations pass by pass.
    /// Returns the number of pipeline passes made.
    pub fn walk<'a>(
        &mut self,
        frames: impl Iterator<Item = (u16, &'a [u8])>,
        mode: WalkMode,
        spans: &mut Spans,
        track: u8,
        op: u64,
    ) -> Result<u64, String> {
        let timed = mode == WalkMode::Layers;
        let intr = self.ft.intrinsics();
        self.live.clear();
        let mut ports = [0u16; BATCH];
        for (i, (port, frame)) in frames.take(BATCH).enumerate() {
            self.bufs[i].clear();
            self.bufs[i].extend_from_slice(frame);
            ports[i] = port;
            self.live.push(i);
        }
        let root = spans.begin(track, if timed { "walk.layers" } else { "walk.lookups" }, op);
        let mut passes = 0u64;
        let mut pass = 0u8;
        while !self.live.is_empty() {
            pass += 1;
            passes += self.live.len() as u64;
            let from_recirc = pass > 1;

            let s = timed.then(|| spans.begin(track, "parser.parse", op));
            let mut rejected = false;
            for &i in &self.live {
                let phv = &mut self.phvs[i];
                phv.reset_for(&self.ft);
                match self.parser.parse(&self.ft, &self.bufs[i], phv, from_recirc) {
                    Ok(p) => {
                        self.payload_at[i] = p.payload_offset;
                        let port = if from_recirc { self.recirc_port } else { ports[i] };
                        phv.set(&self.ft, intr.ingress_port, u64::from(port));
                    }
                    Err(_) => {
                        self.payload_at[i] = usize::MAX;
                        rejected = true;
                    }
                }
            }
            if let Some(s) = s {
                spans.end(s);
            }
            if rejected {
                let payload_at = &self.payload_at;
                self.live.retain(|&i| payload_at[i] != usize::MAX);
            }

            self.run_pipeline(Gress::Ingress, mode, spans, track, op)?;

            let s = timed.then(|| spans.begin(track, "tm.decide", op));
            for &i in &self.live {
                self.verdicts[i] = decide(&self.ft, &self.phvs[i]).verdict;
            }
            if let Some(s) = s {
                spans.end(s);
            }

            self.run_pipeline(Gress::Egress, mode, spans, track, op)?;

            // Dropped frames are never rebuilt; everything else is, either
            // for the wire or for the next pass.
            let s = timed.then(|| spans.begin(track, "parser.deparse", op));
            for &i in &self.live {
                if self.verdicts[i] == Verdict::Drop {
                    continue;
                }
                let payload = &self.bufs[i][self.payload_at[i]..];
                self.parser.deparse_into(&self.ft, &self.phvs[i], payload, &mut self.spare);
                std::mem::swap(&mut self.bufs[i], &mut self.spare);
            }
            if let Some(s) = s {
                spans.end(s);
            }

            let (verdicts, again) = (&self.verdicts, pass <= self.max_recirc);
            self.live.retain(|&i| again && verdicts[i] == Verdict::Recirculate);
        }
        spans.end(root);
        Ok(passes)
    }
}

// ---------------------------------------------------------------------------
// The front half of a deploy, a layer at a time.
// ---------------------------------------------------------------------------

pub struct FrontHalf {
    ctx: CheckContext,
}

impl FrontHalf {
    /// Parse, check, lower and allocate `source` against the controller's
    /// live resource view, exactly as `Controller::deploy` is about to,
    /// recording one span per layer. Installs nothing. Returns the solver's
    /// node count.
    pub fn run(
        &self,
        sut: &Sut,
        source: &str,
        spans: &mut Spans,
        track: u8,
        op: u64,
    ) -> Result<u64, String> {
        let root = spans.begin(track, "deploy.front_half", op);
        let s = spans.begin(track, "lang.parse", op);
        let unit = parse(source).map_err(|e| e.to_string())?;
        spans.end(s);

        let s = spans.begin(track, "lang.check", op);
        check(&unit, &self.ctx).map_err(|e| format!("{e:?}"))?;
        spans.end(s);

        let s = spans.begin(track, "compiler.lower", op);
        let mems: Vec<MemDecl> = unit
            .annotations
            .iter()
            .map(|a| MemDecl { name: a.name.clone(), size: a.size as u32 })
            .collect();
        let irs = unit
            .programs
            .iter()
            .map(|p| lower(p, &mems))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        spans.end(s);

        let s = spans.begin(track, "compiler.alloc", op);
        let mut nodes = 0;
        for ir in &irs {
            let view = sut.ctl.resources().alloc_view();
            let a = allocate(ir, view, sut.ctl.alloc_config()).map_err(|e| e.to_string())?;
            nodes += black_box(a).nodes_explored;
        }
        spans.end(s);
        spans.end(root);
        Ok(nodes)
    }
}

// ---------------------------------------------------------------------------
// The loopback server.
// ---------------------------------------------------------------------------

/// What the server counted over its lifetime.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerCounts {
    /// Requests admitted to the service queue.
    pub requests: u64,
    /// Service ticks that executed at least one request.
    pub ticks: u64,
    /// Connections and requests refused or malformed.
    pub rejected: u64,
    /// Requests that executed and failed.
    pub failed: u64,
}

pub struct Server {
    pub addr: String,
    /// `None` once drained.
    handle: Option<JoinHandle<Result<(ServerCounts, Sut), String>>>,
}

impl Server {
    /// Hand the controller to `server::serve` on a loopback port, with
    /// `ServerConfig::default()`.
    pub fn start(mut sut: Sut) -> Result<Server, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?.to_string();
        let handle = std::thread::spawn(move || {
            let s = serve(&mut sut.ctl, listener, &ServerConfig::default())
                .map_err(|e| e.to_string())?;
            let counts = ServerCounts {
                requests: s.requests,
                ticks: s.batches,
                rejected: s.rejected_max_clients
                    + s.rejected_busy
                    + s.rejected_rate_limited
                    + s.rejected_timeout
                    + s.rejected_draining
                    + s.parse_errors,
                failed: s.responses_err,
            };
            Ok((counts, sut))
        });
        Ok(Server { addr, handle: Some(handle) })
    }

    fn stop(&mut self) -> Result<(ServerCounts, Sut), String> {
        let handle = self.handle.take().ok_or("server already drained")?;
        let asked = ServerClient::connect(&self.addr).and_then(|mut c| c.shutdown());
        let joined = handle.join().map_err(|_| "server thread panicked".to_string())?;
        asked.and(joined)
    }

    /// Ask the server to drain, wait for its threads, and take the counters
    /// and the controller back.
    pub fn drain(mut self) -> Result<(ServerCounts, Sut), String> {
        self.stop()
    }
}

impl Drop for Server {
    /// A server that was never drained is drained here, so no thread
    /// outlives the benchmark whatever path it takes out.
    fn drop(&mut self) {
        if self.handle.is_some() {
            let _ = self.stop();
        }
    }
}

pub struct ServerClient(Client);

impl ServerClient {
    pub fn connect(addr: &str) -> Result<ServerClient, String> {
        Client::connect(addr).map(ServerClient).map_err(|e| e.to_string())
    }

    /// Raw reply line of a deploy request; pass it to [`reply_ok`] or
    /// [`reply_sim_update_ns`] outside the timed interval.
    #[inline]
    pub fn deploy(&mut self, source: &str) -> Result<String, String> {
        self.0.deploy(source).map_err(|e| e.to_string())
    }

    #[inline]
    pub fn revoke(&mut self, name: &str) -> Result<String, String> {
        self.0.revoke(name).map_err(|e| e.to_string())
    }

    #[inline]
    pub fn ping(&mut self) -> Result<String, String> {
        self.0.ping().map_err(|e| e.to_string())
    }

    pub fn shutdown(&mut self) -> Result<String, String> {
        self.0.shutdown().map_err(|e| e.to_string())
    }
}

/// The reply says the operation executed and succeeded (not refused with
/// `busy` / `rate_limited` / `timeout` / `draining`, not failed).
pub fn reply_ok(reply: &str) -> bool {
    serde::json::parse(reply).is_ok_and(|doc| doc.get("ok") == Some(&Value::Bool(true)))
}

/// Sum of the simulated update delays a deploy reply reports, in ns.
pub fn reply_sim_update_ns(reply: &str) -> u64 {
    let Ok(doc) = serde::json::parse(reply) else {
        return 0;
    };
    let reports = doc.get("reports").and_then(Value::as_array).unwrap_or(&[]);
    reports
        .iter()
        .map(|r| match r.get("update_delay_ns") {
            Some(Value::U64(n)) => *n,
            _ => 0,
        })
        .sum()
}
