//! The eight workloads: set-up, the timed closed loop, the traced loop, and
//! the output check.
//!
//! An untraced run times the workload's own operation and nothing else. A
//! traced run re-runs every measured batch layer by layer on shadows of the
//! deployed switch (see `sut.rs`) and holds the spans in memory. So that
//! every layer has a live number in every traced run, the paths a workload
//! does not exercise itself are measured for a short slice of the run on
//! their reference fixture: `frames_cache_hit`, `deploy_shallow`,
//! `server_churn`, with the same seed.

use crate::gen::{self, DeployInputs, FrameInputs, Program, CHECK_FRAMES};
use crate::spans::Spans;
use crate::spec::{Class, Workload};
use crate::stats::{self, Fingerprint};
use crate::sut::{
    self, DeployFacts, FrontHalf, Server, ServerClient, ServerCounts, ShadowSwitch, Sut, WalkMode,
    BATCH,
};
use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::Instant;

/// Set-ups per run for the light workloads; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;
/// Batches per throughput window of a frame workload (16 384 frames).
const WINDOW: usize = 64;
/// `peak_rss_mib` is read once this many operations of the timed section are
/// done (or at its end, if that comes first), so that memory which grows
/// with every operation reads the same however fast the host is.
const RSS_AFTER_WINDOWS: usize = 32;
const RSS_AFTER_ROUNDS_SHALLOW: usize = 2048;
const RSS_AFTER_ROUNDS_DEEP: usize = 8;
const RSS_AFTER_ROUNDS_SERVER: usize = 1024;
/// `frames_1k_churn`: one deploy+revoke every this many batches (1024 frames).
const CHURN_EVERY: usize = 4;
/// Share of a traced run given to the workload's own section; the paths it
/// does not exercise share the rest.
const PRIMARY_SHARE: f64 = 0.7;
/// Pings per client ahead of the traced server loop.
const PINGS: usize = 64;

// Span tracks.
const MEASURED: u8 = 0;
const SHADOW_SWITCH: u8 = 1;
const LAYER_WALK: u8 = 2;
const LOOKUP_WALK: u8 = 3;
const FRONT_HALF: u8 = 4;
const CLIENT0: u8 = 10;

/// What one run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Facts for the human report that are not contract metrics.
    pub notes: BTreeMap<&'static str, f64>,
    pub spans: Option<Spans>,
}

/// Operations attempted and failed; the first failure is described on
/// stderr.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn op<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(&e);
                None
            }
        }
    }

    fn fail(&mut self, why: &str) {
        if self.failed == 0 {
            eprintln!("p4rp_bench: first failed operation: {why}");
        }
        self.failed += 1;
    }

    fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Run `setup` `reps` times (dropping each result before the next set-up),
/// keep the last result, report the median duration in seconds.
fn repeat_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), stats::median(&times))
}

/// What the timed section of an untraced run measured.
#[derive(Debug, Default)]
struct Timed {
    /// Mean host ns per operation, one sample per batch of 256 frames or per
    /// round of deploys (each family once).
    op_ns: Vec<f64>,
    /// Operations per second of wall time, one sample per window (64 batches
    /// or one round), everything between the operations included: revokes,
    /// churn, the loop itself.
    window_ops_per_s: Vec<f64>,
    /// `VmHWM` at the fixed operation count, once reached.
    rss_mib: Option<f64>,
}

impl Timed {
    /// `streams`: closed loops running side by side (server clients); their
    /// window rates add up.
    fn end_to_end(&self, streams: usize, setup_s: f64) -> BTreeMap<&'static str, f64> {
        BTreeMap::from([
            ("op_ns_p50", stats::median(&self.op_ns)),
            ("ops_per_s", stats::median(&self.window_ops_per_s) * streams as f64),
            ("peak_rss_mib", self.rss_mib.unwrap_or_else(stats::peak_rss_mib)),
            ("setup_s", setup_s),
        ])
    }
}

fn op_notes(op_ns: &[f64], fp: Fingerprint) -> BTreeMap<&'static str, f64> {
    let (pct, tail) = stats::tail(op_ns);
    BTreeMap::from([
        ("sim.fingerprint", f64::from(fp.value())),
        ("op_samples", op_ns.len() as f64),
        ("op_ns_tail", tail),
        ("op_tail_percentile", pct),
    ])
}

// ---------------------------------------------------------------------------
// Frames.
// ---------------------------------------------------------------------------

struct FrameState {
    inputs: FrameInputs,
    sut: Sut,
    tally: Tally,
    fp: Fingerprint,
}

fn deploy_all(sut: &mut Sut, programs: &[Program], tally: &mut Tally, fp: &mut Fingerprint) {
    for (source, _) in programs {
        if let Some(facts) = tally.op(sut.deploy(source)) {
            facts.digest(fp);
        }
    }
}

fn frame_setup(name: &str, seed: u64) -> FrameState {
    let inputs = gen::frame_inputs(name, seed);
    let (mut sut, mut tally, mut fp) = (Sut::new(), Tally::default(), Fingerprint::new());
    deploy_all(&mut sut, &inputs.residents, &mut tally, &mut fp);
    if name == "frames_observed" {
        sut.observe();
    }
    FrameState { inputs, sut, tally, fp }
}

/// Inject the leading [`CHECK_FRAMES`] frames untimed (they are the warm-up
/// too), fingerprint their fates and the port counters they leave, and keep
/// a scan-forced copy of the pre-traffic switch to replay them on later.
fn check_phase(st: &mut FrameState) -> (ShadowSwitch, Vec<u64>) {
    let scan = st.sut.scan_authority();
    let mut fates = Vec::with_capacity(CHECK_FRAMES);
    for (port, frame) in st.inputs.frames.window(0, CHECK_FRAMES) {
        let fate = st.tally.op(st.sut.inject(port, frame).map(sut::fate)).unwrap_or(0);
        st.fp.u64(fate);
        fates.push(fate);
    }
    st.sut.digest_counters(&mut st.fp);
    (scan, fates)
}

/// The output check: the indexed switch and the scan authority must have
/// given every checked frame a bit-identical fate.
fn verify_fates(mut scan: ShadowSwitch, fates: &[u64], st: &mut FrameState) {
    for (i, (port, frame)) in st.inputs.frames.window(0, CHECK_FRAMES).enumerate() {
        st.tally.attempted += 1;
        match scan.process(port, frame).map(sut::fate) {
            Ok(f) if f == fates[i] => {}
            Ok(_) => st.tally.fail(&format!("frame {i}: fate differs from the scan authority")),
            Err(e) => st.tally.fail(&e),
        }
    }
    if !st.inputs.churn.is_empty() && !st.sut.audit_clean() {
        st.tally.fail("audit not clean after churn");
    }
}

fn churn_due(inputs: &FrameInputs, batches_done: usize) -> Option<&Program> {
    (!inputs.churn.is_empty() && batches_done.is_multiple_of(CHURN_EVERY))
        .then(|| &inputs.churn[(batches_done / CHURN_EVERY - 1) % inputs.churn.len()])
}

fn frames_untraced(w: &Workload, seed: u64, seconds: f64) -> Report {
    let reps = if w.name.starts_with("frames_1k") { 1 } else { SETUP_REPEATS };
    let (mut st, setup_s) = repeat_setup(reps, || frame_setup(w.name, seed));
    let (scan, fates) = check_phase(&mut st);

    let mut timed = Timed::default();
    let mut batches = 0usize;
    let start = Instant::now();
    let mut window_start = start;
    loop {
        let t = Instant::now();
        for (port, frame) in st.inputs.frames.window(CHECK_FRAMES + batches * BATCH, BATCH) {
            if let Err(e) = st.sut.inject(port, frame) {
                st.tally.fail(&e);
            }
        }
        timed.op_ns.push(t.elapsed().as_nanos() as f64 / BATCH as f64);
        batches += 1;
        if let Some((source, name)) = churn_due(&st.inputs, batches) {
            st.tally.op(st.sut.deploy(source));
            st.tally.op(st.sut.revoke(name));
        }
        if batches.is_multiple_of(WINDOW) {
            let now = Instant::now();
            let window_s = (now - window_start).as_secs_f64();
            timed.window_ops_per_s.push((WINDOW * BATCH) as f64 / window_s);
            window_start = now;
            if batches == RSS_AFTER_WINDOWS * WINDOW {
                timed.rss_mib = Some(stats::peak_rss_mib());
            }
            if (now - start).as_secs_f64() >= seconds {
                break;
            }
        }
    }
    st.tally.attempted += (batches * BATCH) as u64;
    let metrics = timed.end_to_end(1, setup_s);

    verify_fates(scan, &fates, &mut st);
    Report {
        attempted: st.tally.attempted,
        failed: st.tally.failed,
        metrics,
        notes: op_notes(&timed.op_ns, st.fp),
        spans: None,
    }
}

// ---------------------------------------------------------------------------
// Deploys.
// ---------------------------------------------------------------------------

struct DeployState {
    inputs: DeployInputs,
    sut: Sut,
    tally: Tally,
    fp: Fingerprint,
}

fn deploy_setup(deep: bool, seed: u64) -> DeployState {
    let inputs = gen::deploy_inputs(deep, seed);
    let (mut sut, mut tally, mut fp) = (Sut::new(), Tally::default(), Fingerprint::new());
    deploy_all(&mut sut, &inputs.residents, &mut tally, &mut fp);
    DeployState { inputs, sut, tally, fp }
}

/// What the deploy cycles of a run reported, in order.
#[derive(Debug, Default)]
struct DeployLog {
    facts: Vec<DeployFacts>,
    /// Heap allocations inside `Controller::deploy` calls.
    allocs: u64,
}

impl DeployLog {
    /// The figures that repeat exactly for a seed, taken over the first
    /// round of the stream: solver nodes (sum) and the median simulated
    /// update delay in us.
    fn exact(&self, round: usize) -> (f64, f64) {
        let first = &self.facts[..round.min(self.facts.len())];
        let nodes: u64 = first.iter().map(|f| f.alloc_nodes).sum();
        let sim: Vec<f64> = first.iter().map(|f| f.sim_update_ns as f64 / 1e3).collect();
        (nodes as f64, stats::median(&sim))
    }
}

/// The warm-up round: one untimed pass over the first round of the stream,
/// folded into the fingerprint.
fn deploy_warmup(st: &mut DeployState) -> DeployLog {
    let mut log = DeployLog::default();
    for (source, name) in &st.inputs.cycles[..st.inputs.round] {
        if let Some(facts) = st.tally.op(st.sut.deploy(source)) {
            facts.digest(&mut st.fp);
            log.facts.push(facts);
        }
        if let Some(sim_ns) = st.tally.op(st.sut.revoke(name)) {
            st.fp.u64(sim_ns);
        }
    }
    log
}

fn deploy_untraced(w: &Workload, seed: u64, seconds: f64) -> Report {
    let deep = w.name == "deploy_deep";
    let (mut st, setup_s) = repeat_setup(SETUP_REPEATS, || deploy_setup(deep, seed));
    deploy_warmup(&mut st);

    let rss_after = if deep { RSS_AFTER_ROUNDS_DEEP } else { RSS_AFTER_ROUNDS_SHALLOW };
    let mut timed = Timed::default();
    let mut rounds = 0usize;
    let start = Instant::now();
    // Whole rounds only: every family weighs the same in every sample.
    while start.elapsed().as_secs_f64() < seconds {
        let round_start = Instant::now();
        let mut deploy_ns = 0.0;
        for k in rounds * st.inputs.round..(rounds + 1) * st.inputs.round {
            let (source, name) = &st.inputs.cycles[k % st.inputs.cycles.len()];
            let t = Instant::now();
            let deployed = st.sut.deploy(source);
            deploy_ns += t.elapsed().as_nanos() as f64;
            st.tally.op(deployed);
            st.tally.op(st.sut.revoke(name));
        }
        let round = st.inputs.round as f64;
        timed.op_ns.push(deploy_ns / round);
        timed.window_ops_per_s.push(round / round_start.elapsed().as_secs_f64());
        rounds += 1;
        if rounds == rss_after {
            timed.rss_mib = Some(stats::peak_rss_mib());
        }
    }
    let metrics = timed.end_to_end(1, setup_s);
    if !st.sut.audit_clean() {
        st.tally.fail("audit not clean after the deploy stream");
    }
    st.tally.attempted += 1;
    Report {
        attempted: st.tally.attempted,
        failed: st.tally.failed,
        metrics,
        notes: op_notes(&timed.op_ns, st.fp),
        spans: None,
    }
}

// ---------------------------------------------------------------------------
// Server.
// ---------------------------------------------------------------------------

/// Closed-loop clients of the server workload: `min(nproc, 2)`.
pub fn client_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

/// A served controller with its clients connected. Dropping it drains the
/// server (clients first, so their sessions are already closed).
struct ServerState {
    inputs: DeployInputs,
    clients: Vec<ServerClient>,
    server: Server,
    tally: Tally,
    fp: Fingerprint,
}

fn server_setup(seed: u64) -> ServerState {
    let DeployState { inputs, sut, tally, fp } = deploy_setup(false, seed);
    let server = Server::start(sut).expect("loopback listener binds");
    let clients = (0..client_count())
        .map(|_| ServerClient::connect(&server.addr).expect("loopback client connects"))
        .collect();
    ServerState { inputs, clients, server, tally, fp }
}

/// Drain the server and take the controller back; refusals, failed requests
/// and a dirty audit all count as failed operations.
fn server_drain(server: Server, tally: &mut Tally) -> Option<(ServerCounts, Sut)> {
    tally.attempted += 1;
    match server.drain() {
        Ok((counts, sut)) => {
            if counts.rejected + counts.failed > 0 {
                tally.fail(&format!("server refused or failed requests: {counts:?}"));
            } else if !sut.audit_clean() {
                tally.fail("audit not clean after the server drained");
            }
            Some((counts, sut))
        }
        Err(e) => {
            tally.fail(&e);
            None
        }
    }
}

#[derive(Debug, Default)]
struct ClientOut {
    /// Per round: mean request-to-reply time of the deploys, and cycles per
    /// second.
    timed: Timed,
    sim_update_us: Vec<f64>,
    tally: Tally,
    spans: Option<Spans>,
}

/// One closed-loop client: rounds `c, c + n, c + 2n, ...` of the stream,
/// deploy then revoke, next request only after the reply. The first round
/// is warm-up; all clients start the timed part together.
fn client_loop(
    client: &mut ServerClient,
    (c, n): (usize, usize),
    inputs: &DeployInputs,
    seconds: f64,
    barrier: &Barrier,
    mut spans: Option<Spans>,
) -> ClientOut {
    let mut out = ClientOut::default();
    let rounds = inputs.cycles.len() / inputs.round;
    let track = CLIENT0 + c as u8;
    if let Some(sp) = spans.as_mut() {
        for i in 0..PINGS {
            let s = sp.begin(track, "server.ping", i as u64);
            let reply = client.ping();
            sp.end(s);
            out.tally.op(reply);
        }
    }
    // One round; returns the summed request-to-reply time of its deploys.
    let mut run_round = |round: usize, out: &mut ClientOut, spans: &mut Option<Spans>| {
        let mut deploy_ns = 0.0;
        for k in round * inputs.round..(round + 1) * inputs.round {
            let (source, name) = &inputs.cycles[k];
            let s = spans.as_mut().map(|sp| sp.begin(track, "server.deploy", k as u64));
            let t = Instant::now();
            let reply = client.deploy(source);
            deploy_ns += t.elapsed().as_nanos() as f64;
            if let (Some(sp), Some(s)) = (spans.as_mut(), s) {
                sp.end(s);
            }
            if let Some(reply) = out.tally.op(reply) {
                if !sut::reply_ok(&reply) {
                    out.tally.fail(&reply);
                }
                out.sim_update_us.push(sut::reply_sim_update_ns(&reply) as f64 / 1e3);
            }
            let s = spans.as_mut().map(|sp| sp.begin(track, "server.revoke", k as u64));
            let reply = client.revoke(name);
            if let (Some(sp), Some(s)) = (spans.as_mut(), s) {
                sp.end(s);
            }
            if let Some(reply) = out.tally.op(reply) {
                if !sut::reply_ok(&reply) {
                    out.tally.fail(&reply);
                }
            }
        }
        deploy_ns
    };

    let mut round = c % rounds;
    run_round(round, &mut out, &mut spans);
    barrier.wait();
    let start = Instant::now();
    let mut done = 0usize;
    while start.elapsed().as_secs_f64() < seconds {
        round = (round + n) % rounds;
        let round_start = Instant::now();
        let deploy_ns = run_round(round, &mut out, &mut spans);
        let per_round = inputs.round as f64;
        out.timed.op_ns.push(deploy_ns / per_round);
        out.timed.window_ops_per_s.push(per_round / round_start.elapsed().as_secs_f64());
        done += 1;
        if done == RSS_AFTER_ROUNDS_SERVER {
            out.timed.rss_mib = Some(stats::peak_rss_mib());
        }
    }
    out.spans = spans;
    out
}

/// What the client threads of one server run measured, merged.
struct ServerRun {
    timed: Timed,
    clients: usize,
    sim_update_us: Vec<f64>,
    /// The server's counters and the controller, once drained.
    drained: Option<(ServerCounts, Sut)>,
}

fn server_run(st: ServerState, seconds: f64, spans: Option<&mut Spans>) -> (ServerRun, Tally) {
    let ServerState { inputs, mut clients, server, mut tally, .. } = st;
    let n = clients.len();
    let barrier = Barrier::new(n);
    let origin = spans.as_ref().map(|s| s.origin());
    let outs: Vec<ClientOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let (inputs, barrier) = (&inputs, &barrier);
                scope.spawn(move || {
                    client_loop(client, (c, n), inputs, seconds, barrier, origin.map(Spans::new))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    drop(clients);

    let mut run =
        ServerRun { timed: Timed::default(), clients: n, sim_update_us: Vec::new(), drained: None };
    // The process-wide peak once every client has done its share.
    run.timed.rss_mib = outs.iter().try_fold(0.0f64, |m, o| o.timed.rss_mib.map(|r| m.max(r)));
    let mut spans = spans;
    for out in outs {
        run.timed.op_ns.extend(out.timed.op_ns);
        run.timed.window_ops_per_s.extend(out.timed.window_ops_per_s);
        run.sim_update_us.extend(out.sim_update_us);
        tally.add(out.tally);
        if let (Some(all), Some(own)) = (spans.as_deref_mut(), out.spans) {
            all.absorb(own);
        }
    }
    run.drained = server_drain(server, &mut tally);
    (run, tally)
}

fn server_untraced(seed: u64, seconds: f64) -> Report {
    let (st, setup_s) = repeat_setup(SETUP_REPEATS, || server_setup(seed));
    let fp = st.fp;
    let (run, tally) = server_run(st, seconds, None);
    Report {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: run.timed.end_to_end(run.clients, setup_s),
        notes: op_notes(&run.timed.op_ns, fp),
        spans: None,
    }
}

// ---------------------------------------------------------------------------
// Traced sections.
// ---------------------------------------------------------------------------

type Layers = BTreeMap<&'static str, f64>;

/// What a traced section hands back besides the layer metrics it filled in.
struct Section {
    tally: Tally,
    fp: Fingerprint,
    /// Per-operation times of the measured operation under tracing.
    op_ns: Vec<f64>,
}

/// One traced deploy+revoke: the front half layer by layer on its own
/// track, then the real `Controller::deploy` and `revoke` on the measured
/// one.
fn traced_cycle(
    sut: &mut Sut,
    front: &FrontHalf,
    (source, name): &Program,
    spans: &mut Spans,
    op: u64,
    log: &mut DeployLog,
    tally: &mut Tally,
) -> f64 {
    tally.op(front.run(sut, source, spans, FRONT_HALF, op));
    let s = spans.begin(MEASURED, "ctl.deploy", op);
    let a0 = stats::allocations();
    let deployed = sut.deploy(source);
    log.allocs += stats::allocations() - a0;
    let ns = spans.end(s) as f64;
    if let Some(facts) = tally.op(deployed) {
        log.facts.push(facts);
    }
    let s = spans.begin(MEASURED, "ctl.revoke", op);
    let revoked = sut.revoke(name);
    spans.end(s);
    tally.op(revoked);
    ns
}

/// Deploy-path layer metrics from the spans and reports of the traced
/// cycles.
fn deploy_layers(spans: &Spans, log: &DeployLog, round: usize, sut: &Sut, layers: &mut Layers) {
    let table = spans.layer_table();
    let n = table.get("ctl.deploy").map_or(1, |t| t.count.max(1)) as f64;
    let us = |name: &str| table.get(name).map_or(0, |t| t.total_ns) as f64 / n / 1e3;
    layers.insert("lang.parse_us", us("lang.parse"));
    layers.insert("lang.check_us", us("lang.check"));
    layers.insert("compiler.lower_us", us("compiler.lower"));
    layers.insert("compiler.alloc_us", us("compiler.alloc"));
    layers.insert("ctl.deploy_us", us("ctl.deploy"));
    // Cycle by cycle, the real deploy minus the front half that was timed
    // just before it; the median keeps one slow solve from deciding it.
    let commit_ns: Vec<f64> = spans
        .durations_ns("ctl.deploy")
        .iter()
        .zip(spans.durations_ns("deploy.front_half"))
        .map(|(deploy, front)| deploy - front)
        .collect();
    layers.insert("ctl.commit_us", stats::median(&commit_ns) / 1e3);
    layers.insert("ctl.revoke_us", us("ctl.revoke"));
    let facts = log.facts.len().max(1) as f64;
    let mean = |f: fn(&DeployFacts) -> u64| log.facts.iter().map(f).sum::<u64>() as f64 / facts;
    layers.insert("control.apply_us", mean(|f| f.channel_wall_ns) / 1e3);
    layers.insert("control.ops_per_deploy", mean(|f| f.entries));
    layers.insert("ctl.allocs_per_deploy", log.allocs as f64 / facts);
    let (nodes, sim_us) = log.exact(round);
    layers.insert("compiler.alloc_nodes", nodes);
    layers.insert("control.sim_update_us", sim_us);
    let (hits, misses) = sut.entry_cache_counts();
    layers.insert("ctl.entry_cache_hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
}

/// What the counting shadow saw leave the switch.
#[derive(Debug, Default)]
struct WireCounts {
    frames: u64,
    passes: u64,
    emitted: u64,
    dropped: u64,
    bytes: u64,
    allocs: u64,
}

fn frames_section(
    name: &str,
    seed: u64,
    seconds: f64,
    spans: &mut Spans,
    layers: &mut Layers,
) -> Section {
    let mut st = frame_setup(name, seed);
    let (scan, fates) = check_phase(&mut st);
    let mut plain = st.sut.shadow_switch();
    let mut counting = st.sut.counting_switch();
    let mut layer_walk = st.sut.layer_walk();
    let mut lookup_walk = st.sut.layer_walk();
    let front = st.sut.front_half();
    let events_before = st.sut.trace_counts().0;

    let mut wire = WireCounts::default();
    let mut log = DeployLog::default();
    let mut inject_ns = Vec::new();
    let mut batches = 0usize;
    let start = Instant::now();
    loop {
        let op = batches as u64;
        let frames = &st.inputs.frames;
        let window = || frames.window(CHECK_FRAMES + batches * BATCH, BATCH);

        let s = spans.begin(MEASURED, "ctl.inject", op);
        let a0 = stats::allocations();
        for (port, frame) in window() {
            if let Err(e) = st.sut.inject(port, frame) {
                st.tally.fail(&e);
            }
        }
        wire.allocs += stats::allocations() - a0;
        inject_ns.push(spans.end(s) as f64 / BATCH as f64);

        let s = spans.begin(SHADOW_SWITCH, "switch.frame", op);
        for (port, frame) in window() {
            if let Err(e) = plain.process(port, frame) {
                st.tally.fail(&e);
            }
        }
        spans.end(s);

        match layer_walk.walk(window(), WalkMode::Layers, spans, LAYER_WALK, op) {
            Ok(passes) => wire.passes += passes,
            Err(e) => st.tally.fail(&e),
        }
        if let Err(e) = lookup_walk.walk(window(), WalkMode::Lookups, spans, LOOKUP_WALK, op) {
            st.tally.fail(&e);
        }
        for (port, frame) in window() {
            if let Ok(o) = counting.process(port, frame) {
                wire.emitted += u64::from(!o.emitted.is_empty());
                wire.dropped += u64::from(o.dropped);
                wire.bytes += sut::emitted_bytes(o);
            }
        }
        wire.frames += BATCH as u64;
        batches += 1;

        if let Some(program) = churn_due(&st.inputs, batches) {
            traced_cycle(&mut st.sut, &front, program, spans, op, &mut log, &mut st.tally);
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    st.tally.attempted += wire.frames;

    let f = wire.frames as f64;
    let table = spans.layer_table();
    let per_frame = |name: &str| table.get(name).map_or(0, |t| t.total_ns) as f64 / f;
    let parts =
        ["parser.parse", "pipeline.ingress", "tm.decide", "pipeline.egress", "parser.deparse"];
    let frame_ns = per_frame("switch.frame");
    let attributed: f64 = parts.iter().map(|p| per_frame(p)).sum();
    let counts = counting.frame_counts();
    let tables = plain.table_counts();
    let (events, dropped_events) = st.sut.trace_counts();
    for (name, value) in [
        ("parser.parse_ns", per_frame("parser.parse")),
        ("parser.deparse_ns", per_frame("parser.deparse")),
        ("tm.decide_ns", per_frame("tm.decide")),
        ("pipeline.ingress_ns", per_frame("pipeline.ingress")),
        ("pipeline.egress_ns", per_frame("pipeline.egress")),
        ("table.lookup_ns", per_frame("table.lookup")),
        (
            "action.exec_ns",
            per_frame("pipeline.ingress") + per_frame("pipeline.egress")
                - per_frame("table.lookup"),
        ),
        ("switch.frame_ns", frame_ns),
        ("switch.residual_ns", frame_ns - attributed),
        ("switch.unattributed_share", (frame_ns - attributed) / frame_ns),
        ("ctl.inject_ns", per_frame("ctl.inject")),
        ("ctl.inject_overhead_ns", per_frame("ctl.inject") - frame_ns),
        ("switch.allocs_per_frame", wire.allocs as f64 / f),
        ("switch.passes_per_frame", wire.passes as f64 / f),
        ("salu.rmw_per_frame", counts.salu_rmws as f64 / f),
        ("table.lookups_per_frame", counts.lookups as f64 / f),
        ("table.hit_ratio", counts.hits as f64 / counts.lookups.max(1) as f64),
        ("table.entries_max", tables.entries_max as f64),
        (
            "table.cache_hit_ratio",
            tables.cache_hits as f64 / (tables.cache_hits + tables.cache_misses).max(1) as f64,
        ),
        ("trace.events_per_frame", (events - events_before) as f64 / f),
        ("trace.dropped_events", dropped_events as f64),
        ("switch.emitted_share", wire.emitted as f64 / f),
        ("switch.dropped_share", wire.dropped as f64 / f),
        ("switch.bytes_per_frame", wire.bytes as f64 / f),
    ] {
        layers.insert(name, value);
    }
    if !log.facts.is_empty() {
        deploy_layers(spans, &log, sut::CHURN.len(), &st.sut, layers);
    }

    verify_fates(scan, &fates, &mut st);
    Section { tally: st.tally, fp: st.fp, op_ns: inject_ns }
}

fn deploy_section(
    deep: bool,
    seed: u64,
    seconds: f64,
    spans: &mut Spans,
    layers: &mut Layers,
) -> Section {
    let mut st = deploy_setup(deep, seed);
    let mut log = deploy_warmup(&mut st);
    let front = st.sut.front_half();
    let mut round_ns = Vec::new();
    let mut cycles = 0usize;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let mut deploy_ns = 0.0;
        for _ in 0..st.inputs.round {
            let program = &st.inputs.cycles[cycles % st.inputs.cycles.len()];
            let op = cycles as u64;
            deploy_ns +=
                traced_cycle(&mut st.sut, &front, program, spans, op, &mut log, &mut st.tally);
            cycles += 1;
        }
        round_ns.push(deploy_ns / st.inputs.round as f64);
    }
    deploy_layers(spans, &log, st.inputs.round, &st.sut, layers);
    st.tally.attempted += 1;
    if !st.sut.audit_clean() {
        st.tally.fail("audit not clean after the deploy stream");
    }
    Section { tally: st.tally, fp: st.fp, op_ns: round_ns }
}

fn server_section(seed: u64, seconds: f64, spans: &mut Spans, layers: &mut Layers) -> Section {
    let st = server_setup(seed);
    let (fp, inputs) = (st.fp, st.inputs.clone());
    let (mut run, mut tally) = server_run(st, seconds * 0.8, Some(spans));

    // The same stream straight into the drained controller: the baseline
    // the server's own cost is read against.
    let mut counts = ServerCounts::default();
    if let Some((drained, sut)) = run.drained.as_mut() {
        counts = *drained;
        let start = Instant::now();
        let mut k = 0;
        while start.elapsed().as_secs_f64() < seconds * 0.2 {
            let (source, name) = &inputs.cycles[k % inputs.cycles.len()];
            let s = spans.begin(MEASURED, "direct.deploy", k as u64);
            let deployed = sut.deploy(source);
            spans.end(s);
            tally.op(deployed);
            tally.op(sut.revoke(name));
            k += 1;
        }
    }
    let (requests, ticks) = (counts.requests as f64, counts.ticks.max(1) as f64);
    let rtt_us = stats::median(&run.timed.op_ns) / 1e3;
    let direct_us = stats::median(&spans.durations_ns("direct.deploy")) / 1e3;
    for (name, value) in [
        ("server.ping_rtt_us", stats::median(&spans.durations_ns("server.ping")) / 1e3),
        ("server.rtt_us", rtt_us),
        ("server.overhead_us", rtt_us - direct_us),
        ("server.batch_size_mean", requests / ticks),
        ("server.coalesced_share", (1.0 - ticks / requests.max(1.0)).max(0.0)),
        ("server.rejected", counts.rejected as f64),
        ("server.sim_update_us_p50", stats::median(&run.sim_update_us)),
    ] {
        layers.insert(name, value);
    }
    Section { tally, fp, op_ns: run.timed.op_ns }
}

/// The reference fixture of a path, used when the workload itself does not
/// exercise it, and a metric only that path's section fills in.
fn fixture(class: Class) -> (&'static str, &'static str) {
    match class {
        Class::Frames => ("frames_cache_hit", "switch.frame_ns"),
        Class::Deploy => ("deploy_shallow", "ctl.deploy_us"),
        Class::Server => ("server_churn", "server.rtt_us"),
    }
}

fn section(
    name: &str,
    class: Class,
    seed: u64,
    seconds: f64,
    spans: &mut Spans,
    layers: &mut Layers,
) -> Section {
    match class {
        Class::Frames => frames_section(name, seed, seconds, spans, layers),
        Class::Deploy => deploy_section(name == "deploy_deep", seed, seconds, spans, layers),
        Class::Server => server_section(seed, seconds, spans, layers),
    }
}

fn traced(w: &Workload, seed: u64, seconds: f64) -> Report {
    let mut spans = Spans::new(Instant::now());
    let mut layers = Layers::new();
    let primary = section(w.name, w.class, seed, seconds * PRIMARY_SHARE, &mut spans, &mut layers);
    let mut tally = primary.tally;

    // Whatever path the workload's own section left unmeasured
    // (`frames_1k_churn` deploys beside its frames, so only the server is
    // left there) shares the rest of the run.
    let others: Vec<(&str, Class)> = [Class::Frames, Class::Deploy, Class::Server]
        .into_iter()
        .map(|class| (fixture(class), class))
        .filter(|((_, marker), _)| !layers.contains_key(marker))
        .map(|((name, _), class)| (name, class))
        .collect();
    let each = seconds * (1.0 - PRIMARY_SHARE) / others.len() as f64;
    for (name, class) in others {
        tally.add(section(name, class, seed, each, &mut spans, &mut layers).tally);
    }

    layers.extend(op_notes(&primary.op_ns, primary.fp));
    layers.insert("bench.traced_op_ns_p50", stats::median(&primary.op_ns));
    layers.insert("bench.spans", spans.len() as f64);
    Report {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: layers,
        notes: BTreeMap::new(),
        spans: Some(spans),
    }
}

/// Run one workload once.
pub fn run(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Report {
    match (trace, w.class) {
        (true, _) => traced(w, seed, seconds),
        (false, Class::Frames) => frames_untraced(w, seed, seconds),
        (false, Class::Deploy) => deploy_untraced(w, seed, seconds),
        (false, Class::Server) => server_untraced(seed, seconds),
    }
}
