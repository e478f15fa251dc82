//! Control-plane deploy fast-path numbers, written to
//! `BENCH_controlplane.json`.
//!
//! Measures deploy latency against the number of already-resident
//! programs, before and after the fast path:
//!
//! * **before** — the naive reference allocator
//!   (`AllocConfig::reference`) and the per-op-latency channel path
//!   (`fast_path` off): what the control plane did prior to this work;
//! * **after** — the window-propagated solver plus the bulk-mode
//!   channel, one RPC per plan (`fast_path` on).
//!
//! Per-deploy latency decomposes into the solver wall-clock (Figure 7's
//! quantity), the controller-side channel-apply wall-clock, and the
//! simulated `bfrt`-calibrated device latency (Table 1's quantity); the
//! JSON reports the p50 of each split so the solver-vs-channel
//! attribution is explicit. A `fault_guard` section pins the
//! cost of an armed-but-idle `FaultPlan` (see `docs/CHAOS.md`) to within
//! noise of the plan-free fast path. A `server_overhead` section drives
//! the same deploy/revoke cycle through a loopback `p4rp serve` session
//! (docs/SERVER.md) and pins the line-protocol + batching overhead to
//! < 2x the direct in-process calls, using the interleaved same-run
//! A/B scheme (`measure::ab_min`) so wall-clock drift cancels.
//!
//! Run from the workspace root (`cargo run --release -p bench --bin
//! bench_controlplane`); `P4RP_SCALE=quick` trims the sample counts.

use bench::scaled;
use p4rp_compiler::alloc::AllocConfig;
use p4rp_ctl::Controller;
use p4rp_progs::{instance, Family, WorkloadParams};
use rmt_sim::fault::{FaultKind, FaultPlan, FaultTrigger};
use serde::{json, Value};

const RESIDENTS: [usize; 3] = [0, 32, 128];
const FAMILIES: [Family; 4] = [Family::Cache, Family::Hh, Family::Lb, Family::Dqacc];

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn round1(v: f64) -> f64 {
    (v * 10.0).round() / 10.0
}

fn p50(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Small-footprint workload instance `i` (64 buckets of memory) so 128 of
/// them fit comfortably and the plane still fragments realistically.
fn resident_source(i: usize) -> String {
    let fam = FAMILIES[i % FAMILIES.len()];
    instance(fam, i, WorkloadParams { mem: 64, elastic: 2 })
}

struct Split {
    solver_us: f64,
    apply_us: f64,
    device_us: f64,
}

/// Fill a fresh controller to `n_resident` programs, then sample
/// deploy-revoke cycles of a probe program, returning the per-deploy
/// latency splits.
fn measure(reference: bool, fast: bool, n_resident: usize, samples: usize) -> Vec<Split> {
    let cfg = AllocConfig { reference, ..AllocConfig::default() };
    let mut ctl = Controller::new(Default::default(), cfg).expect("provision");
    ctl.set_fast_path(fast);
    let mut filled = 0;
    for i in 0..n_resident {
        if ctl.deploy(&resident_source(i)).is_ok() {
            filled += 1;
        }
    }
    assert_eq!(filled, n_resident, "resident fill failed: {filled}/{n_resident}");

    let probe = instance(Family::Cache, 1_000_000, WorkloadParams { mem: 64, elastic: 2 });
    let probe_name = "cache_1000000";
    let mut out = Vec::with_capacity(samples);
    for _ in 0..samples {
        let reports = ctl.deploy(&probe).expect("probe deploys");
        let r = &reports[0];
        out.push(Split {
            solver_us: r.alloc_wall.as_secs_f64() * 1e6,
            apply_us: r.channel_wall.as_secs_f64() * 1e6,
            device_us: r.update_delay.0 as f64 / 1e3,
        });
        ctl.revoke(probe_name).expect("probe revokes");
    }
    out
}

fn split_row(splits: &mut [Split]) -> (f64, f64, f64, f64) {
    let mut total: Vec<f64> =
        splits.iter().map(|s| s.solver_us + s.apply_us + s.device_us).collect();
    let mut solver: Vec<f64> = splits.iter().map(|s| s.solver_us).collect();
    let mut apply: Vec<f64> = splits.iter().map(|s| s.apply_us).collect();
    let mut device: Vec<f64> = splits.iter().map(|s| s.device_us).collect();
    (p50(&mut total), p50(&mut solver), p50(&mut apply), p50(&mut device))
}

fn main() {
    let samples = scaled(24);
    let mut rows = Vec::new();
    let mut p50_at_max = (0.0f64, 0.0f64); // (before, after) at RESIDENTS.last()

    for &n in &RESIDENTS {
        println!("measuring deploy latency at {n} resident programs ...");
        let mut before = measure(true, false, n, samples);
        let mut after = measure(false, true, n, samples);
        let (bt, bs, ba, bd) = split_row(&mut before);
        let (at, as_, aa, ad) = split_row(&mut after);
        if n == *RESIDENTS.last().unwrap() {
            p50_at_max = (bt, at);
        }
        rows.push(obj(vec![
            ("resident_programs", Value::U64(n as u64)),
            (
                "before",
                obj(vec![
                    ("p50_total_us", Value::F64(round1(bt))),
                    ("p50_solver_us", Value::F64(round1(bs))),
                    ("p50_channel_apply_us", Value::F64(round1(ba))),
                    ("p50_device_us", Value::F64(round1(bd))),
                ]),
            ),
            (
                "after",
                obj(vec![
                    ("p50_total_us", Value::F64(round1(at))),
                    ("p50_solver_us", Value::F64(round1(as_))),
                    ("p50_channel_apply_us", Value::F64(round1(aa))),
                    ("p50_device_us", Value::F64(round1(ad))),
                ]),
            ),
            ("speedup_p50", Value::F64(round1(bt / at))),
        ]));
        println!(
            "  before p50 {:.0} µs (solver {:.0} / apply {:.0} / device {:.0})",
            bt, bs, ba, bd
        );
        println!(
            "  after  p50 {:.0} µs (solver {:.0} / apply {:.0} / device {:.0}) — {:.1}x",
            at, as_, aa, ad, bt / at
        );
    }

    // Fault-injection guard: the deploy fast path with an armed-but-idle
    // FaultPlan (triggers parked beyond any reachable op index) must sit
    // within noise of the plan-free path — the injection hooks are two
    // branch-on-empty checks per batch/op.
    println!("measuring fault-injection guard (armed plan, no trigger fires) ...");
    let mut baseline = measure(false, true, 0, samples);
    let mut armed = Controller::with_defaults().expect("provision");
    armed.set_fast_path(true);
    armed.set_fault_plan(FaultPlan::new(
        [FaultKind::FailOp, FaultKind::BatchTimeout, FaultKind::ChannelDrop, FaultKind::DeviceReset]
            .map(|fault| FaultTrigger { at: u64::MAX, op_kind: None, fault })
            .to_vec(),
    ));
    let probe = instance(Family::Cache, 1_000_000, WorkloadParams { mem: 64, elastic: 2 });
    let mut guarded = Vec::with_capacity(samples);
    for _ in 0..samples {
        let reports = armed.deploy(&probe).expect("guarded probe deploys");
        let r = &reports[0];
        guarded.push(Split {
            solver_us: r.alloc_wall.as_secs_f64() * 1e6,
            apply_us: r.channel_wall.as_secs_f64() * 1e6,
            device_us: r.update_delay.0 as f64 / 1e3,
        });
        armed.revoke("cache_1000000").expect("guarded probe revokes");
    }
    assert_eq!(armed.fault_stats().faults_injected, 0, "guard plan must never fire");
    let (base_total, _, base_apply, _) = split_row(&mut baseline);
    let (armed_total, _, armed_apply, _) = split_row(&mut guarded);
    let apply_ratio = armed_apply / base_apply;
    assert!(
        apply_ratio < 1.5,
        "armed-but-idle fault plan cost {apply_ratio:.2}x on the channel-apply \
         path ({armed_apply:.1} µs vs {base_apply:.1} µs) — must stay within noise"
    );
    let fault_guard = obj(vec![
        ("baseline_p50_total_us", Value::F64(round1(base_total))),
        ("armed_p50_total_us", Value::F64(round1(armed_total))),
        ("baseline_p50_channel_apply_us", Value::F64(round1(base_apply))),
        ("armed_p50_channel_apply_us", Value::F64(round1(armed_apply))),
        ("channel_apply_ratio", Value::F64((apply_ratio * 100.0).round() / 100.0)),
        ("faults_fired", Value::U64(0)),
    ]);
    println!(
        "  plan-free apply p50 {base_apply:.1} µs, armed-idle {armed_apply:.1} µs \
         ({apply_ratio:.2}x)"
    );

    // Server overhead: one deploy+revoke cycle through a loopback
    // runtime-control session vs the same cycle as direct calls on an
    // identically configured controller. Interleaved A/B windows with
    // per-side minima (the PR-8 de-drift scheme): slow machine drift
    // lands on both sides, so the ratio needs no hardcoded anchor.
    println!("measuring server overhead (loopback session vs direct calls) ...");
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server = std::thread::spawn(move || {
        let mut ctl = Controller::with_defaults().expect("provision server controller");
        p4rp_ctl::server::serve(&mut ctl, listener, &p4rp_ctl::server::ServerConfig::default())
            .expect("serve");
    });
    let mut client = loop {
        match p4rp_ctl::server::Client::connect(&addr) {
            Ok(c) => break c,
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(5)),
        }
    };
    let mut direct = Controller::with_defaults().expect("provision");
    // A heavier probe than the latency sections: the session tax (two loopback
    // round trips plus thread handoffs, ~65 µs) should be judged against a
    // realistic deploy, not a minimal one. The bound was 1.5x while this
    // probe's solve took ~140 µs; at ~10 µs the same tax is ~1.65x of a
    // direct cycle half as long, so the bound is 2x and the tax is recorded.
    let probe = instance(Family::Cache, 3_000_000, WorkloadParams { mem: 512, elastic: 8 });
    let ok = |reply: &str| {
        let doc = json::parse(reply).expect("reply parses");
        assert_eq!(doc.get("ok"), Some(&Value::Bool(true)), "{reply}");
    };
    let cycles = scaled(8).max(2);
    let (server_ns, direct_ns) = bench::measure::ab_min(scaled(6).max(3), |via_server| {
        let t = std::time::Instant::now();
        for _ in 0..cycles {
            if via_server {
                ok(&client.deploy(&probe).expect("server deploy"));
                ok(&client.revoke("cache_3000000").expect("server revoke"));
            } else {
                direct.deploy(&probe).expect("direct deploy");
                direct.revoke("cache_3000000").expect("direct revoke");
            }
        }
        t.elapsed().as_nanos() as f64 / cycles as f64
    });
    ok(&client.shutdown().expect("shutdown"));
    server.join().expect("server thread");
    let server_ratio = server_ns / direct_ns;
    assert!(
        server_ratio < 2.0,
        "loopback control session cost {server_ratio:.2}x per deploy+revoke cycle \
         ({:.1} µs vs {:.1} µs direct) — the line protocol must stay cheap",
        server_ns / 1e3,
        direct_ns / 1e3
    );
    let server_overhead = obj(vec![
        ("cycles_per_window", Value::U64(cycles as u64)),
        ("direct_cycle_us", Value::F64(round1(direct_ns / 1e3))),
        ("server_cycle_us", Value::F64(round1(server_ns / 1e3))),
        ("tax_us", Value::F64(round1((server_ns - direct_ns) / 1e3))),
        ("ratio", Value::F64((server_ratio * 100.0).round() / 100.0)),
    ]);
    println!(
        "  direct {:.1} µs/cycle, via server {:.1} µs/cycle ({server_ratio:.2}x)",
        direct_ns / 1e3,
        server_ns / 1e3
    );

    let doc = obj(vec![
        ("bench", Value::Str("controlplane".into())),
        ("units", Value::Str("us_per_deploy".into())),
        ("samples_per_point", Value::U64(samples as u64)),
        ("deploy_latency", Value::Array(rows)),
        ("fault_guard", fault_guard),
        ("server_overhead", server_overhead),
        (
            "acceptance",
            obj(vec![
                ("resident_programs", Value::U64(*RESIDENTS.last().unwrap() as u64)),
                ("before_p50_us", Value::F64(round1(p50_at_max.0))),
                ("after_p50_us", Value::F64(round1(p50_at_max.1))),
                ("speedup_p50", Value::F64(round1(p50_at_max.0 / p50_at_max.1))),
            ]),
        ),
    ]);

    let rendered = json::to_string_pretty(&doc);
    std::fs::write("BENCH_controlplane.json", &rendered).expect("write BENCH_controlplane.json");
    println!("{rendered}");
    println!("wrote BENCH_controlplane.json");
}
