//! The kept features' evidence, written to `BENCH_dataplane.json`.
//!
//! `p4rp_bench` (`BENCHMARK.json`) measures the frame path and the deploy
//! path end to end. This harness holds the four probes that have no
//! workload there and that are the reason a piece of machinery stays in
//! the tree (docs/PERF.md, "Earn-its-keep verdicts"):
//!
//! * `table_lookup` — the exact-key hash index against the ordered scan;
//! * `ternary_scaling` — tuple-space groups against the scan inside one
//!   partition;
//! * `parallel_scaling` — the worker pool against the sequential engine on
//!   a loaded switch (the paper's operating point), with ROADMAP's keep-bar
//!   asserted on hosts with two or more cores;
//! * `snapshot_publish` — what publishing every batch to the workers costs
//!   a deploy, and that deploy churn does not stall them.
//!
//! Both sides of every ratio are measured in the same run, interleaved,
//! and only ratios are asserted — never a nanosecond figure from an
//! earlier session.
//!
//! Run from the workspace root on a host with at least two cores
//! (`cargo run --release -p bench --bin bench_dataplane`); the JSON lands
//! in the current directory. `P4RP_SCALE=quick` shrinks the loaded switch
//! for a smoke run — do not commit its output.

use bench::fixtures::{exact_fixture, tss_fixture};
use bench::measure::{ab_min, time_ns};
use bench::scaled;
use p4rp_ctl::Controller;
use p4rp_progs::workloads::{instance, Family, WorkloadParams};
use rand::prelude::*;
use rand::rngs::StdRng;
use rmt_sim::clock::Nanos;
use serde::{json, Value};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;
use traffic::replay::{ParallelReplay, Replay, TimedPacket};

/// The tuple-space-search floor: at 4096 ternary entries in 64 mask
/// groups the groups must beat the priority-ordered scan by this factor.
const TSS_MIN_SPEEDUP_4096: f64 = 10.0;
/// ROADMAP's keep-bar for the worker pool: two workers against the
/// sequential engine, on a host that has two cores to give.
const POOL_MIN_SPEEDUP: f64 = 1.5;
/// Alternating measurement rounds of the replay probes; medians reported.
const ROUNDS: usize = 5;

/// Resident programs on the loaded switch (`P4RP_SCALE=quick`: 100).
fn residents() -> usize {
    scaled(1000)
}

/// Distinct five-tuples in the replay mix.
const REPLAY_FLOWS: usize = 4096;

fn round1(v: f64) -> f64 {
    (v * 10.0).round() / 10.0
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Family of resident `i`: every twentieth is a two-pass program, the rest
/// cycle over the single-pass families (`p4rp_bench`'s `frames_1k_resident`
/// mix).
fn family_of(i: usize) -> Family {
    const TWO_PASS: [Family; 3] = [Family::Hh, Family::NetCache, Family::Firewall];
    if i % 20 == 3 {
        return TWO_PASS[(i / 20) % TWO_PASS.len()];
    }
    let n = Family::ALL.len() - TWO_PASS.len();
    *Family::ALL.iter().filter(|f| !TWO_PASS.contains(f)).nth(i % n).expect("i % n < n")
}

/// A controller with [`residents`] programs deployed, instance `i`
/// filtering on destination `10.(i >> 8).(i & 0xff).1`.
fn loaded_controller() -> Controller {
    let mut ctl = Controller::with_defaults().expect("default controller");
    for i in 0..residents() {
        ctl.deploy(&instance(family_of(i), i, WorkloadParams::default())).expect("resident deploys");
    }
    ctl
}

/// The loaded-switch replay mix: Zipf(1.1) popularity over
/// [`REPLAY_FLOWS`] flows, the flow of rank `r` talking to resident
/// `r mod residents`, NetCache reads for the families that parse them and
/// campus-like payload sizes for the rest.
///
/// The top flow carries a sixth of this traffic and the top four a third,
/// so where the RSS hash puts them decides how evenly two shards split —
/// 51 % to 70 % in the larger one over flow seeds 1–16 — and the larger
/// shard bounds any pool's speed-up at `total / largest`. Seed 1 splits
/// 53 / 47; `shard_packets` in the JSON records it.
fn replay_mix() -> Vec<TimedPacket> {
    let n = residents();
    let mut flows = traffic::make_flows(1, REPLAY_FLOWS, 0.8);
    traffic::zipf_weights(&mut flows, 1.1);
    for (rank, f) in flows.iter_mut().enumerate() {
        let i = rank % n;
        f.tuple.dst_addr = Ipv4Addr::new(10, (i >> 8) as u8, i as u8, 1);
    }
    let sampler = traffic::FlowSampler::new(&flows);
    let mut rng = StdRng::seed_from_u64(1);
    (0..scaled(65_536))
        .map(|k| {
            let rank = sampler.sample(&mut rng);
            let tuple = &flows[rank].tuple;
            let frame = match family_of(rank % n) {
                Family::Cache | Family::NetCache | Family::Calculator => {
                    traffic::netcache_frame(tuple, netpkt::CacheOp::Read, 0x8000, 0)
                }
                _ => {
                    let u: f64 = rng.random();
                    let payload = if u < 0.60 {
                        rng.random_range(0..64)
                    } else if u < 0.98 {
                        rng.random_range(200..800)
                    } else {
                        1400
                    };
                    traffic::frame_for(tuple, payload)
                }
            };
            TimedPacket { t: Nanos(k as u64 * 100), port: 0, frame }
        })
        .collect()
}

/// ns/packet for the sequential engine over the replay mix.
fn sequential_replay_ns(trace: &[TimedPacket]) -> f64 {
    let mut ctl = loaded_controller();
    let mut r = Replay::new(trace.to_vec());
    let t = Instant::now();
    r.run_all(|_, port, frame, out| {
        ctl.inject_into(port, frame, out).expect("replay inject");
    });
    t.elapsed().as_nanos() as f64 / trace.len() as f64
}

/// ns/packet for the threaded engine at `workers` workers.
fn parallel_replay_ns(trace: &[TimedPacket], workers: usize) -> f64 {
    let mut ctl = loaded_controller();
    ctl.enable_workers(workers);
    let pr = ParallelReplay::new(trace.to_vec(), workers);
    let pool = ctl.workers_mut().expect("pool installed");
    let t = Instant::now();
    let out = pr.run(pool).expect("parallel replay");
    let ns = t.elapsed().as_nanos() as f64 / out.packets.max(1) as f64;
    assert_eq!(out.packets as usize, trace.len());
    ns
}

fn probe_source(i: usize) -> String {
    format!("program probe(<hdr.ipv4.dst, 10.77.{}.1, 0xffffffff>) {{ FORWARD(1); }}", i % 200)
}

/// Mean wall latency of one deploy+revoke round on the loaded switch; with
/// `snapshots` the control channel also publishes every batch as a worker
/// delta, so the two figures bracket the snapshot-publish cost.
fn deploy_probe_ns(snapshots: bool, rounds: usize) -> f64 {
    let mut ctl = loaded_controller();
    if snapshots {
        ctl.channel_mut().enable_snapshots();
    }
    let t = Instant::now();
    for i in 0..rounds {
        ctl.deploy(&probe_source(i)).expect("probe deploys");
        ctl.revoke("probe").expect("probe revokes");
    }
    t.elapsed().as_nanos() as f64 / rounds as f64
}

/// Drive the 2-worker replay while the master churns deploy/revoke
/// batches on another thread. Returns (replay ns/pkt under churn, mean
/// deploy latency under churn) — the stall ratio against the quiet
/// 2-worker figure is the "publishes never block workers" probe.
fn churned_parallel_replay(trace: &[TimedPacket], deploys: usize) -> (f64, f64) {
    let mut ctl = loaded_controller();
    ctl.enable_workers(2);
    let mut pool = ctl.disable_workers().expect("pool installed");
    let pr = ParallelReplay::new(trace.to_vec(), 2);
    let mut deploy_total = 0u128;
    let mut replay_ns = 0.0;
    std::thread::scope(|s| {
        let handle = s.spawn(|| {
            let t = Instant::now();
            let out = pr.run(&mut pool).expect("parallel replay");
            t.elapsed().as_nanos() as f64 / out.packets.max(1) as f64
        });
        for i in 0..deploys {
            let t = Instant::now();
            ctl.deploy(&probe_source(i)).expect("probe deploys");
            deploy_total += t.elapsed().as_nanos();
            ctl.revoke("probe").expect("probe revokes");
        }
        replay_ns = handle.join().expect("replay thread");
    });
    (replay_ns, deploy_total as f64 / deploys.max(1) as f64)
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn main() {
    println!("measuring table_lookup (exact index vs scan) ...");
    let mut lookups = Vec::new();
    for &n in &[16usize, 256, 4096] {
        let (mut tbl, probes) = exact_fixture(n);
        let mut i = 0;
        let (scan, indexed) = ab_min(3, |scan_side| {
            tbl.set_indexed(!scan_side);
            time_ns(|| {
                i = (i + 1) % probes.len();
                black_box(tbl.lookup(&probes[i]).is_some());
            })
        });
        lookups.push(obj(vec![
            ("entries", Value::U64(n as u64)),
            ("exact_scan_ns", Value::F64(round1(scan))),
            ("exact_indexed_ns", Value::F64(round1(indexed))),
            ("exact_speedup", Value::F64(round1(scan / indexed))),
        ]));
        println!("  {n} entries: scan {scan:.1} ns, indexed {indexed:.1} ns ({:.1}x)", scan / indexed);
    }

    println!("measuring ternary_scaling (tuple-space groups vs scan) ...");
    let mut ternary_rows = Vec::new();
    let mut headline_speedup = 0.0;
    for &(n, groups) in &[(16usize, 1usize), (256, 8), (4096, 64)] {
        let (mut tbl, probes) = tss_fixture(n, groups);
        assert_eq!(tbl.index_mode(), "tss", "tss_fixture must build a TSS index");
        // The fixture's spoiler entry adds a group and keeps the table one
        // partition (n <= the scan cutoff would keep no groups at all).
        assert_eq!(tbl.tss_groups(), groups + 1, "fixture mask-group count");
        assert_eq!(tbl.tss_partitions(), 1, "fixture must defeat partitioning");
        let mut i = 0;
        let (scan, tss) = ab_min(3, |scan_side| {
            tbl.set_indexed(!scan_side);
            time_ns(|| {
                i = (i + 1) % probes.len();
                black_box(tbl.lookup(&probes[i]).is_some());
            })
        });
        let tss_speedup = scan / tss;
        if n == 4096 {
            headline_speedup = tss_speedup;
        }
        ternary_rows.push(obj(vec![
            ("entries", Value::U64(n as u64)),
            ("mask_groups", Value::U64(groups as u64)),
            ("scan_ns", Value::F64(round1(scan))),
            ("tss_ns", Value::F64(round1(tss))),
            ("tss_speedup", Value::F64(round1(tss_speedup))),
        ]));
        println!(
            "  {n} entries / {groups} group(s): scan {scan:.1} ns, tss {tss:.1} ns ({tss_speedup:.1}x)"
        );
    }
    assert!(
        headline_speedup >= TSS_MIN_SPEEDUP_4096,
        "ternary 4096/64: tss {headline_speedup:.1}x — need >= {TSS_MIN_SPEEDUP_4096}x over scan"
    );
    let tss_assert = format!(
        "ok ({headline_speedup:.1}x at 4096 entries / 64 groups, >= {TSS_MIN_SPEEDUP_4096}x required)"
    );
    println!("  4096-entry speedup gate: {tss_assert}");

    println!("measuring parallel_scaling on {} residents ...", residents());
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mix = replay_mix();
    let shard_packets = ParallelReplay::new(mix.clone(), 2).shard_sizes();
    let (mut seq, mut one, mut two) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        seq.push(sequential_replay_ns(&mix));
        one.push(parallel_replay_ns(&mix, 1));
        two.push(parallel_replay_ns(&mix, 2));
    }
    let two_worker_rounds: Vec<Value> =
        seq.iter().zip(&two).map(|(s, t)| Value::F64(round3(s / t))).collect();
    let (seq_ns, one_ns, two_ns) = (median(seq), median(one), median(two));
    let scaling_rows = [(1u64, one_ns), (2, two_ns)]
        .iter()
        .map(|&(w, ns)| {
            obj(vec![
                ("workers", Value::U64(w)),
                ("ns_per_pkt", Value::F64(round1(ns))),
                ("aggregate_mpps", Value::F64(round3(1000.0 / ns))),
                ("speedup_vs_sequential", Value::F64(round3(seq_ns / ns))),
            ])
        })
        .collect();
    let two_worker_speedup = seq_ns / two_ns;
    let scaling_assert = if host_cores >= 2 {
        assert!(
            two_worker_speedup >= POOL_MIN_SPEEDUP,
            "2-worker replay only {two_worker_speedup:.2}x of sequential on a \
             {host_cores}-core host (need >= {POOL_MIN_SPEEDUP}x)"
        );
        format!("ok ({two_worker_speedup:.2}x at 2 workers, >= {POOL_MIN_SPEEDUP}x required)")
    } else {
        format!("skipped (host_cores = {host_cores})")
    };
    println!("  2-worker speedup {two_worker_speedup:.2}x on {host_cores} core(s): {scaling_assert}");

    println!("measuring snapshot_publish ...");
    let plain_deploy = deploy_probe_ns(false, 200);
    let published_deploy = deploy_probe_ns(true, 200);
    let mut publish_fields = vec![
        ("deploy_revoke_ns", Value::F64(round1(plain_deploy))),
        ("deploy_revoke_published_ns", Value::F64(round1(published_deploy))),
        ("publish_overhead_ratio", Value::F64(round3(published_deploy / plain_deploy))),
    ];
    if host_cores >= 2 {
        let (churn_replay_ns, deploy_under_churn_ns) = churned_parallel_replay(&mix, 50);
        let stall_ratio = churn_replay_ns / two_ns;
        assert!(
            stall_ratio < 2.0,
            "deploy churn stalled the 2-worker replay: {churn_replay_ns:.1} ns/pkt \
             vs {two_ns:.1} ns/pkt quiet ({stall_ratio:.2}x)"
        );
        publish_fields.push(("replay_under_churn_ns_per_pkt", Value::F64(round1(churn_replay_ns))));
        publish_fields.push(("deploy_under_churn_ns", Value::F64(round1(deploy_under_churn_ns))));
        publish_fields.push(("worker_stall_ratio", Value::F64(round3(stall_ratio))));
        publish_fields.push((
            "stall_assert",
            Value::Str(format!("ok ({stall_ratio:.2}x, < 2.0x required)")),
        ));
    } else {
        publish_fields.push((
            "stall_assert",
            Value::Str(format!("skipped (host_cores = {host_cores})")),
        ));
    }

    let doc = obj(vec![
        ("bench", Value::Str("dataplane".into())),
        ("units", Value::Str("ns_per_iter".into())),
        ("table_lookup", Value::Array(lookups)),
        (
            "ternary_scaling",
            obj(vec![
                ("rows", Value::Array(ternary_rows)),
                ("min_speedup_4096", Value::F64(TSS_MIN_SPEEDUP_4096)),
                ("tss_assert", Value::Str(tss_assert)),
            ]),
        ),
        (
            "parallel_scaling",
            obj(vec![
                ("host_cores", Value::U64(host_cores as u64)),
                ("residents", Value::U64(residents() as u64)),
                ("replay_packets", Value::U64(mix.len() as u64)),
                ("replay_flows", Value::U64(REPLAY_FLOWS as u64)),
                (
                    "shard_packets",
                    Value::Array(shard_packets.iter().map(|&n| Value::U64(n as u64)).collect()),
                ),
                ("rounds", Value::U64(ROUNDS as u64)),
                ("sequential_ns_per_pkt", Value::F64(round1(seq_ns))),
                ("workers", Value::Array(scaling_rows)),
                ("two_worker_speedup", Value::F64(round3(two_worker_speedup))),
                ("two_worker_speedup_per_round", Value::Array(two_worker_rounds)),
                ("min_speedup", Value::F64(POOL_MIN_SPEEDUP)),
                ("scaling_assert", Value::Str(scaling_assert)),
            ]),
        ),
        ("snapshot_publish", obj(publish_fields)),
    ]);

    let rendered = json::to_string_pretty(&doc);
    std::fs::write("BENCH_dataplane.json", &rendered).expect("write BENCH_dataplane.json");
    println!("{rendered}");
    println!("wrote BENCH_dataplane.json");
}
