//! Headline data-plane numbers, written to `BENCH_dataplane.json`.
//!
//! This harness seeds the repo's perf trajectory: it re-measures the
//! `switch/process_frame` and `table/lookup` workloads that the Criterion
//! bench (`benches/dataplane.rs`) covers. Every before/after pair is now
//! measured **in the same run**, interleaved via [`bench::measure::ab_min`]:
//! the "before" side forces the pre-change algorithm (priority-ordered
//! scan via `set_indexed(false)`, megaflow cache disarmed) on the same
//! fixture, so the guards assert on ratios only. Absolute figures from
//! earlier PRs survive in the `history` object as context, never as
//! assertion anchors — the hardcoded-ns guards drifted out of band twice
//! (PR-6 and PR-7 both had to re-anchor) before this harness replaced them.
//!
//! Timing is hand-rolled on `std::time::Instant` because Criterion is a
//! dev-dependency (benches only); the methodology matches the vendored
//! Criterion stand-in: warm up, calibrate an iteration count for a fixed
//! wall-time budget, report the best of three windows.
//!
//! Run from the workspace root (`cargo run --release -p bench --bin
//! bench_dataplane`); the JSON lands in the current directory.

use bench::fixtures::{cache_controller, exact_fixture, ternary_fixture, ternary_switch, tss_fixture};
use bench::measure::{ab_min, time_ns};
use rmt_sim::clock::Nanos;
use rmt_sim::switch::ProcessOutcome;
use rmt_sim::trace::TraceConfig;
use serde::{json, Value};
use std::hint::black_box;
use std::time::Instant;
use traffic::replay::{ParallelReplay, Replay, TimedPacket};

/// Any branch-on-None indirection (snapshot lookup, attribution gate,
/// sharded-entry fallback) must stay inside this band of its direct
/// counterpart, measured interleaved in the same run.
const GUARD_MAX_RATIO: f64 = 1.05;
/// Telemetry and attribution do real work per frame; bound their
/// same-run overhead ratios loosely (historically 1.19x and 1.28x).
const ATTR_MAX_RATIO: f64 = 1.6;
/// The tuple-space-search acceptance floor: at 4096 ternary entries in
/// 64 mask groups, the indexed path (with the megaflow result cache
/// armed) must beat the priority-ordered scan by at least this factor.
const TSS_MIN_SPEEDUP_4096: f64 = 10.0;

/// Packets per parallel-scaling replay window.
const REPLAY_PACKETS: usize = 20_000;
/// Distinct five-tuples in the replay mix (all NetCache hits), so the
/// RSS-style shard hash actually spreads flows across workers.
const REPLAY_FLOWS: usize = 64;

fn round1(v: f64) -> f64 {
    (v * 10.0).round() / 10.0
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

/// The cache-hit replay mix: [`REPLAY_PACKETS`] frames round-robin over
/// [`REPLAY_FLOWS`] distinct five-tuples, every one a NetCache read of
/// the resident key — so per-packet work matches the `cache_hit` probe
/// while the RSS-style shard hash spreads flows across workers.
fn replay_mix() -> Vec<TimedPacket> {
    let flows = traffic::make_flows(9, REPLAY_FLOWS, 0.0);
    let frames: Vec<Vec<u8>> = flows
        .iter()
        .map(|f| traffic::netcache_frame(&f.tuple, netpkt::CacheOp::Read, 0x8888, 0))
        .collect();
    (0..REPLAY_PACKETS)
        .map(|i| TimedPacket {
            t: Nanos(i as u64 * 100),
            port: 0,
            frame: frames[i % frames.len()].clone(),
        })
        .collect()
}

/// ns/packet for the sequential engine over the replay mix (best of 3).
fn sequential_replay_ns(trace: &[TimedPacket]) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let (mut ctl, _, _, _) = cache_controller();
        let mut r = Replay::new(trace.to_vec());
        let t = Instant::now();
        r.run_all_into(|port, frame, out| {
            ctl.inject_into(port, frame, out).expect("replay inject");
        });
        best = best.min(t.elapsed().as_nanos() as f64 / trace.len() as f64);
    }
    best
}

/// ns/packet for the threaded engine at `workers` workers (best of 3).
fn parallel_replay_ns(trace: &[TimedPacket], workers: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let (mut ctl, _, _, _) = cache_controller();
        ctl.enable_workers(workers);
        let pr = ParallelReplay::new(trace.to_vec(), workers);
        let pool = ctl.workers_mut().expect("pool installed");
        let t = Instant::now();
        let out = pr.run(pool).expect("parallel replay");
        let ns = t.elapsed().as_nanos() as f64 / out.packets.max(1) as f64;
        assert_eq!(out.packets as usize, trace.len());
        best = best.min(ns);
    }
    best
}

/// Mean wall latency of one deploy+revoke round; with `snapshots` the
/// control channel also publishes every batch as a worker delta, so the
/// two figures bracket the snapshot-publish cost.
fn deploy_probe_ns(snapshots: bool, rounds: usize) -> f64 {
    let (mut ctl, _, _, _) = cache_controller();
    if snapshots {
        ctl.channel_mut().enable_snapshots();
    }
    let t = Instant::now();
    for i in 0..rounds {
        let src = format!(
            "program probe(<hdr.ipv4.dst, 10.77.{}.1, 0xffffffff>) {{ FORWARD(1); }}",
            i % 200
        );
        ctl.deploy(&src).expect("probe deploys");
        ctl.revoke("probe").expect("probe revokes");
    }
    t.elapsed().as_nanos() as f64 / rounds as f64
}

/// Drive the 2-worker replay while the master churns deploy/revoke
/// batches on another thread. Returns (replay ns/pkt under churn, mean
/// deploy latency under churn) — the stall ratio against the quiet
/// 2-worker figure is the "publishes never block workers" probe.
fn churned_parallel_replay(trace: &[TimedPacket], deploys: usize) -> (f64, f64) {
    let (mut ctl, _, _, _) = cache_controller();
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
            let src = format!(
                "program probe(<hdr.ipv4.dst, 10.77.{}.1, 0xffffffff>) {{ FORWARD(1); }}",
                i % 200
            );
            let t = Instant::now();
            ctl.deploy(&src).expect("probe deploys");
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

/// A same-run scan-forced vs indexed pair, rendered with the ratio the
/// guards actually assert on.
fn scan_vs_indexed(scan: f64, indexed: f64) -> Value {
    obj(vec![
        ("scan_forced_ns", Value::F64(round1(scan))),
        ("indexed_ns", Value::F64(round1(indexed))),
        ("speedup", Value::F64(round3(scan / indexed))),
    ])
}

fn main() {
    let (mut ctl, hit, miss, plain) = cache_controller();

    println!("measuring switch/process_frame (scan-forced vs indexed, interleaved) ...");
    let (cache_hit_scan, cache_hit) = ab_min(3, |scan| {
        ctl.set_indexed(!scan);
        time_ns(|| {
            ctl.inject(0, black_box(&hit)).unwrap();
        })
    });
    ctl.set_indexed(true);
    let (cache_miss_scan, cache_miss) = ab_min(3, |scan| {
        ctl.set_indexed(!scan);
        time_ns(|| {
            ctl.inject(0, black_box(&miss)).unwrap();
        })
    });
    ctl.set_indexed(true);
    let (no_program_scan, no_program) = ab_min(3, |scan| {
        ctl.set_indexed(!scan);
        time_ns(|| {
            ctl.inject(0, black_box(&plain)).unwrap();
        })
    });
    ctl.set_indexed(true);
    let mut out = ProcessOutcome::empty();
    // With no worker pool installed, the sharded entry point is one
    // `Option` branch away from `inject_into` — this is the sequential
    // path every command takes, measured through the new indirection.
    // The two probes interleave so slow wall-clock drift (this is a
    // shared box) lands on both sides of the ratio equally.
    let (reused, sharded_fallback) = ab_min(3, |direct| {
        if direct {
            time_ns(|| {
                ctl.inject_into(0, black_box(&hit), &mut out).unwrap();
            })
        } else {
            time_ns(|| {
                ctl.inject_sharded_into(0, black_box(&hit), &mut out).unwrap();
            })
        }
    });

    println!("measuring flight-recorder overhead ...");
    // With no ring attached, tracing is a `None` branch on the same code
    // path. The ring wraps during the window (wraparound is
    // allocation-free) and post-mortem dumps are disabled so the hot loop
    // never touches the filesystem.
    let (untraced_hit, traced_hit) = ab_min(3, |off| {
        if off {
            ctl.disable_trace();
        } else {
            ctl.enable_trace(TraceConfig {
                capacity: 1 << 16,
                postmortem_dir: None,
                ..TraceConfig::default()
            });
        }
        time_ns(|| {
            ctl.inject(0, black_box(&hit)).unwrap();
        })
    });
    ctl.disable_trace();

    println!("measuring megaflow result cache on the frame path ...");
    // On the NetCache dispatch path every table is small, so the cache's
    // scan-cutoff bypass keeps it out of the way — this side is a
    // branch-on-None guard, not a speedup claim.
    let (megaflow_off_hit, megaflow_hit) = ab_min(3, |off| {
        ctl.set_result_cache(!off);
        time_ns(|| {
            ctl.inject(0, black_box(&hit)).unwrap();
        })
    });
    ctl.set_result_cache(false);
    let megaflow_ratio = megaflow_hit / megaflow_off_hit;
    // The speedup claim lives on an all-ternary dispatch path: a 4096-entry
    // 64-group TCAM table in front of the forwarding decision, where even
    // the tuple-space search loses to one memoized hash probe.
    let (mut tsw, tframes) = ternary_switch(4096, 64);
    let mut i = 0;
    let (ternary_path_off, ternary_path_on) = ab_min(3, |off| {
        tsw.set_result_cache_all(!off);
        i = 0;
        time_ns(|| {
            i = (i + 1) % tframes.len();
            black_box(tsw.process_frame(0, black_box(&tframes[i])).unwrap());
        })
    });
    let ternary_path_speedup = ternary_path_off / ternary_path_on;
    println!(
        "  all-ternary dispatch: {ternary_path_off:.1} ns uncached vs \
         {ternary_path_on:.1} ns with megaflow cache ({ternary_path_speedup:.2}x)"
    );
    assert!(
        ternary_path_speedup > 1.0,
        "megaflow cache shows no process_frame improvement on the all-ternary \
         path: {ternary_path_off:.1} ns off vs {ternary_path_on:.1} ns on"
    );

    println!("measuring attribution overhead ...");
    // Three states, interleaved so slow wall-clock drift lands on every
    // side of the ratios equally: attribution fully off (telemetry
    // dropped — bit-identical to the plain path), telemetry without
    // attribution (field cleared), and attribution armed. The off probe
    // is the denominator for both overhead figures.
    let mut attr_off_hit = f64::INFINITY;
    let mut telemetry_hit = f64::INFINITY;
    let mut attributed_hit = f64::INFINITY;
    for _ in 0..3 {
        ctl.switch_mut().disable_telemetry();
        ctl.switch_mut().clear_attribution_field();
        attr_off_hit = attr_off_hit.min(time_ns(|| {
            ctl.inject(0, black_box(&hit)).unwrap();
        }));
        ctl.enable_telemetry();
        telemetry_hit = telemetry_hit.min(time_ns(|| {
            ctl.inject(0, black_box(&hit)).unwrap();
        }));
        ctl.enable_attribution();
        attributed_hit = attributed_hit.min(time_ns(|| {
            ctl.inject(0, black_box(&hit)).unwrap();
        }));
    }
    ctl.switch_mut().disable_telemetry();
    ctl.switch_mut().clear_attribution_field();

    println!("measuring table/lookup scaling ...");
    let mut lookups = Vec::new();
    for &n in &[16usize, 256, 4096] {
        let (mut tbl, probes) = exact_fixture(n);
        let mut i = 0;
        // Scan mode is the pre-change lookup algorithm, so it doubles as
        // the measured "before" for the same table contents.
        let (exact_scan, exact_indexed) = ab_min(3, |scan| {
            tbl.set_indexed(!scan);
            time_ns(|| {
                i = (i + 1) % probes.len();
                black_box(tbl.lookup(&probes[i]).is_some());
            })
        });
        let (mut tbl, probes) = ternary_fixture(n);
        let mut i = 0;
        let (ternary_scan, ternary_tss) = ab_min(3, |scan| {
            tbl.set_indexed(!scan);
            time_ns(|| {
                i = (i + 1) % probes.len();
                black_box(tbl.lookup(&probes[i]).is_some());
            })
        });
        lookups.push(obj(vec![
            ("entries", Value::U64(n as u64)),
            ("exact_scan_ns", Value::F64(round1(exact_scan))),
            ("exact_indexed_ns", Value::F64(round1(exact_indexed))),
            ("exact_speedup", Value::F64(round1(exact_scan / exact_indexed))),
            ("ternary_scan_ns", Value::F64(round1(ternary_scan))),
            ("ternary_tss_ns", Value::F64(round1(ternary_tss))),
            ("ternary_speedup", Value::F64(round1(ternary_scan / ternary_tss))),
        ]));
    }

    println!("measuring ternary_scaling (tuple-space search vs scan) ...");
    let mut ternary_rows = Vec::new();
    let mut headline_speedup = 0.0;
    let mut headline_cached_speedup = 0.0;
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
        tbl.set_indexed(true);
        tbl.set_result_cache(true);
        let mut i = 0;
        let cached = time_ns(|| {
            i = (i + 1) % probes.len();
            black_box(tbl.lookup(&probes[i]).is_some());
        });
        let tss_speedup = scan / tss;
        let cached_speedup = scan / cached;
        if n == 4096 {
            headline_speedup = tss_speedup;
            headline_cached_speedup = cached_speedup;
        }
        ternary_rows.push(obj(vec![
            ("entries", Value::U64(n as u64)),
            ("mask_groups", Value::U64(groups as u64)),
            ("scan_ns", Value::F64(round1(scan))),
            ("tss_ns", Value::F64(round1(tss))),
            ("tss_speedup", Value::F64(round1(tss_speedup))),
            ("cached_ns", Value::F64(round1(cached))),
            ("cached_speedup", Value::F64(round1(cached_speedup))),
        ]));
        println!(
            "  {n} entries / {groups} group(s): scan {scan:.1} ns, tss {tss:.1} ns \
             ({tss_speedup:.1}x), cached {cached:.1} ns ({cached_speedup:.1}x)"
        );
    }
    let best_4096 = headline_speedup.max(headline_cached_speedup);
    assert!(
        best_4096 >= TSS_MIN_SPEEDUP_4096,
        "ternary 4096/64: tss {headline_speedup:.1}x, cached \
         {headline_cached_speedup:.1}x — need >= {TSS_MIN_SPEEDUP_4096}x over scan"
    );
    let tss_assert = format!(
        "ok (tss {headline_speedup:.1}x, cached {headline_cached_speedup:.1}x at \
         4096 entries / 64 groups, >= {TSS_MIN_SPEEDUP_4096}x required)"
    );
    println!("  4096-entry speedup gate: {tss_assert}");

    println!("measuring parallel replay scaling ...");
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mix = replay_mix();
    let seq_ns = sequential_replay_ns(&mix);
    let worker_counts = [1usize, 2, 4];
    let mut worker_ns = Vec::new();
    let mut scaling_rows = Vec::new();
    for &w in &worker_counts {
        let ns = parallel_replay_ns(&mix, w);
        worker_ns.push(ns);
        scaling_rows.push(obj(vec![
            ("workers", Value::U64(w as u64)),
            ("ns_per_pkt", Value::F64(round1(ns))),
            ("aggregate_mpps", Value::F64(round3(1000.0 / ns))),
            ("speedup_vs_sequential", Value::F64(round3(seq_ns / ns))),
        ]));
    }
    let two_worker_speedup = worker_ns[0] / worker_ns[1];
    let scaling_assert = if host_cores >= 2 {
        assert!(
            two_worker_speedup >= 1.7,
            "2-worker replay only {two_worker_speedup:.2}x of 1-worker on a \
             {host_cores}-core host (need >= 1.7x)"
        );
        format!("ok ({two_worker_speedup:.2}x at 2 workers, >= 1.7x required)")
    } else {
        format!("skipped (host_cores = {host_cores})")
    };
    println!("  2-worker speedup {two_worker_speedup:.2}x on {host_cores} core(s): {scaling_assert}");

    // Single-worker guard: indexed dispatch must never lose to the scan
    // it replaced, measured on the same fixture in the same run.
    let guard_ratio = cache_hit / cache_hit_scan;
    assert!(
        guard_ratio < GUARD_MAX_RATIO,
        "indexed cache-hit frame costs {cache_hit:.1} ns vs {cache_hit_scan:.1} ns \
         scan-forced in the same run ({guard_ratio:.3}x)"
    );
    let fallback_ratio = sharded_fallback / reused;
    assert!(
        fallback_ratio < GUARD_MAX_RATIO,
        "inject_sharded fallback costs {sharded_fallback:.1} ns vs \
         {reused:.1} ns direct ({fallback_ratio:.3}x, branch-on-None broken?)"
    );
    // Megaflow guard: with every dispatch table under the scan cutoff the
    // armed cache must stay bypassed on the NetCache path.
    assert!(
        megaflow_ratio < GUARD_MAX_RATIO,
        "armed megaflow cache costs {megaflow_hit:.1} ns vs {megaflow_off_hit:.1} ns \
         disarmed on the small-table dispatch path ({megaflow_ratio:.3}x, \
         scan-cutoff bypass broken?)"
    );
    // Attribution guard: both overheads are real per-frame work, bounded
    // loosely against the interleaved off probe from the same run.
    let telemetry_ratio = telemetry_hit / attr_off_hit;
    let attribution_ratio = attributed_hit / attr_off_hit;
    assert!(
        telemetry_ratio < ATTR_MAX_RATIO && attribution_ratio < ATTR_MAX_RATIO,
        "telemetry {telemetry_ratio:.3}x / attribution {attribution_ratio:.3}x of the \
         off probe {attr_off_hit:.1} ns (bound {ATTR_MAX_RATIO}x)"
    );

    println!("measuring snapshot-publish latency ...");
    let plain_deploy = deploy_probe_ns(false, 200);
    let published_deploy = deploy_probe_ns(true, 200);
    let mut publish_fields = vec![
        ("deploy_revoke_ns", Value::F64(round1(plain_deploy))),
        ("deploy_revoke_published_ns", Value::F64(round1(published_deploy))),
        ("publish_overhead_ratio", Value::F64(round3(published_deploy / plain_deploy))),
    ];
    if host_cores >= 2 {
        let (churn_replay_ns, deploy_under_churn_ns) = churned_parallel_replay(&mix, 50);
        let stall_ratio = churn_replay_ns / worker_ns[1];
        assert!(
            stall_ratio < 2.0,
            "deploy churn stalled the 2-worker replay: {churn_replay_ns:.1} ns/pkt \
             vs {:.1} ns/pkt quiet ({stall_ratio:.2}x)",
            worker_ns[1]
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
        (
            "process_frame",
            obj(vec![
                ("cache_hit", scan_vs_indexed(cache_hit_scan, cache_hit)),
                ("cache_miss", scan_vs_indexed(cache_miss_scan, cache_miss)),
                ("no_program", scan_vs_indexed(no_program_scan, no_program)),
                ("reused_outcome_ns", Value::F64(round1(reused))),
                (
                    "tracing",
                    obj(vec![
                        ("disabled_cache_hit_ns", Value::F64(round1(untraced_hit))),
                        ("enabled_cache_hit_ns", Value::F64(round1(traced_hit))),
                        ("overhead_ratio", Value::F64(round3(traced_hit / untraced_hit))),
                    ]),
                ),
                (
                    "megaflow_cache",
                    obj(vec![
                        ("dispatch_off_cache_hit_ns", Value::F64(round1(megaflow_off_hit))),
                        ("dispatch_on_cache_hit_ns", Value::F64(round1(megaflow_hit))),
                        ("dispatch_ratio", Value::F64(round3(megaflow_ratio))),
                        ("ternary_path_off_ns", Value::F64(round1(ternary_path_off))),
                        ("ternary_path_on_ns", Value::F64(round1(ternary_path_on))),
                        ("ternary_path_speedup", Value::F64(round3(ternary_path_speedup))),
                    ]),
                ),
            ]),
        ),
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
                ("replay_packets", Value::U64(REPLAY_PACKETS as u64)),
                ("replay_flows", Value::U64(REPLAY_FLOWS as u64)),
                ("sequential_ns_per_pkt", Value::F64(round1(seq_ns))),
                ("workers", Value::Array(scaling_rows)),
                ("two_worker_speedup", Value::F64(round3(two_worker_speedup))),
                ("scaling_assert", Value::Str(scaling_assert)),
            ]),
        ),
        (
            "single_worker_guard",
            obj(vec![
                ("cache_hit_scan_forced_ns", Value::F64(round1(cache_hit_scan))),
                ("cache_hit_indexed_ns", Value::F64(round1(cache_hit))),
                ("indexed_vs_scan_ratio", Value::F64(round3(guard_ratio))),
                ("inject_into_ns", Value::F64(round1(reused))),
                ("inject_sharded_fallback_ns", Value::F64(round1(sharded_fallback))),
                ("fallback_ratio", Value::F64(round3(fallback_ratio))),
                ("max_ratio", Value::F64(GUARD_MAX_RATIO)),
            ]),
        ),
        (
            "attribution_guard",
            obj(vec![
                ("interleaved_off_ns", Value::F64(round1(attr_off_hit))),
                ("telemetry_cache_hit_ns", Value::F64(round1(telemetry_hit))),
                ("telemetry_overhead_ratio", Value::F64(round3(telemetry_ratio))),
                ("attributed_cache_hit_ns", Value::F64(round1(attributed_hit))),
                ("attribution_overhead_ratio", Value::F64(round3(attribution_ratio))),
                ("max_ratio", Value::F64(ATTR_MAX_RATIO)),
            ]),
        ),
        ("snapshot_publish", obj(publish_fields)),
        (
            "history",
            obj(vec![
                (
                    "note",
                    Value::Str(
                        "Absolute ns figures carried from earlier PRs on this host; \
                         informational only. Guards compare interleaved same-run A/B \
                         ratios and never assert against these."
                            .into(),
                    ),
                ),
                ("seed_cache_hit_ns", Value::F64(2450.0)),
                ("pre_fastpath_cache_hit_ns", Value::F64(2900.1)),
                ("pre_fastpath_cache_miss_ns", Value::F64(2656.5)),
                ("pre_fastpath_no_program_ns", Value::F64(876.8)),
                ("pr5_cache_hit_ns", Value::F64(923.6)),
                ("pr5_cache_hit_remeasured_ns", Value::F64(1119.1)),
                ("pre_attribution_cache_hit_ns", Value::F64(1214.5)),
            ]),
        ),
    ]);

    let rendered = json::to_string_pretty(&doc);
    std::fs::write("BENCH_dataplane.json", &rendered).expect("write BENCH_dataplane.json");
    println!("{rendered}");
    println!("wrote BENCH_dataplane.json");
}
