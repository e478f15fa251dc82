//! The parallel data plane: sharded multi-worker replay with
//! epoch-consistent table snapshots (docs/PERF.md).
//!
//! Three acceptance properties pin the engine down:
//!
//! 1. **Engine equivalence** — per-flow outcomes (emitted frames, drops,
//!    recirculation passes) are bit-identical whether packets run through
//!    the sequential path or are sharded across 1, 2, or 4 workers.
//! 2. **Atomic visibility under churn** — deploy/revoke batches flip
//!    visible to workers as whole snapshots: a freshly deployed program
//!    forwards its very next packet, a revoked one never half-matches,
//!    and no invariant fires on any ring while traffic keeps flowing.
//! 3. **Deterministic merge** — the merged trace ring renumbers
//!    sequences contiguously and accounts for every event: retained plus
//!    dropped equals the sum over the source rings.

use std::net::Ipv4Addr;

use p4runpro::p4rp_ctl::chaos::{frame_to, total_violations, SENTINEL_DST, SENTINEL_PORT};
use p4runpro::rmt_sim::clock::Nanos;
use p4runpro::rmt_sim::parallel::shard_for_frame;
use p4runpro::rmt_sim::trace::TraceConfig;
use p4runpro::traffic::gen::{frame_for, make_flows, Flow};
use p4runpro::traffic::replay::{ParallelReplay, Replay, TimedPacket};
use p4runpro::Controller;
use proptest::prelude::*;

const SENTINEL: &str =
    "program sentinel(<hdr.ipv4.dst, 10.9.9.9, 0xffffffff>) { FORWARD(7); }";

/// Everything observable about one packet's fate, minus the PHV scratch.
type Fate = (Vec<(u16, Vec<u8>)>, Vec<Vec<u8>>, bool, u8);

/// Forward the first few distinct destination addresses of `mix` to
/// distinct ports, so the replay exercises hit, miss, and per-flow
/// divergence at once.
fn deploy_forwarders(ctl: &mut Controller, mix: &[Flow]) {
    let mut seen = std::collections::HashSet::new();
    let mut i = 0;
    for f in mix {
        if seen.len() == 4 {
            break;
        }
        if seen.insert(f.tuple.dst_addr) {
            let src = format!(
                "program f{i}(<hdr.ipv4.dst, {}, 0xffffffff>) {{ FORWARD({}); }}",
                f.tuple.dst_addr,
                i + 1
            );
            ctl.deploy(&src).unwrap();
            i += 1;
        }
    }
}

/// Replay the seeded mix through one engine configuration and record
/// every packet's fate. `workers == 0` leaves the pool uninstalled (the
/// pure sequential path every other test exercises); otherwise packets
/// shard across `workers` forked switches.
fn run_engine(seed: u64, flows: usize, packets: usize, workers: usize) -> Vec<Fate> {
    let mut ctl = Controller::with_defaults().unwrap();
    let mix = make_flows(seed, flows, 0.5);
    deploy_forwarders(&mut ctl, &mix);
    if workers > 0 {
        ctl.enable_workers(workers);
    }
    (0..packets)
        .map(|i| {
            let frame = frame_for(&mix[i % mix.len()].tuple, 64);
            let out = ctl.inject(0, &frame).unwrap();
            (out.emitted, out.reports, out.dropped, out.passes)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("P4RP_PROPTEST_CASES")
            .ok().and_then(|s| s.parse().ok()).unwrap_or(8),
        .. ProptestConfig::default()
    })]

    /// Sharding is an implementation detail: for any seeded flow mix,
    /// per-flow outcomes through 1, 2, and 4 workers are bit-identical
    /// to the sequential engine's, packet for packet.
    #[test]
    fn parallel_outcomes_match_sequential(
        seed in 0u64..10_000,
        flows in 4usize..=16,
        packets in 40usize..=160,
    ) {
        let baseline = run_engine(seed, flows, packets, 0);
        for workers in [1usize, 2, 4] {
            let got = run_engine(seed, flows, packets, workers);
            prop_assert_eq!(
                &got, &baseline,
                "fates diverged at {} worker(s), seed {}", workers, seed
            );
        }
    }

    /// `shard_for_frame` is total: any byte soup — empty, shorter than
    /// any header, or random garbage — shards without panicking, the
    /// answer is stable across calls, and it always lands in `0..n`,
    /// including non-power-of-two worker counts.
    #[test]
    fn shard_for_frame_is_total_stable_and_in_range(
        frame in prop::collection::vec(any::<u8>(), 0..64),
        n in 0usize..=9,
    ) {
        let shard = shard_for_frame(&frame, n);
        prop_assert_eq!(shard, shard_for_frame(&frame, n), "sharding is unstable");
        if n <= 1 {
            prop_assert_eq!(shard, 0, "n <= 1 must collapse to shard 0");
        } else {
            prop_assert!(shard < n, "shard {} out of range 0..{}", shard, n);
        }
    }
}

/// Every truncation of a real generated frame shards in range, and a
/// flow keeps its worker whatever the frame size — the five-tuple, not
/// the payload, decides placement.
#[test]
fn shard_for_frame_handles_truncated_real_frames() {
    let mix = make_flows(7, 8, 0.5);
    for f in &mix {
        let frame = frame_for(&f.tuple, 64);
        for len in 0..=frame.len() {
            for n in [1usize, 2, 3, 5, 7, 8] {
                let shard = shard_for_frame(&frame[..len], n);
                assert!(shard < n, "shard {shard} out of 0..{n} at prefix {len}");
            }
        }
        let small = shard_for_frame(&frame_for(&f.tuple, 64), 3);
        let large = shard_for_frame(&frame_for(&f.tuple, 128), 3);
        assert_eq!(small, large, "flow affinity broke across frame sizes");
    }
}

/// The threaded driver agrees with the sequential [`Replay`] on every
/// merged aggregate: per-bucket tx/drop counts, per-port byte totals,
/// and the set of flows that crossed the report threshold.
#[test]
fn threaded_driver_matches_sequential_totals() {
    let mix = make_flows(42, 32, 0.5);
    let trace: Vec<TimedPacket> = (0..2000)
        .map(|i| TimedPacket {
            t: Nanos::from_micros(i as u64),
            port: 0,
            frame: frame_for(&mix[i % mix.len()].tuple, 64),
        })
        .collect();

    let mut ctl = Controller::with_defaults().unwrap();
    deploy_forwarders(&mut ctl, &mix);
    let mut seq = Replay::new(trace.clone());
    seq.run_all(|_, port, frame, out| {
        ctl.inject_into(port, frame, out).unwrap();
    });
    seq.finish();
    let seq_tx: u64 = seq.stats.iter().map(|b| b.tx_pkts).sum();
    let seq_drop: u64 = seq.stats.iter().map(|b| b.dropped).sum();

    for workers in [2usize, 4] {
        let mut ctl = Controller::with_defaults().unwrap();
        deploy_forwarders(&mut ctl, &mix);
        ctl.enable_workers(workers);
        let pr = ParallelReplay::new(trace.clone(), workers);
        assert_eq!(pr.total_packets(), 2000);
        let pool = ctl.workers_mut().unwrap();
        let out = pr.run(pool).unwrap();

        assert_eq!(out.packets, 2000, "{workers} workers");
        let par_tx: u64 = out.stats.iter().map(|b| b.tx_pkts).sum();
        let par_drop: u64 = out.stats.iter().map(|b| b.dropped).sum();
        assert_eq!((par_tx, par_drop), (seq_tx, seq_drop), "{workers} workers");
        // Bucket boundaries are global trace positions, so the merged
        // per-bucket series matches the sequential one exactly.
        assert_eq!(out.stats.len(), seq.stats.len(), "{workers} workers");
        for (pb, sb) in out.stats.iter().zip(seq.stats.iter()) {
            assert_eq!(pb.tx_pkts, sb.tx_pkts);
            assert_eq!(pb.dropped, sb.dropped);
        }
        assert_eq!(out.port_tx_bytes, seq.port_tx_bytes, "{workers} workers");
        assert_eq!(out.reported_flows, seq.reported_flows, "{workers} workers");
        // Per-worker stats decompose the totals without loss.
        let injected: u64 = out.worker_stats.iter().map(|w| w.packets).sum();
        assert_eq!(injected, 2000);
    }
}

/// Deploy/revoke churn while two workers carry traffic: every batch is
/// visible atomically (a new program forwards its next packet, a revoked
/// one stops), the sentinel never misforwards, and no invariant fires on
/// any ring.
#[test]
fn churn_under_parallel_replay_keeps_snapshots_atomic() {
    let mut ctl = Controller::with_defaults().unwrap();
    ctl.enable_trace(TraceConfig { capacity: 16384, postmortem_dir: None, ..Default::default() });
    ctl.deploy(SENTINEL).unwrap();
    ctl.enable_workers(2);
    let gen0 = ctl.channel().snapshot_generation();
    let sentinel = frame_to(SENTINEL_DST);

    for step in 0..24usize {
        for _ in 0..4 {
            let out = ctl.inject(0, &sentinel).unwrap();
            assert!(
                out.emitted.iter().any(|&(p, _)| p == SENTINEL_PORT),
                "sentinel misforwarded at step {step}"
            );
        }

        let dst = Ipv4Addr::new(10, 42, step as u8, 1);
        let port = 1 + (step % 4) as u16;
        ctl.deploy(&format!(
            "program churn{step}(<hdr.ipv4.dst, {dst}, 0xffffffff>) {{ FORWARD({port}); }}"
        ))
        .unwrap();
        // The deploy batch must be wholly visible to whichever worker
        // owns this flow — its very next packet forwards.
        let out = ctl.inject(0, &frame_to(dst)).unwrap();
        assert!(
            out.emitted.iter().any(|&(p, _)| p == port),
            "fresh deploy churn{step} not visible to its worker"
        );

        if step >= 2 {
            let old = step - 2;
            let old_dst = Ipv4Addr::new(10, 42, old as u8, 1);
            let old_port = 1 + (old % 4) as u16;
            ctl.revoke(&format!("churn{old}")).unwrap();
            // And the revoke batch too — the old program is gone, not
            // half-matched.
            let out = ctl.inject(0, &frame_to(old_dst)).unwrap();
            assert!(
                !out.emitted.iter().any(|&(p, _)| p == old_port),
                "revoked churn{old} still forwarding"
            );
        }
    }

    assert!(ctl.channel().snapshot_generation() > gen0, "no snapshots published");
    assert_eq!(total_violations(&ctl), 0);
    assert!(ctl.audit().unwrap().clean());
    // Workers adopt deltas lazily (on their next packet); after one
    // explicit poll every ring has caught up to the published head.
    let master_gen = ctl.channel().snapshot_generation();
    let pool = ctl.workers_mut().unwrap();
    let _ = pool.poll_all();
    for w in pool.workers() {
        assert_eq!(w.stats().snapshot_generation, master_gen);
    }
}

/// The algorithmic TCAM fast path is invisible to the data plane: with
/// the tuple-space index serving lookups, every packet's fate under
/// deploy/revoke churn — sequential or sharded across a 2-worker pool —
/// is bit-identical to the sequential engine in forced scan mode (the
/// semantic authority), and no invariant fires on any ring.
#[test]
fn tss_keeps_fates_identical_under_churn() {
    let run = |indexed: bool, workers: usize| -> Vec<Fate> {
        let mut ctl = Controller::with_defaults().unwrap();
        ctl.enable_trace(TraceConfig {
            capacity: 16384,
            postmortem_dir: None,
            ..Default::default()
        });
        ctl.deploy(SENTINEL).unwrap();
        let mix = make_flows(21, 12, 0.5);
        deploy_forwarders(&mut ctl, &mix);
        if workers > 0 {
            ctl.enable_workers(workers);
        }
        ctl.set_indexed(indexed);

        let mut fates = Vec::new();
        let mut record = |ctl: &mut Controller, frame: &[u8]| {
            let out = ctl.inject(0, frame).unwrap();
            fates.push((out.emitted, out.reports, out.dropped, out.passes));
        };
        for step in 0..16usize {
            for i in 0..8 {
                record(&mut ctl, &frame_for(&mix[(step * 8 + i) % mix.len()].tuple, 64));
            }
            record(&mut ctl, &frame_to(SENTINEL_DST));
            let dst = Ipv4Addr::new(10, 60, step as u8, 1);
            ctl.deploy(&format!(
                "program churn{step}(<hdr.ipv4.dst, {dst}, 0xffffffff>) {{ FORWARD({}); }}",
                1 + step % 4
            ))
            .unwrap();
            record(&mut ctl, &frame_to(dst));
            if step >= 2 {
                let old = step - 2;
                ctl.revoke(&format!("churn{old}")).unwrap();
                record(&mut ctl, &frame_to(Ipv4Addr::new(10, 60, old as u8, 1)));
            }
        }
        assert_eq!(total_violations(&ctl), 0, "invariant fired (indexed={indexed})");
        assert!(ctl.audit().unwrap().clean(), "audit failed (indexed={indexed})");
        fates
    };

    let scan_authority = run(false, 0);
    let tss_sequential = run(true, 0);
    let tss_parallel = run(true, 2);
    assert_eq!(tss_sequential, scan_authority, "sequential TSS diverged from scan");
    assert_eq!(tss_parallel, scan_authority, "2-worker TSS diverged from scan");
}

/// Attribution merge survives idle shards: a single-destination mix
/// leaves most of a 4-worker pool with zero packets, yet the merged
/// per-program rows still reproduce the globals exactly and agree
/// across worker counts — zero-packet recorders must merge as identity
/// elements, not as resets.
#[test]
fn attribution_merge_is_exact_with_zero_packet_workers() {
    let mut baseline = None;
    for workers in [0usize, 1, 2, 4] {
        let mut ctl = Controller::with_defaults().unwrap();
        ctl.enable_attribution();
        ctl.deploy(SENTINEL).unwrap();
        if workers > 0 {
            ctl.enable_workers(workers);
        }
        // One flow: the shard hash maps it to exactly one worker, so at
        // 4 workers at least three recorders stay at zero packets.
        let sentinel = frame_to(SENTINEL_DST);
        for _ in 0..40 {
            ctl.inject(0, &sentinel).unwrap();
        }

        let report = ctl.telemetry_report();
        let dp = report.dataplane.as_ref().unwrap();
        let terminal = dp.tm.forwarded.get()
            + dp.tm.returned.get()
            + dp.tm.multicast.get()
            + dp.tm.dropped.get();
        assert_eq!(terminal, 40, "{workers} workers: every frame has one verdict");
        assert_eq!(
            report.programs.iter().map(|p| p.packets).sum::<u64>(),
            40,
            "{workers} workers: attribution accounts for every packet"
        );
        let row = report
            .programs
            .iter()
            .find(|p| p.name == "sentinel")
            .expect("sentinel attribution row");
        assert_eq!(row.packets, 40, "{workers} workers");
        assert_eq!(row.forwarded, 40, "{workers} workers");

        // Every engine configuration reports byte-identical rows.
        let rows: Vec<String> = report.programs.iter().map(|p| p.render()).collect();
        match &baseline {
            None => baseline = Some(rows),
            Some(b) => assert_eq!(&rows, b, "{workers} workers diverged"),
        }
    }
}

/// Merging trace rings and recorders that never saw an event is safe:
/// a freshly forked pool with zero traffic yields an empty merged ring
/// (no phantom events, no drops) and a merged recorder equal to the
/// master's, and the telemetry report still renders.
#[test]
fn empty_worker_rings_and_recorders_merge_cleanly() {
    let mut ctl = Controller::with_defaults().unwrap();
    ctl.enable_attribution();
    ctl.enable_trace(TraceConfig { capacity: 128, postmortem_dir: None, ..Default::default() });
    ctl.enable_workers(4);

    // No packets at all: worker rings and recorders are pristine.
    let merged = ctl.merged_trace().unwrap();
    let stats = merged.stats();
    assert_eq!(stats.dropped, 0, "nothing to drop from empty rings");
    let master_events = ctl.trace().unwrap().stats().retained;
    assert_eq!(stats.retained, master_events, "merge adds no phantom events");

    let report = ctl.telemetry_report();
    let dp = report.dataplane.as_ref().unwrap();
    assert_eq!(
        dp.tm.forwarded.get() + dp.tm.returned.get() + dp.tm.multicast.get() + dp.tm.dropped.get(),
        0
    );
    assert!(report.programs.iter().all(|p| p.packets == 0));
    // The summary renderer tolerates the all-zero state.
    assert!(report.summary().contains("dataplane"));
}

/// The merged trace ring is causally ordered with contiguous sequence
/// numbers, and its drop accounting is exact: retained + dropped events
/// equal the sum over the master and worker source rings.
#[test]
fn merged_trace_is_monotonic_with_exact_drop_accounting() {
    let mut ctl = Controller::with_defaults().unwrap();
    // Small rings force wraparound on the workers, so the drop ledger
    // actually carries weight.
    ctl.enable_trace(TraceConfig { capacity: 128, postmortem_dir: None, ..Default::default() });
    ctl.deploy(SENTINEL).unwrap();
    ctl.enable_workers(2);

    let mix = make_flows(7, 24, 0.5);
    for i in 0..600 {
        let frame = frame_for(&mix[i % mix.len()].tuple, 64);
        ctl.inject(0, &frame).unwrap();
    }

    let mut source_retained = 0u64;
    let mut source_dropped = 0u64;
    let mut rings = Vec::new();
    if let Some(t) = ctl.trace() {
        rings.push(t.stats());
    }
    for w in ctl.workers().unwrap().workers() {
        if let Some(t) = w.switch().trace() {
            rings.push(t.stats());
        }
    }
    for s in &rings {
        source_retained += s.retained;
        source_dropped += s.dropped;
        assert_eq!(s.violations, 0);
    }
    assert!(source_dropped > 0, "test did not exercise ring wraparound");

    let merged = ctl.merged_trace().unwrap();
    let stats = merged.stats();
    // Nothing vanished in the merge: every source event is either in the
    // merged ring or on its drop ledger.
    assert_eq!(stats.recorded, source_retained);
    assert_eq!(
        stats.retained + stats.dropped,
        source_retained + source_dropped,
        "merge lost events: {stats:?}"
    );
    // Contiguous renumbering — causal order survives the shard merge.
    let seqs: Vec<u64> = merged.events().map(|e| e.seq).collect();
    assert!(!seqs.is_empty());
    for pair in seqs.windows(2) {
        assert_eq!(pair[1], pair[0] + 1, "seq gap after merge");
    }
    let mut last_t = 0u64;
    for e in merged.events() {
        assert!(e.t_ns >= last_t, "merged ring went back in time");
        last_t = e.t_ns;
    }
}
