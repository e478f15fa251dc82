//! Flight-recorder integration tests: journey reconstruction agrees with
//! the switch's returned outcome, deploy-under-replay traces keep every
//! packet inside one epoch with zero ring drops, wraparound accounting is
//! exact, the online invariant checker fires on corrupted interleavings,
//! and the Chrome trace-event export round-trips through the vendored JSON
//! parser (see `docs/TRACING.md`).

use std::net::Ipv4Addr;

use netpkt::FiveTuple;
use proptest::prelude::*;
use p4runpro::rmt_sim::clock::Nanos;
use p4runpro::rmt_sim::tm::Verdict;
use p4runpro::rmt_sim::trace::{
    chrome_trace_json, frame_five_tuple, journey, journeys, TraceConfig,
};
use p4runpro::traffic::{frame_for, synthesize, CampusParams, Replay};
use p4runpro::Controller;

/// A two-pass program (two accesses to one virtual memory under R = 1
/// forces a recirculation), so journeys exercise multi-pass reconstruction.
const TWO_PASS: &str = "@ m 256\nprogram twopass(<hdr.ipv4.dst, 10.0.0.1, 0xffffffff>) {\n    HASH_5_TUPLE_MEM(m); MEMADD(m);\n    LOADI(mar, 3); MEMREAD(m);\n    FORWARD(5);\n}\n";

fn tuple(dst: Ipv4Addr, sport: u16, dport: u16, proto: u8) -> FiveTuple {
    FiveTuple {
        src_addr: Ipv4Addr::new(10, 9, 0, 1),
        dst_addr: dst,
        src_port: sport,
        dst_port: dport,
        protocol: proto,
    }
}

/// One generated probe: whether it matches the program filter, plus
/// arbitrary ports/protocol/payload.
fn arb_probe() -> impl Strategy<Value = (bool, u16, u16, bool, usize)> {
    (any::<bool>(), 1u16..u16::MAX, 1u16..u16::MAX, any::<bool>(), 0usize..64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The reconstructed journey of every injected frame agrees with the
    /// `ProcessOutcome` the switch returned: same terminal drop flag, same
    /// pass count, recirculations = passes − 1, a hit on a program filter
    /// whenever the program served the packet, and the five-tuple the
    /// recorder extracted from the raw frame.
    #[test]
    fn journeys_agree_with_process_outcomes(probes in proptest::collection::vec(arb_probe(), 1..24)) {
        let mut ctl = Controller::with_defaults().unwrap();
        ctl.deploy(TWO_PASS).unwrap();
        ctl.enable_trace(TraceConfig { postmortem_dir: None, ..TraceConfig::default() });

        for (matches, sport, dport, tcp, payload) in probes {
            let dst = if matches { Ipv4Addr::new(10, 0, 0, 1) } else { Ipv4Addr::new(10, 2, 0, 9) };
            let proto = if tcp { 6 } else { 17 };
            let frame = frame_for(&tuple(dst, sport, dport, proto), payload);
            let packet = ctl.switch().next_packet_id();
            let out = ctl.inject(0, &frame).unwrap();

            let t = ctl.trace().unwrap();
            let j = journey(t.events(), packet).expect("journey retained");
            prop_assert!(!j.truncated);
            prop_assert_eq!(j.end, Some((out.passes, out.dropped)));
            prop_assert_eq!(j.passes.len(), usize::from(out.passes));
            prop_assert_eq!(j.recirculations(), usize::from(out.passes) - 1);
            prop_assert_eq!(j.port, Some(0));
            prop_assert_eq!(j.len, Some(frame.len() as u32));
            prop_assert_eq!(j.flow, frame_five_tuple(&frame));

            if matches {
                prop_assert_eq!(out.passes, 2, "two memory accesses recirculate once");
                prop_assert_eq!(j.final_verdict(), Some(Verdict::Forward(5)));
                prop_assert!(!j.stages_hit().is_empty(), "filter hit recorded");
            } else {
                prop_assert!(out.dropped, "no program owns this traffic");
                prop_assert_eq!(j.final_verdict(), Some(Verdict::Drop));
            }
            prop_assert_eq!(j.epochs.len(), 1, "one epoch per packet");
        }

        // The checker saw nothing suspicious in a clean run.
        prop_assert!(ctl.trace().unwrap().violations().is_empty());
    }
}

/// The Figure 13(a) scenario under the flight recorder at default
/// capacity: a full deploy → replay-with-churn → revoke run records with
/// zero drops, the online invariant checker stays silent, and every
/// packet's trace shows events from exactly one epoch.
#[test]
fn deploy_under_replay_keeps_packets_in_one_epoch() {
    let mut ctl = Controller::with_defaults().unwrap();
    ctl.enable_trace(TraceConfig { postmortem_dir: None, ..TraceConfig::default() });
    ctl.deploy("program basefwd(<hdr.ipv4.src, 0.0.0.0, 0x00000000>) { FORWARD(1); }")
        .unwrap();

    // 400 ms of campus traffic ≈ 5–6k packets ≈ 200k trace events: the
    // "experiment-scale" run the default ring capacity is sized for.
    let p = CampusParams { duration: Nanos::from_millis(400), ..Default::default() };
    let trace = synthesize(&p);
    let mut replay = Replay::new(trace.packets.clone());

    // Churn mid-replay, timestamps flowing into the recorder so packet
    // journeys and control batches land on one timeline.
    replay.run_until(Nanos::from_millis(150), |t, port, frame, out| {
        ctl.trace_mut().unwrap().set_now(t);
        ctl.inject_into(port, frame, out).unwrap();
    });
    ctl.deploy(TWO_PASS).unwrap();
    replay.run_until(Nanos::from_millis(300), |t, port, frame, out| {
        ctl.trace_mut().unwrap().set_now(t);
        ctl.inject_into(port, frame, out).unwrap();
    });
    ctl.revoke("twopass").unwrap();
    replay.run_all(|t, port, frame, out| {
        ctl.trace_mut().unwrap().set_now(t);
        ctl.inject_into(port, frame, out).unwrap();
    });
    ctl.revoke("basefwd").unwrap();

    let t = ctl.trace().unwrap();
    let stats = t.stats();
    assert!(stats.enabled);
    assert_eq!(stats.dropped, 0, "default capacity holds the full run");
    assert!(stats.recorded > 1000, "the run actually traced traffic");
    assert_eq!(stats.violations, 0, "clean interleaving");

    // Sequence numbers are strictly increasing in causal order.
    let seqs: Vec<u64> = t.events().map(|e| e.seq).collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]));

    // Every packet's events carry exactly one epoch, and epochs cover the
    // four lifecycle events (2 deploys + 2 revokes).
    let js = journeys(t.events());
    assert!(!js.is_empty());
    for j in &js {
        assert_eq!(j.epochs.len(), 1, "packet {} spans epochs {:?}", j.packet, j.epochs);
    }
    let distinct: std::collections::BTreeSet<u64> =
        js.iter().map(|j| j.epochs[0]).collect();
    assert!(distinct.len() >= 3, "traffic observed the churn: {distinct:?}");
    assert_eq!(ctl.epoch(), 4);
}

/// Ring wraparound under a deliberately tiny capacity: sequence numbers
/// stay monotonic, drop accounting is exact (recorded − retained), and
/// the retained window is the trace's tail.
#[test]
fn wraparound_is_monotonic_with_exact_drops() {
    let mut ctl = Controller::with_defaults().unwrap();
    ctl.deploy("program basefwd(<hdr.ipv4.src, 0.0.0.0, 0x00000000>) { FORWARD(1); }")
        .unwrap();
    ctl.enable_trace(TraceConfig {
        capacity: 32,
        postmortem_dir: None,
        ..TraceConfig::default()
    });

    let frame = frame_for(&tuple(Ipv4Addr::new(10, 2, 0, 9), 4000, 5000, 17), 16);
    for _ in 0..100 {
        ctl.inject(0, &frame).unwrap();
    }

    let t = ctl.trace().unwrap();
    let stats = t.stats();
    assert_eq!(stats.capacity, 32);
    assert_eq!(stats.retained, 32);
    assert!(stats.recorded > 32);
    assert_eq!(stats.dropped, stats.recorded - stats.retained, "exact accounting");

    let seqs: Vec<u64> = t.events().map(|e| e.seq).collect();
    assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1), "contiguous tail");
    assert_eq!(*seqs.last().unwrap(), stats.recorded - 1, "newest event retained");

    // The oldest packets were evicted wholesale; the newest journey is
    // complete and flagged untruncated.
    let js = journeys(t.events());
    let newest = js.last().unwrap();
    assert!(!newest.truncated || js.len() == 1);
}

/// A deliberately corrupted interleaving — a packet injected inside an
/// open control batch (test-only hook: `batch_begin` without the control
/// channel) — fires the `packet-during-batch` invariant and produces a
/// post-mortem artifact with the ring tail.
#[test]
fn corrupted_interleaving_fires_checker_and_dumps_postmortem() {
    let dir = std::env::temp_dir().join(format!("p4rp-trace-pm-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let mut ctl = Controller::with_defaults().unwrap();
    ctl.deploy("program basefwd(<hdr.ipv4.src, 0.0.0.0, 0x00000000>) { FORWARD(1); }")
        .unwrap();
    ctl.enable_trace(TraceConfig {
        capacity: 1024,
        postmortem_dir: Some(dir.to_string_lossy().into_owned()),
        postmortem_last: 16,
    });

    let frame = frame_for(&tuple(Ipv4Addr::new(10, 2, 0, 9), 4000, 5000, 17), 16);
    ctl.inject(0, &frame).unwrap();
    assert!(ctl.trace().unwrap().violations().is_empty(), "clean so far");

    // Corrupt: open a batch and let a packet land inside the critical
    // section, something the real control channel can never do.
    let open = ctl.trace_mut().unwrap().batch_begin(1);
    ctl.inject(0, &frame).unwrap();

    let t = ctl.trace().unwrap();
    assert!(!t.violations().is_empty(), "checker fired");
    assert_eq!(t.violations()[0].rule, "packet-during-batch");

    let dumps: Vec<_> = std::fs::read_dir(&dir)
        .expect("post-mortem directory created")
        .map(|e| e.unwrap().path())
        .collect();
    assert!(!dumps.is_empty(), "post-mortem artifact written");
    let text = std::fs::read_to_string(&dumps[0]).unwrap();
    assert!(text.contains("packet-during-batch"), "{text}");
    assert!(text.contains("last 16 events"), "{text}");

    // Close the batch; clean traffic afterwards does not re-fire.
    let n = ctl.trace().unwrap().violations().len();
    ctl.trace_mut().unwrap().batch_end(open, 1, Nanos::ZERO);
    ctl.inject(0, &frame).unwrap();
    assert_eq!(ctl.trace().unwrap().violations().len(), n);

    std::fs::remove_dir_all(&dir).ok();
}

/// The Chrome trace-event export round-trips through the vendored JSON
/// parser and keeps control ops and packet journeys on separate tracks.
#[test]
fn chrome_export_roundtrips_with_two_tracks() {
    let mut ctl = Controller::with_defaults().unwrap();
    ctl.enable_trace(TraceConfig { postmortem_dir: None, ..TraceConfig::default() });
    ctl.deploy(TWO_PASS).unwrap();
    let frame = frame_for(&tuple(Ipv4Addr::new(10, 0, 0, 1), 4000, 5000, 17), 16);
    ctl.inject(0, &frame).unwrap();
    ctl.revoke("twopass").unwrap();

    let text = chrome_trace_json(ctl.trace().unwrap().events());
    let doc = serde::json::parse(&text).expect("export parses");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(events.len() > 10);

    let pid_of = |ev: &serde::Value| match ev.get("pid") {
        Some(serde::Value::U64(p)) => *p,
        other => panic!("pid must be an integer, got {other:?}"),
    };
    let name_of = |ev: &serde::Value| match ev.get("name") {
        Some(serde::Value::Str(s)) => s.clone(),
        other => panic!("name must be a string, got {other:?}"),
    };
    let control: Vec<String> =
        events.iter().filter(|e| pid_of(e) == 1).map(&name_of).collect();
    let packet: Vec<String> =
        events.iter().filter(|e| pid_of(e) == 2).map(&name_of).collect();

    assert!(control.iter().any(|n| n == "batch"), "{control:?}");
    assert!(control.iter().any(|n| n == "deploy"), "{control:?}");
    assert!(control.iter().any(|n| n == "revoke"), "{control:?}");
    assert!(control.iter().any(|n| n == "entry_insert"), "{control:?}");
    assert!(control.iter().any(|n| n == "epoch_bump"), "{control:?}");
    assert!(packet.iter().any(|n| n == "packet_start"), "{packet:?}");
    assert!(packet.iter().any(|n| n == "tm_verdict"), "{packet:?}");
    assert!(packet.iter().any(|n| n == "packet_end"), "{packet:?}");

    // Batch slices carry durations; every event row parses pid/ts.
    for ev in events {
        assert!(ev.get("ts").is_some());
        let pid = pid_of(ev);
        assert!(pid == 1 || pid == 2, "only the two tracks");
    }
}

/// Disabling the flight recorder hands the ring back and the switch stops
/// recording; re-enabling starts a fresh ring synchronized to the epoch.
#[test]
fn disable_returns_ring_and_reenable_is_fresh() {
    let mut ctl = Controller::with_defaults().unwrap();
    ctl.enable_trace(TraceConfig { postmortem_dir: None, ..TraceConfig::default() });
    ctl.deploy("program basefwd(<hdr.ipv4.src, 0.0.0.0, 0x00000000>) { FORWARD(1); }")
        .unwrap();
    let ring = ctl.disable_trace().expect("was enabled");
    assert!(ring.recorded() > 0);
    assert!(ctl.trace().is_none());
    assert!(!ctl.trace_stats().enabled);

    let frame = frame_for(&tuple(Ipv4Addr::new(10, 2, 0, 9), 1, 2, 17), 16);
    ctl.inject(0, &frame).unwrap();

    let t = ctl.enable_trace(TraceConfig { postmortem_dir: None, ..TraceConfig::default() });
    assert_eq!(t.recorded(), 0, "fresh ring");
    assert_eq!(t.epoch(), 1, "synchronized to the controller epoch");
    ctl.inject(0, &frame).unwrap();
    let j = journeys(ctl.trace().unwrap().events());
    assert_eq!(j.len(), 1);
    assert!(j[0].packet >= 1, "packet ids stay globally unique across windows");
}

/// The recorders are independent: the flight recorder's stream is the same
/// with telemetry and attribution on as with them off, the telemetry and
/// attribution counters are the same with the ring on as with it off, and
/// no recorder changes a packet's fate — one seeded stream over a loaded
/// switch with a recirculating program, a REPORT-ing program, a forwarder
/// and unmatched traffic, replayed under each combination and on a
/// recorder-free clone of the switch.
#[test]
fn recorders_do_not_see_each_other() {
    const REPORTING: &str =
        "program rep(<hdr.ipv4.dst, 10.0.0.2, 0xffffffff>) { REPORT; FORWARD(2); }";
    const FORWARDING: &str = "program fwd(<hdr.ipv4.dst, 10.0.0.3, 0xffffffff>) { FORWARD(1); }";
    let loaded = |telemetry: bool, trace: bool| {
        let mut ctl = Controller::with_defaults().unwrap();
        if trace {
            ctl.enable_trace(TraceConfig { postmortem_dir: None, ..TraceConfig::default() });
        }
        if telemetry {
            ctl.enable_attribution();
        }
        for program in [TWO_PASS, REPORTING, FORWARDING] {
            ctl.deploy(program).unwrap();
        }
        ctl
    };
    // A seeded stream over the three programs' destinations plus one no
    // program owns.
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let frames: Vec<(u16, Vec<u8>)> = (0..600)
        .map(|_| {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let r = state >> 16;
            let dst = Ipv4Addr::new(10, 0, 0, 1 + (r % 4) as u8);
            let proto = if r & 0x100 == 0 { 6 } else { 17 };
            let t = tuple(dst, 1 + (r >> 9) as u16 % 64, 80, proto);
            ((r >> 24) as u16 % 4, frame_for(&t, (r >> 32) as usize % 48))
        })
        .collect();
    type Fate = (Vec<(u16, Vec<u8>)>, Vec<Vec<u8>>, bool, u8);
    let replay = |ctl: &mut Controller| -> Vec<Fate> {
        frames
            .iter()
            .map(|(port, frame)| {
                let out = ctl.inject(*port, frame).unwrap();
                (out.emitted.clone(), out.reports.clone(), out.dropped, out.passes)
            })
            .collect()
    };

    let mut all = loaded(true, true);
    let mut bare = all.switch().clone();
    bare.disable_telemetry();
    bare.disable_trace();
    bare.clear_attribution_field();
    let mut ring_only = loaded(false, true);
    let mut counters_only = loaded(true, false);

    let fates = replay(&mut all);
    assert_eq!(replay(&mut ring_only), fates);
    assert_eq!(replay(&mut counters_only), fates);
    let bare_fates: Vec<Fate> = frames
        .iter()
        .map(|(port, frame)| {
            let out = bare.process_frame(*port, frame).unwrap();
            (out.emitted, out.reports, out.dropped, out.passes)
        })
        .collect();
    assert_eq!(bare_fates, fates, "a recorder changed a fate");
    assert!(fates.iter().any(|f| f.3 == 2), "the stream recirculates");
    assert!(fates.iter().any(|f| !f.1.is_empty()), "the stream reports");
    assert!(fates.iter().any(|f| f.2), "the stream drops");

    let stream = |ctl: &Controller| ctl.trace().unwrap().events().collect::<Vec<_>>();
    assert_eq!(stream(&all), stream(&ring_only), "telemetry moved the trace stream");
    assert_eq!(all.trace_stats(), ring_only.trace_stats());
    assert!(all.trace().unwrap().violations().is_empty());

    let counters = all.switch().telemetry().unwrap();
    assert_eq!(Some(counters), counters_only.switch().telemetry(), "the ring moved the counters");
    let slots = counters.per_prog.as_ref().unwrap();
    assert!(slots.len() > 3, "three programs plus the unattributed slot");
}
