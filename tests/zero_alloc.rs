//! The frame path allocates nothing once it is warm.
//!
//! `Switch::process_frame_into` with a reused outcome recycles everything a
//! frame needs — the working PHV (swapped with the outcome's), the emitted
//! and report buffers (kept by the outcome between frames), the
//! recirculation ping-pong buffers — so after a short warm-up a frame costs
//! zero heap allocations, whatever its fate. A reintroduced `Vec` per frame
//! fails here rather than as a per-layer benchmark figure nobody gates.
//!
//! The counting allocator (`support/counting_alloc.rs`) is this test
//! binary's own and counts per thread, so the cases can run in parallel
//! without seeing each other.

use netpkt::CacheOp;
use p4runpro::p4rp_progs::sources;
use p4runpro::rmt_sim::switch::ProcessOutcome;
use p4runpro::rmt_sim::trace::TraceConfig;
use p4runpro::traffic::{frame_for, make_flows, netcache_frame};
use p4runpro::Controller;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const WARM_UP: usize = 64;
const MEASURED: usize = 1000;

/// Inject `frames` round-robin through one reused outcome: [`WARM_UP`]
/// frames uncounted, then [`MEASURED`] frames counted. `check` sees every
/// outcome, so each case proves its frames took the path it is about.
fn allocations_per_1000_frames(
    ctl: &mut Controller,
    frames: &[Vec<u8>],
    check: impl Fn(&ProcessOutcome),
) -> u64 {
    let mut outcome = ProcessOutcome::empty();
    let mut inject = |n: usize| {
        for i in 0..n {
            ctl.inject_into((i % 4) as u16, &frames[i % frames.len()], &mut outcome)
                .unwrap();
            check(&outcome);
        }
    };
    inject(WARM_UP);
    let before = allocations();
    inject(MEASURED);
    allocations() - before
}

#[test]
fn wildcard_forward_of_minimum_size_frames() {
    let mut ctl = Controller::with_defaults().unwrap();
    ctl.deploy("program fwd(<hdr.ipv4.src, 0.0.0.0, 0x00000000>) { FORWARD(1); }")
        .unwrap();
    // 14 + 20 + 8 + 18 = 60 bytes before the FCS.
    let frames: Vec<Vec<u8>> = make_flows(1, 16, 0.0)
        .iter()
        .map(|f| frame_for(&f.tuple, 18))
        .collect();
    assert!(frames.iter().all(|f| f.len() == 60));
    let n = allocations_per_1000_frames(&mut ctl, &frames, |out| {
        assert_eq!((out.passes, out.emitted.len(), out.emitted[0].0), (1, 1, 1));
    });
    assert_eq!(n, 0);
}

/// The NetCache hit mix through `ctl`, which the caller has set up.
fn netcache_hit_mix_allocations(mut ctl: Controller) -> u64 {
    const KEY: u32 = 0x4242;
    ctl.deploy(&sources::cache(
        "cache",
        "<hdr.udp.dst_port, 7777, 0xffff>",
        1024,
        &[(KEY, 512)],
    ))
    .unwrap();
    // Nine reads of the resident key to one of another.
    let frames: Vec<Vec<u8>> = make_flows(1, 20, 0.0)
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let key = if i % 10 == 9 { KEY + 1 + i as u32 } else { KEY };
            netcache_frame(&f.tuple, CacheOp::Read, u64::from(key), 0)
        })
        .collect();
    allocations_per_1000_frames(&mut ctl, &frames, |out| {
        assert_eq!((out.passes, out.emitted.len(), out.dropped), (1, 1, false));
    })
}

#[test]
fn netcache_hit_mix() {
    assert_eq!(netcache_hit_mix_allocations(Controller::with_defaults().unwrap()), 0);
}

/// The same frames with every recorder on — telemetry, per-program
/// attribution and the trace ring: counters are bumped in place, the parser
/// path key is looked up without being built on the heap, and the ring's
/// slots were allocated when it was enabled.
#[test]
fn netcache_hit_mix_observed() {
    let mut ctl = Controller::with_defaults().unwrap();
    ctl.enable_telemetry();
    ctl.enable_attribution();
    ctl.enable_trace(TraceConfig { postmortem_dir: None, ..TraceConfig::default() });
    assert_eq!(netcache_hit_mix_allocations(ctl), 0);
}

#[test]
fn two_pass_recirculating_program() {
    // The heavy-hitter detector with a threshold of two packets: each of the
    // 16 flows crosses it, is reported once and takes the heavy branch from
    // then on — all inside the warm-up, so the measured frames walk stages
    // whose scratch buffers have seen their largest action.
    let mut ctl = Controller::with_defaults().unwrap();
    let report = ctl
        .deploy(&sources::hh(
            "hh",
            "<hdr.ipv4.src, 0.0.0.0, 0x00000000>",
            256,
            2,
        ))
        .unwrap();
    assert_eq!(report[0].passes, 2, "hh needs a second pass");
    let frames: Vec<Vec<u8>> = make_flows(1, 16, 0.0)
        .iter()
        .map(|f| frame_for(&f.tuple, 40))
        .collect();
    let n = allocations_per_1000_frames(&mut ctl, &frames, |out| {
        assert_eq!(out.passes, 2, "every frame recirculates once");
    });
    assert_eq!(n, 0);
    assert_eq!(
        ctl.switch().cpu_counters.tx_pkts,
        16,
        "one report per flow, all in the warm-up"
    );
}

#[test]
fn reporting_program() {
    let mut ctl = Controller::with_defaults().unwrap();
    ctl.deploy("program rep(<hdr.ipv4.src, 0.0.0.0, 0x00000000>) { REPORT; FORWARD(2); }")
        .unwrap();
    let frames: Vec<Vec<u8>> = make_flows(1, 16, 0.0)
        .iter()
        .map(|f| frame_for(&f.tuple, 100))
        .collect();
    let n = allocations_per_1000_frames(&mut ctl, &frames, |out| {
        assert_eq!((out.emitted.len(), out.reports.len()), (1, 1));
        assert_eq!(
            out.reports[0], out.emitted[0].1,
            "the copy is the frame as emitted"
        );
    });
    assert_eq!(n, 0);
}
