//! The frame path allocates nothing once it is warm.
//!
//! `Switch::process_frame_into` with a reused outcome recycles everything a
//! frame needs — the working PHV (swapped with the outcome's), the emitted
//! and report buffers (kept by the outcome between frames), the
//! recirculation ping-pong buffers — so after a short warm-up a frame costs
//! zero heap allocations, whatever its fate. A reintroduced `Vec` per frame
//! fails here rather than as a per-layer benchmark figure nobody gates.
//!
//! The counting allocator is this test binary's own (integration tests are
//! separate binaries), and it counts per thread, so the cases can run in
//! parallel without seeing each other.

use netpkt::CacheOp;
use p4runpro::p4rp_progs::sources;
use p4runpro::rmt_sim::switch::ProcessOutcome;
use p4runpro::traffic::{frame_for, make_flows, netcache_frame};
use p4runpro::Controller;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations and reallocations made by this thread. `const`-initialised
    /// and without a destructor, so touching it never allocates itself.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // A thread being torn down has no counter left; nothing measures there.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a thread-local
// counter bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

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
    let before = ALLOCS.with(Cell::get);
    inject(MEASURED);
    ALLOCS.with(Cell::get) - before
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

#[test]
fn netcache_hit_mix() {
    const KEY: u32 = 0x4242;
    let mut ctl = Controller::with_defaults().unwrap();
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
    let n = allocations_per_1000_frames(&mut ctl, &frames, |out| {
        assert_eq!((out.passes, out.emitted.len(), out.dropped), (1, 1, false));
    });
    assert_eq!(n, 0);
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
