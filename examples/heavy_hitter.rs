//! Heavy-hitter detection (the Figure 17 program) on a synthetic trace
//! with known ground truth: link the detector at runtime, stream the
//! trace, and score the flows it reports to the control plane.
//!
//! ```sh
//! cargo run --release --example heavy_hitter
//! ```

use p4runpro::netpkt::FiveTuple;
use p4runpro::p4rp_progs::sources;
use p4runpro::traffic::{self, f1_score, Replay, TimedPacket};
use p4runpro::rmt_sim::clock::{Bandwidth, Nanos};
use p4runpro::Controller;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::HashSet;

const THRESHOLD: u32 = 256;

fn main() {
    let mut ctl = Controller::with_defaults().unwrap();
    let src = sources::hh("hh", "<hdr.ipv4.src, 10.1.0.0, 0xffff0000>", 1024, THRESHOLD);
    let report = &ctl.deploy(&src).unwrap()[0];
    println!(
        "heavy-hitter detector linked at runtime: {} entries across {} pass(es)\n",
        report.entries_installed, report.passes
    );

    // Ground truth: 20 heavy flows (400 packets each) hidden among 1,000
    // light flows (20 packets each).
    let flows = traffic::make_flows(11, 1020, 0.7);
    let mut schedule: Vec<FiveTuple> = Vec::new();
    for (i, f) in flows.iter().enumerate() {
        let n = if i < 20 { 400 } else { 20 };
        schedule.extend(std::iter::repeat_n(f.tuple, n));
    }
    schedule.shuffle(&mut StdRng::seed_from_u64(4));

    let rate = Bandwidth::from_mbps(100.0);
    let mut t = Nanos::ZERO;
    let packets: Vec<TimedPacket> = schedule
        .iter()
        .map(|ft| {
            let frame = traffic::frame_for(ft, 64);
            let len = frame.len();
            let pkt = TimedPacket { t, port: 0, frame };
            t += rate.serialize(len);
            pkt
        })
        .collect();
    let truth: HashSet<FiveTuple> = flows[..20].iter().map(|f| f.tuple).collect();
    println!("streaming {} packets; {} flows exceed the {THRESHOLD}-packet threshold", packets.len(), truth.len());

    let mut replay = Replay::new(packets);
    replay.run_all(|_, port, frame, out| ctl.inject_into(port, frame, out).unwrap());

    let score = f1_score(&replay.reported_flows, &truth);
    println!(
        "\nreported {} flows: precision {:.3}, recall {:.3}, F1 {:.3}",
        replay.reported_flows.len(),
        score.precision,
        score.recall,
        score.f1
    );
    for ft in replay.reported_flows.iter().take(5) {
        println!("  e.g. {ft}");
    }

    // The sketches live in switch memory; the control plane can audit them.
    let cms = ctl.read_memory("hh", "cms1_hh").unwrap();
    let loaded = cms.iter().filter(|&&v| v > 0).count();
    println!("\nCMS row 1: {loaded} of {} buckets touched", cms.len());
}
