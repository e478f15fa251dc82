//! Live redeployment under traffic — the §6.4(a) scenario as a runnable
//! demo: a replay thread pushes the synthetic campus trace through the
//! switch while the main thread deploys and revokes programs every few
//! hundred milliseconds of trace time. The RX rate never flinches.
//!
//! The switch is shared between the two threads behind a mutex
//! (packets and control operations interleave, each atomic — the
//! consistency model of §4.3), and the replay thread streams its bucket
//! statistics back over a crossbeam channel.
//!
//! ```sh
//! cargo run --release --example runtime_redeploy
//! ```

use crossbeam::channel::unbounded;
use p4runpro::p4rp_progs::{instance, Family, WorkloadParams};
use p4runpro::rmt_sim::clock::Nanos;
use p4runpro::traffic::{synthesize, CampusParams, Replay};
use p4runpro::Controller;
use std::sync::{Arc, Mutex};

fn main() {
    let mut ctl = Controller::with_defaults().unwrap();
    ctl.deploy("program basefwd(<hdr.ipv4.src, 0.0.0.0, 0x00000000>) { FORWARD(1); }")
        .unwrap();
    let ctl = Arc::new(Mutex::new(ctl));

    let params = CampusParams {
        duration: Nanos::from_secs(6),
        ..Default::default()
    };
    let trace = synthesize(&params);
    println!(
        "replaying {} packets ({}s of 100 Mbps campus traffic) while churning programs…\n",
        trace.packets.len(),
        params.duration.as_secs_f64()
    );

    let (stats_tx, stats_rx) = unbounded();
    let replay_ctl = Arc::clone(&ctl);
    let replayer = std::thread::spawn(move || {
        let mut replay = Replay::new(trace.packets);
        let bucket = replay.bucket;
        let mut sent = 0usize;
        while !replay.done() {
            let next = replay.next_time().unwrap() + Nanos(1);
            {
                let mut ctl = replay_ctl.lock().unwrap();
                replay.run_until(next, |_, port, frame, out| ctl.inject_into(port, frame, out).unwrap());
            }
            // Surface completed buckets as they fill.
            while let Some(s) = replay.stats.get(sent) {
                stats_tx.send((s.t_secs, s.rx_rate_bps(bucket) / 1e6)).unwrap();
                sent += 1;
            }
        }
        replay.finish();
    });

    // Control loop: deploy a random Table-1 program, revoke the previous
    // one, every ~40 completed buckets (≈2 s of trace time).
    let mut deployed: Option<String> = None;
    let mut churn = 0usize;
    let mut received = 0usize;
    while let Ok((t, mbps)) = stats_rx.recv() {
        received += 1;
        if received.is_multiple_of(10) {
            println!("t={t:5.2}s  rx={mbps:6.2} Mbps  (programs deployed so far: {churn})");
        }
        if received.is_multiple_of(40) {
            let mut ctl = ctl.lock().unwrap();
            if let Some(old) = deployed.take() {
                ctl.revoke(&old).unwrap();
            }
            let family = Family::ALL[churn % 15];
            let src = instance(family, 2000 + churn, WorkloadParams::default());
            if let Ok(reports) = ctl.deploy(&src) {
                println!(
                    "  ↳ deployed {} ({:.1} ms update) without touching the traffic",
                    reports[0].name,
                    reports[0].update_delay.as_millis_f64()
                );
                deployed = Some(reports[0].name.clone());
            }
            churn += 1;
        }
    }
    replayer.join().unwrap();

    let ctl = ctl.lock().unwrap();
    println!(
        "\ndone: {} programs churned, {} still deployed, switch forwarded continuously",
        churn,
        ctl.deployed_programs().count()
    );
}
