//! Consistent-update tests (§4.3, Figure 6): no packet may ever observe a
//! half-installed or half-removed program, even when packets interleave
//! with every single entry update of an install/remove batch.

use netpkt::{CacheOp, ParsedPacket};
use p4runpro::p4rp_compiler::consistency::{plan_install, plan_remove};
use p4runpro::rmt_sim::switch::ControlOp;
use p4runpro::Controller;
use p4runpro::p4rp_progs::sources;

fn cache_source() -> String {
    sources::cache("cache", "<hdr.udp.dst_port, 7777, 0xffff>", 1024, &[(0x8888, 512)])
}

fn read_frame(key: u64) -> Vec<u8> {
    let flows = p4runpro::traffic::make_flows(2, 1, 0.0);
    p4runpro::traffic::netcache_frame(&flows[0].tuple, CacheOp::Read, key, 0)
}

/// A packet injected between any two control operations of an install must
/// behave as either "program absent" (dropped here: no other program is
/// deployed) or "program fully present" (hit answered with the value) —
/// never a hybrid like "matched the filter but found no operations".
#[test]
fn packets_interleaved_with_install_see_old_or_new_only() {
    // Build the op sequence by planning against a scratch controller.
    let mut ctl = Controller::with_defaults().unwrap();
    ctl.deploy(&cache_source()).unwrap();
    ctl.write_memory("cache", "mem1", 512, 777).unwrap();
    let installed = ctl.program("cache").unwrap().clone();
    let batches = plan_install(
        &installed.image,
        ctl.dataplane(),
        ctl.switch().field_table(),
    )
    .unwrap();
    let ops: Vec<ControlOp> = batches.into_iter().flat_map(|b| b.ops).collect();
    let n_ops = ops.len();
    assert!(n_ops > 10);

    // For every prefix length k: fresh switch, apply k ops, probe.
    for k in 0..=n_ops {
        let mut ctl = Controller::with_defaults().unwrap();
        for op in &ops[..k] {
            ctl.switch_mut().apply_op(op).unwrap();
        }
        // Pre-load the value so a "new state" probe returns it. This write
        // bypasses the program abstraction on purpose.
        let region = installed.image.mem_regions[0].clone();
        ctl.switch_mut()
            .apply_op(&ControlOp::WriteReg {
                array: region.rpb.array_ref(),
                addr: region.offset + 512,
                value: 777,
            })
            .unwrap();

        let out = ctl.switch_mut().process_frame(0, &read_frame(0x8888)).unwrap();
        if out.dropped {
            // Old state: the filter is not yet active — fine.
            continue;
        }
        // New state: the reply must be complete and correct.
        assert_eq!(out.emitted.len(), 1, "prefix {k}/{n_ops}");
        assert_eq!(out.emitted[0].0, 0, "returned out the ingress port");
        let reply = ParsedPacket::parse(&out.emitted[0].1).unwrap();
        assert_eq!(
            reply.netcache.unwrap().value,
            777,
            "prefix {k}/{n_ops}: partial program must be invisible"
        );
    }
}

/// During removal, the filter goes first: after any prefix of the removal
/// batch, a packet either still gets full service or none at all.
#[test]
fn packets_interleaved_with_removal_see_new_or_gone_only() {
    let mut base = Controller::with_defaults().unwrap();
    base.deploy(&cache_source()).unwrap();
    let installed = base.program("cache").unwrap();
    let batches = plan_remove(&installed.image, &installed.handles);
    let ops: Vec<ControlOp> = batches.into_iter().flat_map(|b| b.ops).collect();

    for k in 0..=ops.len() {
        let mut ctl = Controller::with_defaults().unwrap();
        ctl.deploy(&cache_source()).unwrap();
        ctl.write_memory("cache", "mem1", 512, 4242).unwrap();
        for op in &ops[..k] {
            ctl.switch_mut().apply_op(op).unwrap();
        }
        let out = ctl.switch_mut().process_frame(0, &read_frame(0x8888)).unwrap();
        if out.dropped {
            continue; // program already deactivated — fine
        }
        let reply = ParsedPacket::parse(&out.emitted[0].1).unwrap();
        assert_eq!(
            reply.netcache.unwrap().value,
            4242,
            "prefix {k}: a still-active program must be fully functional"
        );
    }
}

/// The Figure 6 scenario: terminating prog1 and adding prog2 in sequence,
/// with traffic interleaved, never mis-routes a packet between them.
#[test]
fn terminate_then_add_is_isolated() {
    let mut ctl = Controller::with_defaults().unwrap();
    let prog1 = cache_source();
    ctl.deploy(&prog1).unwrap();
    ctl.write_memory("cache", "mem1", 512, 1).unwrap();

    // prog2: same traffic class but forwards to a different port.
    let prog2 = "program cache2(<hdr.udp.dst_port, 7777, 0xffff>) { FORWARD(40); }";

    // Interleave: revoke prog1, probe, deploy prog2, probe.
    let out = ctl.inject(0, &read_frame(0x8888)).unwrap();
    assert_eq!(out.emitted[0].0, 0, "prog1 serves the hit");

    ctl.revoke("cache").unwrap();
    let out = ctl.inject(0, &read_frame(0x8888)).unwrap();
    assert!(out.dropped, "no program between the two updates");

    ctl.deploy(prog2).unwrap();
    let out = ctl.inject(0, &read_frame(0x8888)).unwrap();
    assert_eq!(out.emitted[0].0, 40, "prog2 owns the traffic now");

    // prog1's memory was reset before release: redeploying sees zeros.
    ctl.revoke("cache2").unwrap();
    ctl.deploy(&prog1).unwrap();
    assert_eq!(ctl.read_memory("cache", "mem1").unwrap()[512], 0);
}

/// The same invariant read off the telemetry event stream: while the
/// install's entry writes land one by one, every probe packet injected
/// between two writes must produce exactly one terminal traffic-manager
/// verdict — "dropped" (old state) or "returned with the full answer"
/// (new state) — and never a forward/multicast to some half-configured
/// destination. The telemetry epoch must not move either: entry writes
/// within one lifecycle event never split an epoch, so no packet-visible
/// event can be attributed to a state between them.
#[test]
fn event_stream_shows_no_packet_event_between_entry_writes() {
    let mut scratch = Controller::with_defaults().unwrap();
    scratch.deploy(&cache_source()).unwrap();
    let installed = scratch.program("cache").unwrap().clone();
    let batches = plan_install(
        &installed.image,
        scratch.dataplane(),
        scratch.switch().field_table(),
    )
    .unwrap();
    let ops: Vec<ControlOp> = batches.into_iter().flat_map(|b| b.ops).collect();
    let region = installed.image.mem_regions[0].clone();

    let mut ctl = Controller::with_defaults().unwrap();
    ctl.enable_telemetry();
    let epoch0 = ctl.switch().telemetry().unwrap().epoch;
    let mut prev = ctl.switch().telemetry().unwrap().clone();
    let mut served = 0usize;
    for (k, op) in ops.iter().enumerate() {
        ctl.switch_mut().apply_op(op).unwrap();
        // Pre-load the cached value so a "new state" probe can answer.
        ctl.switch_mut()
            .apply_op(&ControlOp::WriteReg {
                array: region.rpb.array_ref(),
                addr: region.offset + 512,
                value: 777,
            })
            .unwrap();
        let out = ctl.switch_mut().process_frame(0, &read_frame(0x8888)).unwrap();

        let now = ctl.switch().telemetry().unwrap().clone();
        let dropped = now.tm.dropped.get() - prev.tm.dropped.get();
        let returned = now.tm.returned.get() - prev.tm.returned.get();
        let forwarded = now.tm.forwarded.get() - prev.tm.forwarded.get();
        let multicast = now.tm.multicast.get() - prev.tm.multicast.get();
        assert_eq!(
            dropped + returned,
            1,
            "write {k}/{}: exactly one terminal verdict per probe",
            ops.len()
        );
        assert_eq!(forwarded + multicast, 0, "write {k}: no mis-route mid-install");
        assert_eq!(now.epoch, epoch0, "write {k}: entry writes never split an epoch");
        if returned == 1 {
            served += 1;
            let reply = ParsedPacket::parse(&out.emitted[0].1).unwrap();
            assert_eq!(reply.netcache.unwrap().value, 777, "write {k}: complete answer");
        }
        prev = now;
    }
    assert!(served >= 1, "the probe after the final write is served");
    assert_eq!(
        prev.tm.dropped.get() + prev.tm.returned.get(),
        ops.len() as u64,
        "event stream accounts for every probe"
    );
}
