//! Multi-switch deployment (§4.1.3): "Recirculation can also be replaced
//! by multiple switches deployed on the same path."
//!
//! Two switches are chained by a wire: the first emits state-headered
//! packets toward the second instead of recirculating. The *same* program
//! image is deployed to both — pass-0 entries (recirculation id 0) only
//! ever match on the first switch, pass-1 entries on the second, so the
//! chain computes exactly what one recirculating switch does.

use netpkt::{CacheOp, ParsedPacket};
use p4runpro::p4rp_compiler::alloc::AllocConfig;
use p4runpro::rmt_sim::switch::SwitchConfig;
use p4runpro::traffic::{make_flows, netcache_frame};
use p4runpro::Controller;

/// A 2-pass program whose second pass comes from *depth* (too many
/// levels for one traversal), not from re-accessing a memory: this is the
/// class of programs the multi-switch replacement serves. A program that
/// reads the same memory on both passes could NOT be chained — each
/// switch owns its own stage memory — which is exactly why the paper says
/// constraint (5) "needs to be adjusted" for chained deployments.
const TWO_PASS: &str = r#"
@ m 256
program twopass(<hdr.udp.dst_port, 7777, 0xffff>) {
    EXTRACT(hdr.nc.value, sar);
    LOADI(har, 1); LOADI(har, 2); LOADI(har, 3); LOADI(har, 4);
    LOADI(har, 5); LOADI(har, 6); LOADI(har, 7); LOADI(har, 8);
    LOADI(har, 9); LOADI(har, 10); LOADI(har, 11); LOADI(har, 12);
    LOADI(har, 13); LOADI(har, 14); LOADI(har, 15); LOADI(har, 16);
    LOADI(har, 17); LOADI(har, 18);
    LOADI(mar, 9);
    MEMADD(m);
    MODIFY(hdr.nc.value, sar);
    FORWARD(30);
}
"#;

const WIRE_OUT: u16 = 60;
const WIRE_IN: u16 = 61;

fn chain() -> (Controller, Controller) {
    let first_cfg = SwitchConfig {
        recirc_wire_port: Some(WIRE_OUT),
        ..Default::default()
    };
    let second_cfg = SwitchConfig {
        recirc_ingress_ports: vec![WIRE_IN],
        ..Default::default()
    };
    let mut first = Controller::new(first_cfg, AllocConfig::default()).unwrap();
    let mut second = Controller::new(second_cfg, AllocConfig::default()).unwrap();
    first.deploy(TWO_PASS).unwrap();
    second.deploy(TWO_PASS).unwrap();
    (first, second)
}

#[test]
fn chained_switches_equal_single_switch_recirculation() {
    // Reference: one switch, internal recirculation.
    let mut single = Controller::with_defaults().unwrap();
    single.deploy(TWO_PASS).unwrap();
    let flow = make_flows(1, 1, 0.0)[0].tuple;

    let (mut first, mut second) = chain();
    for round in 1..=3u32 {
        let frame = netcache_frame(&flow, CacheOp::Read, 1, 5);

        let ref_out = single.inject(0, &frame).unwrap();
        assert_eq!(ref_out.passes, 2, "reference really recirculates");
        let ref_value =
            ParsedPacket::parse(&ref_out.emitted[0].1).unwrap().netcache.unwrap().value;

        // Chain: switch 1 hands the state-headered frame over the wire…
        let hop1 = first.inject(0, &frame).unwrap();
        assert_eq!(hop1.passes, 1, "no internal recirculation on the chain");
        assert_eq!(hop1.emitted.len(), 1);
        let (port, wire_frame) = &hop1.emitted[0];
        assert_eq!(*port, WIRE_OUT);
        // …with the recirculation header intact on the wire.
        let hdr = netpkt::RecircHeader::new_checked(wire_frame).unwrap();
        assert_eq!(hdr.recirc_id(), 1, "next-pass id travels in the header");

        // Switch 2 resumes the program and emits externally.
        let hop2 = second.inject(WIRE_IN, wire_frame).unwrap();
        assert_eq!(hop2.emitted.len(), 1);
        assert_eq!(hop2.emitted[0].0, 30, "final verdict taken on the second switch");
        let chain_value =
            ParsedPacket::parse(&hop2.emitted[0].1).unwrap().netcache.unwrap().value;

        assert_eq!(chain_value, ref_value, "round {round}: chain ≡ recirculation");
        assert_eq!(chain_value, 5 * round, "the accumulator advanced once per packet");
        // The emitted frame carries no internal header.
        assert!(netpkt::ParsedPacket::parse(&hop2.emitted[0].1).is_ok());
    }

    // The program's memory lives on whichever switch hosts its pass — in
    // one place, consistent with the reference.
    let m1 = first.read_memory("twopass", "m").unwrap()[9];
    let m2 = second.read_memory("twopass", "m").unwrap()[9];
    assert_eq!(m1 + m2, 15, "one accumulator across the chain");
    assert!(m1 == 0 || m2 == 0, "…on exactly one switch");
}

#[test]
fn single_pass_traffic_skips_the_wire() {
    let (mut first, _) = chain();
    first
        .deploy("program fwd(<hdr.ipv4.dst, 10.2.0.0, 0xffff0000>) { FORWARD(7); }")
        .unwrap();
    let flow = make_flows(2, 1, 0.0)[0].tuple;
    let out = first.inject(0, &p4runpro::traffic::frame_for(&flow, 64)).unwrap();
    assert_eq!(out.emitted[0].0, 7, "no detour for single-pass programs");
    // And no recirculation header on the ordinary egress.
    assert!(ParsedPacket::parse(&out.emitted[0].1).unwrap().ipv4.is_some());
}

/// The verdict side effects come *first*, so the state header of pass 1
/// carries them: egress-valid and report set in the flag byte (a 4-bit pad
/// and four 1-bit fields at bit offsets 136–143), the port in the last two
/// bytes, and `recirc_next` — not the working `recirc_id` — in byte 16.
const EARLY_VERDICT: &str = r#"
program early(<hdr.udp.dst_port, 7777, 0xffff>) {
    REPORT;
    FORWARD(30);
    LOADI(mar, 0xa1b2c3d4);
    EXTRACT(hdr.nc.value, sar);
    LOADI(har, 1); LOADI(har, 2); LOADI(har, 3); LOADI(har, 4);
    LOADI(har, 5); LOADI(har, 6); LOADI(har, 7); LOADI(har, 8);
    LOADI(har, 9); LOADI(har, 10); LOADI(har, 11); LOADI(har, 12);
    LOADI(har, 13); LOADI(har, 14); LOADI(har, 15); LOADI(har, 16);
    LOADI(har, 17); LOADI(har, 18); LOADI(har, 19); LOADI(har, 20);
    MODIFY(hdr.nc.value, sar);
}
"#;

/// The frame a two-pass program puts on the wire between its passes,
/// byte for byte as the field-at-a-time deparser built it before the
/// deparse programs were compiled (captured from that commit).
#[test]
fn state_header_between_passes_is_bit_exact() {
    const WIRE_FRAME: &str = "00010000000000120badcafea1b2c3d4010c001e\
        02000000000102000a0185920800450000290000000040117c7d0a0185920a0264b2\
        282d1e61001500000000000000000000010badcafe";
    let cfg = SwitchConfig { recirc_wire_port: Some(WIRE_OUT), ..Default::default() };
    let mut first = Controller::new(cfg, AllocConfig::default()).unwrap();
    first.deploy(EARLY_VERDICT).unwrap();
    let flow = make_flows(1, 1, 0.0)[0].tuple;
    let frame = netcache_frame(&flow, CacheOp::Read, 1, 0x0badcafe);

    let out = first.inject(3, &frame).unwrap();
    assert_eq!(out.passes, 1);
    let (port, wire_frame) = &out.emitted[0];
    assert_eq!(*port, WIRE_OUT);
    let hex: String = wire_frame.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, WIRE_FRAME);

    let hdr = netpkt::RecircHeader::new_checked(wire_frame).unwrap();
    assert_eq!(hdr.recirc_id(), 1);
    assert_eq!(hdr.flags(), 0x08 | netpkt::recirc::FLAG_REPORT, "pad 0, egress-valid, report");
    assert_eq!(hdr.egress_spec(), 30);
    assert_eq!((hdr.har(), hdr.sar(), hdr.mar()), (0x12, 0x0badcafe, 0xa1b2c3d4));
    assert_eq!(hdr.payload(), &frame[..], "nothing was modified on pass 1");
    assert!(out.reports.is_empty(), "the copy is punted on the final pass");

    // Same header through the internal loop: the second pass restores the
    // verdict from it and the report copy is stripped of it.
    let mut single = Controller::with_defaults().unwrap();
    single.deploy(EARLY_VERDICT).unwrap();
    let out = single.inject(3, &frame).unwrap();
    assert_eq!(out.passes, 2);
    assert_eq!(out.emitted.len(), 1);
    assert_eq!(out.emitted[0].0, 30);
    assert_eq!(out.reports, vec![out.emitted[0].1.clone()]);
    assert_eq!(out.emitted[0].1, frame, "MODIFY wrote back the value it read");
}
