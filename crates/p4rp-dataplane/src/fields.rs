//! PHV field layout and the fixed parse graph of the P4runpro data plane.
//!
//! The data plane abstracts three "registers" in the PHV — `har`, `sar`,
//! `mar` (§4.1.2) — plus the control flags (program id, branch id,
//! recirculation id), the translated physical memory address, and the SALU
//! selection flag. The parser covers the protocol stack the paper's 15
//! example programs need: Ethernet / IPv4 / {TCP, UDP} / NetCache, plus the
//! internal recirculation header whose fields alias the control state so
//! that parsing a recirculated frame *is* the state restoration of §4.1.3.
//!
//! Header parsing is fixed at provisioning time (§7 "Header Parsing"): the
//! operator can customize this module before provisioning, but runtime
//! programs only see what it extracts.

use rmt_sim::phv::{FieldId, FieldTable};
use rmt_sim::parser::{HeaderDef, HeaderField, HeaderTypeId, NextState, ParseState, Parser};
use rmt_sim::error::SimResult;
use p4rp_lang::Reg;

/// Parse-path bitmap bits, one per header type (§4.1.1).
pub(crate) mod bitmap {
    /// `ETH`.
    pub(crate) const ETH: u8 = 0;
    /// `IPV4`.
    pub(crate) const IPV4: u8 = 1;
    /// `TCP`.
    pub(crate) const TCP: u8 = 2;
    /// `UDP`.
    pub(crate) const UDP: u8 = 3;
    /// `NC`.
    pub(crate) const NC: u8 = 4;
    /// `RECIRC`.
    pub(crate) const RECIRC: u8 = 5;
}

/// The UDP destination port that selects the NetCache header in the fixed
/// parser.
pub(crate) const NC_UDP_PORT: u16 = netpkt::NETCACHE_PORT;

/// All PHV field ids of the P4runpro data plane.
#[derive(Debug, Clone)]
pub struct P4rpFields {
    // -- the three registers -------------------------------------------------
    /// Har.
    pub har: FieldId,
    /// Sar.
    pub sar: FieldId,
    /// Mar.
    pub mar: FieldId,
    // -- control flags -------------------------------------------------------
    /// Prog id.
    pub prog_id: FieldId,
    /// Branch id.
    pub branch_id: FieldId,
    /// Recirc id.
    pub recirc_id: FieldId,
    /// Next-pass recirculation id written into the state header by the
    /// recirculation block (the working `recirc_id` key is untouched until
    /// the next parse).
    pub recirc_next: FieldId,
    /// Translated physical memory address (output of the offset step).
    pub pma: FieldId,
    /// Selects the alternate SALU instruction (§4.1.2).
    pub salu_flag: FieldId,
    /// Scratch container used to back up the supportive register during
    /// pseudo-primitive expansion (Figure 4(b)).
    pub scratch: FieldId,
    /// Padding bits of the recirculation header's flag byte.
    pub rc_pad: FieldId,
    // -- header presence bits ------------------------------------------------
    /// Eth valid.
    pub eth_valid: FieldId,
    /// Ipv4 valid.
    pub ipv4_valid: FieldId,
    /// Tcp valid.
    pub tcp_valid: FieldId,
    /// Udp valid.
    pub udp_valid: FieldId,
    /// Nc valid.
    pub nc_valid: FieldId,
    /// Rc valid.
    pub rc_valid: FieldId,
    // -- header type ids ------------------------------------------------------
    /// H eth.
    pub h_eth: HeaderTypeId,
    /// H ipv4.
    pub h_ipv4: HeaderTypeId,
    /// H tcp.
    pub h_tcp: HeaderTypeId,
    /// H udp.
    pub h_udp: HeaderTypeId,
    /// H nc.
    pub h_nc: HeaderTypeId,
    /// H rc.
    pub h_rc: HeaderTypeId,
    // -- five-tuple fields, in HASH_5_TUPLE input order ------------------------
    /// Ipv4 src.
    pub ipv4_src: FieldId,
    /// Ipv4 dst.
    pub ipv4_dst: FieldId,
    /// L4 src port.
    pub l4_src_port: FieldId,
    /// L4 dst port.
    pub l4_dst_port: FieldId,
    /// Ipv4 proto.
    pub ipv4_proto: FieldId,
    /// Every program-visible field, `(name, id)` — the EXTRACT/MODIFY
    /// universe and the filter-field universe.
    pub named: Vec<(String, FieldId)>,
}

impl P4rpFields {
    /// Lookup.
    pub fn lookup(&self, name: &str) -> Option<FieldId> {
        self.named.iter().find(|(n, _)| n == name).map(|(_, id)| *id)
    }

    /// Reg.
    pub(crate) fn reg(&self, r: Reg) -> FieldId {
        match r {
            Reg::Har => self.har,
            Reg::Sar => self.sar,
            Reg::Mar => self.mar,
        }
    }

    /// The five-tuple input fields for the hardware hash, in canonical
    /// order (src addr, dst addr, src port, dst port, protocol).
    ///
    /// Note: the UDP and TCP port fields alias the same PHV containers
    /// (`l4_src_port` / `l4_dst_port`), mirroring how the prototype shares
    /// PHV between mutually exclusive headers.
    pub fn five_tuple(&self) -> Vec<FieldId> {
        vec![self.ipv4_src, self.ipv4_dst, self.l4_src_port, self.l4_dst_port, self.ipv4_proto]
    }

    /// Names of all program-visible fields (for the type checker).
    pub fn field_names(&self) -> Vec<String> {
        self.named.iter().map(|(n, _)| n.clone()).collect()
    }
}

/// Register all fields and build the fixed parser.
///
/// Returns the populated field table, the parse graph, and the field
/// handle bundle.
pub fn build() -> SimResult<(FieldTable, Parser, P4rpFields)> {
    let mut ft = FieldTable::new();
    let intr = ft.intrinsics();

    // Control state. 32-bit registers: the maximum operable width of the
    // hardware ALUs (§5).
    let har = ft.register("p4rp.har", 32)?;
    let sar = ft.register("p4rp.sar", 32)?;
    let mar = ft.register("p4rp.mar", 32)?;
    let prog_id = ft.register("p4rp.prog_id", 16)?;
    let branch_id = ft.register("p4rp.branch_id", 16)?;
    let recirc_id = ft.register("p4rp.recirc_id", 8)?;
    let recirc_next = ft.register("p4rp.recirc_next", 8)?;
    let pma = ft.register("p4rp.pma", 32)?;
    let salu_flag = ft.register("p4rp.salu_flag", 1)?;
    let scratch = ft.register("p4rp.scratch", 32)?;
    let rc_pad = ft.register("p4rp.rc_pad", 4)?;

    let mut named: Vec<(String, FieldId)> = Vec::new();
    let reg_field = |ft: &mut FieldTable, named: &mut Vec<(String, FieldId)>, name: &str, bits: u8| -> SimResult<FieldId> {
        let id = ft.register(name, bits)?;
        named.push((name.to_string(), id));
        Ok(id)
    };

    // Ethernet.
    let eth_dst = reg_field(&mut ft, &mut named, "hdr.eth.dst", 48)?;
    let eth_src = reg_field(&mut ft, &mut named, "hdr.eth.src", 48)?;
    let eth_type = reg_field(&mut ft, &mut named, "hdr.eth.type", 16)?;
    let eth_valid = ft.register("hdr.eth.$valid", 1)?;

    // IPv4 (full coverage — the deparser rebuilds headers from the PHV).
    let ipv4_ver_ihl = reg_field(&mut ft, &mut named, "hdr.ipv4.ver_ihl", 8)?;
    let ipv4_dscp = reg_field(&mut ft, &mut named, "hdr.ipv4.dscp", 6)?;
    let ipv4_ecn = reg_field(&mut ft, &mut named, "hdr.ipv4.ecn", 2)?;
    let ipv4_len = reg_field(&mut ft, &mut named, "hdr.ipv4.len", 16)?;
    let ipv4_id = reg_field(&mut ft, &mut named, "hdr.ipv4.id", 16)?;
    let ipv4_frag = reg_field(&mut ft, &mut named, "hdr.ipv4.frag", 16)?;
    let ipv4_ttl = reg_field(&mut ft, &mut named, "hdr.ipv4.ttl", 8)?;
    let ipv4_proto = reg_field(&mut ft, &mut named, "hdr.ipv4.proto", 8)?;
    let ipv4_csum = reg_field(&mut ft, &mut named, "hdr.ipv4.checksum", 16)?;
    let ipv4_src = reg_field(&mut ft, &mut named, "hdr.ipv4.src", 32)?;
    let ipv4_dst = reg_field(&mut ft, &mut named, "hdr.ipv4.dst", 32)?;
    let ipv4_valid = ft.register("hdr.ipv4.$valid", 1)?;

    // TCP and UDP share the L4 port containers.
    let l4_src_port = reg_field(&mut ft, &mut named, "hdr.l4.src_port", 16)?;
    let l4_dst_port = reg_field(&mut ft, &mut named, "hdr.l4.dst_port", 16)?;
    named.push(("hdr.tcp.src_port".into(), l4_src_port));
    named.push(("hdr.tcp.dst_port".into(), l4_dst_port));
    named.push(("hdr.udp.src_port".into(), l4_src_port));
    named.push(("hdr.udp.dst_port".into(), l4_dst_port));

    let tcp_seq = reg_field(&mut ft, &mut named, "hdr.tcp.seq", 32)?;
    let tcp_ack = reg_field(&mut ft, &mut named, "hdr.tcp.ack", 32)?;
    let tcp_off_flags = reg_field(&mut ft, &mut named, "hdr.tcp.off_flags", 16)?;
    let tcp_window = reg_field(&mut ft, &mut named, "hdr.tcp.window", 16)?;
    let tcp_csum = reg_field(&mut ft, &mut named, "hdr.tcp.checksum", 16)?;
    let tcp_urgent = reg_field(&mut ft, &mut named, "hdr.tcp.urgent", 16)?;
    let tcp_valid = ft.register("hdr.tcp.$valid", 1)?;

    let udp_len = reg_field(&mut ft, &mut named, "hdr.udp.len", 16)?;
    let udp_csum = reg_field(&mut ft, &mut named, "hdr.udp.checksum", 16)?;
    let udp_valid = ft.register("hdr.udp.$valid", 1)?;

    // NetCache header: op(8) key1(32) key2(32) value(32).
    let nc_op = reg_field(&mut ft, &mut named, "hdr.nc.op", 8)?;
    let nc_key1 = reg_field(&mut ft, &mut named, "hdr.nc.key1", 32)?;
    let nc_key2 = reg_field(&mut ft, &mut named, "hdr.nc.key2", 32)?;
    let nc_value = reg_field(&mut ft, &mut named, "hdr.nc.value", 32)?;
    let nc_valid = ft.register("hdr.nc.$valid", 1)?;

    let rc_valid = ft.register("hdr.p4rp_rc.$valid", 1)?;

    // Program-visible intrinsic metadata.
    named.push(("meta.ingress_port".into(), intr.ingress_port));
    named.push(("meta.pkt_len".into(), intr.pkt_len));

    // ---- parse graph --------------------------------------------------------
    let mut parser = Parser::new();

    let h_rc = parser.add_header(HeaderDef {
        name: "p4rp_rc".into(),
        len_bytes: netpkt::RECIRC_HEADER_LEN,
        fields: vec![
            HeaderField { field: prog_id, bit_offset: 0, bits: 16 },
            HeaderField { field: branch_id, bit_offset: 16, bits: 16 },
            HeaderField { field: har, bit_offset: 32, bits: 32 },
            HeaderField { field: sar, bit_offset: 64, bits: 32 },
            HeaderField { field: mar, bit_offset: 96, bits: 32 },
            HeaderField { field: recirc_id, bit_offset: 128, bits: 8 },
            HeaderField { field: rc_pad, bit_offset: 136, bits: 4 },
            HeaderField { field: intr.egress_valid, bit_offset: 140, bits: 1 },
            HeaderField { field: intr.report_flag, bit_offset: 141, bits: 1 },
            HeaderField { field: intr.return_flag, bit_offset: 142, bits: 1 },
            HeaderField { field: intr.drop_flag, bit_offset: 143, bits: 1 },
            HeaderField { field: intr.egress_spec, bit_offset: 144, bits: 16 },
        ],
        presence: rc_valid,
        checksum_at: None,
        bitmap_bit: bitmap::RECIRC,
    });

    let h_eth = parser.add_header(HeaderDef {
        name: "eth".into(),
        len_bytes: 14,
        fields: vec![
            HeaderField { field: eth_dst, bit_offset: 0, bits: 48 },
            HeaderField { field: eth_src, bit_offset: 48, bits: 48 },
            HeaderField { field: eth_type, bit_offset: 96, bits: 16 },
        ],
        presence: eth_valid,
        checksum_at: None,
        bitmap_bit: bitmap::ETH,
    });

    let h_ipv4 = parser.add_header(HeaderDef {
        name: "ipv4".into(),
        len_bytes: 20,
        fields: vec![
            HeaderField { field: ipv4_ver_ihl, bit_offset: 0, bits: 8 },
            HeaderField { field: ipv4_dscp, bit_offset: 8, bits: 6 },
            HeaderField { field: ipv4_ecn, bit_offset: 14, bits: 2 },
            HeaderField { field: ipv4_len, bit_offset: 16, bits: 16 },
            HeaderField { field: ipv4_id, bit_offset: 32, bits: 16 },
            HeaderField { field: ipv4_frag, bit_offset: 48, bits: 16 },
            HeaderField { field: ipv4_ttl, bit_offset: 64, bits: 8 },
            HeaderField { field: ipv4_proto, bit_offset: 72, bits: 8 },
            HeaderField { field: ipv4_csum, bit_offset: 80, bits: 16 },
            HeaderField { field: ipv4_src, bit_offset: 96, bits: 32 },
            HeaderField { field: ipv4_dst, bit_offset: 128, bits: 32 },
        ],
        presence: ipv4_valid,
        checksum_at: Some(10),
        bitmap_bit: bitmap::IPV4,
    });

    let h_tcp = parser.add_header(HeaderDef {
        name: "tcp".into(),
        len_bytes: 20,
        fields: vec![
            HeaderField { field: l4_src_port, bit_offset: 0, bits: 16 },
            HeaderField { field: l4_dst_port, bit_offset: 16, bits: 16 },
            HeaderField { field: tcp_seq, bit_offset: 32, bits: 32 },
            HeaderField { field: tcp_ack, bit_offset: 64, bits: 32 },
            HeaderField { field: tcp_off_flags, bit_offset: 96, bits: 16 },
            HeaderField { field: tcp_window, bit_offset: 112, bits: 16 },
            HeaderField { field: tcp_csum, bit_offset: 128, bits: 16 },
            HeaderField { field: tcp_urgent, bit_offset: 144, bits: 16 },
        ],
        presence: tcp_valid,
        checksum_at: None,
        bitmap_bit: bitmap::TCP,
    });

    let h_udp = parser.add_header(HeaderDef {
        name: "udp".into(),
        len_bytes: 8,
        fields: vec![
            HeaderField { field: l4_src_port, bit_offset: 0, bits: 16 },
            HeaderField { field: l4_dst_port, bit_offset: 16, bits: 16 },
            HeaderField { field: udp_len, bit_offset: 32, bits: 16 },
            HeaderField { field: udp_csum, bit_offset: 48, bits: 16 },
        ],
        presence: udp_valid,
        checksum_at: None,
        bitmap_bit: bitmap::UDP,
    });

    let h_nc = parser.add_header(HeaderDef {
        name: "nc".into(),
        len_bytes: 13,
        fields: vec![
            HeaderField { field: nc_op, bit_offset: 0, bits: 8 },
            HeaderField { field: nc_key1, bit_offset: 8, bits: 32 },
            HeaderField { field: nc_key2, bit_offset: 40, bits: 32 },
            HeaderField { field: nc_value, bit_offset: 72, bits: 32 },
        ],
        presence: nc_valid,
        checksum_at: None,
        bitmap_bit: bitmap::NC,
    });

    // States, built leaf-first.
    let s_nc = parser.add_state(ParseState {
        header: h_nc,
        select: None,
        transitions: vec![],
        default: NextState::Accept,
    });
    let s_udp = parser.add_state(ParseState {
        header: h_udp,
        select: Some(l4_dst_port),
        transitions: vec![(u64::from(NC_UDP_PORT), 0xffff, NextState::State(s_nc))],
        default: NextState::Accept,
    });
    let s_tcp = parser.add_state(ParseState {
        header: h_tcp,
        select: None,
        transitions: vec![],
        default: NextState::Accept,
    });
    let s_ipv4 = parser.add_state(ParseState {
        header: h_ipv4,
        select: Some(ipv4_proto),
        transitions: vec![
            (6, 0xff, NextState::State(s_tcp)),
            (17, 0xff, NextState::State(s_udp)),
        ],
        default: NextState::Accept,
    });
    let s_eth = parser.add_state(ParseState {
        header: h_eth,
        select: Some(eth_type),
        transitions: vec![(0x0800, 0xffff, NextState::State(s_ipv4))],
        default: NextState::Accept,
    });
    let s_rc = parser.add_state(ParseState {
        header: h_rc,
        select: None,
        transitions: vec![],
        default: NextState::State(s_eth),
    });
    parser.set_start(s_eth);
    parser.set_recirc_start(s_rc);
    // The recirculation header is emitted first when present.
    parser.set_emit_order(vec![h_rc, h_eth, h_ipv4, h_tcp, h_udp, h_nc]);
    // The recirculation block writes the *next* pass id into the header;
    // the working key keeps this pass's value (§4.1.3).
    parser.set_deparse_override(recirc_id, recirc_next);
    parser.validate()?;

    let fields = P4rpFields {
        har,
        sar,
        mar,
        prog_id,
        branch_id,
        recirc_id,
        recirc_next,
        pma,
        salu_flag,
        scratch,
        rc_pad,
        eth_valid,
        ipv4_valid,
        tcp_valid,
        udp_valid,
        nc_valid,
        rc_valid,
        h_eth,
        h_ipv4,
        h_tcp,
        h_udp,
        h_nc,
        h_rc,
        ipv4_src,
        ipv4_dst,
        l4_src_port,
        l4_dst_port,
        ipv4_proto,
        named,
    };
    Ok((ft, parser, fields))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpkt::{EtherType, EthernetRepr, IpProtocol, Ipv4Repr, Mac, ParsedPacket, UdpRepr};
    use rmt_sim::phv::Phv;
    use std::net::Ipv4Addr;

    fn udp_frame(dst_port: u16) -> Vec<u8> {
        ParsedPacket {
            ethernet: EthernetRepr {
                dst: Mac([1; 6]),
                src: Mac([2; 6]),
                ethertype: EtherType::Ipv4,
            },
            ipv4: Some(Ipv4Repr {
                src_addr: Ipv4Addr::new(10, 1, 2, 3),
                dst_addr: Ipv4Addr::new(10, 4, 5, 6),
                protocol: IpProtocol::Udp,
                ttl: 64,
                dscp: 0,
                ecn: 0,
            }),
            udp: Some(UdpRepr { src_port: 1234, dst_port }),
            tcp: None,
            netcache: None,
            payload_len: 4,
        }
        .emit()
    }

    fn deparse(parser: &Parser, ft: &FieldTable, phv: &Phv, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        parser.deparse_into(ft, phv, payload, &mut out);
        out
    }

    #[test]
    fn udp_packet_parses_with_bitmap() {
        let (ft, parser, f) = build().unwrap();
        let mut phv = Phv::new(&ft);
        let frame = udp_frame(5000);
        let r = parser.parse(&ft, &frame, &mut phv, false).unwrap();
        let expect = (1u16 << bitmap::ETH) | (1 << bitmap::IPV4) | (1 << bitmap::UDP);
        assert_eq!(r.bitmap, expect);
        assert_eq!(phv.get(f.l4_dst_port), 5000);
        assert_eq!(phv.get(f.ipv4_src), 0x0a010203);
        assert_eq!(phv.get(f.nc_valid), 0);
    }

    #[test]
    fn netcache_port_selects_nc_header() {
        let (ft, parser, f) = build().unwrap();
        let mut frame = udp_frame(NC_UDP_PORT);
        // Replace payload with a cache header.
        frame.truncate(14 + 20 + 8);
        let nc = netpkt::NetCacheRepr { op: netpkt::CacheOp::Read, key: 0x8888, value: 7 };
        frame.extend_from_slice(&nc.emit(0));
        // Fix UDP length.
        let udp_len = (8 + 13) as u16;
        frame[14 + 20 + 4..14 + 20 + 6].copy_from_slice(&udp_len.to_be_bytes());
        let mut phv = Phv::new(&ft);
        let r = parser.parse(&ft, &frame, &mut phv, false).unwrap();
        assert_ne!(r.bitmap & (1 << bitmap::NC), 0);
        assert_eq!(phv.get(f.lookup("hdr.nc.key2").unwrap()), 0x8888);
        assert_eq!(phv.get(f.lookup("hdr.nc.op").unwrap()), 0);
    }

    #[test]
    fn recirc_header_restores_state() {
        let (ft, parser, f) = build().unwrap();
        let intr = ft.intrinsics();
        let inner = udp_frame(5000);
        let rc = netpkt::RecircRepr {
            program_id: 42,
            branch_id: 0b101,
            har: 1,
            sar: 2,
            mar: 3,
            recirc_id: 1,
            flags: 0,
            egress_spec: 9,
        };
        let frame = rc.emit(&inner);
        let mut phv = Phv::new(&ft);
        let r = parser.parse(&ft, &frame, &mut phv, true).unwrap();
        assert_ne!(r.bitmap & (1 << bitmap::RECIRC), 0);
        assert_eq!(phv.get(f.prog_id), 42);
        assert_eq!(phv.get(f.branch_id), 0b101);
        assert_eq!(phv.get(f.har), 1);
        assert_eq!(phv.get(f.sar), 2);
        assert_eq!(phv.get(f.mar), 3);
        assert_eq!(phv.get(f.recirc_id), 1);
        assert_eq!(phv.get(intr.egress_spec), 9);
    }

    #[test]
    fn deparse_roundtrips_udp_frame() {
        let (ft, parser, _) = build().unwrap();
        let frame = udp_frame(5000);
        let mut phv = Phv::new(&ft);
        let r = parser.parse(&ft, &frame, &mut phv, false).unwrap();
        let out = deparse(&parser, &ft, &phv, &frame[r.payload_offset..]);
        assert_eq!(out, frame, "unmodified parse→deparse must be identity");
    }

    #[test]
    fn recirc_push_via_presence() {
        let (ft, parser, f) = build().unwrap();
        let frame = udp_frame(5000);
        let mut phv = Phv::new(&ft);
        let r = parser.parse(&ft, &frame, &mut phv, false).unwrap();
        phv.set(&ft, f.rc_valid, 1);
        phv.set(&ft, f.prog_id, 7);
        // The header carries the *next*-pass id (deparse override); the
        // working key stays at the current pass (§4.1.3).
        phv.set(&ft, f.recirc_next, 1);
        let out = deparse(&parser, &ft, &phv, &frame[r.payload_offset..]);
        assert_eq!(out.len(), frame.len() + netpkt::RECIRC_HEADER_LEN);
        let hdr = netpkt::RecircHeader::new_checked(&out).unwrap();
        assert_eq!(hdr.program_id(), 7);
        assert_eq!(hdr.recirc_id(), 1);
        assert_eq!(hdr.payload(), &frame[..]);
    }

    #[test]
    fn tcp_and_udp_ports_alias() {
        let (_, _, f) = build().unwrap();
        assert_eq!(f.lookup("hdr.tcp.src_port"), f.lookup("hdr.udp.src_port"));
        assert_eq!(f.lookup("hdr.udp.dst_port"), Some(f.l4_dst_port));
    }

    #[test]
    fn field_universe_contains_expected_names() {
        let (_, _, f) = build().unwrap();
        for name in [
            "hdr.eth.dst",
            "hdr.ipv4.dst",
            "hdr.ipv4.ecn",
            "hdr.udp.dst_port",
            "hdr.nc.op",
            "hdr.nc.value",
            "meta.ingress_port",
        ] {
            assert!(f.lookup(name).is_some(), "missing field {name}");
        }
        assert!(f.lookup("hdr.bogus").is_none());
    }

    #[test]
    fn num_parse_paths_is_five() {
        let (_, parser, _) = build().unwrap();
        // eth, eth+ipv4, +tcp, +udp, +udp+nc.
        assert_eq!(parser.num_paths(), 5);
    }
}
