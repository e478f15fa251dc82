//! # netpkt — wire formats for the P4runpro reproduction
//!
//! Typed, zero-copy views over byte buffers in the style of smoltcp's wire
//! module: each protocol gets a `Packet<T>`-like wrapper that validates
//! lengths once and then exposes checked field accessors, plus an owned
//! builder (`*Repr`) that can emit bytes.
//!
//! Protocols covered:
//!
//! * [`ethernet`] — Ethernet II frames,
//! * [`ipv4`] — IPv4 (no options), with header checksum support,
//! * [`udp`] / [`tcp`] — L4 headers,
//! * [`netcache`] — the NetCache-style in-network cache header used by the
//!   paper's in-network cache example (opcode, 64-bit key, 32-bit value),
//! * [`recirc`] — the P4runpro recirculation header that carries the three
//!   registers and control flags between pipeline passes (§4.1.3 of the
//!   paper); it is prepended in front of Ethernet on the recirculation port
//!   and is never visible to the external network.
//!
//! The crate is deliberately free of any simulator dependency so that the
//! traffic generator, the switch model, and the analysis tooling all share
//! one definition of "what a packet is".

pub mod checksum;
mod ethernet;
mod fivetuple;
mod ipv4;
mod netcache;
pub mod recirc;
pub mod tcp;
mod udp;

pub use ethernet::{EtherType, EthernetFrame, EthernetRepr, Mac};
pub use fivetuple::FiveTuple;
pub use ipv4::{IpProtocol, Ipv4Packet, Ipv4Repr};
pub use netcache::{CacheOp, NetCacheHeader, NetCacheRepr, NETCACHE_PORT};
pub use recirc::{RecircHeader, RecircRepr, RECIRC_HEADER_LEN};
pub use tcp::TcpRepr;
pub(crate) use tcp::TcpSegment;
pub(crate) use udp::UdpDatagram;
pub use udp::UdpRepr;

/// Errors returned by wire-format parsing.
///
/// Mirrors smoltcp's convention: a single lightweight error type, because at
/// this layer the only failure modes are "buffer too short" and "a field
/// value is structurally invalid".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer is shorter than the fixed header, or shorter than a length
    /// field claims.
    Truncated,
    /// A field holds a value the parser cannot interpret (e.g. IPv4 version
    /// != 4, header length below minimum).
    Malformed,
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated packet"),
            WireError::Malformed => write!(f, "malformed packet"),
        }
    }
}

impl std::error::Error for WireError {}

/// Convenience alias used by all parsers in this crate.
pub(crate) type WireResult<T> = Result<T, WireError>;

/// A fully parsed packet: the layered representation the traffic tooling
/// works with, together with the raw bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedPacket {
    /// Ethernet.
    pub ethernet: EthernetRepr,
    /// Ipv4.
    pub ipv4: Option<Ipv4Repr>,
    /// Udp.
    pub udp: Option<UdpRepr>,
    /// Tcp.
    pub tcp: Option<TcpRepr>,
    /// Netcache.
    pub netcache: Option<NetCacheRepr>,
    /// Length of the payload beyond the deepest parsed header.
    pub payload_len: usize,
}

impl ParsedPacket {
    /// Parse a raw Ethernet frame into its layered representation.
    ///
    /// Unknown EtherTypes or IP protocols terminate parsing gracefully: the
    /// remaining bytes count as payload, matching how an RMT parser falls
    /// through to `accept` on an unknown transition.
    pub fn parse(frame: &[u8]) -> WireResult<Self> {
        let eth = EthernetFrame::new_checked(frame)?;
        let ethernet = EthernetRepr::parse(&eth);
        let mut out = ParsedPacket {
            ethernet,
            ipv4: None,
            udp: None,
            tcp: None,
            netcache: None,
            payload_len: eth.payload().len(),
        };
        if ethernet.ethertype != EtherType::Ipv4 {
            return Ok(out);
        }
        let ip = Ipv4Packet::new_checked(eth.payload())?;
        let ipv4 = Ipv4Repr::parse(&ip)?;
        out.payload_len = ip.payload().len();
        out.ipv4 = Some(ipv4);
        match ipv4.protocol {
            IpProtocol::Udp => {
                let udp = UdpDatagram::new_checked(ip.payload())?;
                let repr = UdpRepr::parse(&udp);
                out.payload_len = udp.payload().len();
                // NetCache rides on a well-known UDP port in the paper's
                // running example (dst port 7777, Figure 2).
                if repr.dst_port == NETCACHE_PORT || repr.src_port == NETCACHE_PORT {
                    if let Ok(nc) = NetCacheHeader::new_checked(udp.payload()) {
                        out.netcache = Some(NetCacheRepr::parse(&nc));
                        out.payload_len = nc.payload().len();
                    }
                }
                out.udp = Some(repr);
            }
            IpProtocol::Tcp => {
                let tcp = TcpSegment::new_checked(ip.payload())?;
                out.payload_len = tcp.payload().len();
                out.tcp = Some(TcpRepr::parse(&tcp)?);
            }
            _ => {}
        }
        Ok(out)
    }

    /// The 5-tuple of this packet, if it is an L4 packet.
    pub fn five_tuple(&self) -> Option<FiveTuple> {
        let ip = self.ipv4.as_ref()?;
        let (src_port, dst_port) = if let Some(u) = &self.udp {
            (u.src_port, u.dst_port)
        } else if let Some(t) = &self.tcp {
            (t.src_port, t.dst_port)
        } else {
            return None;
        };
        Some(FiveTuple {
            src_addr: ip.src_addr,
            dst_addr: ip.dst_addr,
            protocol: ip.protocol.into(),
            src_port,
            dst_port,
        })
    }

    /// Emit this packet back to bytes. Payload bytes are zero-filled with
    /// `payload_len` length (the anonymized campus trace in the paper also
    /// replaces payloads with duplicated identical bytes).
    pub fn emit(&self) -> Vec<u8> {
        let mut l4: Vec<u8> = Vec::new();
        if let Some(nc) = &self.netcache {
            l4 = nc.emit(self.payload_len);
        } else {
            l4.resize(self.payload_len, 0);
        }
        let l4 = if let Some(udp) = &self.udp {
            udp.emit(&l4)
        } else if let Some(tcp) = &self.tcp {
            tcp.emit(&l4)
        } else {
            l4
        };
        let l3 = if let Some(ip) = &self.ipv4 {
            ip.emit(&l4)
        } else {
            l4
        };
        self.ethernet.emit(&l3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn sample_udp_packet() -> ParsedPacket {
        ParsedPacket {
            ethernet: EthernetRepr {
                src: Mac([0, 1, 2, 3, 4, 5]),
                dst: Mac([6, 7, 8, 9, 10, 11]),
                ethertype: EtherType::Ipv4,
            },
            ipv4: Some(Ipv4Repr {
                src_addr: Ipv4Addr::new(10, 0, 0, 1),
                dst_addr: Ipv4Addr::new(10, 0, 0, 2),
                protocol: IpProtocol::Udp,
                ttl: 64,
                dscp: 0,
                ecn: 0,
            }),
            udp: Some(UdpRepr { src_port: 5555, dst_port: 6666 }),
            tcp: None,
            netcache: None,
            payload_len: 16,
        }
    }

    #[test]
    fn udp_roundtrip() {
        let pkt = sample_udp_packet();
        let bytes = pkt.emit();
        assert_eq!(bytes.len(), 14 + 20 + 8 + 16);
        let reparsed = ParsedPacket::parse(&bytes).unwrap();
        assert_eq!(reparsed, pkt);
    }

    #[test]
    fn netcache_roundtrip() {
        let mut pkt = sample_udp_packet();
        pkt.udp.as_mut().unwrap().dst_port = NETCACHE_PORT;
        pkt.netcache = Some(NetCacheRepr {
            op: CacheOp::Read,
            key: 0x8888,
            value: 0xdead_beef,
        });
        pkt.payload_len = 0;
        let bytes = pkt.emit();
        let reparsed = ParsedPacket::parse(&bytes).unwrap();
        assert_eq!(reparsed, pkt);
        assert_eq!(reparsed.netcache.unwrap().key, 0x8888);
    }

    #[test]
    fn five_tuple_extraction() {
        let pkt = sample_udp_packet();
        let bytes = pkt.emit();
        let parsed = ParsedPacket::parse(&bytes).unwrap();
        let ft = parsed.five_tuple().unwrap();
        assert_eq!(ft.src_port, 5555);
        assert_eq!(ft.dst_port, 6666);
        assert_eq!(ft.protocol, 17);
    }

    #[test]
    fn l2_only_packet_parses() {
        let pkt = ParsedPacket {
            ethernet: EthernetRepr {
                src: Mac([0; 6]),
                dst: Mac([0xff; 6]),
                ethertype: EtherType::Unknown(0x88cc),
            },
            ipv4: None,
            udp: None,
            tcp: None,
            netcache: None,
            payload_len: 40,
        };
        let bytes = pkt.emit();
        let reparsed = ParsedPacket::parse(&bytes).unwrap();
        assert_eq!(reparsed.ipv4, None);
        assert_eq!(reparsed.payload_len, 40);
    }

    #[test]
    fn truncated_frame_rejected() {
        assert_eq!(ParsedPacket::parse(&[0u8; 5]), Err(WireError::Truncated));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::net::Ipv4Addr;

    fn arb_packet() -> impl Strategy<Value = ParsedPacket> {
        (
            any::<[u8; 6]>(),
            any::<[u8; 6]>(),
            any::<u32>(),
            any::<u32>(),
            any::<u16>(),
            any::<u16>(),
            any::<bool>(),
            0usize..600,
        )
            .prop_map(|(dst, src, sa, da, sp, dp, is_tcp, payload)| ParsedPacket {
                ethernet: EthernetRepr {
                    dst: Mac(dst),
                    src: Mac(src),
                    ethertype: EtherType::Ipv4,
                },
                ipv4: Some(Ipv4Repr {
                    src_addr: Ipv4Addr::from(sa),
                    dst_addr: Ipv4Addr::from(da),
                    protocol: if is_tcp { IpProtocol::Tcp } else { IpProtocol::Udp },
                    ttl: 64,
                    dscp: 0,
                    ecn: 0,
                }),
                udp: (!is_tcp).then_some(UdpRepr {
                    // Avoid the NetCache port on either side: a payload ≥
                    // 13 bytes would legitimately re-parse as a cache
                    // header and change the representation.
                    src_port: if sp == NETCACHE_PORT { sp + 1 } else { sp },
                    dst_port: if dp == NETCACHE_PORT { dp + 1 } else { dp },
                }),
                tcp: is_tcp.then_some(TcpRepr {
                    src_port: sp,
                    dst_port: dp,
                    seq: 1,
                    ack: 2,
                    flags: tcp::flags::ACK,
                    window: 100,
                }),
                netcache: None,
                payload_len: payload,
            })
    }

    proptest! {
        /// Emit → parse is the identity for arbitrary L4 packets.
        #[test]
        fn emit_parse_roundtrip(pkt in arb_packet()) {
            let bytes = pkt.emit();
            let reparsed = ParsedPacket::parse(&bytes).unwrap();
            prop_assert_eq!(reparsed, pkt);
        }

        /// The emitted IPv4 header always checksums to valid.
        #[test]
        fn ipv4_checksum_always_valid(pkt in arb_packet()) {
            let bytes = pkt.emit();
            let ip = Ipv4Packet::new_checked(&bytes[ethernet::HEADER_LEN..]).unwrap();
            prop_assert!(ip.checksum_ok());
        }

        /// Truncating an emitted frame anywhere never panics the parser.
        #[test]
        fn truncation_never_panics(pkt in arb_packet(), cut in 0usize..100) {
            let bytes = pkt.emit();
            let cut = cut.min(bytes.len());
            let _ = ParsedPacket::parse(&bytes[..cut]);
        }
    }
}
