//! IPv4 headers (20-byte, no options).

use crate::checksum;
use crate::{WireError, WireResult};
use std::net::Ipv4Addr;

/// Length of the option-free IPv4 header in bytes.
pub(crate) const HEADER_LEN: usize = 20;

/// The IPv4 protocol field values this crate understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProtocol {
    /// Icmp.
    Icmp,
    /// Tcp.
    Tcp,
    /// Udp.
    Udp,
    /// Unknown.
    Unknown(u8),
}

impl From<u8> for IpProtocol {
    fn from(v: u8) -> Self {
        match v {
            1 => IpProtocol::Icmp,
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            other => IpProtocol::Unknown(other),
        }
    }
}

impl From<IpProtocol> for u8 {
    fn from(v: IpProtocol) -> u8 {
        match v {
            IpProtocol::Icmp => 1,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Unknown(other) => other,
        }
    }
}

/// A read-only view of an IPv4 packet.
#[derive(Debug)]
pub struct Ipv4Packet<'a> {
    buf: &'a [u8],
}

impl<'a> Ipv4Packet<'a> {
    /// Wrap a buffer, validating version, header length, and total length.
    pub fn new_checked(buf: &'a [u8]) -> WireResult<Self> {
        if buf.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let pkt = Ipv4Packet { buf };
        if pkt.version() != 4 || pkt.header_len() < HEADER_LEN {
            return Err(WireError::Malformed);
        }
        if pkt.total_len() < pkt.header_len() || buf.len() < pkt.total_len() {
            return Err(WireError::Truncated);
        }
        Ok(pkt)
    }

    /// IP version field.
    pub(crate) fn version(&self) -> u8 {
        self.buf[0] >> 4
    }

    /// Header len.
    pub(crate) fn header_len(&self) -> usize {
        usize::from(self.buf[0] & 0x0f) * 4
    }

    /// Differentiated services codepoint.
    pub(crate) fn dscp(&self) -> u8 {
        self.buf[1] >> 2
    }

    /// Explicit congestion notification bits.
    pub(crate) fn ecn(&self) -> u8 {
        self.buf[1] & 0x03
    }

    /// Total len.
    pub(crate) fn total_len(&self) -> usize {
        usize::from(u16::from_be_bytes([self.buf[2], self.buf[3]]))
    }

    /// Time to live.
    pub(crate) fn ttl(&self) -> u8 {
        self.buf[8]
    }

    /// The IP protocol field.
    pub(crate) fn protocol(&self) -> IpProtocol {
        self.buf[9].into()
    }

    /// Verify the header checksum.
    pub fn checksum_ok(&self) -> bool {
        checksum::checksum(&self.buf[..self.header_len()]) == 0
    }

    /// Source address.
    pub(crate) fn src_addr(&self) -> Ipv4Addr {
        Ipv4Addr::new(self.buf[12], self.buf[13], self.buf[14], self.buf[15])
    }

    /// Destination address.
    pub(crate) fn dst_addr(&self) -> Ipv4Addr {
        Ipv4Addr::new(self.buf[16], self.buf[17], self.buf[18], self.buf[19])
    }

    /// The bytes following this header.
    pub(crate) fn payload(&self) -> &'a [u8] {
        &self.buf[self.header_len()..self.total_len()]
    }
}

/// Owned representation of an (option-free) IPv4 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Repr {
    /// Src addr.
    pub src_addr: Ipv4Addr,
    /// Dst addr.
    pub dst_addr: Ipv4Addr,
    /// Protocol.
    pub protocol: IpProtocol,
    /// Ttl.
    pub ttl: u8,
    /// Dscp.
    pub dscp: u8,
    /// Ecn.
    pub ecn: u8,
}

impl Ipv4Repr {
    /// Extract the owned representation from a checked view.
    pub fn parse(pkt: &Ipv4Packet<'_>) -> WireResult<Self> {
        Ok(Ipv4Repr {
            src_addr: pkt.src_addr(),
            dst_addr: pkt.dst_addr(),
            protocol: pkt.protocol(),
            ttl: pkt.ttl(),
            dscp: pkt.dscp(),
            ecn: pkt.ecn(),
        })
    }

    /// Emit the header (with a valid checksum) followed by `payload`.
    pub(crate) fn emit(&self, payload: &[u8]) -> Vec<u8> {
        let total = HEADER_LEN + payload.len();
        let mut out = Vec::with_capacity(total);
        out.push(0x45);
        out.push((self.dscp << 2) | (self.ecn & 0x03));
        out.extend_from_slice(&(total as u16).to_be_bytes());
        out.extend_from_slice(&[0, 0, 0, 0]); // identification + flags/frag
        out.push(self.ttl);
        out.push(self.protocol.into());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&self.src_addr.octets());
        out.extend_from_slice(&self.dst_addr.octets());
        let c = checksum::checksum(&out);
        out[10..12].copy_from_slice(&c.to_be_bytes());
        out.extend_from_slice(payload);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repr() -> Ipv4Repr {
        Ipv4Repr {
            src_addr: Ipv4Addr::new(192, 168, 1, 1),
            dst_addr: Ipv4Addr::new(10, 0, 0, 42),
            protocol: IpProtocol::Udp,
            ttl: 63,
            dscp: 4,
            ecn: 1,
        }
    }

    #[test]
    fn roundtrip() {
        let bytes = repr().emit(&[9, 8, 7]);
        let pkt = Ipv4Packet::new_checked(&bytes).unwrap();
        assert!(pkt.checksum_ok());
        assert_eq!(Ipv4Repr::parse(&pkt).unwrap(), repr());
        assert_eq!(pkt.payload(), &[9, 8, 7]);
    }

    #[test]
    fn rejects_wrong_version() {
        let mut bytes = repr().emit(&[]);
        bytes[0] = 0x65; // version 6
        assert!(matches!(Ipv4Packet::new_checked(&bytes), Err(WireError::Malformed)));
    }

    #[test]
    fn rejects_truncated_total_len() {
        let mut bytes = repr().emit(&[0; 8]);
        bytes.truncate(24); // shorter than total_len claims
        assert!(Ipv4Packet::new_checked(&bytes).is_err());
    }

    #[test]
    fn corrupted_checksum_detected() {
        let mut bytes = repr().emit(&[]);
        bytes[10] ^= 0xff;
        let pkt = Ipv4Packet::new_checked(&bytes).unwrap();
        assert!(!pkt.checksum_ok());
    }

    #[test]
    fn payload_excludes_trailing_padding() {
        // Ethernet minimum-size padding beyond total_len must not leak into
        // the payload view.
        let mut bytes = repr().emit(&[1, 2]);
        bytes.extend_from_slice(&[0xee; 10]);
        let pkt = Ipv4Packet::new_checked(&bytes).unwrap();
        assert_eq!(pkt.payload(), &[1, 2]);
    }
}
