//! Ethernet II frames.

use crate::{WireError, WireResult};

/// Length of the Ethernet II header in bytes (no 802.1Q tags).
pub(crate) const HEADER_LEN: usize = 14;

/// A MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Mac(pub [u8; 6]);

impl Mac {
    /// Build a locally-administered unicast MAC from a 32-bit host id; the
    /// traffic generator uses this to synthesize per-host addresses.
    pub fn from_host_id(id: u32) -> Mac {
        let b = id.to_be_bytes();
        Mac([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }
}

impl core::fmt::Display for Mac {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

/// The EtherType field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// Ipv4.
    Ipv4,
    /// Arp.
    Arp,
    /// Any EtherType this crate has no parser for.
    Unknown(u16),
}

impl From<u16> for EtherType {
    fn from(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            other => EtherType::Unknown(other),
        }
    }
}

impl From<EtherType> for u16 {
    fn from(v: EtherType) -> u16 {
        match v {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Unknown(other) => other,
        }
    }
}

/// A read-only view of an Ethernet II frame.
#[derive(Debug)]
pub struct EthernetFrame<'a> {
    buf: &'a [u8],
}

impl<'a> EthernetFrame<'a> {
    /// Wrap a buffer, validating the minimum length.
    pub(crate) fn new_checked(buf: &'a [u8]) -> WireResult<Self> {
        if buf.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        Ok(EthernetFrame { buf })
    }

    /// Destination address.
    pub(crate) fn dst(&self) -> Mac {
        let mut m = [0u8; 6];
        m.copy_from_slice(&self.buf[0..6]);
        Mac(m)
    }

    /// Source address.
    pub(crate) fn src(&self) -> Mac {
        let mut m = [0u8; 6];
        m.copy_from_slice(&self.buf[6..12]);
        Mac(m)
    }

    /// The EtherType field.
    pub(crate) fn ethertype(&self) -> EtherType {
        u16::from_be_bytes([self.buf[12], self.buf[13]]).into()
    }

    /// The bytes following this header.
    pub(crate) fn payload(&self) -> &'a [u8] {
        &self.buf[HEADER_LEN..]
    }
}

/// Owned representation of an Ethernet header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthernetRepr {
    /// Dst.
    pub dst: Mac,
    /// Src.
    pub src: Mac,
    /// Ethertype.
    pub ethertype: EtherType,
}

impl EthernetRepr {
    /// Extract the owned representation from a checked view.
    pub fn parse(frame: &EthernetFrame<'_>) -> Self {
        EthernetRepr {
            dst: frame.dst(),
            src: frame.src(),
            ethertype: frame.ethertype(),
        }
    }

    /// Emit the header followed by `payload`.
    pub(crate) fn emit(&self, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&self.dst.0);
        out.extend_from_slice(&self.src.0);
        out.extend_from_slice(&u16::from(self.ethertype).to_be_bytes());
        out.extend_from_slice(payload);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_from_host_id_is_unicast_local() {
        let mac = Mac::from_host_id(42);
        assert_eq!(mac.0[0] & 0x01, 0, "must be unicast");
        assert_eq!(mac.0[0] & 0x02, 0x02, "must be locally administered");
    }

    #[test]
    fn frame_roundtrip() {
        let repr = EthernetRepr {
            dst: Mac([0xff; 6]),
            src: Mac::from_host_id(7),
            ethertype: EtherType::Ipv4,
        };
        let bytes = repr.emit(&[1, 2, 3]);
        let frame = EthernetFrame::new_checked(&bytes).unwrap();
        assert_eq!(EthernetRepr::parse(&frame), repr);
        assert_eq!(frame.payload(), &[1, 2, 3]);
    }

    #[test]
    fn ethertype_unknown_preserved() {
        let t = EtherType::from(0x86dd);
        assert_eq!(u16::from(t), 0x86dd);
    }

    #[test]
    fn short_frame_rejected() {
        assert!(EthernetFrame::new_checked(&[0u8; 13]).is_err());
    }

    #[test]
    fn mac_display_formats() {
        let mac = Mac([0xde, 0xad, 0xbe, 0xef, 0x00, 0x01]);
        assert_eq!(mac.to_string(), "de:ad:be:ef:00:01");
    }
}
