//! UDP datagrams.

use crate::{WireError, WireResult};

/// Length of the UDP header in bytes.
pub(crate) const HEADER_LEN: usize = 8;

/// A read-only view of a UDP datagram.
#[derive(Debug)]
pub(crate) struct UdpDatagram<'a> {
    buf: &'a [u8],
}

impl<'a> UdpDatagram<'a> {
    /// Wrap a buffer after validating its length and structure.
    pub(crate) fn new_checked(buf: &'a [u8]) -> WireResult<Self> {
        if buf.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let dg = UdpDatagram { buf };
        if dg.len() < HEADER_LEN || buf.len() < dg.len() {
            return Err(WireError::Truncated);
        }
        Ok(dg)
    }

    /// Source port.
    pub(crate) fn src_port(&self) -> u16 {
        u16::from_be_bytes([self.buf[0], self.buf[1]])
    }

    /// Destination port.
    pub(crate) fn dst_port(&self) -> u16 {
        u16::from_be_bytes([self.buf[2], self.buf[3]])
    }

    /// The UDP length field (header + payload).
    pub(crate) fn len(&self) -> usize {
        usize::from(u16::from_be_bytes([self.buf[4], self.buf[5]]))
    }

    /// The bytes following this header.
    pub(crate) fn payload(&self) -> &'a [u8] {
        &self.buf[HEADER_LEN..self.len()]
    }
}

/// Owned representation of a UDP header.
///
/// The checksum is emitted as zero ("no checksum" per RFC 768); the
/// anonymized campus trace drops payloads anyway, and the simulator's parser
/// does not verify L4 checksums — matching RMT targets, which leave that to
/// the end hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpRepr {
    /// Src port.
    pub src_port: u16,
    /// Dst port.
    pub dst_port: u16,
}

impl UdpRepr {
    /// Extract the owned representation from a checked view.
    pub(crate) fn parse(dg: &UdpDatagram<'_>) -> Self {
        UdpRepr {
            src_port: dg.src_port(),
            dst_port: dg.dst_port(),
        }
    }

    /// Serialize this header followed by the payload.
    pub(crate) fn emit(&self, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&((HEADER_LEN + payload.len()) as u16).to_be_bytes());
        out.extend_from_slice(&[0, 0]);
        out.extend_from_slice(payload);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let repr = UdpRepr { src_port: 1234, dst_port: 7777 };
        let bytes = repr.emit(&[0xaa; 5]);
        let dg = UdpDatagram::new_checked(&bytes).unwrap();
        assert_eq!(UdpRepr::parse(&dg), repr);
        assert_eq!(dg.payload(), &[0xaa; 5]);
        assert_eq!(dg.len(), 13);
    }

    #[test]
    fn rejects_short_buffer() {
        assert!(UdpDatagram::new_checked(&[0; 7]).is_err());
    }

    #[test]
    fn rejects_length_field_beyond_buffer() {
        let mut bytes = UdpRepr { src_port: 1, dst_port: 2 }.emit(&[]);
        bytes[5] = 200;
        assert!(UdpDatagram::new_checked(&bytes).is_err());
    }

    #[test]
    fn empty_payload_is_empty() {
        let bytes = UdpRepr { src_port: 1, dst_port: 2 }.emit(&[]);
        let dg = UdpDatagram::new_checked(&bytes).unwrap();
        assert!(dg.payload().is_empty());
    }
}
