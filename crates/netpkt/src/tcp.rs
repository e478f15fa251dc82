//! TCP segments (fixed 20-byte header, options ignored but skipped).

use crate::{WireError, WireResult};

/// Length of the option-free TCP header in bytes.
pub(crate) const HEADER_LEN: usize = 20;

/// TCP flag bits, as stored in the low byte of offset 13.
pub mod flags {
    /// `ACK`.
    pub const ACK: u8 = 0x10;
}

/// A read-only view of a TCP segment.
#[derive(Debug)]
pub(crate) struct TcpSegment<'a> {
    buf: &'a [u8],
}

impl<'a> TcpSegment<'a> {
    /// Wrap a buffer after validating its length and structure.
    pub(crate) fn new_checked(buf: &'a [u8]) -> WireResult<Self> {
        if buf.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let seg = TcpSegment { buf };
        let dof = seg.data_offset();
        if dof < HEADER_LEN {
            return Err(WireError::Malformed);
        }
        if buf.len() < dof {
            return Err(WireError::Truncated);
        }
        Ok(seg)
    }

    /// Source port.
    pub(crate) fn src_port(&self) -> u16 {
        u16::from_be_bytes([self.buf[0], self.buf[1]])
    }

    /// Destination port.
    pub(crate) fn dst_port(&self) -> u16 {
        u16::from_be_bytes([self.buf[2], self.buf[3]])
    }

    /// Sequence number.
    pub(crate) fn seq(&self) -> u32 {
        u32::from_be_bytes([self.buf[4], self.buf[5], self.buf[6], self.buf[7]])
    }

    /// Acknowledgment number.
    pub(crate) fn ack(&self) -> u32 {
        u32::from_be_bytes([self.buf[8], self.buf[9], self.buf[10], self.buf[11]])
    }

    /// Header length in bytes derived from the data-offset field.
    pub(crate) fn data_offset(&self) -> usize {
        usize::from(self.buf[12] >> 4) * 4
    }

    /// Flag bits.
    pub(crate) fn flags(&self) -> u8 {
        self.buf[13]
    }

    /// Receive window.
    pub(crate) fn window(&self) -> u16 {
        u16::from_be_bytes([self.buf[14], self.buf[15]])
    }

    /// The bytes following this header.
    pub(crate) fn payload(&self) -> &'a [u8] {
        &self.buf[self.data_offset()..]
    }
}

/// Owned representation of a TCP header (emitted without options).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpRepr {
    /// Src port.
    pub src_port: u16,
    /// Dst port.
    pub dst_port: u16,
    /// Seq.
    pub seq: u32,
    /// Ack.
    pub ack: u32,
    /// Flags.
    pub flags: u8,
    /// Window.
    pub window: u16,
}

impl TcpRepr {
    /// Extract the owned representation from a checked view.
    pub(crate) fn parse(seg: &TcpSegment<'_>) -> WireResult<Self> {
        Ok(TcpRepr {
            src_port: seg.src_port(),
            dst_port: seg.dst_port(),
            seq: seg.seq(),
            ack: seg.ack(),
            flags: seg.flags(),
            window: seg.window(),
        })
    }

    /// Serialize this header followed by the payload.
    pub(crate) fn emit(&self, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.ack.to_be_bytes());
        out.push((HEADER_LEN as u8 / 4) << 4);
        out.push(self.flags);
        out.extend_from_slice(&self.window.to_be_bytes());
        out.extend_from_slice(&[0, 0, 0, 0]); // checksum + urgent ptr
        out.extend_from_slice(payload);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repr() -> TcpRepr {
        TcpRepr {
            src_port: 443,
            dst_port: 51234,
            seq: 0x01020304,
            ack: 0x0a0b0c0d,
            flags: flags::ACK | 0x08,
            window: 65535,
        }
    }

    #[test]
    fn roundtrip() {
        let bytes = repr().emit(&[1; 7]);
        let seg = TcpSegment::new_checked(&bytes).unwrap();
        assert_eq!(TcpRepr::parse(&seg).unwrap(), repr());
        assert_eq!(seg.payload().len(), 7);
    }

    #[test]
    fn options_are_skipped() {
        let mut bytes = repr().emit(&[]);
        // Fake a 24-byte header: bump data offset and append 4 option bytes
        // plus 2 payload bytes.
        bytes[12] = 6 << 4;
        bytes.extend_from_slice(&[1, 1, 1, 1, 0xca, 0xfe]);
        let seg = TcpSegment::new_checked(&bytes).unwrap();
        assert_eq!(seg.payload(), &[0xca, 0xfe]);
    }

    #[test]
    fn rejects_bad_data_offset() {
        let mut bytes = repr().emit(&[]);
        bytes[12] = 2 << 4; // 8 bytes < minimum
        assert!(matches!(TcpSegment::new_checked(&bytes), Err(WireError::Malformed)));
    }

    #[test]
    fn flag_accessors() {
        let bytes = repr().emit(&[]);
        let seg = TcpSegment::new_checked(&bytes).unwrap();
        assert_ne!(seg.flags() & flags::ACK, 0);
        assert_eq!(seg.flags() & 0x02, 0);
    }
}
