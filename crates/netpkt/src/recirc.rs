//! The P4runpro recirculation header (§4.1.3).
//!
//! When a program cannot complete in one pipeline pass, the recirculation
//! block attaches all stateless execution state — the three registers, the
//! control flags (including the forwarding verdict, so a `FORWARD`/`DROP`/
//! `RETURN`/`REPORT` executed on an early pass survives), and the branch
//! state — to the packet so the next pass can resume where the previous one
//! stopped. The header is prepended in front of the Ethernet header on the
//! internal recirculation port only; it is stripped before the packet
//! leaves the switch and is therefore never visible to the external
//! network.
//!
//! Layout (big-endian, 20 bytes):
//!
//! ```text
//!  0         2         4      8      12     16    17    18       20
//!  +---------+---------+------+------+------+-----+-----+--------+
//!  | prog id | branch  | har  | sar  | mar  | rc  | fl  | egress |
//!  +---------+---------+------+------+------+-----+-----+--------+
//! ```
//!
//! `rc` is the packet-local recirculation id; `fl` packs the drop / return
//! / report flags. On the internal wire the 4-byte Ethernet FCS is not
//! carried, so the traffic manager's recirculation model charges
//! `RECIRC_HEADER_LEN - 4` bytes of overhead per pass (Figure 11).

use crate::{WireError, WireResult};

/// Length of the recirculation header in bytes.
pub const RECIRC_HEADER_LEN: usize = 20;

/// Flag bit: report-to-CPU side effect already requested.
pub const FLAG_REPORT: u8 = 0x04;

/// A read-only view of a recirculation header.
#[derive(Debug)]
pub struct RecircHeader<'a> {
    buf: &'a [u8],
}

impl<'a> RecircHeader<'a> {
    /// Wrap a buffer after validating its length and structure.
    pub fn new_checked(buf: &'a [u8]) -> WireResult<Self> {
        if buf.len() < RECIRC_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        Ok(RecircHeader { buf })
    }

    /// The program id carried for the next pass.
    pub fn program_id(&self) -> u16 {
        u16::from_be_bytes([self.buf[0], self.buf[1]])
    }

    /// The branch id carried for the next pass.
    pub(crate) fn branch_id(&self) -> u16 {
        u16::from_be_bytes([self.buf[2], self.buf[3]])
    }

    /// The hash register value.
    pub fn har(&self) -> u32 {
        u32::from_be_bytes(self.buf[4..8].try_into().unwrap())
    }

    /// The stateful-ALU register value.
    pub fn sar(&self) -> u32 {
        u32::from_be_bytes(self.buf[8..12].try_into().unwrap())
    }

    /// The memory-address register value.
    pub fn mar(&self) -> u32 {
        u32::from_be_bytes(self.buf[12..16].try_into().unwrap())
    }

    /// The packet-local recirculation id.
    pub fn recirc_id(&self) -> u8 {
        self.buf[16]
    }

    /// Flag bits.
    pub fn flags(&self) -> u8 {
        self.buf[17]
    }

    /// The carried egress port decision.
    pub fn egress_spec(&self) -> u16 {
        u16::from_be_bytes([self.buf[18], self.buf[19]])
    }

    /// The encapsulated original frame.
    pub fn payload(&self) -> &'a [u8] {
        &self.buf[RECIRC_HEADER_LEN..]
    }
}

/// Owned representation of the recirculation header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecircRepr {
    /// Program id.
    pub program_id: u16,
    /// Branch id.
    pub branch_id: u16,
    /// Har.
    pub har: u32,
    /// Sar.
    pub sar: u32,
    /// Mar.
    pub mar: u32,
    /// Recirc id.
    pub recirc_id: u8,
    /// Flags.
    pub flags: u8,
    /// Egress spec.
    pub egress_spec: u16,
}

impl RecircRepr {
    /// Extract the owned representation from a checked view.
    pub fn parse(hdr: &RecircHeader<'_>) -> Self {
        RecircRepr {
            program_id: hdr.program_id(),
            branch_id: hdr.branch_id(),
            har: hdr.har(),
            sar: hdr.sar(),
            mar: hdr.mar(),
            recirc_id: hdr.recirc_id(),
            flags: hdr.flags(),
            egress_spec: hdr.egress_spec(),
        }
    }

    /// Emit the header followed by the encapsulated frame.
    pub fn emit(&self, inner_frame: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(RECIRC_HEADER_LEN + inner_frame.len());
        out.extend_from_slice(&self.program_id.to_be_bytes());
        out.extend_from_slice(&self.branch_id.to_be_bytes());
        out.extend_from_slice(&self.har.to_be_bytes());
        out.extend_from_slice(&self.sar.to_be_bytes());
        out.extend_from_slice(&self.mar.to_be_bytes());
        out.push(self.recirc_id);
        out.push(self.flags);
        out.extend_from_slice(&self.egress_spec.to_be_bytes());
        out.extend_from_slice(inner_frame);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let repr = RecircRepr {
            program_id: 12,
            branch_id: 3,
            har: 0xaabbccdd,
            sar: 7,
            mar: 512,
            recirc_id: 1,
            flags: 0x02 | FLAG_REPORT,
            egress_spec: 32,
        };
        let bytes = repr.emit(&[0xde, 0xad]);
        assert_eq!(bytes.len(), RECIRC_HEADER_LEN + 2);
        let hdr = RecircHeader::new_checked(&bytes).unwrap();
        assert_eq!(RecircRepr::parse(&hdr), repr);
        assert_eq!(hdr.payload(), &[0xde, 0xad]);
    }

    #[test]
    fn default_is_zeroed() {
        let repr = RecircRepr::default();
        assert_eq!(repr.recirc_id, 0);
        assert_eq!(repr.flags, 0);
        assert_eq!(repr.egress_spec, 0);
    }

    #[test]
    fn short_buffer_rejected() {
        assert!(RecircHeader::new_checked(&[0; RECIRC_HEADER_LEN - 1]).is_err());
    }
}
