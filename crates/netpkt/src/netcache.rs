//! The NetCache-style in-network cache header.
//!
//! The paper's running example (Figure 2) keys the cache on a 64-bit key
//! carried after UDP on destination port 7777, with an 8-bit opcode and a
//! 32-bit value:
//!
//! ```text
//!  0        8                                       72        104
//!  +--------+---------------------------------------+---------+
//!  | opcode |              key (64 bits)            |  value  |
//!  +--------+---------------------------------------+---------+
//! ```

use crate::{WireError, WireResult};

/// The UDP destination port the cache program filters on (Figure 2, line 4).
pub const NETCACHE_PORT: u16 = 7777;

/// Length of the cache header in bytes: 1 (op) + 8 (key) + 4 (value).
pub(crate) const HEADER_LEN: usize = 13;

/// Cache opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheOp {
    /// Client-sent read request; the switch fills in `value` on a hit.
    Read,
    /// Server-sent write (cache fill); the switch stores `value`.
    Write,
    /// Any opcode the cache program does not handle.
    Unknown(u8),
}

impl From<u8> for CacheOp {
    fn from(v: u8) -> Self {
        match v {
            0 => CacheOp::Read,
            1 => CacheOp::Write,
            other => CacheOp::Unknown(other),
        }
    }
}

impl From<CacheOp> for u8 {
    fn from(v: CacheOp) -> u8 {
        match v {
            CacheOp::Read => 0,
            CacheOp::Write => 1,
            CacheOp::Unknown(other) => other,
        }
    }
}

/// A read-only view of a cache header.
#[derive(Debug)]
pub struct NetCacheHeader<'a> {
    buf: &'a [u8],
}

impl<'a> NetCacheHeader<'a> {
    /// Wrap a buffer after validating its length and structure.
    pub(crate) fn new_checked(buf: &'a [u8]) -> WireResult<Self> {
        if buf.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        Ok(NetCacheHeader { buf })
    }

    /// The opcode field.
    pub(crate) fn op(&self) -> CacheOp {
        self.buf[0].into()
    }

    /// The 64-bit cache key.
    pub(crate) fn key(&self) -> u64 {
        u64::from_be_bytes(self.buf[1..9].try_into().unwrap())
    }

    /// The 32-bit cache value.
    pub(crate) fn value(&self) -> u32 {
        u32::from_be_bytes(self.buf[9..13].try_into().unwrap())
    }

    /// The bytes following this header.
    pub(crate) fn payload(&self) -> &'a [u8] {
        &self.buf[HEADER_LEN..]
    }
}

/// Owned representation of a cache header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetCacheRepr {
    /// Op.
    pub op: CacheOp,
    /// Key.
    pub key: u64,
    /// Value.
    pub value: u32,
}

impl NetCacheRepr {
    /// Extract the owned representation from a checked view.
    pub fn parse(hdr: &NetCacheHeader<'_>) -> Self {
        NetCacheRepr {
            op: hdr.op(),
            key: hdr.key(),
            value: hdr.value(),
        }
    }

    /// Emit the header followed by `payload_len` zero bytes.
    pub fn emit(&self, payload_len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + payload_len);
        out.push(self.op.into());
        out.extend_from_slice(&self.key.to_be_bytes());
        out.extend_from_slice(&self.value.to_be_bytes());
        out.resize(HEADER_LEN + payload_len, 0);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let repr = NetCacheRepr { op: CacheOp::Write, key: 0x1122_3344_5566_7788, value: 99 };
        let bytes = repr.emit(0);
        let hdr = NetCacheHeader::new_checked(&bytes).unwrap();
        assert_eq!(NetCacheRepr::parse(&hdr), repr);
    }

    #[test]
    fn short_buffer_rejected() {
        assert!(NetCacheHeader::new_checked(&[0; 12]).is_err());
    }

    #[test]
    fn unknown_opcode_preserved() {
        let repr = NetCacheRepr { op: CacheOp::Unknown(9), key: 1, value: 2 };
        let bytes = repr.emit(0);
        let hdr = NetCacheHeader::new_checked(&bytes).unwrap();
        assert_eq!(hdr.op(), CacheOp::Unknown(9));
    }
}
