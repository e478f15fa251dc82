//! The canonical L3/L4 five-tuple, shared by the traffic generator, the
//! hash units, and the analysis tooling.

use std::net::Ipv4Addr;

/// A flow five-tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FiveTuple {
    /// Src addr.
    pub src_addr: Ipv4Addr,
    /// Dst addr.
    pub dst_addr: Ipv4Addr,
    /// Src port.
    pub src_port: u16,
    /// Dst port.
    pub dst_port: u16,
    /// Raw IP protocol number (6 = TCP, 17 = UDP).
    pub protocol: u8,
}

impl FiveTuple {
    /// The reverse-direction tuple (server→client leg of the same flow).
    pub fn reversed(&self) -> FiveTuple {
        FiveTuple {
            src_addr: self.dst_addr,
            dst_addr: self.src_addr,
            src_port: self.dst_port,
            dst_port: self.src_port,
            protocol: self.protocol,
        }
    }
}

impl core::fmt::Display for FiveTuple {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{} proto {}",
            self.src_addr, self.src_port, self.dst_addr, self.dst_port, self.protocol
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ft() -> FiveTuple {
        FiveTuple {
            src_addr: Ipv4Addr::new(10, 1, 2, 3),
            dst_addr: Ipv4Addr::new(192, 168, 0, 9),
            src_port: 1000,
            dst_port: 2000,
            protocol: 6,
        }
    }

    #[test]
    fn reversed_twice_is_identity() {
        assert_eq!(ft().reversed().reversed(), ft());
    }

    #[test]
    fn reversed_swaps_endpoints() {
        let r = ft().reversed();
        assert_eq!(r.src_port, 2000);
        assert_eq!(r.dst_addr, Ipv4Addr::new(10, 1, 2, 3));
    }
}
