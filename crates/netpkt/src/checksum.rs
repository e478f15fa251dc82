//! Internet checksum (RFC 1071) helpers shared by IPv4/TCP/UDP.

/// Compute the ones'-complement sum over `data`, folding carries.
///
/// Returns the *unfinalized* 16-bit accumulator so callers can chain the
/// pseudo-header and payload before finalizing.
pub(crate) fn ones_complement_sum(mut acc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        acc += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        acc += u32::from(u16::from_be_bytes([*last, 0]));
    }
    acc
}

/// Fold the accumulator and take the ones' complement.
pub(crate) fn finalize(mut acc: u32) -> u16 {
    while acc > 0xffff {
        acc = (acc & 0xffff) + (acc >> 16);
    }
    !(acc as u16)
}

/// One-shot checksum over a single buffer (used by the IPv4 header).
pub fn checksum(data: &[u8]) -> u16 {
    finalize(ones_complement_sum(0, data))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_example() {
        // The classic example from RFC 1071 §3.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        let sum = ones_complement_sum(0, &data);
        assert_eq!(sum, 0x2ddf0);
        assert_eq!(finalize(sum), !0xddf2u16);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(checksum(&[0xffu8]), checksum(&[0xff, 0x00]));
    }

    #[test]
    fn checksum_of_valid_header_is_zero_when_included() {
        // Checksumming a buffer that already contains its own valid
        // checksum must yield zero (this is how receivers verify).
        let mut hdr = vec![0x45u8, 0, 0, 20, 0, 0, 0, 0, 64, 17, 0, 0, 10, 0, 0, 1, 10, 0, 0, 2];
        let c = checksum(&hdr);
        hdr[10..12].copy_from_slice(&c.to_be_bytes());
        assert_eq!(checksum(&hdr), 0);
    }
}
