//! A minimal Fx-style hasher for the data-plane hot path.
//!
//! The table indexes ([`crate::table`]) sit on the per-packet critical
//! path; `std`'s default SipHash is DoS-resistant but costs tens of
//! nanoseconds per probe, which would eat most of the indexed-lookup win
//! over the linear scan. Keys here are small fixed tuples chosen by the
//! control plane (not attacker-controlled network bytes), so the classic
//! rustc `FxHasher` recipe — rotate, xor, multiply by a large odd constant
//! per word — is the right trade. Vendoring rules out pulling `rustc-hash`
//! itself; the algorithm is a few lines.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from rustc's FxHasher (derived from the golden ratio).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One-word-at-a-time multiplicative hasher.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed through [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_distinct_hashes() {
        // Not a collision-resistance claim — just a sanity check that the
        // hasher actually mixes its input.
        let h = |words: &[u64]| {
            let mut hasher = FxHasher::default();
            for &w in words {
                hasher.write_u64(w);
            }
            hasher.finish()
        };
        assert_ne!(h(&[1]), h(&[2]));
        assert_ne!(h(&[1, 2]), h(&[2, 1]));
        assert_ne!(h(&[1]), h(&[1, 1]));
    }

    #[test]
    fn map_roundtrip_with_slice_probe() {
        let mut m: FxHashMap<Box<[u64]>, u32> = FxHashMap::default();
        m.insert(vec![1, 2, 3].into_boxed_slice(), 7);
        let probe = [1u64, 2, 3];
        assert_eq!(m.get(&probe[..]), Some(&7));
        assert_eq!(m.get(&probe[..2]), None);
    }

    #[test]
    fn byte_stream_tail_handled() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 4]);
        assert_ne!(a.finish(), b.finish());
    }
}
