//! Hardware hash units.
//!
//! Tofino's hash engines are Galois-field CRC generators with selectable
//! polynomials. The case study in the paper (Figure 13(d)) specifically uses
//! `crc_16_buypass`, `crc_16_mcrf4xx`, `crc_aug_ccitt`, and `crc_16_dds_110`
//! to address the CMS and Bloom-filter rows, and relies on the property that
//! *truncating* a wide uniform hash (the mask step of address translation)
//! has the same collision behaviour as a natively narrower hash. Those exact
//! algorithms are implemented here, parameterized in the Rocksoft model
//! (width / poly / init / refin / refout / xorout), and verified against the
//! standard `"123456789"` check values.

/// A CRC algorithm in the Rocksoft parameter model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CrcSpec {
    /// Output width in bits (≤ 32).
    pub width: u8,
    /// Poly.
    pub poly: u32,
    /// Init.
    pub init: u32,
    /// Refin.
    pub refin: bool,
    /// Refout.
    pub refout: bool,
    /// Xorout.
    pub xorout: u32,
}

/// CRC-16/UMTS, known in the Tofino SDE as `crc_16_buypass`.
pub const CRC16_BUYPASS: CrcSpec =
    CrcSpec { width: 16, poly: 0x8005, init: 0x0000, refin: false, refout: false, xorout: 0x0000 };

/// CRC-16/MCRF4XX.
pub const CRC16_MCRF4XX: CrcSpec =
    CrcSpec { width: 16, poly: 0x1021, init: 0xFFFF, refin: true, refout: true, xorout: 0x0000 };

/// CRC-16/SPI-FUJITSU, known in the SDE as `crc_aug_ccitt`.
pub const CRC16_AUG_CCITT: CrcSpec =
    CrcSpec { width: 16, poly: 0x1021, init: 0x1D0F, refin: false, refout: false, xorout: 0x0000 };

/// CRC-16/DDS-110.
pub const CRC16_DDS_110: CrcSpec =
    CrcSpec { width: 16, poly: 0x8005, init: 0x800D, refin: false, refout: false, xorout: 0x0000 };

/// Standard CRC-32 (ISO-HDLC).
pub const CRC32: CrcSpec = CrcSpec {
    width: 32,
    poly: 0x04C11DB7,
    init: 0xFFFF_FFFF,
    refin: true,
    refout: true,
    xorout: 0xFFFF_FFFF,
};

/// The four algorithms used to address the two CMS rows and two BF rows in
/// the heavy-hitter case study, in the paper's order.
pub const HH_CRC_SET: [CrcSpec; 4] =
    [CRC16_BUYPASS, CRC16_MCRF4XX, CRC16_AUG_CCITT, CRC16_DDS_110];

fn reflect(value: u32, bits: u8) -> u32 {
    let mut out = 0u32;
    for i in 0..bits {
        if value & (1 << i) != 0 {
            out |= 1 << (bits - 1 - i);
        }
    }
    out
}

/// Byte-at-a-time CRC step table for an MSB-first LFSR of the given width
/// and polynomial, built at compile time.
const fn make_crc_table(width: u8, poly: u32) -> [u32; 256] {
    let topbit = 1u32 << (width - 1);
    let mask = if width == 32 { u32::MAX } else { (1u32 << width) - 1 };
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = (i as u32) << (width - 8);
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & topbit != 0 { ((crc << 1) ^ poly) & mask } else { (crc << 1) & mask };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Bit-reversal of a byte, for `refin` algorithms.
const fn make_reflect8_table() -> [u8; 256] {
    let mut table = [0u8; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut out = 0u8;
        let mut bit = 0;
        while bit < 8 {
            if i & (1 << bit) != 0 {
                out |= 1 << (7 - bit);
            }
            bit += 1;
        }
        table[i] = out;
        i += 1;
    }
    table
}

const REFLECT8: [u8; 256] = make_reflect8_table();

// The hash engines sit on the per-packet hot path (every sketch update and
// memory-address translation goes through one), so the known polynomials
// get compile-time byte tables; an exotic spec falls back to the bitwise
// LFSR below, which remains the semantic definition.
const TABLE_16_8005: [u32; 256] = make_crc_table(16, 0x8005);
const TABLE_16_1021: [u32; 256] = make_crc_table(16, 0x1021);
const TABLE_32_04C11DB7: [u32; 256] = make_crc_table(32, 0x04C11DB7);

fn crc_table_for(width: u8, poly: u32) -> Option<&'static [u32; 256]> {
    match (width, poly) {
        (16, 0x8005) => Some(&TABLE_16_8005),
        (16, 0x1021) => Some(&TABLE_16_1021),
        (32, 0x04C11DB7) => Some(&TABLE_32_04C11DB7),
        _ => None,
    }
}

impl CrcSpec {
    /// Compute the CRC of `data`.
    ///
    /// Byte-table-driven for the polynomials the workspace provisions
    /// (verified bit-identical to the LFSR by the check-value tests); the
    /// bitwise form below handles any other spec and mirrors the hardware
    /// LFSR directly.
    pub fn compute(&self, data: &[u8]) -> u32 {
        debug_assert!(self.width <= 32 && self.width > 0);
        let width = u32::from(self.width);
        let mask = if width == 32 { u32::MAX } else { (1u32 << width) - 1 };
        let mut crc = self.init & mask;
        if let Some(table) = crc_table_for(self.width, self.poly) {
            for &byte in data {
                let b = if self.refin { REFLECT8[usize::from(byte)] } else { byte };
                let idx = ((crc >> (width - 8)) as u8) ^ b;
                crc = ((crc << 8) ^ table[usize::from(idx)]) & mask;
            }
        } else {
            let topbit = 1u32 << (width - 1);
            for &byte in data {
                let b = if self.refin { reflect(u32::from(byte), 8) as u8 } else { byte };
                crc ^= (u32::from(b)) << (width - 8);
                crc &= mask;
                for _ in 0..8 {
                    if crc & topbit != 0 {
                        crc = ((crc << 1) ^ self.poly) & mask;
                    } else {
                        crc = (crc << 1) & mask;
                    }
                }
            }
        }
        if self.refout {
            crc = reflect(crc, self.width);
        }
        (crc ^ self.xorout) & mask
    }

    /// Compute the CRC and truncate to `out_bits` via the mask step of the
    /// paper's address-translation mechanism (§4.1.2): `crc & (2^out_bits-1)`.
    pub fn compute_masked(&self, data: &[u8], out_bits: u8) -> u32 {
        let mask = if out_bits >= 32 { u32::MAX } else { (1u32 << out_bits) - 1 };
        self.compute(data) & mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHECK: &[u8] = b"123456789";

    // Check values from the canonical CRC catalogue (reveng).
    #[test]
    fn buypass_check() {
        assert_eq!(CRC16_BUYPASS.compute(CHECK), 0xFEE8);
    }

    #[test]
    fn mcrf4xx_check() {
        assert_eq!(CRC16_MCRF4XX.compute(CHECK), 0x6F91);
    }

    #[test]
    fn aug_ccitt_check() {
        assert_eq!(CRC16_AUG_CCITT.compute(CHECK), 0xE5CC);
    }

    #[test]
    fn dds_110_check() {
        assert_eq!(CRC16_DDS_110.compute(CHECK), 0x9ECF);
    }

    #[test]
    fn crc32_check() {
        assert_eq!(CRC32.compute(CHECK), 0xCBF4_3926);
    }

    #[test]
    fn masked_equals_truncated() {
        // The property the heavy-hitter case study relies on: the mask step
        // is exactly a truncation of the full-width output.
        let full = CRC16_BUYPASS.compute(CHECK);
        assert_eq!(CRC16_BUYPASS.compute_masked(CHECK, 10), full & 0x3FF);
        assert_eq!(CRC16_BUYPASS.compute_masked(CHECK, 32), full);
    }

    #[test]
    fn empty_input_is_init_transform() {
        // CRC of no data is the (reflected, xored) init value.
        let spec = CRC16_BUYPASS;
        assert_eq!(spec.compute(&[]), 0x0000);
        assert_eq!(CRC16_AUG_CCITT.compute(&[]), 0x1D0F);
    }

    #[test]
    fn algorithms_disagree() {
        // The four HH algorithms must behave as independent hash functions.
        let outs: Vec<u32> = HH_CRC_SET.iter().map(|s| s.compute(CHECK)).collect();
        for i in 0..outs.len() {
            for j in (i + 1)..outs.len() {
                assert_ne!(outs[i], outs[j], "algorithms {i} and {j} collide on check input");
            }
        }
    }

    #[test]
    fn table_path_matches_lfsr() {
        // The compile-time byte tables must be bit-identical to the bitwise
        // LFSR for every provisioned algorithm, across lengths and offsets.
        fn lfsr(spec: &CrcSpec, data: &[u8]) -> u32 {
            let width = u32::from(spec.width);
            let topbit = 1u32 << (width - 1);
            let mask = if width == 32 { u32::MAX } else { (1u32 << width) - 1 };
            let mut crc = spec.init & mask;
            for &byte in data {
                let b = if spec.refin { reflect(u32::from(byte), 8) as u8 } else { byte };
                crc ^= u32::from(b) << (width - 8);
                crc &= mask;
                for _ in 0..8 {
                    crc = if crc & topbit != 0 {
                        ((crc << 1) ^ spec.poly) & mask
                    } else {
                        (crc << 1) & mask
                    };
                }
            }
            if spec.refout {
                crc = reflect(crc, spec.width);
            }
            (crc ^ spec.xorout) & mask
        }
        let data: Vec<u8> = (0u32..64).map(|i| (i.wrapping_mul(0x9E37) >> 3) as u8).collect();
        for spec in [
            CRC16_BUYPASS,
            CRC16_MCRF4XX,
            CRC16_AUG_CCITT,
            CRC16_DDS_110,
            CRC32,
        ] {
            for len in [0usize, 1, 4, 13, 64] {
                assert_eq!(spec.compute(&data[..len]), lfsr(&spec, &data[..len]), "{spec:?}/{len}");
            }
        }
    }

    #[test]
    fn unknown_poly_uses_lfsr_fallback() {
        let odd = CrcSpec {
            width: 16,
            poly: 0x3D65,
            init: 0,
            refin: false,
            refout: false,
            xorout: 0xFFFF,
        };
        // CRC-16/DNP check value (reveng catalogue; refin/refout stripped
        // variants differ, so just require determinism + masking here).
        let h = odd.compute(CHECK);
        assert_eq!(h, odd.compute(CHECK));
        assert!(h <= 0xFFFF);
    }

    #[test]
    fn reflect_involution() {
        for v in [0u32, 1, 0x8005, 0xFFFF, 0xDEAD] {
            assert_eq!(reflect(reflect(v, 16), 16), v & 0xFFFF);
        }
    }

    #[test]
    fn masked_distribution_is_roughly_uniform() {
        // Hash 4096 synthetic five-tuple-ish keys into 256 buckets and make
        // sure no bucket is pathologically loaded (the property Figure 13(d)
        // depends on).
        let mut counts = [0u32; 256];
        for i in 0u32..4096 {
            let data = i.to_be_bytes();
            let h = CRC16_MCRF4XX.compute_masked(&data, 8) as usize;
            counts[h] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max <= 40, "bucket overload: {max}");
        assert!(min >= 2, "bucket starvation: {min}");
    }
}
