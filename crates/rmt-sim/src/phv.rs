//! The Packet Header Vector (PHV) and its field registry.
//!
//! The PHV carries all stateless per-packet data through the pipeline:
//! parsed header fields, intrinsic metadata consumed by the traffic manager,
//! and user metadata (the three P4runpro "registers" live here). Fields are
//! declared once, at provisioning time, into a [`FieldTable`]; the running
//! pipeline then addresses them by dense [`FieldId`]s.
//!
//! Field widths are 1–64 bits. Widths matter: every write is masked to the
//! declared width, which is how the simulator reproduces hardware ALU
//! wrap-around (the paper's SUB/SUBI pseudo-primitives depend on 32-bit
//! addition overflow, Figure 14).

use crate::error::{SimError, SimResult};
use std::collections::HashMap;

/// A handle to a declared PHV field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FieldId(pub u16);

/// Declaration of one PHV field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldSpec {
    /// Human-readable name.
    pub name: String,
    /// Bits.
    pub bits: u8,
}

impl FieldSpec {
    /// Mask.
    pub(crate) fn mask(&self) -> u64 {
        if self.bits >= 64 {
            u64::MAX
        } else {
            (1u64 << self.bits) - 1
        }
    }
}

/// Intrinsic metadata fields every switch provisions, mirroring the
/// Tofino intrinsic metadata consumed by the traffic manager.
#[derive(Debug, Clone, Copy)]
pub struct Intrinsics {
    /// Port the packet arrived on.
    pub ingress_port: FieldId,
    /// Port the packet should leave on (set by forwarding actions).
    pub egress_spec: FieldId,
    /// Non-zero ⇒ `egress_spec` holds a real forwarding decision. An
    /// explicit bit (rather than PHV validity) so the decision survives
    /// recirculation in a state header.
    pub egress_valid: FieldId,
    /// Non-zero ⇒ the traffic manager drops the packet.
    pub drop_flag: FieldId,
    /// Non-zero ⇒ reflect the packet back out its ingress port (`RETURN`).
    pub return_flag: FieldId,
    /// Non-zero ⇒ copy the packet to the CPU port (`REPORT`).
    pub report_flag: FieldId,
    /// Non-zero ⇒ recirculate for another pipeline pass.
    pub recirc_flag: FieldId,
    /// Non-zero ⇒ replicate to the ports of this multicast group (the §7
    /// extension enabling SwitchML-style aggregation).
    pub mcast_group: FieldId,
    /// Parse-path bitmap maintained by the parser (§4.1.1): one bit per
    /// header type seen.
    pub parse_bitmap: FieldId,
    /// Frame length in bytes.
    pub pkt_len: FieldId,
}

/// The registry of all PHV fields of one provisioned switch.
#[derive(Debug, Clone)]
pub struct FieldTable {
    specs: Vec<FieldSpec>,
    /// `specs[i].mask()`, kept dense so the per-write width mask is one
    /// 8-byte load rather than a walk through a `FieldSpec`.
    masks: Vec<u64>,
    by_name: HashMap<String, FieldId>,
    intrinsics: Intrinsics,
}

impl FieldTable {
    /// Create a field table with the intrinsic metadata pre-registered.
    pub fn new() -> FieldTable {
        let mut t = FieldTable {
            specs: Vec::new(),
            masks: Vec::new(),
            by_name: HashMap::new(),
            intrinsics: Intrinsics {
                ingress_port: FieldId(0),
                egress_spec: FieldId(0),
                egress_valid: FieldId(0),
                drop_flag: FieldId(0),
                return_flag: FieldId(0),
                report_flag: FieldId(0),
                recirc_flag: FieldId(0),
                mcast_group: FieldId(0),
                parse_bitmap: FieldId(0),
                pkt_len: FieldId(0),
            },
        };
        t.intrinsics = Intrinsics {
            ingress_port: t.register("ig_intr_md.ingress_port", 16).unwrap(),
            egress_spec: t.register("ig_intr_md.egress_spec", 16).unwrap(),
            egress_valid: t.register("ig_intr_md.egress_valid", 1).unwrap(),
            drop_flag: t.register("ig_intr_md.drop", 1).unwrap(),
            return_flag: t.register("ig_intr_md.return", 1).unwrap(),
            report_flag: t.register("ig_intr_md.report", 1).unwrap(),
            recirc_flag: t.register("ig_intr_md.recirc", 1).unwrap(),
            mcast_group: t.register("ig_intr_md.mcast_group", 16).unwrap(),
            parse_bitmap: t.register("ig_intr_md.parse_bitmap", 16).unwrap(),
            pkt_len: t.register("ig_intr_md.pkt_len", 16).unwrap(),
        };
        t
    }

    /// Declare a new field. Registering an existing name with the same
    /// width returns the existing id (idempotent), with a different width
    /// is an error.
    pub fn register(&mut self, name: &str, bits: u8) -> SimResult<FieldId> {
        assert!((1..=64).contains(&bits), "field width out of range");
        if let Some(&id) = self.by_name.get(name) {
            if self.specs[id.0 as usize].bits != bits {
                return Err(SimError::Config(format!(
                    "field `{name}` re-registered with width {bits} (was {})",
                    self.specs[id.0 as usize].bits
                )));
            }
            return Ok(id);
        }
        let id = FieldId(u16::try_from(self.specs.len()).expect("too many PHV fields"));
        let spec = FieldSpec { name: name.to_string(), bits };
        self.masks.push(spec.mask());
        self.specs.push(spec);
        self.by_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Lookup.
    pub fn lookup(&self, name: &str) -> SimResult<FieldId> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| SimError::UnknownField(name.to_string()))
    }

    /// Spec.
    pub fn spec(&self, id: FieldId) -> &FieldSpec {
        &self.specs[id.0 as usize]
    }

    /// The width mask every write to `id` is truncated with.
    pub(crate) fn mask(&self, id: FieldId) -> u64 {
        self.masks[id.0 as usize]
    }

    /// Number of elements.
    pub(crate) fn len(&self) -> usize {
        self.specs.len()
    }

    /// Intrinsics.
    pub fn intrinsics(&self) -> Intrinsics {
        self.intrinsics
    }

    /// Total PHV container bits consumed, counting each field rounded up to
    /// its container size (8/16/32 bits, 32-bit pairs for wider fields) —
    /// the quantity the PHV row of Figure 10 reports.
    pub(crate) fn container_bits(&self) -> usize {
        self.specs
            .iter()
            .map(|s| match s.bits {
                1..=8 => 8,
                9..=16 => 16,
                17..=32 => 32,
                _ => 64,
            })
            .sum()
    }
}

impl Default for FieldTable {
    fn default() -> Self {
        FieldTable::new()
    }
}

/// One packet's header vector: a value per field. Header validity is not
/// tracked here — it is the `$valid` presence fields the parser sets and
/// the deparser reads.
///
/// `Default` is the zero-field PHV: a valid pooling placeholder (see
/// [`Phv::reset_for`]), not a usable packet state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Phv {
    values: Vec<u64>,
}

impl Phv {
    /// An all-zero PHV sized for `table`.
    pub fn new(table: &FieldTable) -> Phv {
        Phv { values: vec![0; table.len()] }
    }

    /// Make this PHV equivalent to `Phv::new(table)` in place, reusing its
    /// allocations — the per-pass reset of the switch's scratch PHV.
    pub fn reset_for(&mut self, table: &FieldTable) {
        self.values.clear();
        self.values.resize(table.len(), 0);
    }

    /// Read a field. Fields of unparsed headers read as 0, matching how RMT
    /// match keys treat them (validity is part of the match instead).
    #[inline]
    pub fn get(&self, id: FieldId) -> u64 {
        self.values[id.0 as usize]
    }

    /// Write a field, masking to the declared width.
    #[inline]
    pub fn set(&mut self, table: &FieldTable, id: FieldId, value: u64) {
        self.values[id.0 as usize] = value & table.mask(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intrinsics_are_preregistered() {
        let t = FieldTable::new();
        assert_eq!(t.lookup("ig_intr_md.ingress_port").unwrap(), t.intrinsics().ingress_port);
        assert!(t.len() >= 8);
    }

    #[test]
    fn register_is_idempotent() {
        let mut t = FieldTable::new();
        let a = t.register("hdr.ipv4.dst", 32).unwrap();
        let b = t.register("hdr.ipv4.dst", 32).unwrap();
        assert_eq!(a, b);
        assert!(t.register("hdr.ipv4.dst", 16).is_err());
    }

    #[test]
    fn unknown_lookup_fails() {
        let t = FieldTable::new();
        assert!(matches!(t.lookup("nope"), Err(SimError::UnknownField(_))));
    }

    #[test]
    fn set_masks_to_width() {
        let mut t = FieldTable::new();
        let f = t.register("meta.x", 8).unwrap();
        let mut phv = Phv::new(&t);
        phv.set(&t, f, 0x1ff);
        assert_eq!(phv.get(f), 0xff);
    }

    #[test]
    fn wrap_around_semantics_for_32bit() {
        // The SUB pseudo-primitive depends on 32-bit two's-complement
        // wrap-around: a + (!b) + 1 ≡ a - b (mod 2^32).
        let mut t = FieldTable::new();
        let f = t.register("meta.r", 32).unwrap();
        let mut phv = Phv::new(&t);
        let a = 5u64;
        let b = 9u64;
        let not_b = (!b) & 0xffff_ffff;
        phv.set(&t, f, a + not_b + 1);
        assert_eq!(phv.get(f) as u32, (5u32).wrapping_sub(9));
    }

    #[test]
    fn dense_masks_agree_with_specs() {
        let mut t = FieldTable::new();
        t.register("meta.one", 1).unwrap();
        t.register("meta.wide", 64).unwrap();
        for id in (0..t.len() as u16).map(FieldId) {
            let spec = t.spec(id);
            assert_eq!(t.mask(id), spec.mask(), "{}", spec.name);
        }
    }

    #[test]
    fn container_bits_round_up() {
        let mut t = FieldTable::new();
        let before = t.container_bits();
        t.register("a", 3).unwrap(); // 8-bit container
        t.register("b", 12).unwrap(); // 16-bit container
        t.register("c", 20).unwrap(); // 32-bit container
        t.register("d", 48).unwrap(); // 64 bits (pair)
        assert_eq!(t.container_bits() - before, 8 + 16 + 32 + 64);
    }
}
