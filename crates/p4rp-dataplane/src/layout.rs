//! Physical layout constants of the P4runpro data plane (§5 of the paper)
//! and the logical-RPB coordinate system used by the allocator.
//!
//! The prototype provisions a single Tofino pipeline as:
//!
//! * ingress stage 0 — the initialization block (K filtering tables, one
//!   per parse path);
//! * ingress stages 1–10 — RPBs 1..=10 (the ingress RPBs, which may execute
//!   forwarding primitives);
//! * ingress stage 11 — the recirculation block;
//! * egress stages 0–11 — RPBs 11..=22.
//!
//! With recirculation, the allocator works over *logical* RPBs: logical
//! index `l ∈ 1..=M*(R+1)` denotes physical RPB `((l-1) % M) + 1` on pass
//! `(l-1) / M`.

use rmt_sim::pipeline::Gress;
use rmt_sim::switch::{ArrayRef, TableRef};

/// Ingress RPB count (`N` in the allocation model).
pub const NUM_INGRESS_RPBS: usize = 10;
/// Egress RPB count.
pub(crate) const NUM_EGRESS_RPBS: usize = 12;
/// Total physical RPBs (`M` in the allocation model).
pub const NUM_RPBS: usize = NUM_INGRESS_RPBS + NUM_EGRESS_RPBS;

/// Entries per RPB table.
pub const RPB_TABLE_SIZE: usize = 2048;
/// 32-bit buckets of stateful memory per RPB.
pub const RPB_MEM_SIZE: u32 = 65_536;
/// Entries of the unified initialization-block filtering table (SRAM-
/// backed algorithmic TCAM — sized for the thousands of concurrent
/// programs of §6.2.3).
pub const INIT_TABLE_SIZE: usize = 8192;
/// Entries in the recirculation block table.
pub const RECIRC_TABLE_SIZE: usize = 8192;

/// Ingress pipeline stage count (init + 10 RPBs + recirc).
pub(crate) const INGRESS_STAGES: usize = 1 + NUM_INGRESS_RPBS + 1;
/// Egress pipeline stage count.
pub(crate) const EGRESS_STAGES: usize = NUM_EGRESS_RPBS;

/// Ingress stage index of the initialization block.
pub(crate) const INIT_STAGE: usize = 0;
/// Ingress stage index of the recirculation block.
pub(crate) const RECIRC_STAGE: usize = INGRESS_STAGES - 1;

/// A physical RPB, numbered 1..=22 (1..=10 ingress, 11..=22 egress).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RpbId(pub u8);

impl RpbId {
    /// All.
    pub fn all() -> impl Iterator<Item = RpbId> {
        (1..=NUM_RPBS as u8).map(RpbId)
    }

    /// Is valid.
    pub(crate) fn is_valid(self) -> bool {
        (1..=NUM_RPBS as u8).contains(&self.0)
    }

    /// Ingress RPBs can execute forwarding primitives (constraint (4)).
    pub fn is_ingress(self) -> bool {
        (1..=NUM_INGRESS_RPBS as u8).contains(&self.0)
    }

    /// The pipeline stage hosting this RPB.
    pub(crate) fn stage(self) -> (Gress, usize) {
        debug_assert!(self.is_valid());
        if self.is_ingress() {
            // RPB 1 lives in ingress stage 1 (stage 0 is the init block).
            (Gress::Ingress, usize::from(self.0))
        } else {
            (Gress::Egress, usize::from(self.0) - NUM_INGRESS_RPBS - 1)
        }
    }

    /// The RPB's match-action table (always table 0 of its stage).
    pub fn table_ref(self) -> TableRef {
        let (gress, stage) = self.stage();
        TableRef { gress, stage, table: 0 }
    }

    /// The RPB's stateful memory (always array 0 of its stage).
    pub fn array_ref(self) -> ArrayRef {
        let (gress, stage) = self.stage();
        ArrayRef { gress, stage, array: 0 }
    }
}

/// A logical RPB: a physical RPB on a given recirculation pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LogicalRpb(pub u16);

impl LogicalRpb {
    /// From index.
    pub fn from_index(index: u16) -> LogicalRpb {
        LogicalRpb(index)
    }

    /// Recirculation pass (0 = first traversal).
    pub fn pass(self) -> u8 {
        ((self.0 - 1) / NUM_RPBS as u16) as u8
    }

    /// Rpb.
    pub fn rpb(self) -> RpbId {
        RpbId((((self.0 - 1) % NUM_RPBS as u16) + 1) as u8)
    }

    /// Is ingress.
    pub fn is_ingress(self) -> bool {
        self.rpb().is_ingress()
    }

    /// Maximum logical index for `r` allowed recirculation iterations.
    pub fn max_index(max_recirc: u8) -> u16 {
        (NUM_RPBS * (usize::from(max_recirc) + 1)) as u16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rpb_partition() {
        assert_eq!(RpbId::all().count(), 22);
        assert!(RpbId(1).is_ingress());
        assert!(RpbId(10).is_ingress());
        assert!(!RpbId(11).is_ingress());
        assert!(!RpbId(22).is_ingress());
        assert!(!RpbId(0).is_valid());
        assert!(!RpbId(23).is_valid());
    }

    #[test]
    fn stage_mapping() {
        assert_eq!(RpbId(1).stage(), (Gress::Ingress, 1));
        assert_eq!(RpbId(10).stage(), (Gress::Ingress, 10));
        assert_eq!(RpbId(11).stage(), (Gress::Egress, 0));
        assert_eq!(RpbId(22).stage(), (Gress::Egress, 11));
        // Init and recirc blocks surround the ingress RPBs.
        assert_eq!(INIT_STAGE, 0);
        assert_eq!(RECIRC_STAGE, 11);
    }

    #[test]
    fn logical_index_is_contiguous_and_pass_major() {
        let mut index = 0;
        for pass in 0..=2u8 {
            for rpb in RpbId::all() {
                index += 1;
                let l = LogicalRpb::from_index(index);
                assert_eq!((l.pass(), l.rpb()), (pass, rpb), "index {index}");
            }
        }
        assert_eq!(LogicalRpb::max_index(1), 44);
        assert_eq!(LogicalRpb::max_index(0), 22);
    }
}
