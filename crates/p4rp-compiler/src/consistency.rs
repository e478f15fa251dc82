//! Consistent update planning (§4.3, Figure 6).
//!
//! Consistency here means: no packet is ever processed by a half-installed
//! or half-removed program. RMT guarantees atomicity per single-entry
//! update; the unique program id per program does the rest, provided the
//! batches are ordered so the *initialization-block filter* — the only
//! thing that can assign a packet the program's id — flips strictly last
//! on install and strictly first on removal:
//!
//! * **install**: ① RPB entries and recirculation entries (inert without
//!   the program id), ② filter entries (activation);
//! * **remove**: ① filter entries (all downstream components stop matching
//!   at once), ② RPB + recirculation entries, ③ lock and reset the
//!   program's memory regions — the regions stay unavailable for
//!   reallocation until the reset completes (the resource manager enforces
//!   the lock).

use crate::entrygen::ProgramImage;
use p4rp_dataplane::{encode_filter_entry, encode_recirc_entry, Dataplane};
use rmt_sim::switch::{ControlOp, TableRef};
use rmt_sim::table::EntryHandle;

/// One ordered batch of control operations.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Label.
    pub label: &'static str,
    /// Ops.
    pub ops: Vec<ControlOp>,
}

/// Plan the install batches of a program image (Figure 6 right half). The
/// RPB entries are the image's encoded ones, copied into place once each;
/// the plan owns them and the channel moves them into the device.
pub fn plan_install(
    image: &ProgramImage,
    dp: &Dataplane,
    ft: &rmt_sim::phv::FieldTable,
) -> Vec<Batch> {
    let rpb_entries = image.rpb_entries();
    let mut body_ops = Vec::with_capacity(rpb_entries.len() + image.recirc_ids.len());
    body_ops.extend(
        rpb_entries.map(|(rpb, entry)| ControlOp::InsertEntry { table: rpb.table_ref(), entry }),
    );
    for &rid in &image.recirc_ids {
        body_ops.push(ControlOp::InsertEntry {
            table: dp.recirc_table,
            entry: encode_recirc_entry(image.prog_id, rid),
        });
    }
    let entry = encode_filter_entry(ft, &dp.fields, &image.filter);
    let filter_ops = vec![ControlOp::InsertEntry { table: dp.init_table, entry }];
    vec![
        Batch { label: "program components", ops: body_ops },
        Batch { label: "activate filters", ops: filter_ops },
    ]
}

/// The handles recorded when a program was installed, needed for removal.
#[derive(Debug, Clone, Default)]
pub struct InstalledHandles {
    /// Filter handles.
    pub filter_handles: Vec<(TableRef, EntryHandle)>,
    /// Body handles.
    pub body_handles: Vec<(TableRef, EntryHandle)>,
}

/// Plan the removal batches of an installed image (Figure 6 left half).
pub fn plan_remove(image: &ProgramImage, h: &InstalledHandles) -> Vec<Batch> {
    let filter_ops = h
        .filter_handles
        .iter()
        .map(|(table, handle)| ControlOp::DeleteEntry { table: *table, handle: *handle })
        .collect();
    let body_ops = h
        .body_handles
        .iter()
        .map(|(table, handle)| ControlOp::DeleteEntry { table: *table, handle: *handle })
        .collect();
    let reset_ops = image
        .mem_regions
        .iter()
        .map(|r| ControlOp::ResetRegRange {
            array: r.rpb.array_ref(),
            start: r.offset,
            len: r.size,
        })
        .collect();
    vec![
        Batch { label: "deactivate filters", ops: filter_ops },
        Batch { label: "delete program components", ops: body_ops },
        Batch { label: "lock and reset memory", ops: reset_ops },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entrygen::MemRegion;
    use p4rp_dataplane::{FilterEntrySpec, RpbId};

    #[test]
    fn removal_order_is_filters_then_body_then_memory() {
        let h = InstalledHandles {
            filter_handles: vec![(RpbId(1).table_ref(), EntryHandle(10))],
            body_handles: vec![(RpbId(2).table_ref(), EntryHandle(11))],
        };
        let image = ProgramImage {
            prog_id: 1,
            name: "p".into(),
            body: Default::default(),
            filter: FilterEntrySpec {
                prog_id: 1,
                required_bitmap: 0,
                conds: vec![],
                priority: 0,
            },
            recirc_ids: vec![],
            mem_regions: vec![MemRegion {
                name: "m".into(),
                rpb: RpbId(3),
                offset: 0,
                size: 64,
            }],
            passes: 1,
        };
        let batches = plan_remove(&image, &h);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].label, "deactivate filters");
        assert_eq!(batches[1].label, "delete program components");
        assert_eq!(batches[2].label, "lock and reset memory");
        assert!(matches!(batches[2].ops[0], ControlOp::ResetRegRange { len: 64, .. }));
    }
}
