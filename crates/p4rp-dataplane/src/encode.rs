//! Entry encoding: from compiler-level specifications to concrete
//! `rmt-sim` table entries.
//!
//! Three entry families exist in the P4runpro data plane:
//!
//! * **RPB entries** — keyed `(program id, branch id, recirculation id,
//!   har, sar, mar)`, all ternary ("all the tables in P4runpro use ternary
//!   match and have redundant keys", §7), selecting one pre-installed
//!   atomic operation;
//! * **initialization-block filter entries** — one filtering table per
//!   parse path (§4.1.1), keyed on the parse-path bitmap, the
//!   recirculation-header presence bit (so recirculated packets keep the
//!   program id restored from their state header), the ingress port, and
//!   the path's header fields;
//! * **recirculation-block entries** — keyed `(program id, recirculation
//!   id)`, marking packets of multi-pass programs for another traversal.

use crate::atomic::{Catalogue, RpbOp};
use crate::fields::{bitmap, P4rpFields};
use p4rp_lang::RegConds;
use rmt_sim::error::{SimError, SimResult};
use rmt_sim::phv::{FieldId, FieldTable};
use rmt_sim::table::{KeySpec, MatchKind, MatchValue, TableEntry};

/// Build the RPB table key spec: `(prog_id, branch_id, recirc_id, har,
/// sar, mar)`, all ternary.
pub fn rpb_key_spec(f: &P4rpFields) -> KeySpec {
    KeySpec::new(vec![
        (f.prog_id, MatchKind::Ternary),
        (f.branch_id, MatchKind::Ternary),
        (f.recirc_id, MatchKind::Ternary),
        (f.har, MatchKind::Ternary),
        (f.sar, MatchKind::Ternary),
        (f.mar, MatchKind::Ternary),
    ])
}

/// A compiler-produced RPB entry.
#[derive(Debug, Clone, PartialEq)]
pub struct RpbEntrySpec {
    /// Prog id.
    pub prog_id: u16,
    /// Hierarchical branch condition `(value, mask)` — see the compiler's
    /// branch-bit allocation.
    pub branch: (u16, u16),
    /// The recirculation pass this entry belongs to.
    pub recirc_id: u8,
    /// Register conditions (only BRANCH case entries constrain these).
    pub regs: RegConds,
    /// Priority among entries of the same program/RPB (case order).
    pub priority: i32,
    /// Op.
    pub op: RpbOp,
}

impl RpbEntrySpec {
}

fn reg_match(c: Option<(u32, u32)>) -> MatchValue {
    match c {
        None => MatchValue::ANY,
        Some((v, m)) => MatchValue::Ternary { value: u64::from(v), mask: u64::from(m) },
    }
}

/// Encode an RPB entry against the RPB's action catalogue.
pub fn encode_rpb_entry(cat: &Catalogue, spec: &RpbEntrySpec) -> SimResult<TableEntry> {
    let action = cat.action_id(spec.op.action).ok_or_else(|| {
        SimError::Config(format!("operation {:?} is not installed in this RPB", spec.op.action))
    })?;
    Ok(TableEntry {
        matches: vec![
            MatchValue::Ternary { value: u64::from(spec.prog_id), mask: 0xffff },
            MatchValue::Ternary { value: u64::from(spec.branch.0), mask: u64::from(spec.branch.1) },
            MatchValue::Ternary { value: u64::from(spec.recirc_id), mask: 0xff },
            reg_match(spec.regs.har),
            reg_match(spec.regs.sar),
            reg_match(spec.regs.mar),
        ],
        priority: spec.priority,
        action,
        data: spec.op.data.clone(),
    })
}

/// The unified initialization-block filtering table (§4.1.1).
///
/// **Deviation from the paper** (documented in DESIGN.md): the prototype
/// provisions one filtering table per parse path (K tables). This
/// reproduction uses a single SRAM-backed (algorithmic-TCAM) table whose
/// key is the union of all paths' filterable fields plus the parse-path
/// bitmap matched *ternary*: an entry requires exactly the header bits its
/// filter fields need and leaves deeper headers don't-care. This preserves
/// the per-path triggering semantics (a `hdr.eth.*` filter matches every
/// path that parsed Ethernet) while supporting the thousands of concurrent
/// filter entries the program-capacity experiments need (§6.2.3) within
/// one stage's memory.
pub mod init {
    use super::*;

    /// Filterable fields of the unified init table, in key order.
    pub(crate) fn key_fields(ft: &FieldTable, f: &P4rpFields) -> Vec<FieldId> {
        let intr = ft.intrinsics();
        vec![
            intr.ingress_port,
            f.lookup("hdr.eth.dst").unwrap(),
            f.lookup("hdr.eth.type").unwrap(),
            f.ipv4_src,
            f.ipv4_dst,
            f.ipv4_proto,
            f.l4_src_port,
            f.l4_dst_port,
            f.lookup("hdr.nc.op").unwrap(),
        ]
    }

    /// Full key spec: `(parse_bitmap, rc_valid, fields…)`, all ternary.
    pub(crate) fn key_spec(ft: &FieldTable, f: &P4rpFields) -> KeySpec {
        let mut fields = vec![
            (ft.intrinsics().parse_bitmap, MatchKind::Ternary),
            (f.rc_valid, MatchKind::Ternary),
        ];
        fields.extend(key_fields(ft, f).into_iter().map(|id| (id, MatchKind::Ternary)));
        KeySpec::new(fields)
    }

    /// Which parse-path bits a filter field name requires.
    pub fn required_bits(name: &str) -> u16 {
        let eth = 1u16 << bitmap::ETH;
        if name.starts_with("hdr.eth.") {
            eth
        } else if name.starts_with("hdr.ipv4.") {
            eth | (1 << bitmap::IPV4)
        } else if name.starts_with("hdr.tcp.") {
            eth | (1 << bitmap::IPV4) | (1 << bitmap::TCP)
        } else if name.starts_with("hdr.udp.") {
            eth | (1 << bitmap::IPV4) | (1 << bitmap::UDP)
        } else if name.starts_with("hdr.nc.") {
            eth | (1 << bitmap::IPV4) | (1 << bitmap::UDP) | (1 << bitmap::NC)
        } else {
            // hdr.l4.* (either transport) needs at least IPv4; meta.* needs
            // nothing.
            if name.starts_with("hdr.l4.") {
                eth | (1 << bitmap::IPV4)
            } else {
                0
            }
        }
    }

    /// Whether the unified table can express a filter on `name`.
    pub fn supports_field(ft: &FieldTable, f: &P4rpFields, name: &str) -> bool {
        match f.lookup(name) {
            None => false,
            Some(id) => key_fields(ft, f).contains(&id),
        }
    }
}

/// One program's filter entry for the unified init table.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterEntrySpec {
    /// Prog id.
    pub prog_id: u16,
    /// Parse-path bits the filter requires (ternary bitmap condition).
    pub required_bitmap: u16,
    /// `(field, value, mask)` triples resolved against the field table.
    pub conds: Vec<(FieldId, u64, u64)>,
    /// Priority.
    pub priority: i32,
}

/// Encode a filter entry. Unreferenced key fields are wildcards.
pub fn encode_filter_entry(
    ft: &FieldTable,
    f: &P4rpFields,
    spec: &FilterEntrySpec,
) -> TableEntry {
    let mut matches = vec![
        MatchValue::Ternary {
            value: u64::from(spec.required_bitmap),
            mask: u64::from(spec.required_bitmap),
        },
        // Only first-pass packets are (re)classified; recirculated packets
        // keep the program id restored from their state header.
        MatchValue::Ternary { value: 0, mask: 1 },
    ];
    let key_fields = init::key_fields(ft, f);
    for _ in &key_fields {
        matches.push(MatchValue::ANY);
    }
    for (field, value, mask) in &spec.conds {
        if let Some(pos) = key_fields.iter().position(|k| k == field) {
            matches[2 + pos] = MatchValue::Ternary { value: *value, mask: *mask };
        }
    }
    TableEntry {
        matches,
        priority: spec.priority,
        action: 0, // set_prog
        data: vec![u64::from(spec.prog_id)],
    }
}

/// Encode a recirculation-block entry: packets of `prog_id` that have made
/// `recirc_id` passes go around again.
pub fn encode_recirc_entry(prog_id: u16, recirc_id: u8) -> TableEntry {
    TableEntry {
        matches: vec![
            MatchValue::Ternary { value: u64::from(prog_id), mask: 0xffff },
            MatchValue::Ternary { value: u64::from(recirc_id), mask: 0xff },
        ],
        priority: 0,
        action: 0, // recirculate
        data: vec![],
    }
}

/// Key spec of the recirculation-block table.
pub fn recirc_key_spec(f: &P4rpFields) -> KeySpec {
    KeySpec::new(vec![(f.prog_id, MatchKind::Ternary), (f.recirc_id, MatchKind::Ternary)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::{build_catalogue, AtomicAction, MemOpKind};
    use crate::fields;
    use p4rp_lang::Reg;

    /// A plain (non-branch) entry: registers don't-care, priority 0.
    fn plain(op: RpbOp) -> RpbEntrySpec {
        RpbEntrySpec {
            prog_id: 7,
            branch: (0, 0),
            recirc_id: 0,
            regs: RegConds::default(),
            priority: 0,
            op,
        }
    }

    #[test]
    fn rpb_entry_encodes_action_and_data() {
        let (ft, _, f) = fields::build().unwrap();
        let cat = build_catalogue(&ft, &f, true, rmt_sim::hash::CRC16_BUYPASS);
        let spec = plain(RpbOp::loadi(Reg::Mar, 512));
        let e = encode_rpb_entry(&cat, &spec).unwrap();
        assert_eq!(e.matches.len(), 6);
        assert_eq!(e.data, vec![512]);
        assert_eq!(e.action, cat.action_id(AtomicAction::LoadI(Reg::Mar)).unwrap());
    }

    #[test]
    fn egress_catalogue_rejects_forwarding() {
        let (ft, _, f) = fields::build().unwrap();
        let cat = build_catalogue(&ft, &f, false, rmt_sim::hash::CRC16_BUYPASS);
        let spec = plain(RpbOp::forward(3));
        assert!(encode_rpb_entry(&cat, &spec).is_err());
        let spec = plain(RpbOp::mem(MemOpKind::Read));
        assert!(encode_rpb_entry(&cat, &spec).is_ok());
    }

    #[test]
    fn required_bits_are_cumulative() {
        use crate::fields::bitmap as bm;
        let eth = 1u16 << bm::ETH;
        assert_eq!(init::required_bits("hdr.eth.dst"), eth);
        assert_eq!(init::required_bits("hdr.ipv4.dst"), eth | (1 << bm::IPV4));
        assert_eq!(
            init::required_bits("hdr.udp.dst_port"),
            eth | (1 << bm::IPV4) | (1 << bm::UDP)
        );
        assert_eq!(
            init::required_bits("hdr.nc.op"),
            eth | (1 << bm::IPV4) | (1 << bm::UDP) | (1 << bm::NC)
        );
        assert_eq!(init::required_bits("meta.ingress_port"), 0);
    }

    #[test]
    fn filter_entry_places_conditions() {
        let (ft, _, f) = fields::build().unwrap();
        let spec = FilterEntrySpec {
            prog_id: 9,
            required_bitmap: init::required_bits("hdr.udp.dst_port"),
            conds: vec![(f.l4_dst_port, 7777, 0xffff)],
            priority: 1,
        };
        let e = encode_filter_entry(&ft, &f, &spec);
        let keys = init::key_fields(&ft, &f);
        assert_eq!(e.matches.len(), 2 + keys.len());
        assert_eq!(e.data, vec![9]);
        let pos = keys.iter().position(|k| *k == f.l4_dst_port).unwrap();
        assert_eq!(
            e.matches[2 + pos],
            MatchValue::Ternary { value: 7777, mask: 0xffff }
        );
        // Bitmap condition is a partial (required-bits) ternary match.
        let bm = u64::from(spec.required_bitmap);
        assert_eq!(e.matches[0], MatchValue::Ternary { value: bm, mask: bm });
    }

    #[test]
    fn supported_filter_fields() {
        let (ft, _, f) = fields::build().unwrap();
        for name in ["hdr.eth.dst", "hdr.ipv4.dst", "hdr.udp.dst_port", "meta.ingress_port"] {
            assert!(init::supports_field(&ft, &f, name), "{name}");
        }
        for name in ["hdr.ipv4.ttl", "hdr.tcp.seq", "bogus"] {
            assert!(!init::supports_field(&ft, &f, name), "{name}");
        }
    }

    #[test]
    fn recirc_entry_shape() {
        let e = encode_recirc_entry(5, 0);
        assert_eq!(e.matches.len(), 2);
        assert_eq!(e.action, 0);
    }
}
