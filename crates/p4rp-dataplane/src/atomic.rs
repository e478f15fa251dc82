//! The atomic operations pre-installed in every RPB (§4.1.2, §4.2).
//!
//! Each atomic operation is one table action; its operands come from the
//! entry's action data, so one pre-installed action serves every program
//! that uses that operation. Header-interaction operations must be
//! enumerated per (field × register) combination — that enumeration is
//! exactly the "operation capacity" pressure the paper's pseudo-primitive
//! design responds to, and it is what fills the VLIW budget (Figure 10).
//!
//! Memory operations use the SALU-flag pairing of §4.1.2: two memory
//! operations share one action, selected by the `salu_flag` PHV bit that
//! the offset step sets. Four pairs cover the seven memory primitives of
//! Table 3:
//!
//! | pair       | flag = 0 | flag = 1 |
//! |------------|----------|----------|
//! | `ReadWrite`| MEMREAD  | MEMWRITE |
//! | `AddSub`   | MEMADD   | MEMSUB   |
//! | `AndOr`    | MEMAND   | MEMOR    |
//! | `MaxOnly`  | MEMMAX   | MEMMAX   |

use crate::fields::P4rpFields;
use p4rp_lang::Reg;
use rmt_sim::action::{ActionDef, AluFunc, HashCall, HashInput, Operand, SaluCall, VliwOp};
use rmt_sim::hash::{CrcSpec, CRC32};
use rmt_sim::phv::{FieldId, FieldTable};
use rmt_sim::salu::{SaluCond, SaluExpr, SaluInstr, SaluOutput};
use std::collections::HashMap;

/// The seven memory primitives of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOpKind {
    /// Add.
    Add,
    /// Sub.
    Sub,
    /// And.
    And,
    /// Or.
    Or,
    /// Read.
    Read,
    /// Write.
    Write,
    /// Max.
    Max,
}

impl MemOpKind {
    /// The SALU instruction implementing this primitive.
    pub(crate) fn instr(self) -> SaluInstr {
        match self {
            // MEMADD: mem += sar; sar = new mem.
            MemOpKind::Add => SaluInstr {
                cond: SaluCond::Always,
                update_true: Some(SaluExpr::MemPlusOp),
                update_false: None,
                output: SaluOutput::NewMem,
            },
            // MEMSUB: mem -= sar; sar = new mem.
            MemOpKind::Sub => SaluInstr {
                cond: SaluCond::Always,
                update_true: Some(SaluExpr::MemMinusOp),
                update_false: None,
                output: SaluOutput::NewMem,
            },
            // MEMAND: mem &= sar; sar = new mem.
            MemOpKind::And => SaluInstr {
                cond: SaluCond::Always,
                update_true: Some(SaluExpr::MemAndOp),
                update_false: None,
                output: SaluOutput::NewMem,
            },
            // MEMOR: sar = old mem; mem |= sar (Table 3 lists the read
            // before the update — the Bloom-filter existence-check idiom).
            MemOpKind::Or => SaluInstr {
                cond: SaluCond::Always,
                update_true: Some(SaluExpr::MemOrOp),
                update_false: None,
                output: SaluOutput::OldMem,
            },
            MemOpKind::Read => SaluInstr::READ,
            MemOpKind::Write => SaluInstr::WRITE,
            // MEMMAX: mem = sar if sar > mem.
            MemOpKind::Max => SaluInstr {
                cond: SaluCond::OpGtMem,
                update_true: Some(SaluExpr::Op),
                update_false: None,
                output: SaluOutput::None,
            },
        }
    }

    /// The SALU pair hosting this primitive and the flag value selecting it.
    pub fn pair(self) -> (MemPair, bool) {
        match self {
            MemOpKind::Read => (MemPair::ReadWrite, false),
            MemOpKind::Write => (MemPair::ReadWrite, true),
            MemOpKind::Add => (MemPair::AddSub, false),
            MemOpKind::Sub => (MemPair::AddSub, true),
            MemOpKind::And => (MemPair::AndOr, false),
            MemOpKind::Or => (MemPair::AndOr, true),
            MemOpKind::Max => (MemPair::MaxOnly, false),
        }
    }
}

/// SALU instruction pairs selected by the SALU flag (§4.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemPair {
    /// ReadWrite.
    ReadWrite,
    /// AddSub.
    AddSub,
    /// AndOr.
    AndOr,
    /// MaxOnly.
    MaxOnly,
}

impl MemPair {
    /// `ALL`.
    pub(crate) const ALL: [MemPair; 4] = [MemPair::ReadWrite, MemPair::AddSub, MemPair::AndOr, MemPair::MaxOnly];

    fn instrs(self) -> (SaluInstr, SaluInstr) {
        match self {
            MemPair::ReadWrite => (MemOpKind::Read.instr(), MemOpKind::Write.instr()),
            MemPair::AddSub => (MemOpKind::Add.instr(), MemOpKind::Sub.instr()),
            MemPair::AndOr => (MemOpKind::And.instr(), MemOpKind::Or.instr()),
            MemPair::MaxOnly => (MemOpKind::Max.instr(), MemOpKind::Max.instr()),
        }
    }
}

/// The register-to-register ALU operations (6 ops × 6 ordered register
/// pairs = 36 pre-installed actions — the combinatorial cost §4.1.2
/// discusses when justifying three registers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluRROp {
    /// Add.
    Add,
    /// And.
    And,
    /// Or.
    Or,
    /// Max.
    Max,
    /// Min.
    Min,
    /// Xor.
    Xor,
}

impl AluRROp {
    /// `ALL`.
    pub(crate) const ALL: [AluRROp; 6] =
        [AluRROp::Add, AluRROp::And, AluRROp::Or, AluRROp::Max, AluRROp::Min, AluRROp::Xor];

    fn func(self) -> AluFunc {
        match self {
            AluRROp::Add => AluFunc::Add,
            AluRROp::And => AluFunc::And,
            AluRROp::Or => AluFunc::Or,
            AluRROp::Max => AluFunc::Max,
            AluRROp::Min => AluFunc::Min,
            AluRROp::Xor => AluFunc::Xor,
        }
    }
}

/// The identity of one pre-installed atomic operation. Entries reference an
/// operation plus action data (immediates, masks, offsets, ports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomicAction {
    /// reg = field.
    /// Extract.
    Extract { field: FieldId, reg: Reg },
    /// field = reg.
    /// Modify.
    Modify { field: FieldId, reg: Reg },
    /// har = crc32(har).
    HashHar,
    /// har = crc32(5-tuple).
    Hash5Tuple,
    /// mar = crc16(har) & data\[0\]  (mask step fused, §4.1.2).
    HashHarMem,
    /// mar = crc16(5-tuple) & data\[0\].
    Hash5TupleMem,
    /// branch_id |= data\[0\]  (enter a case's branch-bit range).
    SetBranch,
    /// pma = mar + data\[0\]; salu_flag = data\[1\]  (the offset step).
    MemOffset,
    /// SALU pair on this stage's memory at address `pma`.
    Mem(MemPair),
    /// reg = data\[0\].
    LoadI(Reg),
    /// a = op(a, b).
    /// AluRR.
    AluRR { op: AluRROp, a: Reg, b: Reg },
    /// scratch = reg (backup of the supportive register, Figure 4(b)).
    Backup(Reg),
    /// reg = scratch (restore after pseudo-primitive expansion).
    Restore(Reg),
    /// egress_spec = data\[0\].
    Forward,
    /// mcast_group = data\[0\] (§7 multicast extension).
    Multicast,
    /// Drop.
    Drop,
    /// Return.
    Return,
    /// Report.
    Report,
    /// Recirculation-block action: mark for another pass.
    Recirculate,
    /// Nop.
    Nop,
}

/// One operation instance: the pre-installed action plus its action data.
#[derive(Debug, Clone, PartialEq)]
pub struct RpbOp {
    /// Action.
    pub action: AtomicAction,
    /// Data.
    pub data: Vec<u64>,
}

impl RpbOp {
    /// Extract.
    pub fn extract(field: FieldId, reg: Reg) -> RpbOp {
        RpbOp { action: AtomicAction::Extract { field, reg }, data: vec![] }
    }

    /// Modify.
    pub fn modify(field: FieldId, reg: Reg) -> RpbOp {
        RpbOp { action: AtomicAction::Modify { field, reg }, data: vec![] }
    }

    /// Hash har.
    pub fn hash_har() -> RpbOp {
        RpbOp { action: AtomicAction::HashHar, data: vec![] }
    }

    /// Hash 5 tuple.
    pub fn hash_5_tuple() -> RpbOp {
        RpbOp { action: AtomicAction::Hash5Tuple, data: vec![] }
    }

    /// Hash har mem.
    pub fn hash_har_mem(mask: u32) -> RpbOp {
        RpbOp { action: AtomicAction::HashHarMem, data: vec![u64::from(mask)] }
    }

    /// Hash 5 tuple mem.
    pub fn hash_5_tuple_mem(mask: u32) -> RpbOp {
        RpbOp { action: AtomicAction::Hash5TupleMem, data: vec![u64::from(mask)] }
    }

    /// Set branch.
    pub fn set_branch(bits: u16) -> RpbOp {
        RpbOp { action: AtomicAction::SetBranch, data: vec![u64::from(bits)] }
    }

    /// Mem offset.
    pub fn mem_offset(offset: u32, salu_flag: bool) -> RpbOp {
        RpbOp { action: AtomicAction::MemOffset, data: vec![u64::from(offset), u64::from(salu_flag)] }
    }

    /// Mem.
    pub fn mem(kind: MemOpKind) -> RpbOp {
        let (pair, _) = kind.pair();
        RpbOp { action: AtomicAction::Mem(pair), data: vec![] }
    }

    /// Loadi.
    pub fn loadi(reg: Reg, imm: u32) -> RpbOp {
        RpbOp { action: AtomicAction::LoadI(reg), data: vec![u64::from(imm)] }
    }

    /// Alu rr.
    pub fn alu_rr(op: AluRROp, a: Reg, b: Reg) -> RpbOp {
        RpbOp { action: AtomicAction::AluRR { op, a, b }, data: vec![] }
    }

    /// Backup.
    pub fn backup(reg: Reg) -> RpbOp {
        RpbOp { action: AtomicAction::Backup(reg), data: vec![] }
    }

    /// Restore.
    pub fn restore(reg: Reg) -> RpbOp {
        RpbOp { action: AtomicAction::Restore(reg), data: vec![] }
    }

    /// Forward.
    pub fn forward(port: u16) -> RpbOp {
        RpbOp { action: AtomicAction::Forward, data: vec![u64::from(port)] }
    }

    /// Multicast.
    pub fn multicast(group: u16) -> RpbOp {
        RpbOp { action: AtomicAction::Multicast, data: vec![u64::from(group)] }
    }

    /// Drop.
    pub fn drop() -> RpbOp {
        RpbOp { action: AtomicAction::Drop, data: vec![] }
    }

    /// Return.
    pub fn return_() -> RpbOp {
        RpbOp { action: AtomicAction::Return, data: vec![] }
    }

    /// Report.
    pub fn report() -> RpbOp {
        RpbOp { action: AtomicAction::Report, data: vec![] }
    }
}

/// The pre-installed action catalogue of one RPB: the ordered action list
/// (indices are the table's action ids) plus the reverse map entries use.
#[derive(Debug, Clone)]
pub struct Catalogue {
    /// Actions.
    pub actions: Vec<ActionDef>,
    index: HashMap<AtomicAction, usize>,
}

impl Catalogue {
    /// Action id.
    pub(crate) fn action_id(&self, a: AtomicAction) -> Option<usize> {
        self.index.get(&a).copied()
    }
}

/// Build the catalogue for an RPB. `ingress` RPBs additionally install the
/// forwarding operations (egress RPBs cannot affect the traffic manager —
/// allocation constraint (4)). `mem_crc` is the stage's hash-unit
/// polynomial for memory addressing: the prototype wires a different CRC16
/// to each stage (crc_16_buypass / mcrf4xx / aug_ccitt / dds_110, §6.4),
/// which is what makes multi-row sketches' rows independent.
pub(crate) fn build_catalogue(ft: &FieldTable, f: &P4rpFields, ingress: bool, mem_crc: CrcSpec) -> Catalogue {
    let intr = ft.intrinsics();
    let mut actions: Vec<ActionDef> = Vec::new();
    let mut index = HashMap::new();
    let mut push = |key: AtomicAction, def: ActionDef, actions: &mut Vec<ActionDef>| {
        index.insert(key, actions.len());
        actions.push(def);
    };

    // Header interaction: every program-visible field × register, both
    // directions (metadata fields are extract-only).
    let mut seen: Vec<FieldId> = Vec::new();
    for (name, field) in &f.named {
        if seen.contains(field) {
            continue;
        }
        seen.push(*field);
        let writable = name.starts_with("hdr.");
        for reg in Reg::ALL {
            push(
                AtomicAction::Extract { field: *field, reg },
                ActionDef {
                    name: format!("extract[{name}->{}]", reg.name()),
                    ops: vec![VliwOp::set(f.reg(reg), Operand::Field(*field))],
                    hash: None,
                    salu: None,
                },
                &mut actions,
            );
            if writable {
                push(
                    AtomicAction::Modify { field: *field, reg },
                    ActionDef {
                        name: format!("modify[{name}<-{}]", reg.name()),
                        ops: vec![VliwOp::set(*field, Operand::Field(f.reg(reg)))],
                        hash: None,
                        salu: None,
                    },
                    &mut actions,
                );
            }
        }
    }

    // Hash operations.
    push(
        AtomicAction::HashHar,
        ActionDef {
            name: "hash[har]".into(),
            ops: vec![],
            hash: Some(HashCall {
                spec: CRC32,
                input: HashInput::Fields(vec![f.har]),
                dst: f.har,
                mask: None,
            }),
            salu: None,
        },
        &mut actions,
    );
    push(
        AtomicAction::Hash5Tuple,
        ActionDef {
            name: "hash[5tuple]".into(),
            ops: vec![],
            hash: Some(HashCall {
                spec: CRC32,
                input: HashInput::Fields(f.five_tuple()),
                dst: f.har,
                mask: None,
            }),
            salu: None,
        },
        &mut actions,
    );
    push(
        AtomicAction::HashHarMem,
        ActionDef {
            name: "hash_mem[har]".into(),
            ops: vec![],
            hash: Some(HashCall {
                spec: mem_crc,
                input: HashInput::Fields(vec![f.har]),
                dst: f.mar,
                mask: Some(Operand::Arg(0)),
            }),
            salu: None,
        },
        &mut actions,
    );
    push(
        AtomicAction::Hash5TupleMem,
        ActionDef {
            name: "hash_mem[5tuple]".into(),
            ops: vec![],
            hash: Some(HashCall {
                spec: mem_crc,
                input: HashInput::Fields(f.five_tuple()),
                dst: f.mar,
                mask: Some(Operand::Arg(0)),
            }),
            salu: None,
        },
        &mut actions,
    );

    // Conditional branch: enter a case by OR-ing its branch bits.
    push(
        AtomicAction::SetBranch,
        ActionDef {
            name: "set_branch".into(),
            ops: vec![VliwOp {
                dst: f.branch_id,
                func: AluFunc::Or,
                a: Operand::Field(f.branch_id),
                b: Operand::Arg(0),
            }],
            hash: None,
            salu: None,
        },
        &mut actions,
    );

    // Address translation offset step + SALU flag (§4.1.2): one action.
    push(
        AtomicAction::MemOffset,
        ActionDef {
            name: "mem_offset".into(),
            ops: vec![
                VliwOp {
                    dst: f.pma,
                    func: AluFunc::Add,
                    a: Operand::Field(f.mar),
                    b: Operand::Arg(0),
                },
                VliwOp::set(f.salu_flag, Operand::Arg(1)),
            ],
            hash: None,
            salu: None,
        },
        &mut actions,
    );

    // Memory pairs.
    for pair in MemPair::ALL {
        let (a, b) = pair.instrs();
        push(
            AtomicAction::Mem(pair),
            ActionDef {
                name: format!("mem[{pair:?}]"),
                ops: vec![],
                hash: None,
                salu: Some(SaluCall {
                    array: 0,
                    addr: Operand::Field(f.pma),
                    operand: Operand::Field(f.sar),
                    instr: a,
                    alt_instr: Some(b),
                    select_flag: Some(f.salu_flag),
                    output: Some(f.sar),
                }),
            },
            &mut actions,
        );
    }

    // Immediates and register-register ALU ops.
    for reg in Reg::ALL {
        push(
            AtomicAction::LoadI(reg),
            ActionDef {
                name: format!("loadi[{}]", reg.name()),
                ops: vec![VliwOp::set(f.reg(reg), Operand::Arg(0))],
                hash: None,
                salu: None,
            },
            &mut actions,
        );
    }
    for op in AluRROp::ALL {
        for a in Reg::ALL {
            for b in Reg::ALL {
                if a == b {
                    continue;
                }
                push(
                    AtomicAction::AluRR { op, a, b },
                    ActionDef {
                        name: format!("alu[{op:?} {} {}]", a.name(), b.name()),
                        ops: vec![VliwOp {
                            dst: f.reg(a),
                            func: op.func(),
                            a: Operand::Field(f.reg(a)),
                            b: Operand::Field(f.reg(b)),
                        }],
                        hash: None,
                        salu: None,
                    },
                    &mut actions,
                );
            }
        }
    }

    // Supportive-register backup/restore (Figure 4(b)).
    for reg in Reg::ALL {
        push(
            AtomicAction::Backup(reg),
            ActionDef {
                name: format!("backup[{}]", reg.name()),
                ops: vec![VliwOp::set(f.scratch, Operand::Field(f.reg(reg)))],
                hash: None,
                salu: None,
            },
            &mut actions,
        );
        push(
            AtomicAction::Restore(reg),
            ActionDef {
                name: format!("restore[{}]", reg.name()),
                ops: vec![VliwOp::set(f.reg(reg), Operand::Field(f.scratch))],
                hash: None,
                salu: None,
            },
            &mut actions,
        );
    }

    // Forwarding (ingress RPBs only).
    if ingress {
        push(
            AtomicAction::Forward,
            ActionDef {
                name: "forward".into(),
                ops: vec![
                    VliwOp::set(intr.egress_spec, Operand::Arg(0)),
                    VliwOp::set(intr.egress_valid, Operand::Const(1)),
                ],
                hash: None,
                salu: None,
            },
            &mut actions,
        );
        push(
            AtomicAction::Multicast,
            ActionDef {
                name: "multicast".into(),
                ops: vec![VliwOp::set(intr.mcast_group, Operand::Arg(0))],
                hash: None,
                salu: None,
            },
            &mut actions,
        );
        push(
            AtomicAction::Drop,
            ActionDef {
                name: "drop".into(),
                ops: vec![VliwOp::set(intr.drop_flag, Operand::Const(1))],
                hash: None,
                salu: None,
            },
            &mut actions,
        );
        push(
            AtomicAction::Return,
            ActionDef {
                name: "return".into(),
                ops: vec![VliwOp::set(intr.return_flag, Operand::Const(1))],
                hash: None,
                salu: None,
            },
            &mut actions,
        );
        push(
            AtomicAction::Report,
            ActionDef {
                name: "report".into(),
                ops: vec![VliwOp::set(intr.report_flag, Operand::Const(1))],
                hash: None,
                salu: None,
            },
            &mut actions,
        );
    }

    push(AtomicAction::Nop, ActionDef::noop("nop"), &mut actions);

    Catalogue { actions, index }
}

/// Build the recirculation-block action list: `[recirculate, nop]`.
pub(crate) fn build_recirc_actions(ft: &FieldTable, f: &P4rpFields) -> (Vec<ActionDef>, usize) {
    let intr = ft.intrinsics();
    let recirc = ActionDef {
        name: "recirculate".into(),
        ops: vec![
            VliwOp::set(intr.recirc_flag, Operand::Const(1)),
            // Rewrite the *header's* recirculation id (deparse override);
            // the working key keeps this pass's value so egress RPBs of
            // this pass still match.
            VliwOp {
                dst: f.recirc_next,
                func: AluFunc::Add,
                a: Operand::Field(f.recirc_id),
                b: Operand::Const(1),
            },
            VliwOp::set(f.rc_valid, Operand::Const(1)),
        ],
        hash: None,
        salu: None,
    };
    (vec![recirc, ActionDef::noop("nop")], 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields;

    fn catalogue(ingress: bool) -> (FieldTable, P4rpFields, Catalogue) {
        let (ft, _, f) = fields::build().unwrap();
        let cat = build_catalogue(&ft, &f, ingress, rmt_sim::hash::CRC16_BUYPASS);
        (ft, f, cat)
    }

    #[test]
    fn every_memop_maps_to_a_pair() {
        for kind in [
            MemOpKind::Add,
            MemOpKind::Sub,
            MemOpKind::And,
            MemOpKind::Or,
            MemOpKind::Read,
            MemOpKind::Write,
            MemOpKind::Max,
        ] {
            let (pair, flag) = kind.pair();
            let (a, b) = pair.instrs();
            let selected = if flag { b } else { a };
            assert_eq!(selected, kind.instr(), "{kind:?}");
        }
    }

    #[test]
    fn ingress_has_forwarding_egress_does_not() {
        let (_, _, ig) = catalogue(true);
        let (_, _, eg) = catalogue(false);
        assert!(ig.action_id(AtomicAction::Forward).is_some());
        assert!(ig.action_id(AtomicAction::Drop).is_some());
        assert!(eg.action_id(AtomicAction::Forward).is_none());
        assert!(eg.action_id(AtomicAction::Drop).is_none());
        assert_eq!(ig.actions.len(), eg.actions.len() + 5, "forward/multicast/drop/return/report");
    }

    #[test]
    fn catalogue_has_all_alu_combinations() {
        let (_, _, cat) = catalogue(true);
        let mut count = 0;
        for op in AluRROp::ALL {
            for a in Reg::ALL {
                for b in Reg::ALL {
                    if a != b {
                        assert!(cat.action_id(AtomicAction::AluRR { op, a, b }).is_some());
                        count += 1;
                    }
                }
            }
        }
        assert_eq!(count, 36, "6 ops × 6 ordered register pairs");
    }

    #[test]
    fn extract_covers_every_field_and_register() {
        let (_, f, cat) = catalogue(true);
        for (name, field) in &f.named {
            for reg in Reg::ALL {
                assert!(
                    cat.action_id(AtomicAction::Extract { field: *field, reg }).is_some(),
                    "missing extract for {name}"
                );
            }
        }
        // Metadata is extract-only.
        let port = f.lookup("meta.ingress_port").unwrap();
        assert!(cat.action_id(AtomicAction::Modify { field: port, reg: Reg::Har }).is_none());
        let dst = f.lookup("hdr.ipv4.dst").unwrap();
        assert!(cat.action_id(AtomicAction::Modify { field: dst, reg: Reg::Sar }).is_some());
    }

    #[test]
    fn vliw_budget_nearly_full() {
        // The paper: "P4runpro uses almost all the VLIW to implement atomic
        // operations". The catalogue must land close to (but within) the
        // per-stage budget.
        let (_, _, cat) = catalogue(true);
        let slots: usize = cat.actions.iter().map(ActionDef::vliw_slots).sum();
        let budget = rmt_sim::pipeline::StageLimits::default().vliw_slots;
        assert!(slots <= budget, "catalogue {slots} exceeds stage budget {budget}");
        assert!(
            slots as f64 >= budget as f64 * 0.85,
            "catalogue {slots} should nearly fill budget {budget}"
        );
    }

    #[test]
    fn actions_unique() {
        let (_, _, cat) = catalogue(true);
        // The reverse index must be 1:1 with the action list.
        assert_eq!(cat.index.len(), cat.actions.len());
    }

    #[test]
    fn rpb_op_constructors_shape_data() {
        assert_eq!(RpbOp::loadi(Reg::Mar, 512).data, vec![512]);
        assert_eq!(RpbOp::hash_5_tuple_mem(0x3ff).data, vec![0x3ff]);
        assert_eq!(RpbOp::mem_offset(4096, true).data, vec![4096, 1]);
        assert_eq!(RpbOp::mem(MemOpKind::Write).action, AtomicAction::Mem(MemPair::ReadWrite));
        assert_eq!(RpbOp::forward(32).data, vec![32]);
    }
}
