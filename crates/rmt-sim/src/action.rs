//! Action definitions: the VLIW micro-programs tables execute on a match.
//!
//! An RMT action is a very long instruction word — a set of per-container
//! ALU operations issued in parallel — optionally accompanied by one hash
//! computation and one stateful-ALU call. The simulator reproduces the
//! parallel-issue semantics: every operand is read from the *pre-action*
//! PHV, all writes land together. The paper's VLIW-capacity constraint
//! (§4.2) is enforced by counting each registered [`ActionDef`]'s
//! instruction slots against the per-stage budget at provisioning time.

use crate::hash::CrcSpec;
use crate::phv::{FieldId, FieldTable, Phv};
use crate::salu::{RegArray, SaluInstr};
use crate::error::{SimError, SimResult};

/// An ALU operand: an immediate, a PHV field, or a slot of the entry's
/// action data (how one pre-installed action serves many entries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// Const.
    Const(u64),
    /// Field.
    Field(FieldId),
    /// Index into the entry's action-data vector.
    Arg(usize),
}

/// Functions of the per-container PHV ALUs. `Set` ignores `b`; the rest
/// compute `a ⊕ b`. `Not` computes `!a` (masked to the destination width).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AluFunc {
    /// Set.
    Set,
    /// Add.
    Add,
    /// Sub.
    Sub,
    /// And.
    And,
    /// Or.
    Or,
    /// Xor.
    Xor,
    /// Min.
    Min,
    /// Max.
    Max,
    /// Not.
    Not,
}

/// One VLIW slot: `dst = func(a, b)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VliwOp {
    /// Dst.
    pub dst: FieldId,
    /// Func.
    pub func: AluFunc,
    /// A.
    pub a: Operand,
    /// B.
    pub b: Operand,
}

impl VliwOp {
    /// Set.
    pub fn set(dst: FieldId, src: Operand) -> VliwOp {
        VliwOp { dst, func: AluFunc::Set, a: src, b: Operand::Const(0) }
    }
}

/// What a hash call feeds into the CRC engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HashInput {
    /// Concatenate the listed fields' values, each serialized big-endian to
    /// its byte-rounded width. The five-tuple hash is this with the five
    /// canonical fields in order (13 bytes total).
    Fields(Vec<FieldId>),
}

/// One hash-engine invocation within an action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashCall {
    /// Spec.
    pub spec: CrcSpec,
    /// Input.
    pub input: HashInput,
    /// Dst.
    pub dst: FieldId,
    /// Mask applied to the output *inside the same action* — the paper's
    /// address-translation mask step, fused with the hash so an overflowed
    /// output is never visible to later primitives (§4.1.2).
    pub mask: Option<Operand>,
}

/// One SALU invocation within an action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaluCall {
    /// Index of the register array within the executing stage.
    pub array: usize,
    /// Bucket address source (the translated physical address field).
    pub addr: Operand,
    /// The value operand fed to the SALU (usually the `sar` field).
    pub operand: Operand,
    /// Primary instruction.
    pub instr: SaluInstr,
    /// Alternate instruction, selected when `select_flag` reads non-zero —
    /// the paper's "SALU flag" mechanism for doubling the memory-operation
    /// repertoire (§4.1.2).
    pub alt_instr: Option<SaluInstr>,
    /// Select flag.
    pub select_flag: Option<FieldId>,
    /// Where the SALU output lands (usually `sar`).
    pub output: Option<FieldId>,
}

/// Observable side effects of one action execution, reported so the
/// telemetry layer can count SALU activity without the SALU knowing about
/// recorders.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ActionEffects {
    /// A SALU read-modify-write cycle ran (memory was read).
    pub salu_read: bool,
    /// The SALU cycle committed a memory write.
    pub salu_wrote: bool,
}

/// Reusable buffers for [`ActionDef::execute_scratch`]: the deferred
/// parallel-issue write set and the hash input bytes. Owning one per stage
/// keeps the match-action loop free of per-execution heap allocation.
#[derive(Debug, Clone, Default)]
pub(crate) struct ActionScratch {
    writes: Vec<(FieldId, u64)>,
    hash_bytes: Vec<u8>,
}

/// A complete action definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActionDef {
    /// Human-readable name.
    pub name: String,
    /// Ops.
    pub ops: Vec<VliwOp>,
    /// Hash.
    pub hash: Option<HashCall>,
    /// Salu.
    pub salu: Option<SaluCall>,
}

impl ActionDef {
    /// Noop.
    pub fn noop(name: impl Into<String>) -> ActionDef {
        ActionDef { name: name.into(), ops: vec![], hash: None, salu: None }
    }

    /// VLIW instruction slots this action consumes (the Figure 10 "VLIW"
    /// resource): one per ALU op, one for a hash mask, one for SALU issue.
    pub fn vliw_slots(&self) -> usize {
        self.ops.len()
            + self.hash.as_ref().map_or(0, |h| 1 + usize::from(h.mask.is_some()))
            + usize::from(self.salu.is_some())
    }

    /// [`ActionDef::execute`] with caller-owned scratch buffers, so repeated
    /// executions (every table of every stage, every pass) allocate nothing.
    pub(crate) fn execute_scratch(
        &self,
        table: &FieldTable,
        phv: &mut Phv,
        data: &[u64],
        arrays: &mut [RegArray],
        scratch: &mut ActionScratch,
    ) -> SimResult<ActionEffects> {
        let mut effects = ActionEffects::default();
        let read = |phv: &Phv, op: Operand| -> u64 {
            match op {
                Operand::Const(c) => c,
                Operand::Field(f) => phv.get(f),
                Operand::Arg(i) => data.get(i).copied().unwrap_or(0),
            }
        };

        let writes = &mut scratch.writes;
        writes.clear();

        if let Some(hash) = &self.hash {
            let HashInput::Fields(fields) = &hash.input;
            let bytes = &mut scratch.hash_bytes;
            bytes.clear();
            for f in fields {
                let spec = table.spec(*f);
                let nbytes = usize::from(spec.bits.div_ceil(8));
                let v = phv.get(*f);
                bytes.extend_from_slice(&v.to_be_bytes()[8 - nbytes..]);
            }
            let mut h = u64::from(hash.spec.compute(bytes));
            if let Some(m) = hash.mask {
                h &= read(phv, m);
            }
            writes.push((hash.dst, h));
        }

        for op in &self.ops {
            let a = read(phv, op.a);
            let b = read(phv, op.b);
            // Unmasked: `Phv::set` truncates to the destination width below.
            let v = match op.func {
                AluFunc::Set => a,
                AluFunc::Add => a.wrapping_add(b),
                AluFunc::Sub => a.wrapping_sub(b),
                AluFunc::And => a & b,
                AluFunc::Or => a | b,
                AluFunc::Xor => a ^ b,
                AluFunc::Min => a.min(b),
                AluFunc::Max => a.max(b),
                AluFunc::Not => !a,
            };
            writes.push((op.dst, v));
        }

        if let Some(salu) = &self.salu {
            let addr = read(phv, salu.addr) as u32;
            let operand = read(phv, salu.operand) as u32;
            let instr = match (salu.alt_instr, salu.select_flag) {
                (Some(alt), Some(flag)) if phv.get(flag) != 0 => alt,
                _ => salu.instr,
            };
            let array = arrays
                .get_mut(salu.array)
                .ok_or_else(|| SimError::NoSuchRegArray(format!("array index {}", salu.array)))?;
            let mem = array.read(addr)?;
            effects.salu_read = true;
            let (new_mem, out) = instr.execute(mem, operand);
            if new_mem != mem {
                array.write(addr, new_mem)?;
                effects.salu_wrote = true;
            }
            if let (Some(dst), Some(v)) = (salu.output, out) {
                writes.push((dst, u64::from(v)));
            }
        }

        for &(dst, v) in writes.iter() {
            phv.set(table, dst, v);
        }
        Ok(effects)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::salu::{SaluCond, SaluExpr, SaluOutput};

    impl ActionDef {
        /// One run with a scratch of its own.
        fn execute(
            &self,
            table: &FieldTable,
            phv: &mut Phv,
            data: &[u64],
            arrays: &mut [RegArray],
        ) -> SimResult<ActionEffects> {
            self.execute_scratch(table, phv, data, arrays, &mut ActionScratch::default())
        }
    }

    fn setup() -> (FieldTable, FieldId, FieldId, FieldId) {
        let mut t = FieldTable::new();
        let x = t.register("meta.x", 32).unwrap();
        let y = t.register("meta.y", 32).unwrap();
        let z = t.register("meta.z", 32).unwrap();
        (t, x, y, z)
    }

    #[test]
    fn parallel_issue_reads_pre_action_state() {
        // A classic swap: x=y and y=x in one VLIW must exchange values.
        let (t, x, y, _) = setup();
        let mut phv = Phv::new(&t);
        phv.set(&t, x, 1);
        phv.set(&t, y, 2);
        let act = ActionDef {
            name: "swap".into(),
            ops: vec![
                VliwOp::set(x, Operand::Field(y)),
                VliwOp::set(y, Operand::Field(x)),
            ],
            hash: None,
            salu: None,
        };
        act.execute(&t, &mut phv, &[], &mut []).unwrap();
        assert_eq!((phv.get(x), phv.get(y)), (2, 1));
    }

    #[test]
    fn action_data_operands() {
        let (t, x, _, _) = setup();
        let mut phv = Phv::new(&t);
        phv.set(&t, x, 10);
        let act = ActionDef {
            name: "addi".into(),
            ops: vec![VliwOp { dst: x, func: AluFunc::Add, a: Operand::Field(x), b: Operand::Arg(0) }],
            hash: None,
            salu: None,
        };
        act.execute(&t, &mut phv, &[32], &mut []).unwrap();
        assert_eq!(phv.get(x), 42);
    }

    #[test]
    fn alu_functions() {
        let (t, x, y, z) = setup();
        let mut phv = Phv::new(&t);
        phv.set(&t, x, 0b1100);
        phv.set(&t, y, 0b1010);
        for (func, expect) in [
            (AluFunc::And, 0b1000u64),
            (AluFunc::Or, 0b1110),
            (AluFunc::Xor, 0b0110),
            (AluFunc::Min, 0b1010),
            (AluFunc::Max, 0b1100),
            (AluFunc::Add, 0b10110),
        ] {
            let act = ActionDef {
                name: "f".into(),
                ops: vec![VliwOp { dst: z, func, a: Operand::Field(x), b: Operand::Field(y) }],
                hash: None,
                salu: None,
            };
            act.execute(&t, &mut phv, &[], &mut []).unwrap();
            assert_eq!(phv.get(z), expect, "{func:?}");
        }
    }

    #[test]
    fn not_masks_to_width() {
        let (t, x, _, _) = setup();
        let mut phv = Phv::new(&t);
        phv.set(&t, x, 0);
        let act = ActionDef {
            name: "not".into(),
            ops: vec![VliwOp { dst: x, func: AluFunc::Not, a: Operand::Field(x), b: Operand::Const(0) }],
            hash: None,
            salu: None,
        };
        act.execute(&t, &mut phv, &[], &mut []).unwrap();
        assert_eq!(phv.get(x), 0xffff_ffff, "NOT of 32-bit field stays 32-bit");
    }

    #[test]
    fn hash_call_with_fused_mask() {
        let (t, x, y, _) = setup();
        let mut phv = Phv::new(&t);
        phv.set(&t, x, 0xDEADBEEF);
        let act = ActionDef {
            name: "hash".into(),
            ops: vec![],
            hash: Some(HashCall {
                spec: crate::hash::CRC16_BUYPASS,
                input: HashInput::Fields(vec![x]),
                dst: y,
                mask: Some(Operand::Const(0x3ff)),
            }),
            salu: None,
        };
        act.execute(&t, &mut phv, &[], &mut []).unwrap();
        let expect =
            u64::from(crate::hash::CRC16_BUYPASS.compute(&0xDEADBEEFu32.to_be_bytes())) & 0x3ff;
        assert_eq!(phv.get(y), expect);
    }

    #[test]
    fn salu_call_updates_memory_and_phv() {
        let (t, x, y, _) = setup();
        let mut phv = Phv::new(&t);
        phv.set(&t, x, 3); // address
        phv.set(&t, y, 40); // operand
        let mut arrays = vec![RegArray::new("m", 8)];
        arrays[0].write(3, 2).unwrap();
        let act = ActionDef {
            name: "memadd".into(),
            ops: vec![],
            hash: None,
            salu: Some(SaluCall {
                array: 0,
                addr: Operand::Field(x),
                operand: Operand::Field(y),
                instr: SaluInstr {
                    cond: SaluCond::Always,
                    update_true: Some(SaluExpr::MemPlusOp),
                    update_false: None,
                    output: SaluOutput::NewMem,
                },
                alt_instr: None,
                select_flag: None,
                output: Some(y),
            }),
        };
        act.execute(&t, &mut phv, &[], &mut arrays).unwrap();
        assert_eq!(arrays[0].read(3).unwrap(), 42);
        assert_eq!(phv.get(y), 42);
    }

    #[test]
    fn salu_flag_selects_alternate_instr() {
        let (t, x, y, z) = setup();
        let mut phv = Phv::new(&t);
        phv.set(&t, x, 0); // address
        phv.set(&t, y, 7); // operand
        let mut arrays = vec![RegArray::new("m", 4)];
        let mk = |flag_val: u64| {
            let mut p = phv.clone();
            p.set(&t, z, flag_val);
            p
        };
        let act = ActionDef {
            name: "rw".into(),
            ops: vec![],
            hash: None,
            salu: Some(SaluCall {
                array: 0,
                addr: Operand::Field(x),
                operand: Operand::Field(y),
                instr: SaluInstr::READ,
                alt_instr: Some(SaluInstr::WRITE),
                select_flag: Some(z),
                output: Some(y),
            }),
        };
        // flag = 1 → WRITE path.
        let mut p = mk(1);
        act.execute(&t, &mut p, &[], &mut arrays).unwrap();
        assert_eq!(arrays[0].read(0).unwrap(), 7);
        // flag = 0 → READ path (no mutation).
        let epoch = arrays[0].write_epoch;
        let mut p = mk(0);
        p.set(&t, y, 99);
        act.execute(&t, &mut p, &[], &mut arrays).unwrap();
        assert_eq!(arrays[0].write_epoch, epoch);
        assert_eq!(p.get(y), 7, "READ output lands in operand field");
    }

    #[test]
    fn salu_out_of_range_is_error() {
        let (t, x, y, _) = setup();
        let mut phv = Phv::new(&t);
        phv.set(&t, x, 100);
        let mut arrays = vec![RegArray::new("m", 4)];
        let act = ActionDef {
            name: "r".into(),
            ops: vec![],
            hash: None,
            salu: Some(SaluCall {
                array: 0,
                addr: Operand::Field(x),
                operand: Operand::Field(y),
                instr: SaluInstr::READ,
                alt_instr: None,
                select_flag: None,
                output: Some(y),
            }),
        };
        assert!(act.execute(&t, &mut phv, &[], &mut arrays).is_err());
    }

    #[test]
    fn vliw_slot_accounting() {
        let (t, x, y, _) = setup();
        let _ = t;
        let act = ActionDef {
            name: "a".into(),
            ops: vec![VliwOp::set(x, Operand::Const(1)), VliwOp::set(y, Operand::Const(2))],
            hash: Some(HashCall {
                spec: crate::hash::CRC16_BUYPASS,
                input: HashInput::Fields(vec![x]),
                dst: y,
                mask: Some(Operand::Const(3)),
            }),
            salu: None,
        };
        // 2 ALU ops + hash (1) + fused mask (1).
        assert_eq!(act.vliw_slots(), 4);
        assert_eq!(ActionDef::noop("n").vliw_slots(), 0);
    }
}
