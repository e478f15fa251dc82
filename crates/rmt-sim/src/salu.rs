//! Stateful ALUs (SALUs) and their register arrays.
//!
//! Each pipeline stage owns register arrays in its SRAM. An action may call
//! at most one SALU, which performs a single read-modify-write on one array
//! bucket per packet — the fundamental RMT constraint that makes cross-stage
//! memory access impossible and drives the paper's allocation constraint (5)
//! and the "memory primitives aligned to the same depth" compiler pass.
//!
//! The instruction model mirrors Tofino's predicated register actions: a
//! condition comparing the bucket with an operand selects between two update
//! expressions, and one output is returned to the PHV. This is exactly the
//! capability the paper exploits ("we utilize the capability of SALU to
//! execute a conditional comparison before memory access", §4.1.2), and is
//! rich enough to express all eight memory primitives of Table 3 plus the
//! sketch/filter logic of the native baseline programs.

use crate::error::{SimError, SimResult};

/// A stateful register array (one logical `Register<bit<32>>` instance).
#[derive(Debug, Clone)]
pub struct RegArray {
    /// Human-readable name.
    pub name: String,
    data: Vec<u32>,
    /// Write epoch counter — bumped on every mutation, lets tests assert
    /// "no stateful writes happened".
    pub write_epoch: u64,
}

impl RegArray {
    /// Construct with defaults appropriate to the type.
    pub fn new(name: impl Into<String>, size: usize) -> RegArray {
        RegArray { name: name.into(), data: vec![0; size], write_epoch: 0 }
    }

    /// Size.
    pub fn size(&self) -> u32 {
        self.data.len() as u32
    }

    /// Read.
    pub(crate) fn read(&self, addr: u32) -> SimResult<u32> {
        self.data.get(addr as usize).copied().ok_or_else(|| SimError::AddrOutOfRange {
            array: self.name.clone(),
            addr,
            size: self.size(),
        })
    }

    /// Write.
    pub(crate) fn write(&mut self, addr: u32, value: u32) -> SimResult<()> {
        let size = self.size();
        match self.data.get_mut(addr as usize) {
            Some(slot) => {
                *slot = value;
                self.write_epoch += 1;
                Ok(())
            }
            None => Err(SimError::AddrOutOfRange { array: self.name.clone(), addr, size }),
        }
    }

    /// Zero a contiguous range — the control-plane memory reset used during
    /// program termination (Figure 6, step 4).
    pub(crate) fn reset_range(&mut self, start: u32, len: u32) -> SimResult<()> {
        let end = start
            .checked_add(len)
            .filter(|&e| e <= self.size())
            .ok_or_else(|| SimError::AddrOutOfRange { array: self.name.clone(), addr: start.saturating_add(len), size: self.size() })?;
        for slot in &mut self.data[start as usize..end as usize] {
            *slot = 0;
        }
        self.write_epoch += 1;
        Ok(())
    }

    /// Snapshot a range (control-plane monitoring path).
    pub(crate) fn read_range(&self, start: u32, len: u32) -> SimResult<Vec<u32>> {
        let end = start
            .checked_add(len)
            .filter(|&e| e <= self.size())
            .ok_or_else(|| SimError::AddrOutOfRange { array: self.name.clone(), addr: start.saturating_add(len), size: self.size() })?;
        Ok(self.data[start as usize..end as usize].to_vec())
    }
}

/// The SALU predicate, comparing the memory bucket with the operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaluCond {
    /// Always.
    Always,
    /// operand > mem
    OpGtMem,
    /// operand >= mem
    OpGeMem,
    /// operand < mem
    OpLtMem,
    /// operand <= mem
    OpLeMem,
    /// operand == mem
    OpEqMem,
    /// mem == 0
    MemIsZero,
}

impl SaluCond {
    /// Eval.
    pub(crate) fn eval(self, mem: u32, op: u32) -> bool {
        match self {
            SaluCond::Always => true,
            SaluCond::OpGtMem => op > mem,
            SaluCond::OpGeMem => op >= mem,
            SaluCond::OpLtMem => op < mem,
            SaluCond::OpLeMem => op <= mem,
            SaluCond::OpEqMem => op == mem,
            SaluCond::MemIsZero => mem == 0,
        }
    }
}

/// Update expressions available to the SALU data path (wrapping 32-bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaluExpr {
    /// Mem.
    Mem,
    /// Op.
    Op,
    /// Zero.
    Zero,
    /// Const.
    Const(u32),
    /// MemPlusOp.
    MemPlusOp,
    /// MemMinusOp.
    MemMinusOp,
    /// MemAndOp.
    MemAndOp,
    /// MemOrOp.
    MemOrOp,
    /// MemXorOp.
    MemXorOp,
    /// MaxMemOp.
    MaxMemOp,
    /// MinMemOp.
    MinMemOp,
    /// MemPlusConst.
    MemPlusConst(u32),
}

impl SaluExpr {
    /// Eval.
    pub(crate) fn eval(self, mem: u32, op: u32) -> u32 {
        match self {
            SaluExpr::Mem => mem,
            SaluExpr::Op => op,
            SaluExpr::Zero => 0,
            SaluExpr::Const(c) => c,
            SaluExpr::MemPlusOp => mem.wrapping_add(op),
            SaluExpr::MemMinusOp => mem.wrapping_sub(op),
            SaluExpr::MemAndOp => mem & op,
            SaluExpr::MemOrOp => mem | op,
            SaluExpr::MemXorOp => mem ^ op,
            SaluExpr::MaxMemOp => mem.max(op),
            SaluExpr::MinMemOp => mem.min(op),
            SaluExpr::MemPlusConst(c) => mem.wrapping_add(c),
        }
    }
}

/// What the SALU returns to the PHV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaluOutput {
    /// No output (the destination field keeps its value).
    None,
    /// The bucket value before the update.
    OldMem,
    /// The bucket value after the update.
    NewMem,
    /// The operand, passed through.
    Op,
    /// 1 if the condition held, else 0.
    CondResult,
}

/// A complete SALU instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaluInstr {
    /// Cond.
    pub cond: SaluCond,
    /// Applied when the condition holds; `None` leaves memory unchanged.
    pub update_true: Option<SaluExpr>,
    /// Applied when the condition fails.
    pub update_false: Option<SaluExpr>,
    /// Output.
    pub output: SaluOutput,
}

impl SaluInstr {
    /// Unconditional read (MEMREAD).
    pub const READ: SaluInstr = SaluInstr {
        cond: SaluCond::Always,
        update_true: None,
        update_false: None,
        output: SaluOutput::OldMem,
    };

    /// Unconditional write (MEMWRITE).
    pub const WRITE: SaluInstr = SaluInstr {
        cond: SaluCond::Always,
        update_true: Some(SaluExpr::Op),
        update_false: None,
        output: SaluOutput::None,
    };

    /// Execute against a bucket: returns `(new_mem, output)`.
    pub(crate) fn execute(&self, mem: u32, op: u32) -> (u32, Option<u32>) {
        let taken = self.cond.eval(mem, op);
        let update = if taken { self.update_true } else { self.update_false };
        let new_mem = update.map(|e| e.eval(mem, op)).unwrap_or(mem);
        let out = match self.output {
            SaluOutput::None => None,
            SaluOutput::OldMem => Some(mem),
            SaluOutput::NewMem => Some(new_mem),
            SaluOutput::Op => Some(op),
            SaluOutput::CondResult => Some(u32::from(taken)),
        };
        (new_mem, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut a = RegArray::new("r", 16);
        a.write(3, 77).unwrap();
        assert_eq!(a.read(3).unwrap(), 77);
        assert_eq!(a.read(4).unwrap(), 0);
        assert!(a.read(16).is_err());
        assert!(a.write(16, 0).is_err());
    }

    #[test]
    fn reset_range_zeroes_exactly() {
        let mut a = RegArray::new("r", 8);
        for i in 0..8 {
            a.write(i, 100 + i).unwrap();
        }
        a.reset_range(2, 3).unwrap();
        assert_eq!(a.read_range(0, 8).unwrap(), vec![100, 101, 0, 0, 0, 105, 106, 107]);
        assert!(a.reset_range(6, 3).is_err());
        assert!(a.reset_range(u32::MAX, 2).is_err());
    }

    #[test]
    fn write_epoch_tracks_mutations() {
        let mut a = RegArray::new("r", 4);
        let e0 = a.write_epoch;
        a.read(0).unwrap();
        assert_eq!(a.write_epoch, e0);
        a.write(0, 1).unwrap();
        assert_eq!(a.write_epoch, e0 + 1);
    }

    #[test]
    fn memadd_semantics() {
        // MEMADD: mem += op; sar = new mem.
        let instr = SaluInstr {
            cond: SaluCond::Always,
            update_true: Some(SaluExpr::MemPlusOp),
            update_false: None,
            output: SaluOutput::NewMem,
        };
        let (m, out) = instr.execute(10, 5);
        assert_eq!((m, out), (15, Some(15)));
        // Wrapping.
        let (m, _) = instr.execute(u32::MAX, 1);
        assert_eq!(m, 0);
    }

    #[test]
    fn memor_returns_old_value() {
        // MEMOR: sar = old mem; mem |= op — the existence-check idiom in
        // the heavy-hitter Bloom filter (Figure 17).
        let instr = SaluInstr {
            cond: SaluCond::Always,
            update_true: Some(SaluExpr::MemOrOp),
            update_false: None,
            output: SaluOutput::OldMem,
        };
        let (m, out) = instr.execute(0, 1);
        assert_eq!((m, out), (1, Some(0)));
        let (m, out) = instr.execute(1, 1);
        assert_eq!((m, out), (1, Some(1)));
    }

    #[test]
    fn memmax_conditional_write() {
        // MEMMAX: mem = op if op > mem.
        let instr = SaluInstr {
            cond: SaluCond::OpGtMem,
            update_true: Some(SaluExpr::Op),
            update_false: None,
            output: SaluOutput::None,
        };
        assert_eq!(instr.execute(10, 5), (10, None));
        assert_eq!(instr.execute(10, 50), (50, None));
    }

    #[test]
    fn cond_result_output() {
        let instr = SaluInstr {
            cond: SaluCond::MemIsZero,
            update_true: Some(SaluExpr::Const(1)),
            update_false: None,
            output: SaluOutput::CondResult,
        };
        assert_eq!(instr.execute(0, 0), (1, Some(1)));
        assert_eq!(instr.execute(7, 0), (7, Some(0)));
    }

    #[test]
    fn all_conds_cover_boundaries() {
        assert!(SaluCond::OpGeMem.eval(5, 5));
        assert!(!SaluCond::OpGtMem.eval(5, 5));
        assert!(SaluCond::OpLeMem.eval(5, 5));
        assert!(!SaluCond::OpLtMem.eval(5, 5));
        assert!(SaluCond::OpEqMem.eval(5, 5));
    }
}
