//! Lowering: from the parsed AST to the depth-levelled intermediate form
//! the allocator consumes.
//!
//! Four passes, mirroring §4.3 "Primitive Translation":
//!
//! 1. **Pseudo-primitive expansion** (Figure 14) — every pseudo primitive
//!    becomes a sequence of hardware primitives; when a translation needs a
//!    *supportive register* the expander picks a register not used by the
//!    arguments, preferring a dead one (register-lifetime analysis); a live
//!    supportive register is saved to the scratch container before and
//!    restored after (Figure 4(b)).
//! 2. **Address translation insertion** — each memory-access primitive is
//!    prefixed with its offset step (which also sets the SALU flag); the
//!    mask step is fused into the hash-for-memory operations.
//! 3. **Branch-bit allocation** — each `BRANCH` gets a bit range of the
//!    16-bit branch id; a case's condition is a ternary `(value, mask)`
//!    prefix, so primitives after the branch (outer continuation) run for
//!    every outcome while case bodies run only under their label.
//! 4. **Flattening with memory alignment** — primitives become depth
//!    levels; memory accesses to the same virtual memory in sibling cases
//!    are aligned to the same depth by `NOP` padding (Figure 5(b)), because
//!    the hardware cannot access one stage's memory from another.
//!
//! ## Deviation from the paper
//!
//! Figure 14's printed `SUB` translation (`LOADI(C,m); XOR(B,C); ADD(A,B);
//! XOR(B,C); ADD(A,C)`) computes `A + ~B + m ≡ A − B − 2 (mod 2³²)` — off
//! by two. We implement the corrected 6-primitive sequence that reloads
//! `C = 1` before the final add, which computes `A + ~B + 1 = A − B`
//! exactly.

use crate::errors::{CompileError, CompileResult};
use p4rp_dataplane::{AluRROp, MemOpKind};
use p4rp_lang::{Primitive, PrimitiveKind, ProgramDecl, Reg, RegConds};

/// A referenced virtual memory block.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MemDecl {
    /// Human-readable name.
    pub name: String,
    /// Buckets (32-bit words); power of two.
    pub size: u32,
}

/// Lowered hardware operations (a subset of the atomic actions, still with
/// symbolic field / memory names — resolution happens at entry generation).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum IrOp {
    /// Extract.
    Extract { field: String, reg: Reg },
    /// Modify.
    Modify { field: String, reg: Reg },
    /// HashHar.
    HashHar,
    /// Hash5Tuple.
    Hash5Tuple,
    /// HashHarMem.
    HashHarMem { mem: String },
    /// Hash5TupleMem.
    Hash5TupleMem { mem: String },
    /// OR `bits` into the branch id (one per case of a BRANCH).
    /// SetBranch.
    SetBranch { bits: u16 },
    /// Offset step: pma = mar + offset(mem); salu_flag per `kind`.
    /// MemOffset.
    MemOffset { mem: String, kind: MemOpKind },
    /// MemAccess.
    MemAccess { mem: String, kind: MemOpKind },
    /// LoadI.
    LoadI { reg: Reg, imm: u32 },
    /// AluRR.
    AluRR { op: AluRROp, a: Reg, b: Reg },
    /// Save the supportive register to scratch; `pair` links to the restore.
    /// Backup.
    Backup { reg: Reg, pair: u32 },
    /// Restore.
    Restore { reg: Reg, pair: u32 },
    /// Forward.
    Forward { port: u16 },
    /// Multicast.
    Multicast { group: u16 },
    /// Drop.
    Drop,
    /// Return.
    Return,
    /// Report.
    Report,
    /// Nop.
    Nop,
}

impl IrOp {
    /// Is forwarding.
    pub(crate) fn is_forwarding(&self) -> bool {
        matches!(
            self,
            IrOp::Forward { .. } | IrOp::Multicast { .. } | IrOp::Drop | IrOp::Return | IrOp::Report
        )
    }

    /// Mem access.
    pub(crate) fn mem_access(&self) -> Option<&str> {
        match self {
            IrOp::MemAccess { mem, .. } => Some(mem),
            _ => None,
        }
    }
}

/// One operation placed at a depth level, with its execution condition.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlacedOp {
    /// Branch condition `(value, mask)` under which this op executes.
    pub branch: (u16, u16),
    /// Register conditions (SetBranch entries only).
    pub regs: RegConds,
    /// Entry priority (case order within a BRANCH).
    pub priority: i32,
    /// Op.
    pub op: IrOp,
}

impl PlacedOp {
    fn plain(branch: (u16, u16), op: IrOp) -> PlacedOp {
        PlacedOp { branch, regs: RegConds::default(), priority: 0, op }
    }
}

/// The lowered program: depth levels of placed operations.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramIr {
    /// Human-readable name.
    pub name: String,
    /// `(field name, value, mask)` filters.
    pub filters: Vec<(String, u64, u64)>,
    /// Referenced memories with sizes.
    pub memories: Vec<MemDecl>,
    /// Depth levels (index 0 = depth 1 in the paper's notation).
    pub levels: Vec<Vec<PlacedOp>>,
}

impl ProgramIr {
    /// Program depth `L`.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Memory size.
    pub fn memory_size(&self, name: &str) -> Option<u32> {
        self.memories.iter().find(|m| m.name == name).map(|m| m.size)
    }
}

/// Lower one program declaration. `memories` is the annotation list of the
/// enclosing source unit.
pub fn lower(prog: &ProgramDecl, memories: &[MemDecl]) -> CompileResult<ProgramIr> {
    let referenced = prog.referenced_memories();
    let mut mems = Vec::new();
    for name in &referenced {
        match memories.iter().find(|m| &m.name == name) {
            Some(m) => mems.push(m.clone()),
            None => return Err(CompileError::UnknownMemory(name.clone())),
        }
    }

    let mut ctx = Lowering { bit_cursor: 0, pair_cursor: 0 };
    let low = ctx.expand_body(&prog.body, &[])?;
    let levels = ctx.flatten(&low, (0, 0))?;

    Ok(ProgramIr {
        name: prog.name.clone(),
        filters: prog.filters.iter().map(|f| (f.field.clone(), f.value, f.mask)).collect(),
        memories: mems,
        levels,
    })
}

/// Expanded (pseudo-free) program tree.
#[derive(Debug, Clone)]
enum LowPrim {
    Op(IrOp),
    Branch { cases: Vec<LowCase> },
}

#[derive(Debug, Clone)]
struct LowCase {
    conds: RegConds,
    body: Vec<LowPrim>,
}

struct Lowering {
    bit_cursor: u32,
    pair_cursor: u32,
}

const REG_MAX: u32 = u32::MAX;

impl Lowering {
    /// Pass 1+2: expand pseudo primitives and insert offset steps.
    /// `outer_cont` is the continuation after the current body (for
    /// register-lifetime analysis across case boundaries).
    fn expand_body(
        &mut self,
        body: &[Primitive],
        outer_cont: &[&Primitive],
    ) -> CompileResult<Vec<LowPrim>> {
        let mut out = Vec::new();
        for (i, prim) in body.iter().enumerate() {
            // Continuation seen from just after this primitive.
            let cont: Vec<&Primitive> =
                body[i + 1..].iter().chain(outer_cont.iter().copied()).collect();
            match &prim.kind {
                PrimitiveKind::Branch { cases } => {
                    let mut low_cases = Vec::new();
                    for case in cases {
                        low_cases.push(LowCase {
                            conds: case.conds,
                            body: self.expand_body(&case.body, &cont)?,
                        });
                    }
                    out.push(LowPrim::Branch { cases: low_cases });
                }
                other => {
                    for op in self.expand_prim(other, &cont) {
                        out.push(LowPrim::Op(op));
                    }
                }
            }
        }
        Ok(out)
    }

    /// Expand one non-branch primitive into hardware operations.
    fn expand_prim(&mut self, kind: &PrimitiveKind, cont: &[&Primitive]) -> Vec<IrOp> {
        use IrOp as O;
        match kind {
            PrimitiveKind::Extract { field, reg } => {
                vec![O::Extract { field: field.clone(), reg: *reg }]
            }
            PrimitiveKind::Modify { field, reg } => {
                vec![O::Modify { field: field.clone(), reg: *reg }]
            }
            PrimitiveKind::Hash5Tuple => vec![O::Hash5Tuple],
            PrimitiveKind::Hash => vec![O::HashHar],
            PrimitiveKind::Hash5TupleMem { mem } => vec![O::Hash5TupleMem { mem: mem.clone() }],
            PrimitiveKind::HashMem { mem } => vec![O::HashHarMem { mem: mem.clone() }],
            PrimitiveKind::MemAdd { mem } => self.mem_pair(mem, MemOpKind::Add),
            PrimitiveKind::MemSub { mem } => self.mem_pair(mem, MemOpKind::Sub),
            PrimitiveKind::MemAnd { mem } => self.mem_pair(mem, MemOpKind::And),
            PrimitiveKind::MemOr { mem } => self.mem_pair(mem, MemOpKind::Or),
            PrimitiveKind::MemRead { mem } => self.mem_pair(mem, MemOpKind::Read),
            PrimitiveKind::MemWrite { mem } => self.mem_pair(mem, MemOpKind::Write),
            PrimitiveKind::MemMax { mem } => self.mem_pair(mem, MemOpKind::Max),
            PrimitiveKind::LoadI { reg, imm } => vec![O::LoadI { reg: *reg, imm: *imm }],
            PrimitiveKind::Add { a, b } => vec![alu(AluRROp::Add, *a, *b)],
            PrimitiveKind::And { a, b } => vec![alu(AluRROp::And, *a, *b)],
            PrimitiveKind::Or { a, b } => vec![alu(AluRROp::Or, *a, *b)],
            PrimitiveKind::Max { a, b } => vec![alu(AluRROp::Max, *a, *b)],
            PrimitiveKind::Min { a, b } => vec![alu(AluRROp::Min, *a, *b)],
            PrimitiveKind::Xor { a, b } => vec![alu(AluRROp::Xor, *a, *b)],
            // Pseudo primitives (Figure 14).
            PrimitiveKind::Move { a, b } => {
                vec![O::LoadI { reg: *a, imm: 0 }, alu(AluRROp::Add, *a, *b)]
            }
            PrimitiveKind::Equal { a, b } => vec![alu(AluRROp::Xor, *a, *b)],
            PrimitiveKind::Sgt { a, b } => {
                vec![alu(AluRROp::Min, *a, *b), alu(AluRROp::Xor, *a, *b)]
            }
            PrimitiveKind::Slt { a, b } => {
                vec![alu(AluRROp::Max, *a, *b), alu(AluRROp::Xor, *a, *b)]
            }
            PrimitiveKind::AddI { reg, imm } => self.imm_expand(AluRROp::Add, *reg, *imm, cont),
            PrimitiveKind::AndI { reg, imm } => self.imm_expand(AluRROp::And, *reg, *imm, cont),
            PrimitiveKind::XorI { reg, imm } => self.imm_expand(AluRROp::Xor, *reg, *imm, cont),
            PrimitiveKind::SubI { reg, imm } => {
                // SUBI(A, i) = LOADI(C, m−i+1); ADD(A, C) — the two's
                // complement of i, computable by the control plane.
                self.imm_expand(AluRROp::Add, *reg, (*imm).wrapping_neg(), cont)
            }
            PrimitiveKind::Not { reg } => {
                self.imm_expand(AluRROp::Xor, *reg, REG_MAX, cont)
            }
            PrimitiveKind::Sub { a, b } => {
                // Corrected Figure 14 translation (see module docs):
                // C = m; B ^= C (→ ~B); A += B; B ^= C (restore);
                // C = 1; A += C.
                let c = supportive(&[*a, *b]);
                let seq = vec![
                    O::LoadI { reg: c, imm: REG_MAX },
                    alu(AluRROp::Xor, *b, c),
                    alu(AluRROp::Add, *a, *b),
                    alu(AluRROp::Xor, *b, c),
                    O::LoadI { reg: c, imm: 1 },
                    alu(AluRROp::Add, *a, c),
                ];
                self.wrap_backup(c, seq, cont)
            }
            PrimitiveKind::Forward { port } => vec![O::Forward { port: *port }],
            PrimitiveKind::Multicast { group } => vec![O::Multicast { group: *group }],
            PrimitiveKind::Drop => vec![O::Drop],
            PrimitiveKind::Return => vec![O::Return],
            PrimitiveKind::Report => vec![O::Report],
            PrimitiveKind::Nop => vec![O::Nop],
            PrimitiveKind::Branch { .. } => unreachable!("handled by expand_body"),
        }
    }

    fn mem_pair(&mut self, mem: &str, kind: MemOpKind) -> Vec<IrOp> {
        vec![
            IrOp::MemOffset { mem: mem.to_string(), kind },
            IrOp::MemAccess { mem: mem.to_string(), kind },
        ]
    }

    /// `A = op(A, immediate)` via a supportive register.
    fn imm_expand(&mut self, op: AluRROp, a: Reg, imm: u32, cont: &[&Primitive]) -> Vec<IrOp> {
        let c = pick_supportive(&[a], cont);
        let seq = vec![IrOp::LoadI { reg: c, imm }, alu(op, a, c)];
        self.wrap_backup(c, seq, cont)
    }

    /// Backup/restore the supportive register around `seq` unless the
    /// register-lifetime analysis proves it dead (§4.2).
    fn wrap_backup(&mut self, c: Reg, seq: Vec<IrOp>, cont: &[&Primitive]) -> Vec<IrOp> {
        if !is_live(c, cont) {
            return seq;
        }
        let pair = self.pair_cursor;
        self.pair_cursor += 1;
        let mut out = Vec::with_capacity(seq.len() + 2);
        out.push(IrOp::Backup { reg: c, pair });
        out.extend(seq);
        out.push(IrOp::Restore { reg: c, pair });
        out
    }

    /// Passes 3+4: branch bits, depth levels, memory alignment.
    fn flatten(&mut self, body: &[LowPrim], cond: (u16, u16)) -> CompileResult<Vec<Vec<PlacedOp>>> {
        let mut levels: Vec<Vec<PlacedOp>> = Vec::new();
        let mut idx = 0usize;
        while idx < body.len() {
            let prim = &body[idx];
            idx += 1;
            match prim {
                LowPrim::Op(op) => {
                    levels.push(vec![PlacedOp::plain(cond, op.clone())]);
                }
                LowPrim::Branch { cases } => {
                    let n = cases.len() as u32;
                    let width = 32 - n.leading_zeros(); // bits for labels 1..=n
                    let offset = self.bit_cursor;
                    self.bit_cursor += width;
                    if self.bit_cursor > 16 {
                        return Err(CompileError::BranchBitsExhausted { needed: self.bit_cursor });
                    }
                    let lvl_mask = ((1u32 << width) - 1) as u16;

                    // The branch level: one SetBranch entry per case.
                    let mut branch_level = Vec::new();
                    let mut case_levels: Vec<Vec<Vec<PlacedOp>>> = Vec::new();
                    for (i, case) in cases.iter().enumerate() {
                        let label = (i + 1) as u16;
                        branch_level.push(PlacedOp {
                            branch: cond,
                            regs: case.conds,
                            priority: (cases.len() - i) as i32,
                            op: IrOp::SetBranch { bits: label << offset },
                        });
                        let case_cond = (
                            cond.0 | (label << offset),
                            cond.1 | (lvl_mask << offset),
                        );
                        case_levels.push(self.flatten(&case.body, case_cond)?);
                    }

                    // Figure 5's depth accounting: when everything after
                    // the BRANCH is a pure forwarding tail (the cache-miss
                    // `FORWARD`) *and every case takes its own forwarding
                    // verdict*, the tail becomes a *default branch* running
                    // in parallel with the cases at lower entry priority —
                    // case packets match their case entry instead, and the
                    // verdict they set (RETURN/DROP/FORWARD) governs at the
                    // traffic manager. If some case sets no verdict, the
                    // tail must run sequentially after the cases so those
                    // packets are still forwarded.
                    // A *verdict* decides the packet's fate at the traffic
                    // manager; REPORT is a copy-to-CPU side effect, not a
                    // verdict — a case ending in bare REPORT still needs
                    // the tail's forwarding.
                    fn body_forwards(body: &[LowPrim]) -> bool {
                        body.iter().any(|p| match p {
                            LowPrim::Op(op) => matches!(
                                op,
                                IrOp::Forward { .. }
                                    | IrOp::Multicast { .. }
                                    | IrOp::Drop
                                    | IrOp::Return
                            ),
                            LowPrim::Branch { cases } => {
                                cases.iter().all(|c| body_forwards(&c.body))
                            }
                        })
                    }
                    let tail = &body[idx..];
                    let tail_is_fwd_only = !tail.is_empty()
                        && tail.iter().all(|p| matches!(p, LowPrim::Op(op) if op.is_forwarding()))
                        && cases.iter().all(|c| body_forwards(&c.body));
                    if tail_is_fwd_only {
                        let default_levels: Vec<Vec<PlacedOp>> = tail
                            .iter()
                            .map(|p| {
                                let LowPrim::Op(op) = p else { unreachable!() };
                                vec![PlacedOp {
                                    branch: cond,
                                    regs: RegConds::default(),
                                    priority: -1,
                                    op: op.clone(),
                                }]
                            })
                            .collect();
                        case_levels.push(default_levels);
                        idx = body.len();
                    }

                    align_memory(&mut case_levels);
                    levels.push(branch_level);
                    let max_len = case_levels.iter().map(|c| c.len()).max().unwrap_or(0);
                    for j in 0..max_len {
                        let mut merged = Vec::new();
                        for c in &mut case_levels {
                            if j < c.len() {
                                merged.append(&mut c[j]);
                            }
                        }
                        levels.push(merged);
                    }
                }
            }
        }
        Ok(levels)
    }
}

fn alu(op: AluRROp, a: Reg, b: Reg) -> IrOp {
    IrOp::AluRR { op, a, b }
}

/// The register not used by the arguments (two-argument pseudo case).
fn supportive(used: &[Reg]) -> Reg {
    Reg::ALL.into_iter().find(|r| !used.contains(r)).expect("at most two registers used")
}

/// For single-argument pseudos there are two candidates: prefer a dead one
/// so no backup is needed.
fn pick_supportive(used: &[Reg], cont: &[&Primitive]) -> Reg {
    let candidates: Vec<Reg> = Reg::ALL.into_iter().filter(|r| !used.contains(r)).collect();
    candidates
        .iter()
        .copied()
        .find(|r| !is_live(*r, cont))
        .unwrap_or(candidates[0])
}

/// Register-lifetime analysis: is `r`'s current value read before being
/// overwritten in the continuation?
fn is_live(r: Reg, cont: &[&Primitive]) -> bool {
    for prim in cont {
        match access(&prim.kind, r) {
            Access::Read => return true,
            Access::Write => return false,
            Access::None => continue,
        }
    }
    false
}

enum Access {
    /// The primitive reads `r` (possibly also writing it afterwards).
    Read,
    /// The primitive overwrites `r` without reading it.
    Write,
    None,
}

/// First-access classification of a primitive with respect to register `r`.
fn access(kind: &PrimitiveKind, r: Reg) -> Access {
    use PrimitiveKind as P;
    use Reg::*;
    let read = Access::Read;
    let write = Access::Write;
    let none = Access::None;
    match kind {
        P::Extract { reg, .. } => {
            if *reg == r {
                write
            } else {
                none
            }
        }
        P::Modify { reg, .. } => {
            if *reg == r {
                read
            } else {
                none
            }
        }
        P::Hash => {
            if r == Har {
                read
            } else {
                none
            }
        }
        P::Hash5Tuple => {
            if r == Har {
                write
            } else {
                none
            }
        }
        P::Hash5TupleMem { .. } => {
            if r == Mar {
                write
            } else {
                none
            }
        }
        P::HashMem { .. } => match r {
            Har => read,
            Mar => write,
            Sar => none,
        },
        // BRANCH compares all three registers.
        P::Branch { .. } => read,
        // Memory ops address through mar; the value operand is sar.
        P::MemAdd { .. } | P::MemSub { .. } | P::MemAnd { .. } | P::MemWrite { .. }
        | P::MemMax { .. } => match r {
            Mar | Sar => read,
            Har => none,
        },
        P::MemOr { .. } => match r {
            // MEMOR reads mar and sar (the OR operand) before overwriting
            // sar with the old bucket value.
            Mar | Sar => read,
            Har => none,
        },
        P::MemRead { .. } => match r {
            Mar => read,
            Sar => write,
            Har => none,
        },
        P::LoadI { reg, .. } => {
            if *reg == r {
                write
            } else {
                none
            }
        }
        P::Add { a, b }
        | P::And { a, b }
        | P::Or { a, b }
        | P::Max { a, b }
        | P::Min { a, b }
        | P::Xor { a, b }
        | P::Sub { a, b }
        | P::Equal { a, b }
        | P::Sgt { a, b }
        | P::Slt { a, b } => {
            if *a == r || *b == r {
                read
            } else {
                none
            }
        }
        P::Move { a, b } => {
            if *b == r {
                read
            } else if *a == r {
                write
            } else {
                none
            }
        }
        P::Not { reg } => {
            if *reg == r {
                read
            } else {
                none
            }
        }
        P::AddI { reg, .. } | P::AndI { reg, .. } | P::XorI { reg, .. } | P::SubI { reg, .. } => {
            if *reg == r {
                read
            } else {
                none
            }
        }
        P::Forward { .. } | P::Multicast { .. } | P::Drop | P::Return | P::Report | P::Nop => none,
    }
}

/// Align memory accesses on the same virtual memory across sibling case
/// level-lists by inserting NOP levels before the offset step (Fig. 5(b)).
fn align_memory(cases: &mut [Vec<Vec<PlacedOp>>]) {
    loop {
        // Collect, per case, the ordered list of (level, vmem) accesses.
        let accesses: Vec<Vec<(usize, String)>> = cases
            .iter()
            .map(|levels| {
                levels
                    .iter()
                    .enumerate()
                    .flat_map(|(d, ops)| {
                        ops.iter()
                            .filter_map(move |p| p.op.mem_access().map(|m| (d, m.to_string())))
                    })
                    .collect()
            })
            .collect();

        // For every vmem and occurrence index, find the per-case depths.
        let mut fix: Option<(usize, usize, usize)> = None; // (case, level, pad)
        let mut vmems: Vec<String> =
            accesses.iter().flatten().map(|(_, m)| m.clone()).collect();
        vmems.sort();
        vmems.dedup();
        'outer: for vmem in &vmems {
            let per_case: Vec<Vec<usize>> = accesses
                .iter()
                .map(|list| {
                    list.iter().filter(|(_, m)| m == vmem).map(|(d, _)| *d).collect()
                })
                .collect();
            let max_occ = per_case.iter().map(|v| v.len()).max().unwrap_or(0);
            for occ in 0..max_occ {
                let depths: Vec<(usize, usize)> = per_case
                    .iter()
                    .enumerate()
                    .filter_map(|(ci, v)| v.get(occ).map(|d| (ci, *d)))
                    .collect();
                if let Some(&(_, max_d)) = depths.iter().max_by_key(|(_, d)| *d) {
                    if let Some(&(ci, d)) = depths.iter().find(|(_, d)| *d < max_d) {
                        fix = Some((ci, d, max_d - d));
                        break 'outer;
                    }
                }
            }
        }

        match fix {
            None => break,
            Some((case_idx, access_level, pad)) => {
                // Insert NOP levels before the offset step (which sits
                // directly before the access when present).
                let levels = &mut cases[case_idx];
                let insert_at = if access_level > 0
                    && levels[access_level - 1]
                        .iter()
                        .any(|p| matches!(p.op, IrOp::MemOffset { .. }))
                {
                    access_level - 1
                } else {
                    access_level
                };
                let cond = levels[access_level]
                    .first()
                    .map(|p| p.branch)
                    .unwrap_or((0, 0));
                for _ in 0..pad {
                    levels.insert(insert_at, vec![PlacedOp::plain(cond, IrOp::Nop)]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4rp_lang::parse;

    fn lower_src(src: &str) -> ProgramIr {
        let unit = parse(src).unwrap();
        let mems: Vec<MemDecl> = unit
            .annotations
            .iter()
            .map(|a| MemDecl { name: a.name.clone(), size: a.size as u32 })
            .collect();
        lower(&unit.programs[0], &mems).unwrap()
    }

    #[test]
    fn cache_program_depth_matches_figure5() {
        // Figure 5(b): the translated cache program has depth 10.
        let src = r#"
@ mem1 1024
program cache(<hdr.udp.dst_port, 7777, 0xffff>) {
    EXTRACT(hdr.nc.op, har);
    EXTRACT(hdr.nc.key1, sar);
    EXTRACT(hdr.nc.key2, mar);
    BRANCH:
    case(<har, 0, 0xffffffff>, <sar, 0x8888, 0xffffffff>, <mar, 0, 0xffffffff>) {
        RETURN;
        LOADI(mar, 512);
        MEMREAD(mem1);
        MODIFY(hdr.nc.value, sar);
    };
    case(<har, 1, 0xffffffff>, <sar, 0x8888, 0xffffffff>, <mar, 0, 0xffffffff>) {
        DROP;
        LOADI(mar, 512);
        EXTRACT(hdr.nc.value, sar);
        MEMWRITE(mem1);
    };
    FORWARD(32);
}
"#;
        let ir = lower_src(src);
        assert_eq!(ir.depth(), 10, "levels: {:#?}", ir.levels);
        // The MEMREAD and MEMWRITE must share a level.
        let mem_level = ir
            .levels
            .iter()
            .position(|l| l.iter().any(|p| p.op.mem_access().is_some()))
            .unwrap();
        let accessing: Vec<&PlacedOp> = ir.levels[mem_level]
            .iter()
            .filter(|p| p.op.mem_access().is_some())
            .collect();
        assert_eq!(accessing.len(), 2, "both branches' accesses aligned");
        // A NOP was inserted in the read branch (shorter prefix).
        assert!(ir
            .levels
            .iter()
            .flat_map(|l| l.iter())
            .any(|p| p.op == IrOp::Nop));
        // FORWARD is the parallel default branch (cache miss): don't-care
        // condition, lower priority than the case entries at its level.
        let fwd = ir
            .levels
            .iter()
            .flat_map(|l| l.iter())
            .find(|p| p.op == IrOp::Forward { port: 32 })
            .unwrap();
        assert_eq!(fwd.branch, (0, 0));
        assert_eq!(fwd.priority, -1);
    }

    #[test]
    fn branch_conditions_are_prefixes() {
        let src = r#"
program p(<hdr.ipv4.dst, 1, 1>) {
    BRANCH:
    case(<sar, 0, 0xffffffff>) {
        BRANCH:
        case(<har, 1, 0xffffffff>) { REPORT; };
    };
    case(<sar, 1, 0xffffffff>) { DROP; };
}
"#;
        let ir = lower_src(src);
        // Outer branch: 2 cases → 2 bits at offset 0; inner: 1 case → 1
        // bit at offset 2.
        let report = ir
            .levels
            .iter()
            .flat_map(|l| l.iter())
            .find(|p| p.op == IrOp::Report)
            .unwrap();
        assert_eq!(report.branch, (0b101, 0b111), "outer label 1 + inner label 1<<2");
        let drop = ir
            .levels
            .iter()
            .flat_map(|l| l.iter())
            .find(|p| p.op == IrOp::Drop)
            .unwrap();
        assert_eq!(drop.branch, (0b10, 0b11));
    }

    #[test]
    fn set_branch_priorities_follow_case_order() {
        let src = r#"
program p(<hdr.ipv4.dst, 1, 1>) {
    BRANCH:
    case(<sar, 0, 0xffffffff>) { DROP; };
    case(<sar, 0, 0x000000ff>) { RETURN; };
}
"#;
        let ir = lower_src(src);
        let branch_level = &ir.levels[0];
        assert_eq!(branch_level.len(), 2);
        assert!(branch_level[0].priority > branch_level[1].priority);
        assert_eq!(branch_level[0].op, IrOp::SetBranch { bits: 1 });
        assert_eq!(branch_level[1].op, IrOp::SetBranch { bits: 2 });
    }

    #[test]
    fn pseudo_move_expands() {
        let ir = lower_src("program p(<f,1,1>) { MOVE(har, sar); }");
        let ops: Vec<&IrOp> = ir.levels.iter().flat_map(|l| l.iter()).map(|p| &p.op).collect();
        assert_eq!(
            ops,
            vec![
                &IrOp::LoadI { reg: Reg::Har, imm: 0 },
                &IrOp::AluRR { op: AluRROp::Add, a: Reg::Har, b: Reg::Sar },
            ]
        );
    }

    #[test]
    fn subi_uses_twos_complement() {
        let ir = lower_src("program p(<f,1,1>) { SUBI(har, 7); }");
        let ops: Vec<&IrOp> = ir.levels.iter().flat_map(|l| l.iter()).map(|p| &p.op).collect();
        assert_eq!(ops[0], &IrOp::LoadI { reg: Reg::Sar, imm: 7u32.wrapping_neg() });
    }

    #[test]
    fn addi_picks_dead_supportive_register_without_backup() {
        // sar is read later → mar is the dead candidate.
        let ir = lower_src("program p(<f,1,1>) { ADDI(har, 5); MODIFY(hdr.nc.value, sar); }");
        let ops: Vec<&IrOp> = ir.levels.iter().flat_map(|l| l.iter()).map(|p| &p.op).collect();
        assert_eq!(ops[0], &IrOp::LoadI { reg: Reg::Mar, imm: 5 });
        assert!(!ops.iter().any(|o| matches!(o, IrOp::Backup { .. })));
    }

    #[test]
    fn live_supportive_register_gets_backup_restore() {
        // Both sar and mar are read later (BRANCH reads all), so the
        // supportive register is live → backup/restore wrap the expansion.
        let src = r#"
program p(<f,1,1>) {
    ADDI(har, 5);
    BRANCH:
    case(<sar, 0, 0xffffffff>) { DROP; };
}
"#;
        let ir = lower_src(src);
        let ops: Vec<&IrOp> = ir.levels.iter().flat_map(|l| l.iter()).map(|p| &p.op).collect();
        assert!(matches!(ops[0], IrOp::Backup { .. }));
        assert!(matches!(ops[3], IrOp::Restore { .. }));
    }

    #[test]
    fn sub_translation_is_exact() {
        let ir = lower_src("program p(<f,1,1>) { SUB(har, sar); }");
        let ops: Vec<&IrOp> = ir.levels.iter().flat_map(|l| l.iter()).map(|p| &p.op).collect();
        // Simulate: A=10, B=3 → expect 7.
        let (mut a, mut b, mut c) = (10u32, 3u32, 0u32);
        for op in ops {
            match op {
                IrOp::LoadI { reg: Reg::Mar, imm } => c = *imm,
                IrOp::AluRR { op: AluRROp::Xor, a: Reg::Sar, b: Reg::Mar } => b ^= c,
                IrOp::AluRR { op: AluRROp::Add, a: Reg::Har, b: Reg::Sar } => {
                    a = a.wrapping_add(b)
                }
                IrOp::AluRR { op: AluRROp::Add, a: Reg::Har, b: Reg::Mar } => {
                    a = a.wrapping_add(c)
                }
                other => panic!("unexpected op {other:?}"),
            }
        }
        assert_eq!(a, 7, "SUB must compute exact subtraction");
        assert_eq!(b, 3, "operand register restored");
    }

    #[test]
    fn memory_ops_get_offset_steps() {
        let ir = lower_src("@ m 256\nprogram p(<f,1,1>) { LOADI(mar, 5); MEMREAD(m); }");
        let ops: Vec<&IrOp> = ir.levels.iter().flat_map(|l| l.iter()).map(|p| &p.op).collect();
        assert_eq!(ops.len(), 3);
        assert!(matches!(ops[1], IrOp::MemOffset { kind: MemOpKind::Read, .. }));
        assert!(matches!(ops[2], IrOp::MemAccess { kind: MemOpKind::Read, .. }));
    }

    #[test]
    fn undeclared_memory_is_an_error() {
        let unit = parse("program p(<f,1,1>) { MEMREAD(ghost); }").unwrap();
        assert!(matches!(
            lower(&unit.programs[0], &[]),
            Err(CompileError::UnknownMemory(_))
        ));
    }

    #[test]
    fn entry_count_excludes_nops() {
        let src = r#"
@ m 64
program p(<f,1,1>) {
    BRANCH:
    case(<sar, 0, 0xffffffff>) {
        LOADI(mar, 1);
        MEMREAD(m);
    };
    case(<sar, 1, 0xffffffff>) {
        LOADI(mar, 1);
        LOADI(har, 2);
        MEMWRITE(m);
    };
}
"#;
        let ir = lower_src(src);
        let total: usize = ir.levels.iter().map(|l| l.len()).sum();
        let entries = ir.levels.iter().flatten().filter(|p| p.op != IrOp::Nop).count();
        assert!(entries < total, "alignment NOPs must not cost entries");
    }

    #[test]
    fn branch_bits_exhaustion_detected() {
        // 9 sequential BRANCHes with 3 cases each need 2 bits apiece = 18.
        let mut body = String::new();
        for _ in 0..9 {
            body.push_str(
                "BRANCH: case(<sar,0,1>) { NOP; }; case(<sar,1,1>) { NOP; }; case(<har,0,1>) { NOP; };\n",
            );
        }
        let src = format!("program p(<f,1,1>) {{ {body} }}");
        let unit = parse(&src).unwrap();
        assert!(matches!(
            lower(&unit.programs[0], &[]),
            Err(CompileError::BranchBitsExhausted { .. })
        ));
    }
}

#[cfg(test)]
mod alignment_tests {
    use super::*;
    use p4rp_lang::parse;

    fn lower_src(src: &str) -> ProgramIr {
        let unit = parse(src).unwrap();
        let mems: Vec<MemDecl> = unit
            .annotations
            .iter()
            .map(|a| MemDecl { name: a.name.clone(), size: a.size as u32 })
            .collect();
        lower(&unit.programs[0], &mems).unwrap()
    }

    /// Invariant behind constraint (5): within one program, all accesses
    /// to a virtual memory in *sibling* branches share a depth level.
    #[test]
    fn sibling_accesses_share_levels_even_with_uneven_prefixes() {
        let src = r#"
@ m 64
program p(<f,1,1>) {
    BRANCH:
    case(<sar, 0, 0xffffffff>) {
        LOADI(mar, 1);
        MEMREAD(m);
    };
    case(<sar, 1, 0xffffffff>) {
        LOADI(mar, 2);
        LOADI(har, 1);
        LOADI(har, 2);
        MEMWRITE(m);
    };
    case(<sar, 2, 0xffffffff>) {
        MEMADD(m);
    };
}
"#;
        let ir = lower_src(src);
        let levels_with_m: Vec<usize> = ir
            .levels
            .iter()
            .enumerate()
            .filter(|(_, l)| l.iter().any(|p| p.op.mem_access() == Some("m")))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(levels_with_m.len(), 1, "all three accesses aligned: {ir:#?}");
        let level = &ir.levels[levels_with_m[0]];
        assert_eq!(
            level.iter().filter(|p| p.op.mem_access().is_some()).count(),
            3
        );
        // Every offset step sits directly before its access.
        let (reqs, pairs) = crate::alloc::slot_requirements(&ir);
        for (a, b) in pairs {
            assert_eq!(b, a + 1, "offset adjacent to access");
            assert!(!reqs[a].mems.iter().any(|_| false));
        }
    }

    /// Deeply nested branches still align and allocate.
    #[test]
    fn nested_alignment_and_bit_budget() {
        let src = r#"
@ m 64
program p(<f,1,1>) {
    BRANCH:
    case(<sar, 0, 0xffffffff>) {
        BRANCH:
        case(<har, 0, 0xffffffff>) {
            LOADI(mar, 1);
            MEMREAD(m);
        };
        case(<har, 1, 0xffffffff>) {
            MEMWRITE(m);
        };
    };
    case(<sar, 1, 0xffffffff>) {
        LOADI(mar, 5);
        LOADI(sar, 5);
        MEMADD(m);
    };
}
"#;
        let ir = lower_src(src);
        let access_levels: Vec<usize> = ir
            .levels
            .iter()
            .enumerate()
            .filter(|(_, l)| l.iter().any(|p| p.op.mem_access().is_some()))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(access_levels.len(), 1, "nested + sibling all aligned");
    }

    /// The continuation after a branch whose cases do not all forward is
    /// sequential (the ECN shape), so it executes for case-takers too.
    #[test]
    fn non_verdict_cases_keep_sequential_tail() {
        let src = r#"
program p(<f,1,1>) {
    BRANCH:
    case(<har, 1, 0xffffffff>) {
        LOADI(sar, 3);
    };
    FORWARD(4);
}
"#;
        let ir = lower_src(src);
        let fwd_level = ir
            .levels
            .iter()
            .position(|l| l.iter().any(|p| matches!(p.op, IrOp::Forward { .. })))
            .unwrap();
        let case_level = ir
            .levels
            .iter()
            .position(|l| l.iter().any(|p| matches!(p.op, IrOp::LoadI { .. })))
            .unwrap();
        assert!(fwd_level > case_level, "tail after the case body, not parallel");
        assert_eq!(ir.levels[fwd_level][0].branch, (0, 0), "tail runs for all outcomes");
    }
}
