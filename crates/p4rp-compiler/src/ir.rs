//! Lowering: from the parsed AST to the depth-levelled intermediate form
//! the allocator consumes.
//!
//! Four steps, mirroring §4.3 "Primitive Translation", taken in one walk
//! over the AST that places operations on their levels as it goes:
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
    let mut mems = Vec::with_capacity(referenced.len());
    for name in &referenced {
        match memories.iter().find(|m| &m.name == name) {
            Some(m) => mems.push(m.clone()),
            None => return Err(CompileError::UnknownMemory(name.clone())),
        }
    }

    let mut ctx = Lowering { bit_cursor: 0, pair_cursor: 0 };
    let mut placed = Vec::new();
    ctx.lower_body(&prog.body, None, (0, 0), &mut placed)?;

    Ok(ProgramIr {
        name: prog.name.clone(),
        filters: prog.filters.iter().map(|f| (f.field.clone(), f.value, f.mask)).collect(),
        memories: mems,
        levels: into_levels(placed),
    })
}

/// Placed operations tagged with their depth level, relative to the body
/// they were lowered from, in level order: depths run 0, 1, … without a
/// gap (no level is ever empty), and within one level in the order
/// `ProgramIr::levels` lists them.
type Leveled = Vec<(u32, PlacedOp)>;

/// The depth the next level of `out` starts at.
fn next_depth(out: &Leveled) -> u32 {
    out.last().map_or(0, |(d, _)| d + 1)
}

/// Place `op` under `cond` on a level of its own.
fn emit(out: &mut Leveled, cond: (u16, u16), op: IrOp) {
    out.push((next_depth(out), PlacedOp::plain(cond, op)));
}

/// Group a whole program's placed operations into `ProgramIr::levels`.
fn into_levels(placed: Leveled) -> Vec<Vec<PlacedOp>> {
    let mut levels: Vec<Vec<PlacedOp>> =
        placed.chunk_by(|a, b| a.0 == b.0).map(|level| Vec::with_capacity(level.len())).collect();
    for (depth, op) in placed {
        levels[depth as usize].push(op);
    }
    levels
}

/// What runs after a primitive, for register-lifetime analysis: the rest
/// of its own body, then whatever runs after that body (the continuation
/// of the enclosing `BRANCH`).
struct Cont<'a> {
    rest: &'a [Primitive],
    outer: Option<&'a Cont<'a>>,
}

struct Lowering {
    bit_cursor: u32,
    pair_cursor: u32,
}

const REG_MAX: u32 = u32::MAX;

impl Lowering {
    /// The four steps of the module docs over one body, in one walk: each
    /// primitive is expanded (pseudo primitives, offset steps) straight
    /// onto levels of its own under `cond`; a `BRANCH` places one
    /// `SetBranch` per case on one level, lowers each case under its
    /// label, aligns the cases' memory accesses and merges them level by
    /// level. `outer` is what runs after `body`.
    fn lower_body(
        &mut self,
        body: &[Primitive],
        outer: Option<&Cont<'_>>,
        cond: (u16, u16),
        out: &mut Leveled,
    ) -> CompileResult<()> {
        for (idx, prim) in body.iter().enumerate() {
            let cont = Cont { rest: &body[idx + 1..], outer };
            let PrimitiveKind::Branch { cases } = &prim.kind else {
                self.expand(&prim.kind, &cont, cond, out);
                continue;
            };
            let n = cases.len() as u32;
            let width = 32 - n.leading_zeros(); // bits for labels 1..=n
            let offset = self.bit_cursor;
            self.bit_cursor += width;
            if self.bit_cursor > 16 {
                return Err(CompileError::BranchBitsExhausted { needed: self.bit_cursor });
            }
            let lvl_mask = ((1u32 << width) - 1) as u16;

            // The branch level: one SetBranch entry per case.
            let depth = next_depth(out);
            let mut arms: Vec<Leveled> = Vec::with_capacity(cases.len() + 1);
            for (i, case) in cases.iter().enumerate() {
                let label = (i + 1) as u16;
                out.push((
                    depth,
                    PlacedOp {
                        branch: cond,
                        regs: case.conds,
                        priority: (cases.len() - i) as i32,
                        op: IrOp::SetBranch { bits: label << offset },
                    },
                ));
                let case_cond = (cond.0 | (label << offset), cond.1 | (lvl_mask << offset));
                let mut arm = Vec::new();
                self.lower_body(&case.body, Some(&cont), case_cond, &mut arm)?;
                arms.push(arm);
            }

            // Figure 5's depth accounting: when everything after the
            // BRANCH is a pure forwarding tail (the cache-miss `FORWARD`)
            // *and every case takes its own forwarding verdict*, the tail
            // becomes a *default branch* running in parallel with the
            // cases at lower entry priority — case packets match their
            // case entry instead, and the verdict they set
            // (RETURN/DROP/FORWARD) governs at the traffic manager. If
            // some case sets no verdict, the tail must run sequentially
            // after the cases so those packets are still forwarded.
            let tail = cont.rest;
            let tail_is_fwd_only = !tail.is_empty()
                && tail.iter().all(|p| is_forwarding(&p.kind))
                && cases.iter().all(|c| body_forwards(&c.body));
            if tail_is_fwd_only {
                let mut arm = Vec::with_capacity(tail.len());
                for p in tail {
                    self.expand(&p.kind, &cont, cond, &mut arm);
                }
                for (_, op) in &mut arm {
                    op.priority = -1;
                }
                arms.push(arm);
            }

            align_memory(&mut arms);
            // Level `j` of the merge is level `j` of every arm, in case
            // order; each arm is in level order, so one pass drains it.
            let len = arms.iter().map(next_depth).max().unwrap_or(0);
            let mut arms: Vec<_> = arms.into_iter().map(|arm| arm.into_iter().peekable()).collect();
            for j in 0..len {
                for arm in &mut arms {
                    while let Some((_, op)) = arm.next_if(|(d, _)| *d == j) {
                        out.push((depth + 1 + j, op));
                    }
                }
            }
            if tail_is_fwd_only {
                break;
            }
        }
        Ok(())
    }

    /// Expand one non-branch primitive into hardware operations (steps 1
    /// and 2), each on a level of its own.
    fn expand(&mut self, kind: &PrimitiveKind, cont: &Cont<'_>, cond: (u16, u16), out: &mut Leveled) {
        use IrOp as O;
        let op = match kind {
            PrimitiveKind::Extract { field, reg } => O::Extract { field: field.clone(), reg: *reg },
            PrimitiveKind::Modify { field, reg } => O::Modify { field: field.clone(), reg: *reg },
            PrimitiveKind::Hash5Tuple => O::Hash5Tuple,
            PrimitiveKind::Hash => O::HashHar,
            PrimitiveKind::Hash5TupleMem { mem } => O::Hash5TupleMem { mem: mem.clone() },
            PrimitiveKind::HashMem { mem } => O::HashHarMem { mem: mem.clone() },
            PrimitiveKind::MemAdd { mem } => return mem_pair(mem, MemOpKind::Add, cond, out),
            PrimitiveKind::MemSub { mem } => return mem_pair(mem, MemOpKind::Sub, cond, out),
            PrimitiveKind::MemAnd { mem } => return mem_pair(mem, MemOpKind::And, cond, out),
            PrimitiveKind::MemOr { mem } => return mem_pair(mem, MemOpKind::Or, cond, out),
            PrimitiveKind::MemRead { mem } => return mem_pair(mem, MemOpKind::Read, cond, out),
            PrimitiveKind::MemWrite { mem } => return mem_pair(mem, MemOpKind::Write, cond, out),
            PrimitiveKind::MemMax { mem } => return mem_pair(mem, MemOpKind::Max, cond, out),
            PrimitiveKind::LoadI { reg, imm } => O::LoadI { reg: *reg, imm: *imm },
            PrimitiveKind::Add { a, b } => alu(AluRROp::Add, *a, *b),
            PrimitiveKind::And { a, b } => alu(AluRROp::And, *a, *b),
            PrimitiveKind::Or { a, b } => alu(AluRROp::Or, *a, *b),
            PrimitiveKind::Max { a, b } => alu(AluRROp::Max, *a, *b),
            PrimitiveKind::Min { a, b } => alu(AluRROp::Min, *a, *b),
            PrimitiveKind::Xor { a, b } => alu(AluRROp::Xor, *a, *b),
            // Pseudo primitives (Figure 14).
            PrimitiveKind::Move { a, b } => {
                emit(out, cond, O::LoadI { reg: *a, imm: 0 });
                alu(AluRROp::Add, *a, *b)
            }
            PrimitiveKind::Equal { a, b } => alu(AluRROp::Xor, *a, *b),
            PrimitiveKind::Sgt { a, b } => {
                emit(out, cond, alu(AluRROp::Min, *a, *b));
                alu(AluRROp::Xor, *a, *b)
            }
            PrimitiveKind::Slt { a, b } => {
                emit(out, cond, alu(AluRROp::Max, *a, *b));
                alu(AluRROp::Xor, *a, *b)
            }
            PrimitiveKind::AddI { reg, imm } => {
                return self.imm_expand(AluRROp::Add, *reg, *imm, cont, cond, out)
            }
            PrimitiveKind::AndI { reg, imm } => {
                return self.imm_expand(AluRROp::And, *reg, *imm, cont, cond, out)
            }
            PrimitiveKind::XorI { reg, imm } => {
                return self.imm_expand(AluRROp::Xor, *reg, *imm, cont, cond, out)
            }
            PrimitiveKind::SubI { reg, imm } => {
                // SUBI(A, i) = LOADI(C, m−i+1); ADD(A, C) — the two's
                // complement of i, computable by the control plane.
                return self.imm_expand(AluRROp::Add, *reg, (*imm).wrapping_neg(), cont, cond, out);
            }
            PrimitiveKind::Not { reg } => {
                return self.imm_expand(AluRROp::Xor, *reg, REG_MAX, cont, cond, out)
            }
            PrimitiveKind::Sub { a, b } => {
                // Corrected Figure 14 translation (see module docs):
                // C = m; B ^= C (→ ~B); A += B; B ^= C (restore);
                // C = 1; A += C.
                let c = supportive(&[*a, *b]);
                let seq = [
                    O::LoadI { reg: c, imm: REG_MAX },
                    alu(AluRROp::Xor, *b, c),
                    alu(AluRROp::Add, *a, *b),
                    alu(AluRROp::Xor, *b, c),
                    O::LoadI { reg: c, imm: 1 },
                    alu(AluRROp::Add, *a, c),
                ];
                return self.guarded(c, seq, cont, cond, out);
            }
            PrimitiveKind::Forward { port } => O::Forward { port: *port },
            PrimitiveKind::Multicast { group } => O::Multicast { group: *group },
            PrimitiveKind::Drop => O::Drop,
            PrimitiveKind::Return => O::Return,
            PrimitiveKind::Report => O::Report,
            PrimitiveKind::Nop => O::Nop,
            PrimitiveKind::Branch { .. } => unreachable!("handled by lower_body"),
        };
        emit(out, cond, op);
    }

    /// `A = op(A, immediate)` via a supportive register.
    fn imm_expand(
        &mut self,
        op: AluRROp,
        a: Reg,
        imm: u32,
        cont: &Cont<'_>,
        cond: (u16, u16),
        out: &mut Leveled,
    ) {
        let c = pick_supportive(a, cont);
        self.guarded(c, [IrOp::LoadI { reg: c, imm }, alu(op, a, c)], cont, cond, out);
    }

    /// `seq` with the supportive register `c` backed up before and
    /// restored after, unless the register-lifetime analysis proves it
    /// dead (§4.2).
    fn guarded<const N: usize>(
        &mut self,
        c: Reg,
        seq: [IrOp; N],
        cont: &Cont<'_>,
        cond: (u16, u16),
        out: &mut Leveled,
    ) {
        let pair = is_live(c, cont).then(|| {
            let pair = self.pair_cursor;
            self.pair_cursor += 1;
            pair
        });
        if let Some(pair) = pair {
            emit(out, cond, IrOp::Backup { reg: c, pair });
        }
        for op in seq {
            emit(out, cond, op);
        }
        if let Some(pair) = pair {
            emit(out, cond, IrOp::Restore { reg: c, pair });
        }
    }
}

/// A memory access: its offset step, then the access.
fn mem_pair(mem: &str, kind: MemOpKind, cond: (u16, u16), out: &mut Leveled) {
    emit(out, cond, IrOp::MemOffset { mem: mem.to_string(), kind });
    emit(out, cond, IrOp::MemAccess { mem: mem.to_string(), kind });
}

/// Does `kind` lower to a forwarding operation (`IrOp::is_forwarding`)?
fn is_forwarding(kind: &PrimitiveKind) -> bool {
    matches!(
        kind,
        PrimitiveKind::Forward { .. }
            | PrimitiveKind::Multicast { .. }
            | PrimitiveKind::Drop
            | PrimitiveKind::Return
            | PrimitiveKind::Report
    )
}

/// Does every path through `body` take a forwarding verdict? A *verdict*
/// decides the packet's fate at the traffic manager; REPORT is a
/// copy-to-CPU side effect, not a verdict — a case ending in bare REPORT
/// still needs the tail's forwarding.
fn body_forwards(body: &[Primitive]) -> bool {
    body.iter().any(|p| match &p.kind {
        PrimitiveKind::Forward { .. }
        | PrimitiveKind::Multicast { .. }
        | PrimitiveKind::Drop
        | PrimitiveKind::Return => true,
        PrimitiveKind::Branch { cases } => cases.iter().all(|c| body_forwards(&c.body)),
        _ => false,
    })
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
fn pick_supportive(used: Reg, cont: &Cont<'_>) -> Reg {
    Reg::ALL
        .into_iter()
        .filter(|&r| r != used)
        .find(|&r| !is_live(r, cont))
        .unwrap_or_else(|| supportive(&[used]))
}

/// Register-lifetime analysis: is `r`'s current value read before being
/// overwritten in the continuation?
fn is_live(r: Reg, cont: &Cont<'_>) -> bool {
    let mut next = Some(cont);
    while let Some(c) = next {
        for prim in c.rest {
            match access(&prim.kind, r) {
                Access::Read => return true,
                Access::Write => return false,
                Access::None => {}
            }
        }
        next = c.outer;
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

/// Align memory accesses on the same virtual memory across sibling arms
/// by inserting NOP levels before the offset step (Fig. 5(b)), one
/// misalignment at a time until none is left.
fn align_memory(arms: &mut [Leveled]) {
    while let Some((arm, access_level, pad)) = misalignment(arms) {
        let ops = &mut arms[arm];
        // The offset step sits directly before the access when present.
        let offset_before = access_level > 0
            && ops.iter().any(|(d, p)| {
                *d == access_level - 1 && matches!(p.op, IrOp::MemOffset { .. })
            });
        let insert_at = if offset_before { access_level - 1 } else { access_level };
        let cond = ops.iter().find(|(d, _)| *d == access_level).map_or((0, 0), |(_, p)| p.branch);
        let pos = ops.partition_point(|(d, _)| *d < insert_at);
        for (d, _) in &mut ops[pos..] {
            *d += pad;
        }
        let nops = (insert_at..insert_at + pad).map(|d| (d, PlacedOp::plain(cond, IrOp::Nop)));
        ops.splice(pos..pos, nops);
    }
}

/// The first access to align: virtual memories in name order, the `k`-th
/// access of each in turn, arms in case order — the first arm whose `k`-th
/// access of the memory sits above the deepest arm's. Returns the arm, the
/// access's level and how many levels it must move down.
fn misalignment(arms: &[Leveled]) -> Option<(usize, u32, u32)> {
    let mut after: Option<&str> = None;
    loop {
        let vmem = arms
            .iter()
            .flatten()
            .filter_map(|(_, p)| p.op.mem_access())
            .filter(|m| after.is_none_or(|a| *m > a))
            .min()?;
        after = Some(vmem);
        for k in 0.. {
            let kth = |arm: &Leveled| {
                arm.iter().filter(|(_, p)| p.op.mem_access() == Some(vmem)).nth(k).map(|(d, _)| *d)
            };
            let Some(deepest) = arms.iter().filter_map(kth).max() else {
                break;
            };
            let shallower = arms.iter().enumerate().find_map(|(i, arm)| {
                kth(arm).filter(|&d| d < deepest).map(|d| (i, d, deepest - d))
            });
            if shallower.is_some() {
                return shallower;
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
