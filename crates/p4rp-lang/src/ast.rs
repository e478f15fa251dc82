//! The P4runpro abstract syntax tree.
//!
//! Mirrors Table 3 (primitives and pseudo primitives) and the Figure 15
//! grammar. Each primitive carries its source line for diagnostics and for
//! the compiler's error reporting.

/// The three PHV "registers" of the P4runpro data plane (§4.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Reg {
    /// Hash register.
    Har,
    /// Stateful-ALU register.
    Sar,
    /// Memory-address register.
    Mar,
}

impl Reg {
    /// `ALL`.
    pub const ALL: [Reg; 3] = [Reg::Har, Reg::Sar, Reg::Mar];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Reg::Har => "har",
            Reg::Sar => "sar",
            Reg::Mar => "mar",
        }
    }

    /// From name.
    pub(crate) fn from_name(s: &str) -> Option<Reg> {
        match s {
            "har" => Some(Reg::Har),
            "sar" => Some(Reg::Sar),
            "mar" => Some(Reg::Mar),
            _ => None,
        }
    }
}

/// A whole source unit: annotations then programs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SourceUnit {
    /// Annotations.
    pub annotations: Vec<Annotation>,
    /// Programs.
    pub programs: Vec<ProgramDecl>,
}

/// `@ IDENTIFIER INT` — a virtual memory block request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Annotation {
    /// Human-readable name.
    pub name: String,
    /// Number of 32-bit buckets (must be a power of two — checked by the
    /// type checker, required by the mask-based address translation).
    pub size: u64,
    /// 1-based source line.
    pub line: u32,
}

/// `program NAME (filter, …) { … }`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramDecl {
    /// Human-readable name.
    pub name: String,
    /// Filters.
    pub filters: Vec<Filter>,
    /// Body.
    pub body: Vec<Primitive>,
    /// 1-based source line.
    pub line: u32,
}

/// A traffic filter `<FIELD, VALUE, MASK>` (ternary match on a header or
/// metadata field; §4.1.1 flow filtering).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Filter {
    /// Field.
    pub field: String,
    /// Value.
    pub value: u64,
    /// Mask.
    pub mask: u64,
}

/// Conditions of one `case`: an optional `(value, mask)` per register.
/// `None` is don't-care. Conditions may be written named
/// (`<sar, 0, 0xffffffff>`) or positional (`<0, 0xffffffff>` in har, sar,
/// mar order) — the parser normalizes both forms into this struct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RegConds {
    /// Har.
    pub har: Option<(u32, u32)>,
    /// Sar.
    pub sar: Option<(u32, u32)>,
    /// Mar.
    pub mar: Option<(u32, u32)>,
}

impl RegConds {
    /// Get.
    pub(crate) fn get(&self, reg: Reg) -> Option<(u32, u32)> {
        match reg {
            Reg::Har => self.har,
            Reg::Sar => self.sar,
            Reg::Mar => self.mar,
        }
    }

    /// Set.
    pub(crate) fn set(&mut self, reg: Reg, value: u32, mask: u32) {
        let slot = match reg {
            Reg::Har => &mut self.har,
            Reg::Sar => &mut self.sar,
            Reg::Mar => &mut self.mar,
        };
        *slot = Some((value, mask));
    }
}

/// One `case (conds) { body }` block of a BRANCH.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Case {
    /// Conds.
    pub conds: RegConds,
    /// Body.
    pub body: Vec<Primitive>,
    /// 1-based source line.
    pub line: u32,
}

/// A primitive (or pseudo primitive) invocation. Variants mirror Table 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrimitiveKind {
    // -- Header interaction ------------------------------------------------
    /// `EXTRACT(field, reg)`: reg = field.
    /// Extract.
    Extract { field: String, reg: Reg },
    /// `MODIFY(field, reg)`: field = reg.
    /// Modify.
    Modify { field: String, reg: Reg },

    // -- Hash ---------------------------------------------------------------
    /// `HASH_5_TUPLE`: har = hash(5-tuple).
    Hash5Tuple,
    /// `HASH`: har = hash(har).
    Hash,
    /// `HASH_5_TUPLE_MEM(mid)`: mar = (bit<width>) hash(5-tuple).
    /// Hash5TupleMem.
    Hash5TupleMem { mem: String },
    /// `HASH_MEM(mid)`: mar = (bit<width>) hash(har).
    /// HashMem.
    HashMem { mem: String },

    // -- Conditional branch --------------------------------------------------
    /// `BRANCH: case+;`
    /// Branch.
    Branch { cases: Vec<Case> },

    // -- Memory ---------------------------------------------------------------
    /// `MEMADD(mid)`: mid\[mar\] += sar; sar = new value.
    /// MemAdd.
    MemAdd { mem: String },
    /// `MEMSUB(mid)`: mid\[mar\] -= sar; sar = new value.
    /// MemSub.
    MemSub { mem: String },
    /// `MEMAND(mid)`: mid\[mar\] &= sar; sar = new value.
    /// MemAnd.
    MemAnd { mem: String },
    /// `MEMOR(mid)`: sar = old value; mid\[mar\] |= sar.
    /// MemOr.
    MemOr { mem: String },
    /// `MEMREAD(mid)`: sar = mid\[mar\].
    /// MemRead.
    MemRead { mem: String },
    /// `MEMWRITE(mid)`: mid\[mar\] = sar.
    /// MemWrite.
    MemWrite { mem: String },
    /// `MEMMAX(mid)`: mid\[mar\] = sar if sar > mid\[mar\].
    /// MemMax.
    MemMax { mem: String },

    // -- Arithmetic & logic (hardware) ----------------------------------------
    /// `LOADI(reg, i)`: reg = i.
    /// LoadI.
    LoadI { reg: Reg, imm: u32 },
    /// `ADD(reg0, reg1)`: reg0 += reg1.
    /// Add.
    Add { a: Reg, b: Reg },
    /// `AND(reg0, reg1)`.
    /// And.
    And { a: Reg, b: Reg },
    /// `OR(reg0, reg1)`.
    /// Or.
    Or { a: Reg, b: Reg },
    /// `MAX(reg0, reg1)`: reg0 = max(reg0, reg1).
    /// Max.
    Max { a: Reg, b: Reg },
    /// `MIN(reg0, reg1)`: reg0 = min(reg0, reg1).
    /// Min.
    Min { a: Reg, b: Reg },
    /// `XOR(reg0, reg1)`.
    /// Xor.
    Xor { a: Reg, b: Reg },

    // -- Arithmetic & logic (pseudo, Figure 14) --------------------------------
    /// `MOVE(reg0, reg1)`: reg0 = reg1.
    /// Move.
    Move { a: Reg, b: Reg },
    /// `NOT(reg)`: reg = ~reg.
    /// Not.
    Not { reg: Reg },
    /// `SUB(reg0, reg1)`: reg0 -= reg1.
    /// Sub.
    Sub { a: Reg, b: Reg },
    /// `EQUAL(reg0, reg1)`: reg0 = 0 iff reg0 == reg1.
    /// Equal.
    Equal { a: Reg, b: Reg },
    /// `SGT(reg0, reg1)`: reg0 = 0 iff reg0 >= reg1.
    /// Sgt.
    Sgt { a: Reg, b: Reg },
    /// `SLT(reg0, reg1)`: reg0 = 0 iff reg0 <= reg1.
    /// Slt.
    Slt { a: Reg, b: Reg },
    /// `ADDI(reg, i)`.
    /// AddI.
    AddI { reg: Reg, imm: u32 },
    /// `ANDI(reg, i)`.
    /// AndI.
    AndI { reg: Reg, imm: u32 },
    /// `XORI(reg, i)`.
    /// XorI.
    XorI { reg: Reg, imm: u32 },
    /// `SUBI(reg, i)`.
    /// SubI.
    SubI { reg: Reg, imm: u32 },

    // -- Forwarding --------------------------------------------------------------
    /// `FORWARD(port)`.
    /// Forward.
    Forward { port: u16 },
    /// `MULTICAST(group)` — the §7 extension: replicate to a traffic-
    /// manager multicast group (enables SwitchML-style aggregation).
    /// Multicast.
    Multicast { group: u16 },
    /// `DROP`.
    Drop,
    /// `RETURN`: reflect out the ingress port.
    Return,
    /// `REPORT`: copy to the CPU.
    Report,

    /// Internal no-op (inserted by the compiler for memory alignment; not
    /// part of the surface syntax).
    Nop,
}

/// A primitive with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Primitive {
    /// Kind.
    pub kind: PrimitiveKind,
    /// 1-based source line.
    pub line: u32,
}

impl PrimitiveKind {
    /// The virtual memory identifier this primitive operates on, if any.
    pub(crate) fn memory(&self) -> Option<&str> {
        match self {
            PrimitiveKind::Hash5TupleMem { mem }
            | PrimitiveKind::HashMem { mem }
            | PrimitiveKind::MemAdd { mem }
            | PrimitiveKind::MemSub { mem }
            | PrimitiveKind::MemAnd { mem }
            | PrimitiveKind::MemOr { mem }
            | PrimitiveKind::MemRead { mem }
            | PrimitiveKind::MemWrite { mem }
            | PrimitiveKind::MemMax { mem } => Some(mem),
            _ => None,
        }
    }
}

impl ProgramDecl {
    /// Walk every primitive in the program (depth-first through branches).
    pub(crate) fn visit_primitives<'a>(&'a self, f: &mut impl FnMut(&'a Primitive)) {
        fn walk<'a>(prims: &'a [Primitive], f: &mut impl FnMut(&'a Primitive)) {
            for p in prims {
                f(p);
                if let PrimitiveKind::Branch { cases } = &p.kind {
                    for c in cases {
                        walk(&c.body, f);
                    }
                }
            }
        }
        walk(&self.body, f);
    }

    /// All virtual memory identifiers referenced by this program.
    pub fn referenced_memories(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.visit_primitives(&mut |p| {
            if let Some(m) = p.kind.memory() {
                if !out.iter().any(|x| x == m) {
                    out.push(m.to_string());
                }
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_names_roundtrip() {
        for r in Reg::ALL {
            assert_eq!(Reg::from_name(r.name()), Some(r));
        }
        assert_eq!(Reg::from_name("xyz"), None);
    }

    #[test]
    fn hash_mem_names_its_memory() {
        assert_eq!(PrimitiveKind::HashMem { mem: "m".into() }.memory(), Some("m"));
    }

    #[test]
    fn visit_walks_nested_branches() {
        let inner = Primitive { kind: PrimitiveKind::Drop, line: 3 };
        let branch = Primitive {
            kind: PrimitiveKind::Branch {
                cases: vec![Case { conds: RegConds::default(), body: vec![inner], line: 2 }],
            },
            line: 2,
        };
        let prog = ProgramDecl {
            name: "p".into(),
            filters: vec![],
            body: vec![Primitive { kind: PrimitiveKind::Hash, line: 1 }, branch],
            line: 1,
        };
        let mut lines = Vec::new();
        prog.visit_primitives(&mut |p| lines.push(p.line));
        assert_eq!(lines, vec![1, 2, 3], "HASH, then BRANCH, then the DROP inside it");
    }

    #[test]
    fn referenced_memories_dedup() {
        let prog = ProgramDecl {
            name: "p".into(),
            filters: vec![],
            body: vec![
                Primitive { kind: PrimitiveKind::MemAdd { mem: "a".into() }, line: 1 },
                Primitive { kind: PrimitiveKind::MemRead { mem: "a".into() }, line: 2 },
                Primitive { kind: PrimitiveKind::MemOr { mem: "b".into() }, line: 3 },
            ],
            line: 1,
        };
        assert_eq!(prog.referenced_memories(), vec!["a".to_string(), "b".to_string()]);
    }
}
