//! Recursive-descent parser for the Figure 15 grammar.
//!
//! ```text
//! start      ::= annotation* program+
//! annotation ::= @ IDENTIFIER INT
//! program    ::= program IDENTIFIER ( filter , filter* ) { primitive* }
//! filter     ::= < FIELD , VALUE , MASK >
//! primitive  ::= BRANCH : case+ ;
//!              | PRIMITIVE_WITH_ARG ( argument , argument* ) ;
//!              | OTHER_PRIMITIVE ;
//! case       ::= case ( condition+ ) { primitive* } ;?
//! condition  ::= < VALUE , MASK > | < REGISTER , VALUE , MASK >
//! ```
//!
//! Conditions support both the positional form of the grammar (`<value,
//! mask>` in har/sar/mar order) and the named form the paper's example
//! programs use (`<sar, 0, 0xffffffff>`, Figures 16/17).
//!
//! The parser walks the lexer's tokens by reference; the tokens borrow the
//! source, so the only allocations are the `String`s and `Vec`s the AST
//! keeps (and a message on error).

use crate::ast::*;
use crate::error::LangError;
use crate::lexer::lex;
use crate::token::{Token, TokenKind};

/// Deepest nesting of `case` blocks the parser accepts. The parser and
/// every later walk over the AST (`Drop`, pretty-printing, type checking,
/// lowering) recurse once per level, so an unbounded source — the control
/// server accepts lines up to 1 MiB — would overflow the stack, which
/// aborts the process rather than unwinding. Each nested `BRANCH` needs a
/// logical RPB of its own and a bit of the 16-bit branch id; the allocator
/// has 44 logical RPBs (22 RPBs × 2 passes), so 64 rejects nothing that
/// could be deployed. A debug build parses twice that depth on a 2 MiB
/// thread stack.
const MAX_NESTING: usize = 64;

/// Parse a full source unit.
pub fn parse(src: &str) -> Result<SourceUnit, LangError> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens: &tokens, pos: 0, depth: 0 };
    p.source_unit()
}

struct Parser<'t, 's> {
    /// The lexed source; never empty, the last token is `Eof`.
    tokens: &'t [Token<'s>],
    pos: usize,
    /// `case` blocks enclosing the current position.
    depth: usize,
}

impl<'s> Parser<'_, 's> {
    fn peek(&self) -> &Token<'s> {
        &self.tokens[self.pos]
    }

    /// Step past the current token; `Eof` is never stepped past.
    fn advance(&mut self) {
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
    }

    /// Step past the current token if it is `kind`.
    fn eat(&mut self, kind: TokenKind<'_>) -> bool {
        let hit = self.peek().kind == kind;
        if hit {
            self.advance();
        }
        hit
    }

    /// The current token, which must be `kind`; returns its position.
    fn expect(&mut self, kind: TokenKind<'_>) -> Result<(u32, u32), LangError> {
        let t = self.peek();
        if t.kind == kind {
            let at = (t.line, t.col);
            self.advance();
            Ok(at)
        } else {
            Err(LangError::parse(
                format!("expected {}, found {}", kind.describe(), t.kind.describe()),
                t.line,
                t.col,
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<(&'s str, u32, u32), LangError> {
        let t = *self.peek();
        match t.kind {
            TokenKind::Ident(name) => {
                self.advance();
                Ok((name, t.line, t.col))
            }
            other => Err(LangError::parse(
                format!("expected identifier, found {}", other.describe()),
                t.line,
                t.col,
            )),
        }
    }

    /// An integer or IPv4-address literal, as a u64, with its position.
    fn expect_value(&mut self) -> Result<(u64, u32, u32), LangError> {
        let t = *self.peek();
        let v = match t.kind {
            TokenKind::Int(v) => v,
            TokenKind::IpAddr(v) => u64::from(v),
            other => {
                return Err(LangError::parse(
                    format!("expected value, found {}", other.describe()),
                    t.line,
                    t.col,
                ))
            }
        };
        self.advance();
        Ok((v, t.line, t.col))
    }

    fn source_unit(&mut self) -> Result<SourceUnit, LangError> {
        let mut unit = SourceUnit::default();
        while self.peek().kind == TokenKind::At {
            unit.annotations.push(self.annotation()?);
        }
        while self.peek().kind == TokenKind::KwProgram {
            unit.programs.push(self.program()?);
        }
        if unit.programs.is_empty() {
            let t = self.peek();
            return Err(LangError::parse("expected at least one `program`", t.line, t.col));
        }
        self.expect(TokenKind::Eof)?;
        Ok(unit)
    }

    fn annotation(&mut self) -> Result<Annotation, LangError> {
        let (line, _) = self.expect(TokenKind::At)?;
        let (name, ..) = self.expect_ident()?;
        let (size, ..) = self.expect_value()?;
        Ok(Annotation { name: name.to_string(), size, line })
    }

    fn program(&mut self) -> Result<ProgramDecl, LangError> {
        let (line, _) = self.expect(TokenKind::KwProgram)?;
        let (name, ..) = self.expect_ident()?;
        self.expect(TokenKind::LParen)?;
        let mut filters = vec![self.filter()?];
        while self.eat(TokenKind::Comma) {
            filters.push(self.filter()?);
        }
        self.expect(TokenKind::RParen)?;
        self.expect(TokenKind::LBrace)?;
        let body = self.primitive_list()?;
        self.expect(TokenKind::RBrace)?;
        Ok(ProgramDecl { name: name.to_string(), filters, body, line })
    }

    fn filter(&mut self) -> Result<Filter, LangError> {
        self.expect(TokenKind::Lt)?;
        let (field, ..) = self.expect_ident()?;
        self.expect(TokenKind::Comma)?;
        let (value, ..) = self.expect_value()?;
        self.expect(TokenKind::Comma)?;
        let (mask, ..) = self.expect_value()?;
        self.expect(TokenKind::Gt)?;
        Ok(Filter { field: field.to_string(), value, mask })
    }

    fn primitive_list(&mut self) -> Result<Vec<Primitive>, LangError> {
        let mut out = Vec::new();
        loop {
            match self.peek().kind {
                TokenKind::RBrace | TokenKind::Eof => break,
                // Stray semicolons between primitives are tolerated (the
                // example programs end case lists with `};`).
                TokenKind::Semi => self.advance(),
                _ => out.push(self.primitive()?),
            }
        }
        Ok(out)
    }

    /// `( IDENTIFIER ) ;` — a memory primitive's argument, owned.
    fn mem_arg(&mut self) -> Result<String, LangError> {
        self.expect(TokenKind::LParen)?;
        let (mem, ..) = self.expect_ident()?;
        self.expect(TokenKind::RParen)?;
        self.expect(TokenKind::Semi)?;
        Ok(mem.to_string())
    }

    /// `( register , value ) ;` with the value bounded to 32 bits.
    fn reg_imm_args(&mut self, line: u32, col: u32) -> Result<(Reg, u32), LangError> {
        self.expect(TokenKind::LParen)?;
        let reg = self.reg()?;
        self.expect(TokenKind::Comma)?;
        let (imm64, ..) = self.expect_value()?;
        let imm = u32::try_from(imm64).map_err(|_| {
            LangError::parse(format!("immediate {imm64} exceeds 32 bits"), line, col)
        })?;
        self.expect(TokenKind::RParen)?;
        self.expect(TokenKind::Semi)?;
        Ok((reg, imm))
    }

    /// `( register , register ) ;`
    fn reg_reg_args(&mut self) -> Result<(Reg, Reg), LangError> {
        self.expect(TokenKind::LParen)?;
        let a = self.reg()?;
        self.expect(TokenKind::Comma)?;
        let b = self.reg()?;
        self.expect(TokenKind::RParen)?;
        self.expect(TokenKind::Semi)?;
        Ok((a, b))
    }

    /// `( value ) ;` with the value bounded to 16 bits.
    fn u16_arg(&mut self, line: u32, col: u32) -> Result<u16, LangError> {
        self.expect(TokenKind::LParen)?;
        let (v64, ..) = self.expect_value()?;
        let v = u16::try_from(v64)
            .map_err(|_| LangError::parse(format!("value {v64} exceeds 16 bits"), line, col))?;
        self.expect(TokenKind::RParen)?;
        self.expect(TokenKind::Semi)?;
        Ok(v)
    }

    fn primitive(&mut self) -> Result<Primitive, LangError> {
        use PrimitiveKind as P;
        let (name, line, col) = self.expect_ident()?;
        let kind = match name {
            "BRANCH" => {
                self.expect(TokenKind::Colon)?;
                let mut cases = Vec::new();
                while self.peek().kind == TokenKind::KwCase {
                    cases.push(self.case()?);
                    self.eat(TokenKind::Semi);
                }
                if cases.is_empty() {
                    return Err(LangError::parse("BRANCH requires at least one case", line, col));
                }
                P::Branch { cases }
            }
            "DROP" => self.bare(P::Drop)?,
            "RETURN" => self.bare(P::Return)?,
            "REPORT" => self.bare(P::Report)?,
            "HASH_5_TUPLE" => self.bare(P::Hash5Tuple)?,
            "HASH" => self.bare(P::Hash)?,
            "NOP" => self.bare(P::Nop)?,
            "EXTRACT" | "MODIFY" => {
                self.expect(TokenKind::LParen)?;
                let (field, ..) = self.expect_ident()?;
                self.expect(TokenKind::Comma)?;
                let reg = self.reg()?;
                self.expect(TokenKind::RParen)?;
                self.expect(TokenKind::Semi)?;
                let field = field.to_string();
                if name == "EXTRACT" {
                    P::Extract { field, reg }
                } else {
                    P::Modify { field, reg }
                }
            }
            "HASH_5_TUPLE_MEM" => P::Hash5TupleMem { mem: self.mem_arg()? },
            "HASH_MEM" => P::HashMem { mem: self.mem_arg()? },
            "MEMADD" => P::MemAdd { mem: self.mem_arg()? },
            "MEMSUB" => P::MemSub { mem: self.mem_arg()? },
            "MEMAND" => P::MemAnd { mem: self.mem_arg()? },
            "MEMOR" => P::MemOr { mem: self.mem_arg()? },
            "MEMREAD" => P::MemRead { mem: self.mem_arg()? },
            "MEMWRITE" => P::MemWrite { mem: self.mem_arg()? },
            "MEMMAX" => P::MemMax { mem: self.mem_arg()? },
            "LOADI" | "ADDI" | "ANDI" | "XORI" | "SUBI" => {
                let (reg, imm) = self.reg_imm_args(line, col)?;
                match name {
                    "LOADI" => P::LoadI { reg, imm },
                    "ADDI" => P::AddI { reg, imm },
                    "ANDI" => P::AndI { reg, imm },
                    "XORI" => P::XorI { reg, imm },
                    _ => P::SubI { reg, imm },
                }
            }
            "ADD" | "AND" | "OR" | "MAX" | "MIN" | "XOR" | "MOVE" | "SUB" | "EQUAL" | "SGT"
            | "SLT" => {
                let (a, b) = self.reg_reg_args()?;
                match name {
                    "ADD" => P::Add { a, b },
                    "AND" => P::And { a, b },
                    "OR" => P::Or { a, b },
                    "MAX" => P::Max { a, b },
                    "MIN" => P::Min { a, b },
                    "XOR" => P::Xor { a, b },
                    "MOVE" => P::Move { a, b },
                    "SUB" => P::Sub { a, b },
                    "EQUAL" => P::Equal { a, b },
                    "SGT" => P::Sgt { a, b },
                    _ => P::Slt { a, b },
                }
            }
            "NOT" => {
                self.expect(TokenKind::LParen)?;
                let reg = self.reg()?;
                self.expect(TokenKind::RParen)?;
                self.expect(TokenKind::Semi)?;
                P::Not { reg }
            }
            "FORWARD" => P::Forward { port: self.u16_arg(line, col)? },
            "MULTICAST" => {
                let group = self.u16_arg(line, col)?;
                if group == 0 {
                    return Err(LangError::parse("multicast group 0 is reserved", line, col));
                }
                P::Multicast { group }
            }
            other => {
                return Err(LangError::parse(format!("unknown primitive `{other}`"), line, col));
            }
        };
        Ok(Primitive { kind, line })
    }

    /// A primitive with no arguments followed by `;`.
    fn bare(&mut self, kind: PrimitiveKind) -> Result<PrimitiveKind, LangError> {
        self.expect(TokenKind::Semi)?;
        Ok(kind)
    }

    fn reg(&mut self) -> Result<Reg, LangError> {
        let (name, line, col) = self.expect_ident()?;
        Reg::from_name(name).ok_or_else(|| {
            LangError::parse(format!("expected register (har/sar/mar), found `{name}`"), line, col)
        })
    }

    fn case(&mut self) -> Result<Case, LangError> {
        let (line, col) = self.expect(TokenKind::KwCase)?;
        if self.depth == MAX_NESTING {
            return Err(LangError::parse(
                format!("case blocks nested deeper than {MAX_NESTING}"),
                line,
                col,
            ));
        }
        self.expect(TokenKind::LParen)?;
        let mut conds = RegConds::default();
        let mut positional_idx = 0usize;
        loop {
            self.condition(&mut conds, &mut positional_idx)?;
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        self.expect(TokenKind::RParen)?;
        self.expect(TokenKind::LBrace)?;
        self.depth += 1;
        let body = self.primitive_list()?;
        self.depth -= 1;
        self.expect(TokenKind::RBrace)?;
        Ok(Case { conds, body, line })
    }

    /// A condition literal: a register compares 32 bits, so a wider value
    /// or mask is rejected where it is written rather than truncated.
    fn cond_word(&mut self, what: &str) -> Result<u32, LangError> {
        let (v, line, col) = self.expect_value()?;
        u32::try_from(v).map_err(|_| {
            LangError::parse(format!("condition {what} {v} exceeds 32 bits"), line, col)
        })
    }

    /// Parse one `<…>` condition in named or positional form.
    fn condition(&mut self, conds: &mut RegConds, positional_idx: &mut usize) -> Result<(), LangError> {
        let (lt_line, lt_col) = self.expect(TokenKind::Lt)?;
        // Named form starts with a register identifier.
        let t = *self.peek();
        let reg = if let TokenKind::Ident(name) = t.kind {
            let Some(r) = Reg::from_name(name) else {
                return Err(LangError::parse(
                    format!("expected register or value in condition, found `{name}`"),
                    t.line,
                    t.col,
                ));
            };
            self.advance();
            self.expect(TokenKind::Comma)?;
            r
        } else {
            let r = *Reg::ALL.get(*positional_idx).ok_or_else(|| {
                LangError::parse("too many positional conditions (max 3)", lt_line, lt_col)
            })?;
            *positional_idx += 1;
            r
        };
        let value = self.cond_word("value")?;
        self.expect(TokenKind::Comma)?;
        let mask = self.cond_word("mask")?;
        self.expect(TokenKind::Gt)?;
        if conds.get(reg).is_some() {
            return Err(LangError::parse(
                format!("duplicate condition on register `{}`", reg.name()),
                lt_line,
                lt_col,
            ));
        }
        conds.set(reg, value, mask);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CACHE_SRC: &str = r#"
@ mem1 1024

program cache(
    /*filtering traffic*/
    <hdr.udp.dst_port, 7777, 0xffff>) {
    EXTRACT(hdr.nc.op, har);   //get opcode
    EXTRACT(hdr.nc.key1, sar); //get key[0:31]
    EXTRACT(hdr.nc.key2, mar); //get key[32:63]
    BRANCH:
    /*cache hit and cache read*/
    case(<har, 0, 0xffffffff>,
         <sar, 0x8888, 0xffffffff>,
         <mar, 0, 0xffffffff>) {
        RETURN;
        LOADI(mar, 512);
        MEMREAD(mem1);
        MODIFY(hdr.nc.value, sar);
    };
    /*cache hit and cache write*/
    case(<har, 1, 0xffffffff>,
         <sar, 0x8888, 0xffffffff>,
         <mar, 0, 0xffffffff>) {
        DROP;
        LOADI(mar, 512);
        EXTRACT(hdr.nc.value, sar);
        MEMWRITE(mem1);
    };
    FORWARD(32); //cache miss
}
"#;

    #[test]
    fn parses_figure2_cache_program() {
        let unit = parse(CACHE_SRC).unwrap();
        assert_eq!(unit.annotations.len(), 1);
        assert_eq!(unit.annotations[0].name, "mem1");
        assert_eq!(unit.annotations[0].size, 1024);
        assert_eq!(unit.programs.len(), 1);
        let prog = &unit.programs[0];
        assert_eq!(prog.name, "cache");
        assert_eq!(prog.filters.len(), 1);
        assert_eq!(prog.filters[0].field, "hdr.udp.dst_port");
        assert_eq!(prog.filters[0].value, 7777);
        assert_eq!(prog.filters[0].mask, 0xffff);
        // 3 EXTRACTs, BRANCH, FORWARD.
        assert_eq!(prog.body.len(), 5);
        let PrimitiveKind::Branch { cases } = &prog.body[3].kind else {
            panic!("4th primitive must be BRANCH");
        };
        assert_eq!(cases.len(), 2);
        assert_eq!(cases[0].conds.har, Some((0, 0xffffffff)));
        assert_eq!(cases[0].conds.sar, Some((0x8888, 0xffffffff)));
        assert_eq!(cases[0].body.len(), 4);
        assert_eq!(prog.body[4].kind, PrimitiveKind::Forward { port: 32 });
    }

    #[test]
    fn positional_conditions_fill_in_register_order() {
        let src = r#"
program p(<hdr.ipv4.dst, 10.0.0.0, 0xffff0000>) {
    BRANCH:
    case(<1, 0xff>, <2, 0xff>) { DROP; };
}
"#;
        let unit = parse(src).unwrap();
        let PrimitiveKind::Branch { cases } = &unit.programs[0].body[0].kind else {
            panic!()
        };
        assert_eq!(cases[0].conds.har, Some((1, 0xff)));
        assert_eq!(cases[0].conds.sar, Some((2, 0xff)));
        assert_eq!(cases[0].conds.mar, None);
    }

    #[test]
    fn ip_filter_value_normalized() {
        let src = "program p(<hdr.ipv4.dst, 10.0.0.0, 0xffff0000>) { DROP; }";
        let unit = parse(src).unwrap();
        assert_eq!(unit.programs[0].filters[0].value, 0x0a000000);
    }

    #[test]
    fn multiple_filters() {
        let src = "program p(<a, 1, 0xff>, <b, 2, 0xff>) { DROP; }";
        let unit = parse(src).unwrap();
        assert_eq!(unit.programs[0].filters.len(), 2);
    }

    #[test]
    fn nested_branch_parses() {
        let src = r#"
program p(<a, 1, 1>) {
    BRANCH:
    case(<sar, 0, 0xffffffff>) {
        BRANCH:
        case(<har, 1, 0xffffffff>) { REPORT; };
    };
}
"#;
        let unit = parse(src).unwrap();
        let PrimitiveKind::Branch { cases } = &unit.programs[0].body[0].kind else {
            panic!()
        };
        assert!(matches!(cases[0].body[0].kind, PrimitiveKind::Branch { .. }));
    }

    /// `depth` nested `BRANCH: case(…) {` blocks, one per line from line 2.
    fn nested(depth: usize) -> String {
        let open = "BRANCH: case(<sar, 0, 0xffffffff>) {\n".repeat(depth);
        let close = "};\n".repeat(depth);
        format!("program p(<a, 1, 1>) {{\n{open}DROP;\n{close}}}")
    }

    #[test]
    fn nesting_is_bounded_with_a_positioned_error() {
        let mut body = &parse(&nested(MAX_NESTING)).unwrap().programs[0].body;
        let mut depth = 0;
        while let PrimitiveKind::Branch { cases } = &body[0].kind {
            body = &cases[0].body;
            depth += 1;
        }
        assert_eq!(depth, MAX_NESTING);
        // The first `case` past the limit sits on line limit + 2, column 9.
        let err = parse(&nested(MAX_NESTING + 1)).unwrap_err();
        assert_eq!(
            err,
            LangError::parse(
                format!("case blocks nested deeper than {MAX_NESTING}"),
                MAX_NESTING as u32 + 2,
                9
            )
        );
        // What used to abort the process is an ordinary error.
        assert!(parse(&nested(20_000)).is_err());
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse("program p(<a, 1, 1>) { BOGUS; }").unwrap_err();
        assert!(err.to_string().contains("unknown primitive"));
        let err = parse("program p() { DROP; }").unwrap_err();
        assert!(err.to_string().contains("expected"));
    }

    #[test]
    fn branch_requires_cases() {
        assert!(parse("program p(<a, 1, 1>) { BRANCH: ; }").is_err());
    }

    #[test]
    fn duplicate_register_condition_rejected() {
        let src = "program p(<a,1,1>) { BRANCH: case(<sar,0,1>, <sar,1,1>) { DROP; }; }";
        let err = parse(src).unwrap_err();
        assert!(err.to_string().contains("duplicate condition"));
    }

    #[test]
    fn too_many_positional_conditions_rejected() {
        let src = "program p(<a,1,1>) { BRANCH: case(<0,1>, <1,1>, <2,1>, <3,1>) { DROP; }; }";
        assert!(parse(src).is_err());
    }

    #[test]
    fn case_literals_wider_than_32_bits_rejected_at_the_literal() {
        // Truncated to 32 bits, both would compare as `<1, 0xffffffff>`.
        let wide_value = "program p(<a,1,1>) { BRANCH: case(<har, 0x100000001, 0xffffffff>) { DROP; }; }";
        assert_eq!(
            parse(wide_value).unwrap_err(),
            LangError::parse("condition value 4294967297 exceeds 32 bits", 1, 41)
        );
        let wide_mask = "program p(<a,1,1>) { BRANCH: case(<1, 0x1ffffffff>) { DROP; }; }";
        assert_eq!(
            parse(wide_mask).unwrap_err(),
            LangError::parse("condition mask 8589934591 exceeds 32 bits", 1, 39)
        );
        let widest = "program p(<a,1,1>) { BRANCH: case(<sar, 0xffffffff, 0xffffffff>) { DROP; }; }";
        assert_eq!(parse(widest).unwrap().programs[0].body.len(), 1);
    }

    #[test]
    fn forward_port_range_checked() {
        assert!(parse("program p(<a,1,1>) { FORWARD(70000); }").is_err());
    }

    #[test]
    fn immediate_width_checked() {
        assert!(parse("program p(<a,1,1>) { LOADI(mar, 0x1ffffffff); }").is_err());
    }

    #[test]
    fn empty_input_needs_program() {
        assert!(parse("").is_err());
        assert!(parse("@ mem1 1024").is_err());
    }

    #[test]
    fn all_two_reg_ops_parse() {
        for op in ["ADD", "AND", "OR", "MAX", "MIN", "XOR", "MOVE", "SUB", "EQUAL", "SGT", "SLT"] {
            let src = format!("program p(<a,1,1>) {{ {op}(har, sar); }}");
            let unit = parse(&src).unwrap_or_else(|e| panic!("{op}: {e}"));
            assert_eq!(unit.programs[0].body.len(), 1);
        }
    }

    #[test]
    fn all_mem_ops_parse() {
        for op in ["MEMADD", "MEMSUB", "MEMAND", "MEMOR", "MEMREAD", "MEMWRITE", "MEMMAX"] {
            let src = format!("@ m 64\nprogram p(<a,1,1>) {{ {op}(m); }}");
            let unit = parse(&src).unwrap_or_else(|e| panic!("{op}: {e}"));
            assert_eq!(unit.programs[0].body[0].kind.memory(), Some("m"));
        }
    }
}
