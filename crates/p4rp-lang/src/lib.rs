//! # p4rp-lang — the P4runpro runtime programming language
//!
//! The language of §3.2 / Appendix B of the paper: memory annotations,
//! `program` declarations with ternary traffic filters, and the primitive /
//! pseudo-primitive set of Table 3, including `BRANCH` with `case` blocks.
//!
//! * [`lexer`] / [`parser`] — hand-written scanner and recursive-descent
//!   parser for the Figure 15 grammar (the prototype uses Python Lex-Yacc);
//! * [`ast`] — the typed AST, with the register set (`har`/`sar`/`mar`) and
//!   classification helpers the compiler relies on (pseudo, forwarding,
//!   memory-access);
//! * [`typecheck`] — semantic checks: declared memories, power-of-two
//!   sizes, known fields, well-formed branches;
//! * [`pretty`] — canonical printer (round-trips through the parser);
//! * [`loc`] — the Table 1 lines-of-code counting rules.

mod ast;
mod error;
mod lexer;
mod loc;
mod parser;
mod pretty;
mod token;
mod typecheck;

pub use ast::{
    Annotation, Case, Filter, Primitive, PrimitiveKind, ProgramDecl, Reg, RegConds, SourceUnit,
};
pub use error::LangError;
pub use loc::{count_loc, count_loc_excluding_elastic};
pub use parser::parse;
pub use pretty::print_unit;
pub use typecheck::{check, CheckContext};
