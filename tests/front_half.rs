//! Pins of the deploy front half: what `parse` and `lower` make of every
//! catalog family, and the exact diagnostic of malformed sources.
//!
//! * For each of the 15 families at two instance ids, a hash of the
//!   canonical print of the parsed unit and a hash of the lowered
//!   programs' `Debug` form. A rewrite of the lexer, parser or lowering
//!   that changes any field of the AST or of `ProgramIr` moves a hash.
//! * For malformed sources, the `Display` text (stage, `line:col`,
//!   message) of the error, covering every lex and parse error site.

use p4runpro::p4rp_compiler::ir::{lower, MemDecl};
use p4runpro::p4rp_lang::print_unit;
use p4runpro::p4rp_progs::{instance, Family, WorkloadParams};
use p4runpro::parse;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// The instance ids each family is pinned at: the first, and one whose
/// filter address uses all three varying octets.
const IDS: [usize; 2] = [0, 66_051];

fn hash_of(text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

/// `(printed, lowered)` text of one instance.
fn front_half(family: Family, id: usize) -> (String, String) {
    let unit = parse(&instance(family, id, WorkloadParams::default())).unwrap();
    let mems: Vec<MemDecl> = unit
        .annotations
        .iter()
        .map(|a| MemDecl {
            name: a.name.clone(),
            size: a.size as u32,
        })
        .collect();
    let lowered: Vec<_> = unit
        .programs
        .iter()
        .map(|p| lower(p, &mems).unwrap())
        .collect();
    (print_unit(&unit), format!("{lowered:?}"))
}

#[test]
fn every_family_parses_and_lowers_to_pinned_forms() {
    // (family, hash of the printed units, hash of the lowered programs),
    // each over both instance ids.
    let pins: [(&str, u64, u64); 15] = [
        ("cache", 17191496880247426503, 3210805818832109644),
        ("lb", 17745468067268881677, 4648296226239922483),
        ("hh", 8932019915383509347, 8682640063876739620),
        ("nc", 2498693385668651557, 11372194634447741922),
        ("dqacc", 1670600335806059694, 4635501590870900709),
        ("fw", 7643223786282285326, 7664150114262010773),
        ("l2", 8217116507688928950, 14943513678990199348),
        ("l3", 15626606193729840, 3122476688015447575),
        ("tun", 4730052940188327856, 8936239100916271155),
        ("calc", 9584807578465002192, 16194002669417702022),
        ("ecn", 938210675648339672, 9196067261559660947),
        ("cms", 11041445641586610683, 17406339900658329932),
        ("bf", 18288015828114586656, 3783541724830463013),
        ("sumax", 17308004418613222603, 6159980350785867436),
        ("hll", 4090349851482708241, 15100334090050618809),
    ];
    let mut found = Vec::new();
    for family in Family::ALL {
        let (mut printed, mut lowered) = (String::new(), String::new());
        for id in IDS {
            let (p, l) = front_half(family, id);
            printed += &p;
            lowered += &l;
        }
        found.push((family.name(), hash_of(&printed), hash_of(&lowered)));
    }
    assert_eq!(found, pins);
}

/// `depth` nested `BRANCH: case(…) {` blocks, one per line from line 2.
fn nested(depth: usize) -> String {
    let open = "BRANCH: case(<sar, 0, 0xffffffff>) {\n".repeat(depth);
    let close = "};\n".repeat(depth);
    format!("program p(<a, 1, 1>) {{\n{open}DROP;\n{close}}}")
}

#[test]
fn malformed_sources_fail_with_pinned_diagnostics() {
    let too_deep = nested(65);
    let cases: Vec<(&str, &str)> = vec![
        // Lexer.
        (
            "program p(<a, 1, 1>) { DROP; } /* open",
            "lex error at 1:32: unterminated block comment",
        ),
        (
            "program p(<a, 1, 1>) { DROP; ? }",
            "lex error at 1:30: unexpected character `?`",
        ),
        (
            "program p(<a, 1, 1>) { \u{e9}; }",
            "lex error at 1:24: unexpected character `\u{c3}`",
        ),
        (
            "program p(<hdr.ipv4.dst, 10.0.0, 0xff>) { DROP; }",
            "lex error at 1:26: malformed address `10.0.0`",
        ),
        (
            "program p(<hdr.ipv4.dst, 10.0.0.256, 0xff>) { DROP; }",
            "lex error at 1:26: malformed address `10.0.0.256`",
        ),
        (
            "program p(<hdr.ipv4.dst, 10..0.1, 0xff>) { DROP; }",
            "lex error at 1:26: malformed address `10..0.1`",
        ),
        (
            "program p(<a, 0xfg, 1>) { DROP; }",
            "lex error at 1:15: malformed integer `0xfg`",
        ),
        (
            "program p(<a, 0x, 1>) { DROP; }",
            "lex error at 1:15: malformed integer `0x`",
        ),
        (
            "program p(<a, 0x__, 1>) { DROP; }",
            "lex error at 1:15: malformed integer `0x__`",
        ),
        (
            "program p(<a, 0b102, 1>) { DROP; }",
            "lex error at 1:15: malformed integer `0b102`",
        ),
        (
            "program p(<a, 12abc, 1>) { DROP; }",
            "lex error at 1:15: malformed integer `12abc`",
        ),
        (
            "program p(<a, 18446744073709551616, 1>) { DROP; }",
            "lex error at 1:15: malformed integer `18446744073709551616`",
        ),
        // Parser: a token other than the one the grammar needs.
        (
            "program p(<a, 1, 1> { DROP; }",
            "parse error at 1:21: expected `)`, found `{`",
        ),
        (
            "program p(<a, 1, 1>) { DROP; } }",
            "parse error at 1:32: expected end of input, found `}`",
        ),
        (
            "program p(<a, 1, 1>) { DROP 5; }",
            "parse error at 1:29: expected `;`, found integer `5`",
        ),
        (
            "program p(<a, 1, 1>) 10.0.0.1",
            "parse error at 1:22: expected `{`, found address `10.0.0.1`",
        ),
        (
            "program p(<a, 1, 1>) { DROP;",
            "parse error at 1:29: expected `}`, found end of input",
        ),
        (
            "program (<a, 1, 1>) { DROP; }",
            "parse error at 1:9: expected identifier, found `(`",
        ),
        (
            "program p(<a, 1, 1>) { case }",
            "parse error at 1:24: expected identifier, found `case`",
        ),
        (
            "@ program",
            "parse error at 1:3: expected identifier, found `program`",
        ),
        (
            "@ m x\nprogram p(<a, 1, 1>) { DROP; }",
            "parse error at 1:5: expected value, found identifier `x`",
        ),
        (
            "program p(<a, 1, 1>) { BRANCH: case(<har, x, 1>) { DROP; }; }",
            "parse error at 1:43: expected value, found identifier `x`",
        ),
        // Parser: well-formed tokens, rejected by a rule.
        (
            "@ m 8",
            "parse error at 1:6: expected at least one `program`",
        ),
        (
            "program p(<a, 1, 1>) { BRANCH: ; }",
            "parse error at 1:24: BRANCH requires at least one case",
        ),
        (
            "program p(<a, 1, 1>) { LOADI(mar, 0x1ffffffff); }",
            "parse error at 1:24: immediate 8589934591 exceeds 32 bits",
        ),
        (
            "program p(<a, 1, 1>) {\n  FORWARD(70000); }",
            "parse error at 2:3: value 70000 exceeds 16 bits",
        ),
        (
            "program p(<a, 1, 1>) { MULTICAST(0); }",
            "parse error at 1:24: multicast group 0 is reserved",
        ),
        (
            "program p(<a, 1, 1>) { BOGUS; }",
            "parse error at 1:24: unknown primitive `BOGUS`",
        ),
        (
            "program p(<a, 1, 1>) { EXTRACT(hdr.x, foo); }",
            "parse error at 1:39: expected register (har/sar/mar), found `foo`",
        ),
        (
            "program p(<a, 1, 1>) { BRANCH: case(<har, 0x100000001, 0xffffffff>) { DROP; }; }",
            "parse error at 1:43: condition value 4294967297 exceeds 32 bits",
        ),
        (
            "program p(<a, 1, 1>) { BRANCH: case(<har, 1, 0x1ffffffff>) { DROP; }; }",
            "parse error at 1:46: condition mask 8589934591 exceeds 32 bits",
        ),
        (
            &too_deep,
            "parse error at 66:9: case blocks nested deeper than 64",
        ),
        (
            "program p(<a, 1, 1>) { BRANCH: case(<foo, 1, 1>) { DROP; }; }",
            "parse error at 1:38: expected register or value in condition, found `foo`",
        ),
        (
            "program p(<a, 1, 1>) { BRANCH: case(<0, 1>, <1, 1>, <2, 1>, <3, 1>) { DROP; }; }",
            "parse error at 1:61: too many positional conditions (max 3)",
        ),
        (
            "program p(<a, 1, 1>) { BRANCH: case(<sar, 0, 1>, <sar, 1, 1>) { DROP; }; }",
            "parse error at 1:50: duplicate condition on register `sar`",
        ),
    ];
    for (src, want) in cases {
        assert_eq!(parse(src).unwrap_err().to_string(), want, "{src}");
    }
}

#[test]
fn literal_spellings_the_lexer_accepts_are_pinned() {
    let src =
        "@ m 0X4_0\nprogram p(<hdr.ipv4.dst, 010.0.0.1, 0B1_1>) { LOADI(har, 1__0); MEMREAD(m); }";
    let printed = print_unit(&parse(src).unwrap());
    assert_eq!(printed, "@ m 64\n\nprogram p(<hdr.ipv4.dst, 167772161, 0x3>) {\n    LOADI(har, 10);\n    MEMREAD(m);\n}\n");
}
