//! The P4runpro scanner.
//!
//! Hand-written (the prototype uses Python Lex-Yacc; a recursive scanner is
//! the idiomatic Rust equivalent). Handles `//` line comments, `/* … */`
//! block comments, decimal/hex/binary integers, IPv4 address literals, and
//! dotted identifiers.
//!
//! Tokens borrow the source: an identifier is a `&str` slice of it, and
//! numbers and addresses are converted where they stand, so scanning
//! allocates only the token vector (and a message on error).

use crate::error::LangError;
use crate::token::{Token, TokenKind};

/// Tokenize a P4runpro source string.
pub(crate) fn lex(src: &str) -> Result<Vec<Token<'_>>, LangError> {
    // Catalog sources run at about four bytes a token: one allocation
    // for the common case, amortized growth past it.
    let mut tokens = Vec::with_capacity(src.len() / 4 + 1);
    let bytes = src.as_bytes();
    let mut i = 0usize;
    // Positions are 1-based; a column counts bytes from the line's start.
    let mut line: u32 = 1;
    let mut line_start = 0usize;

    while i < bytes.len() {
        let (tline, tcol) = (line, (i - line_start + 1) as u32);
        // One-byte punctuation: step past it and name it.
        macro_rules! punct {
            ($kind:ident) => {{
                i += 1;
                TokenKind::$kind
            }};
        }
        let kind = match bytes[i] {
            b'\n' => {
                i += 1;
                line += 1;
                line_start = i;
                continue;
            }
            b' ' | b'\t' | b'\r' => {
                i = run(bytes, i, |b| matches!(b, b' ' | b'\t' | b'\r'));
                continue;
            }
            b'@' => punct!(At),
            b'(' => punct!(LParen),
            b')' => punct!(RParen),
            b'{' => punct!(LBrace),
            b'}' => punct!(RBrace),
            b'<' => punct!(Lt),
            b'>' => punct!(Gt),
            b',' => punct!(Comma),
            b';' => punct!(Semi),
            b':' => punct!(Colon),
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                i = run(bytes, i, |b| b != b'\n');
                continue;
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let Some(len) = src[i + 2..].find("*/") else {
                    return Err(LangError::lex("unterminated block comment", tline, tcol));
                };
                let end = i + 2 + len + 2;
                for (at, _) in bytes[i..end].iter().enumerate().filter(|(_, &b)| b == b'\n') {
                    line += 1;
                    line_start = i + at + 1;
                }
                i = end;
                continue;
            }
            b'0'..=b'9' => {
                let start = i;
                i = run(bytes, i, |b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_');
                number_or_addr(&src[start..i], tline, tcol)?
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                i = run(bytes, i, |b| {
                    b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'$'
                });
                match &src[start..i] {
                    "program" => TokenKind::KwProgram,
                    "case" => TokenKind::KwCase,
                    text => TokenKind::Ident(text),
                }
            }
            other => {
                return Err(LangError::lex(
                    format!("unexpected character `{}`", other as char),
                    tline,
                    tcol,
                ));
            }
        };
        tokens.push(Token { kind, line: tline, col: tcol });
    }
    let col = (bytes.len() - line_start + 1) as u32;
    tokens.push(Token { kind: TokenKind::Eof, line, col });
    Ok(tokens)
}

/// The end of the run of bytes from `from` on that are in `class`.
fn run(bytes: &[u8], from: usize, class: impl Fn(u8) -> bool) -> usize {
    bytes[from..].iter().position(|&b| !class(b)).map_or(bytes.len(), |n| from + n)
}

/// Classify a digit-initial token: IPv4 address (contains dots), or an
/// integer in decimal / `0x` / `0b` notation (either case, `_` separators
/// anywhere after the prefix).
fn number_or_addr(text: &str, line: u32, col: u32) -> Result<TokenKind<'_>, LangError> {
    if text.contains('.') {
        let malformed = || LangError::lex(format!("malformed address `{text}`"), line, col);
        let mut v: u32 = 0;
        let mut parts = 0;
        for p in text.split('.') {
            parts += 1;
            let octet: u32 = p.parse().ok().filter(|&o| o <= 255).ok_or_else(malformed)?;
            v = (v << 8) | octet;
        }
        return if parts == 4 { Ok(TokenKind::IpAddr(v)) } else { Err(malformed()) };
    }
    let malformed = || LangError::lex(format!("malformed integer `{text}`"), line, col);
    let (digits, radix) = match text.as_bytes() {
        [b'0', b'x' | b'X', rest @ ..] => (rest, 16),
        [b'0', b'b' | b'B', rest @ ..] => (rest, 2),
        all => (all, 10),
    };
    let mut digits = digits.iter().filter(|&&d| d != b'_').peekable();
    if digits.peek().is_none() {
        return Err(malformed());
    }
    digits
        .try_fold(0u64, |v, &d| {
            let digit = char::from(d).to_digit(radix)?;
            v.checked_mul(u64::from(radix))?.checked_add(u64::from(digit))
        })
        .map(TokenKind::Int)
        .ok_or_else(malformed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn punctuation_and_keywords() {
        assert_eq!(
            kinds("program p ( ) { } ;"),
            vec![
                TokenKind::KwProgram,
                TokenKind::Ident("p"),
                TokenKind::LParen,
                TokenKind::RParen,
                TokenKind::LBrace,
                TokenKind::RBrace,
                TokenKind::Semi,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn integers_in_all_bases() {
        assert_eq!(
            kinds("42 0xff 0b1101 1_000"),
            vec![
                TokenKind::Int(42),
                TokenKind::Int(255),
                TokenKind::Int(13),
                TokenKind::Int(1000),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn ip_addresses() {
        assert_eq!(kinds("10.0.0.0"), vec![TokenKind::IpAddr(0x0a000000), TokenKind::Eof]);
        assert_eq!(
            kinds("255.255.0.1"),
            vec![TokenKind::IpAddr(0xffff0001), TokenKind::Eof]
        );
        assert!(lex("10.0.0").is_err());
        assert!(lex("10.0.0.999").is_err());
    }

    #[test]
    fn dotted_identifiers() {
        assert_eq!(
            kinds("hdr.udp.dst_port"),
            vec![TokenKind::Ident("hdr.udp.dst_port"), TokenKind::Eof]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("a // line\n b /* block\n over lines */ c"),
            vec![
                TokenKind::Ident("a"),
                TokenKind::Ident("b"),
                TokenKind::Ident("c"),
                TokenKind::Eof,
            ]
        );
        assert!(lex("/* never closed").is_err());
    }

    #[test]
    fn positions_track_lines() {
        let toks = lex("a\n  b").unwrap();
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn unexpected_character_reports_position() {
        let err = lex("a ? b").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains('?'), "{msg}");
        assert!(msg.contains("1:3"), "{msg}");
    }

    #[test]
    fn figure2_snippet_lexes() {
        let src = r#"
            @ mem1 1024
            program cache(
                <hdr.udp.dst_port, 7777, 0xffff>) {
                EXTRACT(hdr.nc.op, har); //get opcode
            }
        "#;
        let toks = lex(src).unwrap();
        assert!(toks.iter().any(|t| t.kind == TokenKind::At));
        assert!(toks.iter().any(|t| t.kind == TokenKind::Ident("EXTRACT")));
        assert!(toks.iter().any(|t| t.kind == TokenKind::Int(7777)));
        assert!(toks.iter().any(|t| t.kind == TokenKind::Int(0xffff)));
    }
}
