//! The P4runpro scanner.
//!
//! Hand-written (the prototype uses Python Lex-Yacc; a recursive scanner is
//! the idiomatic Rust equivalent). Handles `//` line comments, `/* … */`
//! block comments, decimal/hex/binary integers, IPv4 address literals, and
//! dotted identifiers.

use crate::error::LangError;
use crate::token::{Token, TokenKind};

/// Tokenize a P4runpro source string.
pub(crate) fn lex(src: &str) -> Result<Vec<Token>, LangError> {
    let mut tokens = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut col: u32 = 1;

    macro_rules! bump {
        () => {{
            if bytes[i] == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            i += 1;
        }};
    }

    while i < bytes.len() {
        let c = bytes[i];
        let (tline, tcol) = (line, col);
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => bump!(),
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    bump!();
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                bump!();
                bump!();
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(LangError::lex("unterminated block comment", tline, tcol));
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        bump!();
                        bump!();
                        break;
                    }
                    bump!();
                }
            }
            b'@' => {
                tokens.push(Token { kind: TokenKind::At, line: tline, col: tcol });
                bump!();
            }
            b'(' => {
                tokens.push(Token { kind: TokenKind::LParen, line: tline, col: tcol });
                bump!();
            }
            b')' => {
                tokens.push(Token { kind: TokenKind::RParen, line: tline, col: tcol });
                bump!();
            }
            b'{' => {
                tokens.push(Token { kind: TokenKind::LBrace, line: tline, col: tcol });
                bump!();
            }
            b'}' => {
                tokens.push(Token { kind: TokenKind::RBrace, line: tline, col: tcol });
                bump!();
            }
            b'<' => {
                tokens.push(Token { kind: TokenKind::Lt, line: tline, col: tcol });
                bump!();
            }
            b'>' => {
                tokens.push(Token { kind: TokenKind::Gt, line: tline, col: tcol });
                bump!();
            }
            b',' => {
                tokens.push(Token { kind: TokenKind::Comma, line: tline, col: tcol });
                bump!();
            }
            b';' => {
                tokens.push(Token { kind: TokenKind::Semi, line: tline, col: tcol });
                bump!();
            }
            b':' => {
                tokens.push(Token { kind: TokenKind::Colon, line: tline, col: tcol });
                bump!();
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'.' || bytes[i] == b'_')
                {
                    bump!();
                }
                let text = &src[start..i];
                tokens.push(Token { kind: number_or_addr(text, tline, tcol)?, line: tline, col: tcol });
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric()
                        || bytes[i] == b'.'
                        || bytes[i] == b'_'
                        || bytes[i] == b'$')
                {
                    bump!();
                }
                let text = &src[start..i];
                let kind = match text {
                    "program" => TokenKind::KwProgram,
                    "case" => TokenKind::KwCase,
                    _ => TokenKind::Ident(text.to_string()),
                };
                tokens.push(Token { kind, line: tline, col: tcol });
            }
            other => {
                return Err(LangError::lex(
                    format!("unexpected character `{}`", other as char),
                    tline,
                    tcol,
                ));
            }
        }
    }
    tokens.push(Token { kind: TokenKind::Eof, line, col });
    Ok(tokens)
}

/// Classify a digit-initial token: IPv4 address (contains dots), or an
/// integer in decimal / `0x` / `0b` notation.
fn number_or_addr(text: &str, line: u32, col: u32) -> Result<TokenKind, LangError> {
    if text.contains('.') {
        let parts: Vec<&str> = text.split('.').collect();
        if parts.len() != 4 {
            return Err(LangError::lex(format!("malformed address `{text}`"), line, col));
        }
        let mut v: u32 = 0;
        for p in parts {
            let octet: u32 = p
                .parse()
                .ok()
                .filter(|&o| o <= 255)
                .ok_or_else(|| LangError::lex(format!("malformed address `{text}`"), line, col))?;
            v = (v << 8) | octet;
        }
        return Ok(TokenKind::IpAddr(v));
    }
    let lower = text.to_ascii_lowercase();
    
    let (digits, radix) = if let Some(rest) = lower.strip_prefix("0x") {
        (rest, 16)
    } else if let Some(rest) = lower.strip_prefix("0b") {
        (rest, 2)
    } else {
        (lower.as_str(), 10)
    };
    let cleaned: String = digits.replace('_', "");
    u64::from_str_radix(&cleaned, radix)
        .map(TokenKind::Int)
        .map_err(|_| LangError::lex(format!("malformed integer `{text}`"), line, col))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn punctuation_and_keywords() {
        assert_eq!(
            kinds("program p ( ) { } ;"),
            vec![
                TokenKind::KwProgram,
                TokenKind::Ident("p".into()),
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
            vec![TokenKind::Ident("hdr.udp.dst_port".into()), TokenKind::Eof]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("a // line\n b /* block\n over lines */ c"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Ident("b".into()),
                TokenKind::Ident("c".into()),
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
        assert!(toks.iter().any(|t| t.kind == TokenKind::Ident("EXTRACT".into())));
        assert!(toks.iter().any(|t| t.kind == TokenKind::Int(7777)));
        assert!(toks.iter().any(|t| t.kind == TokenKind::Int(0xffff)));
    }
}
