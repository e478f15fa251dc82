//! Tokens of the P4runpro language.

/// A lexical token with its source position (1-based line/column). It
/// borrows identifiers from the source it was scanned from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Token<'s> {
    /// Kind.
    pub kind: TokenKind<'s>,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

/// Token kinds. Primitive names are ordinary identifiers at the lexical
/// level; the parser gives them meaning (matching how the paper's PLY-based
/// scanner works).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TokenKind<'s> {
    /// `program` keyword.
    KwProgram,
    /// `case` keyword.
    KwCase,
    /// An identifier, possibly dotted (`hdr.udp.dst_port`, `mem1`, `har`).
    Ident(&'s str),
    /// An integer literal (decimal, `0x…`, or `0b…`).
    Int(u64),
    /// An IPv4 address literal (`10.0.0.0`), normalized to its u32 value.
    IpAddr(u32),
    /// At.
    At,        // @
    /// LParen.
    LParen,    // (
    /// RParen.
    RParen,    // )
    /// LBrace.
    LBrace,    // {
    /// RBrace.
    RBrace,    // }
    /// Lt.
    Lt,        // <
    /// Gt.
    Gt,        // >
    /// Comma.
    Comma,     // ,
    /// Semi.
    Semi,      // ;
    /// Colon.
    Colon,     // :
    /// End of input.
    Eof,
}

impl TokenKind<'_> {
    /// Short human-readable description for diagnostics.
    pub(crate) fn describe(&self) -> String {
        match self {
            TokenKind::KwProgram => "`program`".into(),
            TokenKind::KwCase => "`case`".into(),
            TokenKind::Ident(s) => format!("identifier `{s}`"),
            TokenKind::Int(v) => format!("integer `{v}`"),
            TokenKind::IpAddr(v) => {
                let b = v.to_be_bytes();
                format!("address `{}.{}.{}.{}`", b[0], b[1], b[2], b[3])
            }
            TokenKind::At => "`@`".into(),
            TokenKind::LParen => "`(`".into(),
            TokenKind::RParen => "`)`".into(),
            TokenKind::LBrace => "`{`".into(),
            TokenKind::RBrace => "`}`".into(),
            TokenKind::Lt => "`<`".into(),
            TokenKind::Gt => "`>`".into(),
            TokenKind::Comma => "`,`".into(),
            TokenKind::Semi => "`;`".into(),
            TokenKind::Colon => "`:`".into(),
            TokenKind::Eof => "end of input".into(),
        }
    }
}
