//! Language-level errors and diagnostics.

use core::fmt;

/// An error from the lexer, parser, or type checker, carrying a 1-based
/// source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LangError {
    /// Stage.
    pub stage: Stage,
    /// Message.
    pub message: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
/// Stage.
pub enum Stage {
    /// Lex.
    Lex,
    /// Parse.
    Parse,
    /// Check.
    Check,
}

impl LangError {
    /// Lex.
    pub(crate) fn lex(message: impl Into<String>, line: u32, col: u32) -> LangError {
        LangError { stage: Stage::Lex, message: message.into(), line, col }
    }

    /// Extract the owned representation from a checked view.
    pub fn parse(message: impl Into<String>, line: u32, col: u32) -> LangError {
        LangError { stage: Stage::Parse, message: message.into(), line, col }
    }

    /// Check.
    pub fn check(message: impl Into<String>, line: u32, col: u32) -> LangError {
        LangError { stage: Stage::Check, message: message.into(), line, col }
    }
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stage = match self.stage {
            Stage::Lex => "lex",
            Stage::Parse => "parse",
            Stage::Check => "check",
        };
        write!(f, "{stage} error at {}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for LangError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_stage_and_position() {
        let e = LangError::parse("expected `;`", 7, 12);
        assert_eq!(e.to_string(), "parse error at 7:12: expected `;`");
    }
}
