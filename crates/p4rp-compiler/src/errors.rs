//! Compiler errors.

use core::fmt;
use p4rp_lang::LangError;

/// Errors from the runtime compiler (§4.3).
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// Lexing / parsing / semantic check failures.
    Lang(Vec<LangError>),
    /// The translated AST is deeper than the logical RPB space
    /// (`M * (R+1)`).
    /// TooDeep.
    TooDeep { depth: usize, max: usize },
    /// A program needs more conditional-branch state than the 16-bit
    /// branch id can hold.
    /// BranchBitsExhausted.
    BranchBitsExhausted { needed: u32 },
    /// The allocation model is infeasible with current resource usage —
    /// the "allocation failure" outcome of §6.2.2/§6.2.3.
    /// AllocationFailed.
    AllocationFailed { reason: String },
    /// A field name could not be resolved against the provisioned parser.
    UnknownField(String),
    /// A memory identifier was used without an annotation.
    UnknownMemory(String),
    /// Not enough free entries in an initialization-block filter table.
    /// InitTableFull.
    InitTableFull { path: String },
    /// Program id space exhausted.
    ProgramIdsExhausted,
    /// A compiler invariant failed: a bug, reported instead of looped on.
    Internal(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Lang(errs) => {
                write!(f, "language errors:")?;
                for e in errs {
                    write!(f, "\n  {e}")?;
                }
                Ok(())
            }
            CompileError::TooDeep { depth, max } => {
                write!(f, "program depth {depth} exceeds logical RPB space {max}")
            }
            CompileError::BranchBitsExhausted { needed } => {
                write!(f, "program needs {needed} branch bits, only 16 available")
            }
            CompileError::AllocationFailed { reason } => {
                write!(f, "allocation failed: {reason}")
            }
            CompileError::UnknownField(name) => write!(f, "unknown field `{name}`"),
            CompileError::UnknownMemory(name) => write!(f, "unknown memory `{name}`"),
            CompileError::InitTableFull { path } => {
                write!(f, "initialization table for path {path} is full")
            }
            CompileError::ProgramIdsExhausted => write!(f, "no free program ids"),
            CompileError::Internal(what) => write!(f, "internal compiler error: {what}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<LangError> for CompileError {
    fn from(e: LangError) -> Self {
        CompileError::Lang(vec![e])
    }
}

impl From<Vec<LangError>> for CompileError {
    fn from(e: Vec<LangError>) -> Self {
        CompileError::Lang(e)
    }
}

/// CompileResult.
pub type CompileResult<T> = Result<T, CompileError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = CompileError::TooDeep { depth: 50, max: 44 };
        assert!(e.to_string().contains("50"));
        let e = CompileError::AllocationFailed { reason: "no memory".into() };
        assert!(e.to_string().contains("no memory"));
    }
}
