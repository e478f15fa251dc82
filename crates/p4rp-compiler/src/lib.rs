//! # p4rp-compiler — the P4runpro runtime compiler (§4.3)
//!
//! Takes P4runpro source (via [`p4rp_lang`]) through:
//!
//! 1. [`ir`] — lowering: pseudo-primitive expansion (Figure 14),
//!    address-translation insertion, branch-bit assignment, depth
//!    flattening with cross-branch memory alignment (Figure 5);
//! 2. [`alloc`] — the §4.3 constraint model, solved by exact
//!    branch-and-bound under any of the four §6.2.4 objectives;
//! 3. [`entrygen`] — concrete table entries for the RPBs, the
//!    initialization block, and the recirculation block;
//! 4. [`consistency`] — the Figure 6 batch ordering that keeps every
//!    intermediate update state invisible to traffic.

pub mod alloc;
pub mod consistency;
pub mod entrygen;
pub mod errors;
pub mod ir;

pub use alloc::allocate;
pub use errors::CompileError;
pub use ir::{lower, IrOp, MemDecl, PlacedOp, ProgramIr};
