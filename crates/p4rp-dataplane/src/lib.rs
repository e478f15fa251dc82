//! # p4rp-dataplane — the fixed P4runpro data plane (§4.1 of the paper)
//!
//! Installs the runtime-programmable data plane onto the [`rmt_sim`]
//! switch: the three PHV registers and control flags, the fixed parser,
//! the initialization block (per-parse-path filtering tables), 10 ingress
//! + 12 egress runtime programming blocks (RPBs) with their pre-installed
//!   atomic-operation catalogues and 65,536-bucket memories, and the
//!   recirculation block.
//!
//! After [`provision::provision`] the data plane never changes again:
//! every program deployment is entry/register traffic produced by the
//! `p4rp-compiler` crate and applied by the `p4rp-ctl` control plane.

mod atomic;
mod encode;
pub mod fields;
mod layout;
pub mod provision;

pub use atomic::{AluRROp, AtomicAction, Catalogue, MemOpKind, MemPair, RpbOp};
pub use encode::{
    encode_filter_entry, encode_recirc_entry, encode_rpb_entry, init, recirc_key_spec,
    rpb_key_spec, FilterEntrySpec, RpbEntrySpec,
};
pub use fields::P4rpFields;
pub use layout::*;
pub use provision::{provision, Dataplane};
