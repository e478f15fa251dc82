//! # baselines — the comparison systems of §6
//!
//! * [`activermt`] — ActiveRMT's memory-centric allocator (fair worst-fit
//!   with elastic remapping), capsule update-delay model, and data plane
//!   resource profile;
//! * [`flymon`] — FlyMon's data plane resource profile (CMU groups,
//!   measurement-only scope);
//! * [`conventional`] — the classic P4 workflow's deployment timeline and
//!   native fixed-function equivalents of the case-study programs.

pub mod activermt;
mod conventional;
pub mod flymon;

pub use activermt::{ActiveDemand, ActiveReport, ActiveRmtAllocator};
pub use conventional::{native_forwarder, ConventionalTiming, NativeCache, NativeHh, NativeLb};
