//! # traffic — load generation, trace synthesis, replay, and analysis
//!
//! The stand-in for the paper's traffic toolchain (Cisco TRex, tcpreplay,
//! libpcap, and the anonymized campus dataset — see DESIGN.md):
//!
//! * [`gen`] — seeded flow/packet synthesis (uniform and Zipf mixes);
//! * [`campus`] — the synthetic campus-afternoon trace with 4,096 flows
//!   and large-TCP-burst spikes, plus the NetCache workload transform;
//! * [`replay`] — timed injection with 50 ms bucket statistics and
//!   event-interleaved control (the §6.4 methodology);
//! * [`analysis`] — F1 score, imbalance, and smoothing helpers.

mod analysis;
mod campus;
pub mod gen;
pub mod replay;

pub use analysis::{f1_score, moving_average, F1};
pub use campus::{netcache_workload, synthesize, CampusParams, CampusTrace};
pub use gen::{frame_for, make_flows, netcache_frame, zipf_weights, Flow, FlowSampler};
pub use replay::{generate_streaming, BucketStats, Replay, TimedPacket};
