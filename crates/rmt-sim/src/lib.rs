//! # rmt-sim — a resource-faithful RMT switch ASIC simulator
//!
//! This crate is the hardware substitute for the Intel Tofino switch the
//! P4runpro paper prototypes on (see `DESIGN.md` at the repository root for
//! the substitution argument). It models a Reconfigurable Match-Action
//! Table pipeline at the level the paper's claims live at:
//!
//! * a programmable **parser** state machine producing the parse-path
//!   bitmap (§4.1.1 of the paper), and a **deparser** that rebuilds headers
//!   from the PHV so internal headers can be pushed and stripped
//!   ([`parser`]);
//! * **match-action stages** with exact/ternary/LPM/range tables, priority
//!   resolution, and per-entry atomic updates ([`table`], [`pipeline`]);
//! * **VLIW actions** with parallel-issue semantics, per-entry action data,
//!   fused hash+mask calls ([`action`]);
//! * **stateful ALUs** with Tofino-style predicated read-modify-write on
//!   per-stage register arrays — one access per packet per stage, no
//!   cross-stage memory ([`salu`]);
//! * **hash units**: the real CRC16/CRC32 family the prototype uses,
//!   validated against standard check values ([`hash`]);
//! * a **traffic manager** with forwarding verdicts and an analytic
//!   recirculation bandwidth/latency model ([`tm`]);
//! * the assembled **switch** with ports, counters, the recirculation loop,
//!   and atomic control operations ([`switch`]), plus a **control channel**
//!   with a `bfrt_grpc`-calibrated latency model ([`control`]);
//! * **resource accounting** (PHV/hash/SRAM/TCAM/VLIW/SALU/LTID — the
//!   P4 Insight stand-in) and a **power/latency estimator** ([`resources`],
//!   [`power`]);
//! * a deterministic **simulated clock** ([`clock`]).
//!
//! The simulator is synchronous and single-threaded by design: packet
//! processing is CPU-bound, so the async idiom buys nothing here (cf. the
//! tokio guide's own advice); determinism is what the experiments need.
//!
//! ## Quick example
//!
//! ```
//! use rmt_sim::prelude::*;
//!
//! // Declare fields, a one-header parser, and a forwarding table.
//! let mut ft = FieldTable::new();
//! let tag = ft.register("hdr.demo.tag", 8).unwrap();
//! let pad = ft.register("hdr.demo.pad", 8).unwrap();
//! let valid = ft.register("hdr.demo.$valid", 1).unwrap();
//! let intr = ft.intrinsics();
//!
//! let mut parser = Parser::new();
//! let h = parser.add_header(HeaderDef {
//!     name: "demo".into(),
//!     len_bytes: 2,
//!     fields: vec![
//!         HeaderField { field: tag, bit_offset: 0, bits: 8 },
//!         HeaderField { field: pad, bit_offset: 8, bits: 8 },
//!     ],
//!     presence: valid,
//!     checksum_at: None,
//!     bitmap_bit: 0,
//! });
//! let s = parser.add_state(ParseState {
//!     header: h,
//!     select: None,
//!     transitions: vec![],
//!     default: NextState::Accept,
//! });
//! parser.set_start(s);
//!
//! let mut ingress = Pipeline::new(Gress::Ingress, 1, StageLimits::default());
//! let mut t = Table::new(
//!     "fwd",
//!     KeySpec::new(vec![(tag, MatchKind::Exact)]),
//!     vec![ActionDef {
//!         name: "to_port_1".into(),
//!         ops: vec![
//!             VliwOp::set(intr.egress_spec, Operand::Const(1)),
//!             VliwOp::set(intr.egress_valid, Operand::Const(1)),
//!         ],
//!         hash: None,
//!         salu: None,
//!     }],
//!     16,
//! );
//! t.set_default_action(0, vec![]);
//! ingress.stage_mut(0).unwrap().add_table(t);
//! let egress = Pipeline::new(Gress::Egress, 1, StageLimits::default());
//!
//! let mut sw = Switch::assemble(SwitchConfig::default(), ft, parser, ingress, egress);
//! sw.provision().unwrap();
//! let out = sw.process_frame(0, &[0x07, 0x00]).unwrap();
//! assert_eq!(out.emitted[0].0, 1);
//! ```

pub mod action;
pub mod clock;
pub mod control;
pub mod error;
pub mod fault;
pub mod fxhash;
pub mod hash;
pub mod parallel;
pub mod parser;
pub mod phv;
pub mod pipeline;
pub mod power;
pub mod resources;
pub mod salu;
mod snapshot;
pub mod switch;
pub mod table;
pub mod telemetry;
pub mod tm;
pub mod trace;

/// Convenient glob-import surface for downstream crates.
pub mod prelude {
    pub use crate::action::{ActionDef, AluFunc, HashCall, HashInput, Operand, SaluCall, VliwOp};
    pub use crate::clock::{Bandwidth, Nanos, SimClock};
    pub use crate::control::{BatchOutcome, ControlChannel, LatencyModel};
    pub use crate::error::{SimError, SimResult};
    pub use crate::fault::{FaultKind, FaultPlan, FaultTrigger, OpKind};
    pub use crate::hash::CrcSpec;
    pub use crate::parallel::{WorkerPool, WorkerStats};
    pub use crate::parser::{HeaderDef, HeaderField, HeaderTypeId, NextState, ParseState, Parser};
    pub use crate::phv::{FieldId, FieldTable, Phv};
    pub use crate::pipeline::{Gress, Pipeline, Stage, StageLimits};
    pub use crate::power::{PowerEstimate, PowerModel};
    pub use crate::resources::ChipReport;
    pub use crate::salu::{RegArray, SaluCond, SaluExpr, SaluInstr, SaluOutput};
    pub use crate::snapshot::SnapshotPublisher;
    pub use crate::switch::{
        ArrayRef, ControlOp, OpResult, PortCounters, ProcessOutcome, Switch, SwitchConfig,
        TableIndexStats, TableRef,
    };
    pub use crate::table::{
        EntryHandle, KeySpec, MatchKind, MatchValue, Table, TableEntry,
    };
    pub use crate::telemetry::{Counter, Histogram, MetricsRecorder, StageMetrics, TmMetrics};
    pub use crate::tm::{RecircModel, TmDecision, Verdict};
    pub use crate::trace::{
        LifecycleKind, PacketJourney, TraceBuffer, TraceConfig, TraceEvent, TraceEventKind,
        TraceFilter, TraceStats,
    };
}
