//! # p4rp-ctl — the P4runpro control plane (§3.1)
//!
//! * [`resman`] — dynamic resource tracking: per-RPB free-memory partition
//!   lists (contiguous; the allocator borrows them and places memory, resman
//!   commits its regions), table-entry budgets for RPBs / initialization
//!   paths / recirculation block, and the lock-until-reset discipline of
//!   Figure 6;
//! * [`controller`] — the deploy / revoke / monitor lifecycle, tying
//!   together the language front end, the runtime compiler, the resource
//!   manager, and the `bfrt`-calibrated control channel;
//! * [`telemetry`] — lifecycle spans, resource gauges, and the unified
//!   [`TelemetryReport`] joining control-side and packet-side series
//!   (rendered by `status --metrics`, documented in `docs/TELEMETRY.md`);
//! * [`server`] — the persistent multi-client runtime-control server
//!   (line-framed JSON over TCP, one thread per session running its own
//!   requests under one controller lock, explicit refusals;
//!   `docs/SERVER.md`);
//! * [`Cli`] — the runtime CLI. The server and the CLI are two front ends
//!   over one command model: the commands they share parse into one `Op`,
//!   run through one `execute` and print through one renderer, in-process
//!   or over `client <addr> <line>`.

pub mod chaos;
mod cli;
mod command;
mod controller;
mod metrics;
mod resman;
pub mod server;
pub mod telemetry;

pub use chaos::{ChaosConfig, ChaosOutcome};
pub use cli::Cli;
pub use controller::{
    AuditReport, Controller, CtlError, CtlResult, DeployReport, InstalledProgram, ReconcileReport,
    RevokeReport,
};
pub use metrics::{http_response, parse_prometheus, render_prometheus, render_top, Sample};
pub use server::{serve, Client, ServerConfig};
pub use telemetry::{
    FaultStats, LifecycleSpan, ProgramUsage, ResourceGauges, SeriesPoint, SeriesRing, ServerStats,
    SloStatus, SloThresholds, TelemetryReport, SCHEMA_VERSION, SPAN_HISTORY,
};
