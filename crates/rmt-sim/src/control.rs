//! The control channel: batched control operations with a calibrated
//! latency model.
//!
//! The paper drives its Tofino through `bfrt_grpc`; update delay (Table 1)
//! is dominated by per-entry write RPCs plus per-batch overhead. The
//! [`ControlChannel`] reproduces that cost structure against the simulated
//! clock while applying each operation atomically to the switch, so the
//! consistency experiments can interleave packets between operations of a
//! batch.

use crate::clock::{Nanos, SimClock};
use crate::error::{SimError, SimResult};
use crate::fault::{FaultKind, FaultPlan};
use crate::snapshot::{AppliedOp, SnapshotPublisher};
use crate::switch::{ControlOp, OpResult, Switch};
use crate::telemetry::Histogram;

/// Per-operation latency model, calibrated against the prototype's
/// `bfrt_grpc` measurements (see EXPERIMENTS.md, Table 1).
#[derive(Debug, Clone, Copy)]
pub struct LatencyModel {
    /// Per insert.
    pub per_insert: Nanos,
    /// Per delete.
    pub per_delete: Nanos,
    /// Per reg write.
    pub per_reg_write: Nanos,
    /// Per reg read.
    pub per_reg_read: Nanos,
    /// Fixed overhead per batch (RPC setup, session commit).
    pub per_batch: Nanos,
    /// Marginal per-op costs on the vectored path.
    pub vectored: VectoredModel,
    /// The channel's mode. Off (the default, the paper-calibrated model):
    /// every op is its own write RPC billed at the per-op costs above. On:
    /// a batch ships as one bulk RPC and each op is billed its
    /// [`VectoredModel`] share. Callers shipping a multi-batch plan read
    /// this to decide whether the plan goes out as one RPC or one per batch.
    pub bulk: bool,
}

/// Marginal per-operation costs on the *vectored* path: the whole batch
/// ships as one bulk RPC (the `bfrt_grpc` table-operation vector RBFRT
/// exploits), so each operation pays only its share of serialization and
/// driver work instead of a full RPC round trip. The per-batch overhead
/// still applies once.
#[derive(Debug, Clone, Copy)]
pub struct VectoredModel {
    /// Per insert.
    pub per_insert: Nanos,
    /// Per delete.
    pub per_delete: Nanos,
    /// Per reg write.
    pub per_reg_write: Nanos,
    /// Per reg read.
    pub per_reg_read: Nanos,
}

impl Default for VectoredModel {
    fn default() -> Self {
        VectoredModel {
            per_insert: Nanos::from_micros(30),
            per_delete: Nanos::from_micros(20),
            per_reg_write: Nanos::from_micros(5),
            per_reg_read: Nanos::from_micros(5),
        }
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            per_insert: Nanos::from_micros(330),
            per_delete: Nanos::from_micros(250),
            per_reg_write: Nanos::from_micros(25),
            per_reg_read: Nanos::from_micros(25),
            per_batch: Nanos::from_micros(600),
            vectored: VectoredModel::default(),
            bulk: false,
        }
    }
}

impl LatencyModel {
    /// Cost of one op under the channel's mode.
    pub(crate) fn cost_of(&self, op: &ControlOp) -> Nanos {
        let (insert, delete, reg_write, reg_read) = if self.bulk {
            let v = &self.vectored;
            (v.per_insert, v.per_delete, v.per_reg_write, v.per_reg_read)
        } else {
            (self.per_insert, self.per_delete, self.per_reg_write, self.per_reg_read)
        };
        match op {
            ControlOp::InsertEntry { .. } => insert,
            ControlOp::DeleteEntry { .. } => delete,
            ControlOp::WriteReg { .. } => reg_write,
            ControlOp::ReadReg { .. } | ControlOp::ReadRegRange { .. } => reg_read,
            // A range reset is a DMA-style bulk operation billed as one
            // register write regardless of length.
            ControlOp::ResetRegRange { .. } => reg_write,
        }
    }
}

/// What a timed-out batch RPC costs before the channel gives up — the
/// client-side deadline, charged to the simulated clock so retry/backoff
/// shows up in update-delay telemetry.
pub(crate) const BATCH_TIMEOUT_COST: Nanos = Nanos(100_000_000);

/// The outcome of a batch: the results of the *applied prefix*, the
/// modeled latency, and the error that stopped the batch early (if any).
/// A fault does not discard the prefix's results, so a transactional
/// caller knows exactly what to undo.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Results of the ops that applied, in order.
    pub results: Vec<OpResult>,
    /// Modeled latency of the (possibly truncated) batch.
    pub cost: Nanos,
    /// Why the batch stopped before applying every op; `None` = complete.
    pub error: Option<SimError>,
}

impl BatchOutcome {
    /// Collapse to the fail-stop result shape, discarding the prefix.
    pub fn into_result(self) -> SimResult<(Vec<OpResult>, Nanos)> {
        match self.error {
            Some(e) => Err(e),
            None => Ok((self.results, self.cost)),
        }
    }
}

/// A control session against one switch.
#[derive(Debug, Clone)]
pub struct ControlChannel {
    /// Model.
    pub model: LatencyModel,
    /// Clock.
    pub clock: SimClock,
    /// Latency histogram over every *mutating* operation applied through
    /// this channel (inserts, deletes, register writes, range resets), in
    /// nanoseconds. Always on: the control path is cold, so the histogram
    /// update is free compared to the modeled RPC itself.
    pub write_latency: Histogram,
    /// Deterministic fault schedule. The default (disarmed) plan never
    /// fires and costs two branch-on-empty checks per batch.
    pub fault: FaultPlan,
    connected: bool,
    /// Snapshot publication for parallel data-plane workers (see
    /// [`crate::snapshot`]). `None` (the default) keeps every batch on a
    /// single branch-not-taken — the same zero-overhead discipline as the
    /// disabled flight recorder.
    publisher: Option<SnapshotPublisher>,
}

impl Default for ControlChannel {
    fn default() -> Self {
        ControlChannel::new(LatencyModel::default())
    }
}

impl ControlChannel {
    /// Construct with defaults appropriate to the type.
    pub fn new(model: LatencyModel) -> ControlChannel {
        ControlChannel {
            model,
            clock: SimClock::new(),
            // Geometric 10 µs … 20.5 ms edges bracket the calibrated
            // per-op costs (25 µs register writes, 330 µs inserts).
            write_latency: Histogram::exponential(10_000, 2, 12),
            fault: FaultPlan::none(),
            connected: true,
            publisher: None,
        }
    }

    /// Start publishing every applied batch as an atomic snapshot delta
    /// (idempotent). Returns the publisher so callers can
    /// [`subscribe`](SnapshotPublisher::subscribe) worker readers.
    pub fn enable_snapshots(&mut self) -> &mut SnapshotPublisher {
        self.publisher.get_or_insert_with(SnapshotPublisher::new)
    }

    /// The latest published snapshot generation; 0 when publication is
    /// disabled or nothing has been published yet.
    pub fn snapshot_generation(&self) -> u64 {
        self.publisher.as_ref().map_or(0, |p| p.generation())
    }

    /// The channel can reach the device. `false` after a
    /// [`FaultKind::ChannelDrop`] until [`reconnect`](Self::reconnect).
    pub fn is_connected(&self) -> bool {
        self.connected
    }

    /// Re-establish a dropped channel (models re-opening the gRPC
    /// session).
    pub fn reconnect(&mut self) {
        self.connected = true;
    }

    /// Apply a batch of operations in order as one RPC, advancing the
    /// simulated clock by the cost the channel's mode
    /// ([`LatencyModel::bulk`]) bills for it. Consults the armed
    /// [`FaultPlan`].
    ///
    /// Fail-stop semantics: the batch aborts at the first failing
    /// operation. Everything already applied stays applied — exactly the
    /// partial-state hazard the paper's consistent-update ordering is
    /// designed to make harmless — and the outcome keeps the applied
    /// prefix's results.
    pub fn apply_batch(&mut self, sw: &mut Switch, ops: &[ControlOp]) -> BatchOutcome {
        let start = self.clock.now();
        // A dropped channel fails the RPC client-side: the device never
        // sees the batch, and no time is modeled (the failure is
        // immediate).
        if !self.connected {
            return BatchOutcome {
                results: Vec::new(),
                cost: Nanos(0),
                error: Some(SimError::ChannelDown),
            };
        }
        // Batch-level faults fire before anything reaches the device.
        if let Some(f) = self.fault.batch_fault(ops.len()) {
            let at = self.fault.ops_attempted();
            let (cost, error) = match f {
                FaultKind::BatchTimeout => {
                    // The RPC burns its client deadline, then errors out.
                    self.clock.advance(BATCH_TIMEOUT_COST);
                    (BATCH_TIMEOUT_COST, SimError::ChannelTimeout)
                }
                FaultKind::ChannelDrop => {
                    self.connected = false;
                    (Nanos(0), SimError::ChannelDown)
                }
                // `batch_fault` only ever fires batch-level kinds.
                FaultKind::FailOp | FaultKind::DeviceReset => unreachable!(),
            };
            if let Some(t) = sw.trace_mut() {
                t.set_now(self.clock.now());
                t.fault_injected(f, at);
            }
            return BatchOutcome { results: Vec::new(), cost, error: Some(error) };
        }
        let mut total = self.model.per_batch;
        let mut results = Vec::with_capacity(ops.len());
        let mut error = None;
        // Collect what actually lands for snapshot publication. With no
        // publisher installed this is a branch-not-taken per op.
        let mut applied: Option<Vec<AppliedOp>> =
            self.publisher.as_ref().map(|_| Vec::with_capacity(ops.len()));
        // Open a control-track batch span in the flight recorder (no-op
        // when tracing is off). The batch id lets the invariant checker
        // flag any packet event that lands inside the critical section.
        let batch = sw.trace_mut().map(|t| {
            t.set_now(start);
            t.batch_begin(ops.len())
        });
        for op in ops {
            // Op-level faults fire *instead of* applying the op.
            if let Some(f) = self.fault.op_fault(op) {
                let at = self.fault.ops_attempted() - 1;
                error = Some(match f {
                    FaultKind::FailOp => SimError::FaultInjected { at_op: at },
                    FaultKind::DeviceReset => {
                        sw.reset_device();
                        // The wipe is device state a worker must mirror:
                        // it rides the delta in sequence, after the
                        // applied prefix.
                        if let Some(a) = applied.as_mut() {
                            a.push(AppliedOp::Reset);
                        }
                        SimError::DeviceReset { generation: sw.generation() }
                    }
                    // `op_fault` only ever fires op-level kinds.
                    FaultKind::BatchTimeout | FaultKind::ChannelDrop => unreachable!(),
                });
                if let (Some(_), Some(t)) = (batch, sw.trace_mut()) {
                    t.fault_injected(f, at);
                }
                break;
            }
            let r = match sw.apply_op(op) {
                Ok(r) => r,
                Err(e) => {
                    // Fail-stop: the batch stops, the applied prefix stays
                    // on the device.
                    error = Some(e);
                    break;
                }
            };
            let cost = self.model.cost_of(op);
            total += cost;
            if matches!(
                op,
                ControlOp::InsertEntry { .. }
                    | ControlOp::DeleteEntry { .. }
                    | ControlOp::WriteReg { .. }
                    | ControlOp::ResetRegRange { .. }
            ) {
                self.write_latency.observe(cost.0);
            }
            if let (Some(_), Some(t)) = (batch, sw.trace_mut()) {
                t.control_op(op, &r);
            }
            if let Some(a) = applied.as_mut() {
                match (op, &r) {
                    (ControlOp::InsertEntry { table, entry }, OpResult::Inserted(h)) => {
                        a.push(AppliedOp::Insert {
                            table: *table,
                            handle: *h,
                            entry: entry.clone(),
                        });
                    }
                    (ControlOp::DeleteEntry { table, handle }, _) => {
                        a.push(AppliedOp::Delete { table: *table, handle: *handle });
                    }
                    (ControlOp::WriteReg { array, addr, value }, _) => {
                        a.push(AppliedOp::WriteReg {
                            array: *array,
                            addr: *addr,
                            value: *value,
                        });
                    }
                    (ControlOp::ResetRegRange { array, start, len }, _) => {
                        a.push(AppliedOp::ResetRegRange {
                            array: *array,
                            start: *start,
                            len: *len,
                        });
                    }
                    // Reads change nothing; workers need not see them.
                    _ => {}
                }
            }
            results.push(r);
        }
        // The truncated batch still consumed its modeled time; closing the
        // span on every path keeps the checker's critical section from
        // leaking into later packets.
        self.clock.advance(total);
        if let (Some(b), Some(t)) = (batch, sw.trace_mut()) {
            t.batch_end(b, results.len(), total);
            t.set_now(self.clock.now());
        }
        // Publish the applied prefix — everything that is actually on the
        // device, fault or not — as one atomic delta. Batches that touched
        // nothing (all-reads, or faulted before the first op) publish
        // nothing: workers' state already matches the master's.
        if let (Some(p), Some(ops)) = (self.publisher.as_mut(), applied) {
            if !ops.is_empty() {
                let epoch = sw
                    .telemetry()
                    .map(|m| m.epoch)
                    .or_else(|| sw.trace().map(|t| t.epoch()))
                    .unwrap_or(0);
                p.publish(epoch, ops);
            }
        }
        BatchOutcome { results, cost: total, error }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phv::FieldTable;
    use crate::parser::{HeaderDef, HeaderField, NextState, ParseState, Parser};
    use crate::pipeline::{Gress, Pipeline, StageLimits};
    use crate::switch::{SwitchConfig, TableRef};
    use crate::table::{KeySpec, MatchKind, MatchValue, TableEntry};
    use crate::action::ActionDef;

    fn switch_with_one_table() -> Switch {
        let mut ft = FieldTable::new();
        let f = ft.register("hdr.x.v", 8).unwrap();
        let p = ft.register("hdr.x.$valid", 1).unwrap();
        let mut parser = Parser::new();
        let h = parser.add_header(HeaderDef {
            name: "x".into(),
            len_bytes: 1,
            fields: vec![HeaderField { field: f, bit_offset: 0, bits: 8 }],
            presence: p,
            checksum_at: None,
            bitmap_bit: 0,
        });
        let s = parser.add_state(ParseState {
            header: h,
            select: None,
            transitions: vec![],
            default: NextState::Accept,
        });
        parser.set_start(s);
        let mut ig = Pipeline::new(Gress::Ingress, 1, StageLimits::default());
        ig.stage_mut(0).unwrap().add_table(crate::table::Table::new(
            "t",
            KeySpec::new(vec![(f, MatchKind::Exact)]),
            vec![ActionDef::noop("n")],
            16,
        ));
        let eg = Pipeline::new(Gress::Egress, 1, StageLimits::default());
        let mut sw = Switch::assemble(SwitchConfig::default(), ft, parser, ig, eg);
        sw.provision().unwrap();
        sw
    }

    fn insert_op(v: u64) -> ControlOp {
        ControlOp::InsertEntry {
            table: TableRef { gress: Gress::Ingress, stage: 0, table: 0 },
            entry: TableEntry {
                matches: vec![MatchValue::Exact(v)],
                priority: 0,
                action: 0,
                data: vec![],
            },
        }
    }

    #[test]
    fn batch_cost_is_overhead_plus_per_op() {
        let mut sw = switch_with_one_table();
        let mut ch = ControlChannel::default();
        let ops = vec![insert_op(1), insert_op(2), insert_op(3)];
        let (results, cost) = ch.apply_batch(&mut sw, &ops).into_result().unwrap();
        assert_eq!(results.len(), 3);
        let expect = ch.model.per_batch + Nanos(3 * ch.model.per_insert.0);
        assert_eq!(cost, expect);
        assert_eq!(ch.clock.now(), expect);
    }

    #[test]
    fn bulk_channel_applies_same_ops_at_marginal_cost() {
        let mut sw = switch_with_one_table();
        let mut ch = ControlChannel::default();
        ch.model.bulk = true;
        let ops = vec![insert_op(1), insert_op(2), insert_op(3)];
        let (results, cost) = ch.apply_batch(&mut sw, &ops).into_result().unwrap();
        assert_eq!(results.len(), 3);
        let expect = ch.model.per_batch + Nanos(3 * ch.model.vectored.per_insert.0);
        assert_eq!(cost, expect);
        assert_eq!(ch.clock.now(), expect);
        // All three entries really landed.
        let tref = TableRef { gress: Gress::Ingress, stage: 0, table: 0 };
        assert_eq!(sw.table(tref).unwrap().len(), 3);
    }

    #[test]
    fn injected_failop_keeps_prefix_results() {
        use crate::fault::FaultTrigger;
        let mut sw = switch_with_one_table();
        let mut ch = ControlChannel {
            fault: FaultPlan::new(vec![FaultTrigger {
                at: 1,
                op_kind: None,
                fault: FaultKind::FailOp,
            }]),
            ..Default::default()
        };
        let ops = vec![insert_op(1), insert_op(2), insert_op(3)];
        let out = ch.apply_batch(&mut sw, &ops);
        assert_eq!(out.error, Some(SimError::FaultInjected { at_op: 1 }));
        assert_eq!(out.results.len(), 1, "only the first op applied");
        let tref = TableRef { gress: Gress::Ingress, stage: 0, table: 0 };
        assert_eq!(sw.table(tref).unwrap().len(), 1);
        // The plan is exhausted: the same batch now goes through.
        let out = ch.apply_batch(&mut sw, &[insert_op(4)]);
        assert!(out.error.is_none());
    }

    #[test]
    fn timeout_applies_nothing_and_burns_the_deadline() {
        use crate::fault::FaultTrigger;
        let mut sw = switch_with_one_table();
        let mut ch = ControlChannel {
            fault: FaultPlan::new(vec![FaultTrigger {
                at: 0,
                op_kind: None,
                fault: FaultKind::BatchTimeout,
            }]),
            ..Default::default()
        };
        let out = ch.apply_batch(&mut sw, &[insert_op(1)]);
        assert_eq!(out.error, Some(SimError::ChannelTimeout));
        assert!(out.results.is_empty());
        assert_eq!(ch.clock.now(), BATCH_TIMEOUT_COST);
        let tref = TableRef { gress: Gress::Ingress, stage: 0, table: 0 };
        assert_eq!(sw.table(tref).unwrap().len(), 0, "device never saw the batch");
        assert!(ch.is_connected());
    }

    #[test]
    fn drop_downs_the_channel_until_reconnect() {
        use crate::fault::FaultTrigger;
        let mut sw = switch_with_one_table();
        let mut ch = ControlChannel {
            fault: FaultPlan::new(vec![FaultTrigger {
                at: 0,
                op_kind: None,
                fault: FaultKind::ChannelDrop,
            }]),
            ..Default::default()
        };
        let out = ch.apply_batch(&mut sw, &[insert_op(1)]);
        assert_eq!(out.error, Some(SimError::ChannelDown));
        assert!(!ch.is_connected());
        // Every batch fails while down, even with the plan exhausted.
        let out = ch.apply_batch(&mut sw, &[insert_op(1)]);
        assert_eq!(out.error, Some(SimError::ChannelDown));
        ch.reconnect();
        assert!(ch.apply_batch(&mut sw, &[insert_op(1)]).error.is_none());
    }

    #[test]
    fn device_reset_wipes_state_and_bumps_generation() {
        use crate::fault::FaultTrigger;
        let mut sw = switch_with_one_table();
        let mut ch = ControlChannel::default();
        let tref = TableRef { gress: Gress::Ingress, stage: 0, table: 0 };
        ch.apply_batch(&mut sw, &[insert_op(1), insert_op(2)]).into_result().unwrap();
        assert_eq!(sw.generation(), 0);
        // A freshly armed plan counts ops from zero.
        ch.fault = FaultPlan::new(vec![FaultTrigger {
            at: 2,
            op_kind: None,
            fault: FaultKind::DeviceReset,
        }]);
        let ops = vec![insert_op(3), insert_op(4), insert_op(5)];
        let out = ch.apply_batch(&mut sw, &ops);
        assert_eq!(out.error, Some(SimError::DeviceReset { generation: 1 }));
        assert_eq!(out.results.len(), 2, "two ops of this batch applied before the reset");
        assert_eq!(sw.generation(), 1);
        assert_eq!(sw.table(tref).unwrap().len(), 0, "reset wiped everything");
    }

    #[test]
    fn snapshots_publish_applied_prefix_atomically() {
        use crate::fault::FaultTrigger;
        use crate::snapshot::AppliedOp;
        let mut sw = switch_with_one_table();
        let mut ch = ControlChannel::default();
        let mut reader = ch.enable_snapshots().subscribe();
        // A clean batch publishes exactly once, whole.
        ch.apply_batch(&mut sw, &[insert_op(1), insert_op(2)]).into_result().unwrap();
        assert_eq!(ch.snapshot_generation(), 1);
        let got = reader.poll();
        assert_eq!(got.len(), 1, "one batch, one delta");
        assert_eq!(got[0].ops.len(), 2);
        assert!(matches!(
            got[0].ops[0],
            AppliedOp::Insert { handle: crate::table::EntryHandle(1), .. }
        ));
        // A faulted batch publishes only its applied prefix.
        ch.fault = FaultPlan::new(vec![FaultTrigger {
            at: 1,
            op_kind: None,
            fault: FaultKind::FailOp,
        }]);
        let out = ch.apply_batch(&mut sw, &[insert_op(3), insert_op(4)]);
        assert!(out.error.is_some());
        let got = reader.poll();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].ops.len(), 1, "only the pre-fault prefix landed");
        // A batch that never reaches the device publishes nothing.
        ch.fault = FaultPlan::new(vec![FaultTrigger {
            at: 0,
            op_kind: None,
            fault: FaultKind::BatchTimeout,
        }]);
        ch.apply_batch(&mut sw, &[insert_op(5)]);
        assert!(reader.poll().is_empty(), "timed-out batch applied nothing");
        assert_eq!(ch.snapshot_generation(), 2);
    }

    #[test]
    fn worker_adopting_deltas_converges_to_master() {
        let mut master = switch_with_one_table();
        let mut ch = ControlChannel::default();
        let mut reader = ch.enable_snapshots().subscribe();
        let mut worker = master.fork_worker();
        let tref = TableRef { gress: Gress::Ingress, stage: 0, table: 0 };
        ch.apply_batch(&mut master, &[insert_op(7), insert_op(8)]).into_result().unwrap();
        let (r, _) = ch
            .apply_batch(
                &mut master,
                &[ControlOp::DeleteEntry { table: tref, handle: crate::table::EntryHandle(1) }],
            )
            .into_result()
            .unwrap();
        assert_eq!(r[0], OpResult::Deleted);
        for d in reader.poll().to_vec() {
            worker.adopt_delta(&d).unwrap();
        }
        assert_eq!(worker.table(tref).unwrap().len(), master.table(tref).unwrap().len());
        // Handle allocation stays aligned: the next insert on either side
        // would get the same handle.
        let (wr, _) = ch.apply_batch(&mut master, &[insert_op(9)]).into_result().unwrap();
        for d in reader.poll().to_vec() {
            worker.adopt_delta(&d).unwrap();
        }
        let OpResult::Inserted(mh) = wr[0] else { panic!("insert") };
        assert!(
            worker.table(tref).unwrap().contains(mh),
            "worker sees the master-assigned handle"
        );
    }

    #[test]
    fn failed_batch_keeps_applied_prefix() {
        let mut sw = switch_with_one_table();
        let mut ch = ControlChannel::default();
        let tref = TableRef { gress: Gress::Ingress, stage: 0, table: 0 };
        let bad = ControlOp::DeleteEntry {
            table: tref,
            handle: crate::table::EntryHandle(999),
        };
        let ops = vec![insert_op(1), bad, insert_op(2)];
        assert!(ch.apply_batch(&mut sw, &ops).error.is_some());
        // The first insert survived: partial state, as in real hardware.
        assert_eq!(sw.table(tref).unwrap().len(), 1);
    }
}
