//! Deterministic fault injection for the control channel.
//!
//! The paper's consistency argument (§4.3) assumes the `bfrt_grpc` channel
//! can fail between any two table writes: batches are fail-stop, not
//! atomic. A [`FaultPlan`] makes that failure surface *testable* — a
//! seeded, fully deterministic schedule of faults keyed on the global
//! control-operation index, so a chaos scenario can fail exactly op 2 of
//! exactly one install batch and replay the identical run from the same
//! seed. The plan lives inside [`ControlChannel`](crate::control::ControlChannel)
//! and is consulted on the hot path only through two branch-on-empty
//! checks, so a disarmed plan costs nothing measurable.

use crate::switch::ControlOp;
use rand::prelude::*;

/// What a trigger does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail one operation mid-batch: the op is *not* applied, the batch
    /// stops, everything before it stays on the device (fail-stop).
    FailOp,
    /// Time out the whole batch before anything is applied. Retryable:
    /// the device never saw the batch.
    BatchTimeout,
    /// Drop the channel before anything is applied. The channel stays
    /// down (every batch fails) until `reconnect()`.
    ChannelDrop,
    /// Reset the simulated device mid-batch: all tables wiped, all
    /// registers zeroed, device generation bumped. The applied prefix of
    /// the current batch is wiped along with everything else.
    DeviceReset,
}

impl FaultKind {
    /// Stable lower-case name, used by the spec syntax and trace render.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            FaultKind::FailOp => "failop",
            FaultKind::BatchTimeout => "timeout",
            FaultKind::ChannelDrop => "drop",
            FaultKind::DeviceReset => "reset",
        }
    }
}

/// Coarse operation class a trigger can be restricted to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Table entry insert.
    Insert,
    /// Table entry delete.
    Delete,
    /// Register write or range reset.
    RegWrite,
    /// Register read (single or range).
    RegRead,
}

impl OpKind {
    /// Classify a control op.
    pub(crate) fn of(op: &ControlOp) -> OpKind {
        match op {
            ControlOp::InsertEntry { .. } => OpKind::Insert,
            ControlOp::DeleteEntry { .. } => OpKind::Delete,
            ControlOp::WriteReg { .. } | ControlOp::ResetRegRange { .. } => OpKind::RegWrite,
            ControlOp::ReadReg { .. } | ControlOp::ReadRegRange { .. } => OpKind::RegRead,
        }
    }
}

/// One armed fault: fire `fault` at (or after) global op index `at`,
/// optionally only when the op matches `op_kind`. One-shot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultTrigger {
    /// Global control-op index (counted across batches, attempted ops) at
    /// which the trigger becomes due.
    pub at: u64,
    /// Restrict firing to ops of this class; `None` fires on any op.
    /// Batch-level faults ([`FaultKind::BatchTimeout`],
    /// [`FaultKind::ChannelDrop`]) ignore the restriction — they fire at
    /// the start of the batch whose op-index range covers `at`.
    pub op_kind: Option<OpKind>,
    /// What happens.
    pub fault: FaultKind,
}

/// A deterministic schedule of control-channel faults.
///
/// The plan counts every *attempted* op (applied or faulted) across all
/// batches; trigger indices refer to that global counter, so the same
/// plan against the same op stream always fires at the same place.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    triggers: Vec<FaultTrigger>,
    fired: Vec<bool>,
    ops_attempted: u64,
    faults_fired: u64,
}

impl FaultPlan {
    /// An armed plan from explicit triggers.
    pub fn new(triggers: Vec<FaultTrigger>) -> FaultPlan {
        let fired = vec![false; triggers.len()];
        FaultPlan { triggers, fired, ops_attempted: 0, faults_fired: 0 }
    }

    /// The disarmed plan: present, checked, never fires.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// `count` random triggers with op indices in `0..horizon`, a pure
    /// function of `seed`. All four fault kinds are reachable.
    pub fn random(seed: u64, count: usize, horizon: u64) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let kinds = [
            FaultKind::FailOp,
            FaultKind::BatchTimeout,
            FaultKind::ChannelDrop,
            FaultKind::DeviceReset,
        ];
        let mut triggers = Vec::with_capacity(count);
        for _ in 0..count {
            let fault = kinds[rng.random_range(0usize..kinds.len())];
            let at = if horizon == 0 { 0 } else { rng.random_range(0u64..horizon) };
            triggers.push(FaultTrigger { at, op_kind: None, fault });
        }
        FaultPlan::new(triggers)
    }

    /// Parse the CLI spec syntax: a comma-separated list of
    /// `<kind>[:<opkind>]@<index>` items, e.g.
    /// `failop@5,reset@12,timeout@0,drop:insert@20`.
    pub fn parse_spec(spec: &str) -> Result<FaultPlan, String> {
        let mut triggers = Vec::new();
        for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (head, at) = item
                .split_once('@')
                .ok_or_else(|| format!("fault `{item}`: expected <kind>[:<opkind>]@<index>"))?;
            let at: u64 = at
                .trim()
                .parse()
                .map_err(|_| format!("fault `{item}`: bad op index `{at}`"))?;
            let (kind, op_kind) = match head.split_once(':') {
                Some((k, o)) => (k.trim(), Some(o.trim())),
                None => (head.trim(), None),
            };
            let fault = match kind {
                "failop" => FaultKind::FailOp,
                "timeout" => FaultKind::BatchTimeout,
                "drop" => FaultKind::ChannelDrop,
                "reset" => FaultKind::DeviceReset,
                other => {
                    return Err(format!(
                        "fault `{item}`: unknown kind `{other}` \
                         (expected failop|timeout|drop|reset)"
                    ))
                }
            };
            let op_kind = match op_kind {
                None => None,
                Some("insert") => Some(OpKind::Insert),
                Some("delete") => Some(OpKind::Delete),
                Some("regwrite") => Some(OpKind::RegWrite),
                Some("regread") => Some(OpKind::RegRead),
                Some(other) => {
                    return Err(format!(
                        "fault `{item}`: unknown op kind `{other}` \
                         (expected insert|delete|regwrite|regread)"
                    ))
                }
            };
            triggers.push(FaultTrigger { at, op_kind, fault });
        }
        Ok(FaultPlan::new(triggers))
    }

    /// Armed triggers.
    pub fn triggers(&self) -> &[FaultTrigger] {
        &self.triggers
    }

    /// Global attempted-op counter.
    pub(crate) fn ops_attempted(&self) -> u64 {
        self.ops_attempted
    }

    /// Total triggers that have fired.
    pub fn faults_fired(&self) -> u64 {
        self.faults_fired
    }

    /// Consult the plan at the start of a batch of `len` ops. Fires the
    /// first due batch-level trigger (timeout/drop) whose `at` falls
    /// inside this batch's op-index range `[ops_attempted,
    /// ops_attempted + len)`.
    pub(crate) fn batch_fault(&mut self, len: usize) -> Option<FaultKind> {
        if self.triggers.is_empty() {
            return None;
        }
        let lo = self.ops_attempted;
        let hi = lo + len as u64;
        for (i, t) in self.triggers.iter().enumerate() {
            if self.fired[i] {
                continue;
            }
            if !matches!(t.fault, FaultKind::BatchTimeout | FaultKind::ChannelDrop) {
                continue;
            }
            // An empty batch still pays the per-batch RPC, so a trigger
            // sitting exactly at the counter fires on it too.
            if t.at >= lo && (t.at < hi || len == 0 && t.at == lo) {
                self.fired[i] = true;
                self.faults_fired += 1;
                return Some(t.fault);
            }
        }
        None
    }

    /// Consult the plan before applying one op; always advances the
    /// global counter. Fires the first due op-level trigger
    /// (failop/reset) matching the op's class.
    pub(crate) fn op_fault(&mut self, op: &ControlOp) -> Option<FaultKind> {
        let idx = self.ops_attempted;
        self.ops_attempted += 1;
        if self.triggers.is_empty() {
            return None;
        }
        let class = OpKind::of(op);
        for (i, t) in self.triggers.iter().enumerate() {
            if self.fired[i] {
                continue;
            }
            if !matches!(t.fault, FaultKind::FailOp | FaultKind::DeviceReset) {
                continue;
            }
            if t.at > idx {
                continue;
            }
            if let Some(k) = t.op_kind {
                if k != class {
                    continue;
                }
            }
            self.fired[i] = true;
            self.faults_fired += 1;
            return Some(t.fault);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Gress;
    use crate::switch::TableRef;
    use crate::table::{EntryHandle, MatchValue, TableEntry};

    fn insert() -> ControlOp {
        ControlOp::InsertEntry {
            table: TableRef { gress: Gress::Ingress, stage: 0, table: 0 },
            entry: TableEntry {
                matches: vec![MatchValue::Exact(1)],
                priority: 0,
                action: 0,
                data: vec![],
            },
        }
    }

    fn delete() -> ControlOp {
        ControlOp::DeleteEntry {
            table: TableRef { gress: Gress::Ingress, stage: 0, table: 0 },
            handle: EntryHandle(1),
        }
    }

    #[test]
    fn op_trigger_fires_once_at_index() {
        let mut plan = FaultPlan::new(vec![FaultTrigger {
            at: 2,
            op_kind: None,
            fault: FaultKind::FailOp,
        }]);
        assert_eq!(plan.op_fault(&insert()), None);
        assert_eq!(plan.op_fault(&insert()), None);
        assert_eq!(plan.op_fault(&insert()), Some(FaultKind::FailOp));
        assert_eq!(plan.op_fault(&insert()), None, "one-shot");
        assert_eq!(plan.ops_attempted(), 4);
    }

    #[test]
    fn kind_matched_trigger_waits_for_matching_op() {
        let mut plan = FaultPlan::new(vec![FaultTrigger {
            at: 0,
            op_kind: Some(OpKind::Delete),
            fault: FaultKind::FailOp,
        }]);
        assert_eq!(plan.op_fault(&insert()), None, "insert does not match");
        assert_eq!(plan.op_fault(&delete()), Some(FaultKind::FailOp));
    }

    #[test]
    fn batch_trigger_fires_on_covering_batch() {
        let mut plan = FaultPlan::new(vec![FaultTrigger {
            at: 5,
            op_kind: None,
            fault: FaultKind::BatchTimeout,
        }]);
        assert_eq!(plan.batch_fault(3), None, "ops 0..3 do not cover 5");
        for _ in 0..3 {
            plan.op_fault(&insert());
        }
        assert_eq!(plan.batch_fault(4), Some(FaultKind::BatchTimeout), "ops 3..7 cover 5");
        assert_eq!(plan.batch_fault(4), None, "one-shot");
    }

    #[test]
    fn spec_parses_every_kind() {
        let plan =
            FaultPlan::parse_spec("failop@5, reset@12,timeout@0,drop:insert@20").unwrap();
        let trigger = |at, op_kind, fault| FaultTrigger { at, op_kind, fault };
        assert_eq!(
            plan.triggers(),
            [
                trigger(5, None, FaultKind::FailOp),
                trigger(12, None, FaultKind::DeviceReset),
                trigger(0, None, FaultKind::BatchTimeout),
                trigger(20, Some(OpKind::Insert), FaultKind::ChannelDrop),
            ]
        );
    }

    #[test]
    fn spec_rejects_garbage() {
        assert!(FaultPlan::parse_spec("explode@3").is_err());
        assert!(FaultPlan::parse_spec("failop@").is_err());
        assert!(FaultPlan::parse_spec("failop").is_err());
        assert!(FaultPlan::parse_spec("failop:frobnicate@1").is_err());
    }

    #[test]
    fn random_plans_are_seed_deterministic() {
        let a = FaultPlan::random(7, 6, 40);
        let b = FaultPlan::random(7, 6, 40);
        assert_eq!(a.triggers(), b.triggers());
        let c = FaultPlan::random(8, 6, 40);
        assert_ne!(a.triggers(), c.triggers());
    }
}
