//! Epoch-consistent control-state publication for multi-worker data
//! planes.
//!
//! The parallel engine (see [`crate::parallel`]) runs one [`Switch`] clone
//! per worker thread. Control-plane updates keep flowing through the
//! master switch exactly as before; what workers need is a way to observe
//! those updates (a) without ever stalling on the control plane and (b)
//! without ever seeing a batch half-applied. Both come from publishing
//! each applied batch as one immutable **delta**:
//!
//! * [`ControlChannel::apply_batch`](crate::control::ControlChannel::apply_batch)
//!   collects the operations that actually landed on the device — the
//!   applied prefix under fail-stop, including any mid-batch device
//!   reset — and publishes them as a single [`BatchDelta`] through a
//!   generation-stamped [`crossbeam::rcu::RcuCell`]. The whole batch
//!   becomes visible in one atomic pointer swap: torn visibility is
//!   structurally impossible.
//! * Each worker holds a [`SnapshotReader`]. Polling costs one atomic
//!   load when nothing changed (the per-packet steady state); when the
//!   generation moved, the reader catches up on every delta it missed, in
//!   publication order, and applies them to its switch clone between
//!   packets — so per-entry atomicity and the epoch-before-batch
//!   invariant carry over to every worker verbatim.
//!
//! Reclamation is RCU-shaped: a superseded snapshot lives until the last
//! reader drops its `Arc`, then frees on that reader's thread.
//!
//! [`Switch`]: crate::switch::Switch

use crate::switch::{ArrayRef, TableRef};
use crate::table::{EntryHandle, TableEntry};
use crossbeam::rcu::{RcuCell, RcuReader};
use std::sync::Arc;

/// One control operation as it *landed* on the master device. Unlike
/// [`ControlOp`](crate::switch::ControlOp), inserts carry the handle the
/// master allocated, so a worker replaying the delta stays
/// handle-compatible with later deletes; reads are omitted (they do not
/// change device state).
#[derive(Debug, Clone)]
pub(crate) enum AppliedOp {
    /// An entry landed under the master-assigned handle.
    Insert {
        /// Table.
        table: TableRef,
        /// Master-assigned handle.
        handle: EntryHandle,
        /// The entry.
        entry: TableEntry,
    },
    /// An entry was deleted.
    Delete {
        /// Table.
        table: TableRef,
        /// Handle.
        handle: EntryHandle,
    },
    /// A register bucket was written.
    WriteReg {
        /// Array.
        array: ArrayRef,
        /// Address.
        addr: u32,
        /// Value.
        value: u32,
    },
    /// A register range was zeroed.
    ResetRegRange {
        /// Array.
        array: ArrayRef,
        /// Start.
        start: u32,
        /// Length.
        len: u32,
    },
    /// The device reset mid-batch (a [`FaultKind::DeviceReset`] landed at
    /// this position in the op sequence).
    ///
    /// [`FaultKind::DeviceReset`]: crate::fault::FaultKind::DeviceReset
    Reset,
}

/// Everything one channel batch changed on the device, published
/// atomically.
#[derive(Debug, Clone)]
pub(crate) struct BatchDelta {
    /// Publication generation, 1-based and contiguous.
    pub generation: u64,
    /// Telemetry epoch active when the batch applied (the controller
    /// bumps the epoch *before* the batch, so adopting `ops` and `epoch`
    /// together preserves epoch-before-batch on every worker).
    pub epoch: u64,
    /// The operations that landed, in device order.
    pub ops: Vec<AppliedOp>,
}

/// One link in the published history: the delta plus everything published
/// before it. The chain is persistent — publishing prepends a node and
/// swaps the head, so a publish costs O(1) however long the campaign has
/// run (an earlier `Vec`-of-history design recloned the whole log per
/// publish, which tripled deploy latency in the bench probe).
#[derive(Debug)]
struct Node {
    delta: Arc<BatchDelta>,
    prev: Option<Arc<Node>>,
}

impl Drop for Node {
    /// Unlink iteratively: a seeded campaign can publish thousands of
    /// deltas, and the default recursive drop of a chain that long would
    /// blow the stack.
    fn drop(&mut self) {
        let mut prev = self.prev.take();
        while let Some(node) = prev {
            match Arc::try_unwrap(node) {
                Ok(mut n) => prev = n.prev.take(),
                Err(_) => break,
            }
        }
    }
}

/// The published history, as seen through the RCU cell: the newest delta
/// with the chain of its predecessors hanging off it.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeltaLog {
    head: Option<Arc<Node>>,
}

impl DeltaLog {
    /// The latest published generation (0 = nothing published).
    pub(crate) fn generation(&self) -> u64 {
        self.head.as_ref().map_or(0, |n| n.delta.generation)
    }

    /// Deltas newer than `after`, oldest first.
    pub(crate) fn since(&self, after: u64) -> Vec<Arc<BatchDelta>> {
        let mut missed = Vec::new();
        let mut cursor = self.head.as_deref();
        while let Some(node) = cursor {
            if node.delta.generation <= after {
                break;
            }
            missed.push(Arc::clone(&node.delta));
            cursor = node.prev.as_deref();
        }
        missed.reverse();
        missed
    }
}

/// The writer side, owned by the control channel.
#[derive(Debug, Clone)]
pub struct SnapshotPublisher {
    cell: Arc<RcuCell<DeltaLog>>,
    head: Option<Arc<Node>>,
}

impl Default for SnapshotPublisher {
    fn default() -> Self {
        SnapshotPublisher::new()
    }
}

impl SnapshotPublisher {
    /// A publisher at generation 0 (nothing published).
    pub(crate) fn new() -> SnapshotPublisher {
        SnapshotPublisher { cell: Arc::new(RcuCell::default()), head: None }
    }

    /// Publish one batch's applied operations; the whole delta becomes
    /// visible to every reader in a single generation bump. Returns the
    /// new generation.
    pub(crate) fn publish(&mut self, epoch: u64, ops: Vec<AppliedOp>) -> u64 {
        let generation = self.head.as_ref().map_or(0, |n| n.delta.generation) + 1;
        let delta = Arc::new(BatchDelta { generation, epoch, ops });
        self.head = Some(Arc::new(Node { delta, prev: self.head.take() }));
        self.cell.publish(DeltaLog { head: self.head.clone() })
    }

    /// The latest published generation.
    pub(crate) fn generation(&self) -> u64 {
        self.cell.generation()
    }

    /// Subscribe a reader positioned at the *current* generation: it will
    /// observe only deltas published after this call. Fork worker switches
    /// from the master at the same moment so nothing is missed or doubled.
    pub(crate) fn subscribe(&self) -> SnapshotReader {
        let reader = RcuReader::new(Arc::clone(&self.cell));
        let applied = reader.current().generation();
        SnapshotReader { reader, applied }
    }
}

/// A worker's cursor into the published delta stream.
#[derive(Debug)]
pub(crate) struct SnapshotReader {
    reader: RcuReader<DeltaLog>,
    applied: u64,
}

impl SnapshotReader {
    /// Deltas published since the last poll, oldest first. Costs one
    /// atomic load (and allocates nothing) when the answer is "none" —
    /// cheap enough to call per packet.
    pub(crate) fn poll(&mut self) -> Vec<Arc<BatchDelta>> {
        self.reader.refresh();
        let log = self.reader.current();
        if log.generation() == self.applied {
            return Vec::new();
        }
        let missed = log.since(self.applied);
        self.applied = log.generation();
        missed
    }

    /// The generation this reader has consumed up to.
    pub(crate) fn generation(&self) -> u64 {
        self.applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta_ops(n: usize) -> Vec<AppliedOp> {
        (0..n).map(|_| AppliedOp::Reset).collect()
    }

    #[test]
    fn publish_and_poll_are_batch_granular() {
        let mut p = SnapshotPublisher::new();
        let mut r = p.subscribe();
        assert!(r.poll().is_empty(), "nothing published yet");
        assert_eq!(p.publish(3, delta_ops(2)), 1);
        assert_eq!(p.publish(4, delta_ops(1)), 2);
        let got = r.poll();
        assert_eq!(got.len(), 2, "catches up on every missed delta");
        assert_eq!(got[0].generation, 1);
        assert_eq!(got[0].epoch, 3);
        assert_eq!(got[0].ops.len(), 2);
        assert_eq!(got[1].generation, 2);
        assert!(r.poll().is_empty(), "consumed");
        assert_eq!(r.generation(), 2);
    }

    #[test]
    fn late_subscriber_skips_history() {
        let mut p = SnapshotPublisher::new();
        p.publish(1, delta_ops(1));
        let mut r = p.subscribe();
        assert!(r.poll().is_empty(), "subscribed after the publish");
        p.publish(2, delta_ops(1));
        assert_eq!(r.poll().len(), 1);
    }
}
