//! The sharded multi-worker data plane.
//!
//! One [`Switch`] stays the **master**: the control plane (channel,
//! controller, CLI) keeps talking to it exactly as before. For packet
//! processing, a [`WorkerPool`] forks N worker switches from the master;
//! each worker owns its scratch PHV, frame buffers, port counters,
//! telemetry recorder, and trace ring, so workers never share mutable
//! state and never take a lock on the packet path.
//!
//! Three mechanisms make the parallel engine observationally equivalent
//! to a sequential replay:
//!
//! 1. **Flow-affine sharding.** [`shard_for_frame`] hashes the RSS-style
//!    five-tuple (falling back to a frame-prefix hash for non-IP/TCP/UDP
//!    frames), so every packet of a flow lands on the same worker and
//!    per-flow ordering is preserved.
//! 2. **Epoch-consistent snapshots.** Workers adopt control-plane updates
//!    from the [`SnapshotPublisher`] delta stream *between* packets
//!    ([`Worker::poll`]); each delta is one whole applied batch
//!    ([`crate::snapshot`]), so no worker ever observes a torn batch, and
//!    deploys never block packet processing — publication is an atomic
//!    pointer swap on the master side, adoption is off the master's
//!    critical path entirely.
//! 3. **Deterministic merge.** Per-worker telemetry merges through
//!    [`crate::telemetry::MetricsRecorder::merge`] (commutative,
//!    additive) and per-worker
//!    trace rings through [`merge_rings`] (global timestamp/packet-id
//!    order, seqs renumbered, drops accounted exactly), so `status
//!    --json`, packet journeys, and the Perfetto export are
//!    worker-count-independent.
//!
//! The pool is deliberately driver-agnostic: it does not spawn threads
//! itself. `traffic::replay::ParallelReplay` shards a timed trace and
//! drives one worker per thread; tests drive workers directly.

use crate::snapshot::{SnapshotPublisher, SnapshotReader};
use crate::switch::{ProcessOutcome, Switch};
use crate::trace::{merge_rings, TraceBuffer};
use std::hash::Hasher;

/// Shard a frame onto one of `n` workers by RSS-style five-tuple hash.
/// All packets of a TCP/UDP flow map to the same worker; non-IP frames
/// hash their first bytes, which still keeps identical frames (the replay
/// generators' notion of a flow) together.
pub fn shard_for_frame(frame: &[u8], n: usize) -> usize {
    if n <= 1 {
        return 0;
    }
    let mut h = crate::fxhash::FxHasher::default();
    match crate::trace::frame_five_tuple(frame) {
        Some((src, dst, sport, dport, proto)) => {
            h.write_u32(src);
            h.write_u32(dst);
            h.write_u16(sport);
            h.write_u16(dport);
            h.write_u8(proto);
        }
        None => h.write(&frame[..frame.len().min(32)]),
    }
    (h.finish() % n as u64) as usize
}

/// Per-worker activity summary, cheap to sample at any point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index (0-based).
    pub worker: u64,
    /// Packets this worker injected.
    pub packets: u64,
    /// Packets the worker's switch dropped.
    pub drops: u64,
    /// Recirculation passes on this worker.
    pub recirc_passes: u64,
    /// Snapshot generation the worker has adopted up to.
    pub snapshot_generation: u64,
    /// Trace events recorded on this worker's ring.
    pub trace_recorded: u64,
    /// Trace events dropped from this worker's ring.
    pub trace_dropped: u64,
}

serde::impl_serde_struct!(WorkerStats {
    worker,
    packets,
    drops,
    recirc_passes,
    snapshot_generation,
    trace_recorded,
    trace_dropped,
});

/// One worker: a forked switch plus its cursor into the snapshot stream.
#[derive(Debug)]
pub struct Worker {
    switch: Switch,
    reader: SnapshotReader,
    id: usize,
    packets: u64,
}

impl Worker {
    /// Adopt every control-plane delta published since the last poll.
    /// Costs one atomic load when nothing changed — the per-packet steady
    /// state. Returns how many deltas were adopted.
    pub(crate) fn poll(&mut self) -> crate::error::SimResult<usize> {
        let pending = self.reader.poll();
        for delta in &pending {
            self.switch.adopt_delta(delta)?;
        }
        Ok(pending.len())
    }

    /// Inject one frame under an externally assigned (global) packet id.
    /// Polls for snapshot deltas first, so control-plane updates take
    /// effect on batch boundaries — never mid-packet.
    pub fn inject_at(
        &mut self,
        packet_id: u64,
        port: u16,
        frame: &[u8],
        outcome: &mut ProcessOutcome,
    ) -> crate::error::SimResult<()> {
        self.poll()?;
        self.switch.set_next_packet_id(packet_id);
        self.packets += 1;
        self.switch.process_frame_into(port, frame, outcome)
    }

    /// The worker's switch.
    pub fn switch(&self) -> &Switch {
        &self.switch
    }

    /// The worker's switch, mutably (tests use this to pre-position
    /// clocks; the replay driver should go through
    /// [`inject_at`](Self::inject_at)).
    pub fn switch_mut(&mut self) -> &mut Switch {
        &mut self.switch
    }

    /// Snapshot of this worker's counters.
    pub fn stats(&self) -> WorkerStats {
        let trace = self.switch.trace_stats();
        WorkerStats {
            worker: self.id as u64,
            packets: self.packets,
            drops: self.switch.drops,
            recirc_passes: self.switch.recirc_passes,
            snapshot_generation: self.reader.generation(),
            trace_recorded: trace.recorded,
            trace_dropped: trace.dropped,
        }
    }
}

/// A fixed-size pool of workers forked from one master switch.
#[derive(Debug)]
pub struct WorkerPool {
    workers: Vec<Worker>,
}

impl WorkerPool {
    /// Fork `n` workers from `master`, each subscribed to `publisher` at
    /// the current generation. Fork and subscribe see the same master
    /// state, so a worker neither misses nor double-applies a batch:
    /// everything up to the subscription generation is in the fork,
    /// everything after arrives as a delta.
    pub fn new(master: &Switch, publisher: &SnapshotPublisher, n: usize) -> WorkerPool {
        let workers = (0..n.max(1))
            .map(|id| Worker {
                switch: master.fork_worker(),
                reader: publisher.subscribe(),
                id,
                packets: 0,
            })
            .collect();
        WorkerPool { workers }
    }

    /// Number of workers (never zero: `new` clamps to at least one).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Which worker owns this frame's flow.
    pub fn shard_for(&self, frame: &[u8]) -> usize {
        shard_for_frame(frame, self.workers.len())
    }

    /// The workers.
    pub fn workers(&self) -> &[Worker] {
        &self.workers
    }

    /// The workers, mutably — `split_at_mut`-friendly for the threaded
    /// driver.
    pub fn workers_mut(&mut self) -> &mut [Worker] {
        &mut self.workers
    }

    /// One worker, mutably.
    pub fn worker_mut(&mut self, i: usize) -> &mut Worker {
        &mut self.workers[i]
    }

    /// Bring every worker up to the latest published generation (used on
    /// quiesce, before merging).
    pub fn poll_all(&mut self) -> crate::error::SimResult<()> {
        for w in &mut self.workers {
            w.poll()?;
        }
        Ok(())
    }

    /// Per-worker stats, in worker order.
    pub fn stats(&self) -> Vec<WorkerStats> {
        self.workers.iter().map(Worker::stats).collect()
    }

    /// All workers' trace rings (plus the master's, for control events)
    /// merged into one deterministically ordered ring. `None` if tracing
    /// is off.
    pub fn merged_trace(&self, master: &Switch) -> Option<TraceBuffer> {
        let master_ring = master.trace()?;
        let rings =
            std::iter::once(master_ring).chain(self.workers.iter().filter_map(|w| w.switch.trace()));
        Some(merge_rings(rings, master_ring.config().clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tcp_frame(src: u32, sport: u16) -> Vec<u8> {
        let mut f = vec![0u8; 54];
        f[12] = 0x08; // ethertype IPv4
        f[13] = 0x00;
        f[14] = 0x45; // IHL 5
        f[23] = 6; // TCP
        f[26..30].copy_from_slice(&src.to_be_bytes());
        f[30..34].copy_from_slice(&0x0a00_0001u32.to_be_bytes());
        f[34..36].copy_from_slice(&sport.to_be_bytes());
        f[36..38].copy_from_slice(&80u16.to_be_bytes());
        f
    }

    #[test]
    fn sharding_is_flow_affine_and_covers_workers() {
        let a = tcp_frame(0x0a00_0002, 1111);
        let b = tcp_frame(0x0a00_0003, 2222);
        for n in [1, 2, 4, 8] {
            assert_eq!(shard_for_frame(&a, n), shard_for_frame(&a.clone(), n));
            assert!(shard_for_frame(&a, n) < n);
            assert!(shard_for_frame(&b, n) < n);
        }
        // Enough distinct flows spread over more than one worker.
        let hits: std::collections::HashSet<usize> = (0..64u16)
            .map(|i| shard_for_frame(&tcp_frame(0x0a00_0100 + u32::from(i), 1000 + i), 4))
            .collect();
        assert!(hits.len() > 1, "64 flows must not all land on one of 4 workers");
        // Single worker short-circuits.
        assert_eq!(shard_for_frame(&a, 1), 0);
        assert_eq!(shard_for_frame(&[], 4), shard_for_frame(&[], 4));
    }
}
