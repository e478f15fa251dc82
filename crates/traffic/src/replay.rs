//! Timed replay of packet traces into a switch, with per-bucket
//! accounting — the stand-in for tcpreplay + libpcap capture analysis.
//!
//! The replay session walks a timestamped trace; the experiment harness
//! interleaves control plane actions ("deploy at t = 5 s") between bucket
//! boundaries, exactly how the case studies of §6.4 are run. Statistics
//! are collected per 50 ms bucket (the paper's collection interval).
//!
//! For long traces, [`generate_streaming`] produces packets on a worker
//! thread through a bounded crossbeam channel so synthesis overlaps
//! injection.

use crossbeam::channel::{bounded, Receiver};
use netpkt::FiveTuple;
use rmt_sim::clock::Nanos;
use rmt_sim::error::SimResult;
use rmt_sim::parallel::{shard_for_frame, WorkerPool, WorkerStats};
use rmt_sim::switch::ProcessOutcome;
use std::collections::HashSet;

/// One timestamped frame.
#[derive(Debug, Clone)]
pub struct TimedPacket {
    /// T.
    pub t: Nanos,
    /// Port.
    pub port: u16,
    /// Frame.
    pub frame: Vec<u8>,
}

/// Statistics for one collection bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BucketStats {
    /// Bucket start time (seconds).
    pub t_secs: f64,
    /// Offered bytes/packets in the bucket.
    pub offered_bytes: u64,
    /// Offered pkts.
    pub offered_pkts: u64,
    /// Bytes/packets emitted on any external port (the RX rate of the
    /// measurement server).
    pub tx_bytes: u64,
    /// Tx pkts.
    pub tx_pkts: u64,
    /// Per-verdict counters.
    pub dropped: u64,
    /// Reports.
    pub reports: u64,
    /// Telemetry epoch active when the bucket's first packet was injected
    /// (see `rmt_sim::telemetry`): control-plane lifecycle events bump the
    /// epoch, so a series of buckets can be cut at deploy/revoke
    /// boundaries without timestamp arithmetic.
    pub epoch: u64,
}

impl BucketStats {
    /// RX rate over the bucket, bits/s.
    pub fn rx_rate_bps(&self, bucket: Nanos) -> f64 {
        self.tx_bytes as f64 * 8.0 / bucket.as_secs_f64()
    }
}

/// The replay driver.
pub struct Replay {
    packets: Vec<TimedPacket>,
    idx: usize,
    /// Bucket.
    pub bucket: Nanos,
    /// Stats.
    pub stats: Vec<BucketStats>,
    current: BucketStats,
    bucket_end: Nanos,
    /// Per-port emitted-byte totals (for the load balancer's imbalance
    /// metric).
    pub port_tx_bytes: std::collections::HashMap<u16, u64>,
    /// Five-tuples of reported (punted) packets — the heavy-hitter result
    /// set.
    pub reported_flows: HashSet<FiveTuple>,
    /// Active telemetry epoch; the experiment harness copies the
    /// controller's epoch here after each control action, and every bucket
    /// is tagged with the epoch its first packet saw.
    pub epoch: u64,
    /// Scratch outcome reused across the injection loop so the switch's
    /// `process_frame_into` path never allocates a fresh outcome per packet.
    scratch: ProcessOutcome,
}

impl Replay {
    /// 50 ms buckets, the paper's collection interval.
    pub fn new(packets: Vec<TimedPacket>) -> Replay {
        Replay::with_bucket(packets, Nanos::from_millis(50))
    }

    /// With bucket.
    pub(crate) fn with_bucket(packets: Vec<TimedPacket>, bucket: Nanos) -> Replay {
        Replay {
            packets,
            idx: 0,
            bucket,
            stats: Vec::new(),
            current: BucketStats::default(),
            bucket_end: bucket,
            port_tx_bytes: std::collections::HashMap::new(),
            reported_flows: HashSet::new(),
            epoch: 0,
            scratch: ProcessOutcome::empty(),
        }
    }

    /// Done.
    pub fn done(&self) -> bool {
        self.idx >= self.packets.len()
    }

    /// The timestamp of the next packet, if any.
    pub fn next_time(&self) -> Option<Nanos> {
        self.packets.get(self.idx).map(|p| p.t)
    }

    /// Inject all packets with `t < until` through `inject`, folding the
    /// outcomes into bucket statistics. Returns the number processed.
    ///
    /// `inject` gets the packet's trace timestamp (the flight-recorder path
    /// stamps trace events with it via `TraceBuffer::set_now`, so packet
    /// journeys and control batches share one timeline), its ingress port
    /// and bytes, and a replay-owned scratch outcome to fill in place (pair
    /// it with `Switch::process_frame_into` / `Controller::inject_into`), so
    /// the steady-state injection loop reuses one outcome's buffers
    /// throughout.
    pub fn run_until(
        &mut self,
        until: Nanos,
        mut inject: impl FnMut(Nanos, u16, &[u8], &mut ProcessOutcome),
    ) -> usize {
        let mut n = 0;
        while self.idx < self.packets.len() && self.packets[self.idx].t < until {
            while self.packets[self.idx].t >= self.bucket_end {
                self.rotate_bucket();
            }
            let pkt = &self.packets[self.idx];
            inject(pkt.t, pkt.port, &pkt.frame, &mut self.scratch);
            let out = &self.scratch;
            if self.current.offered_pkts == 0 {
                self.current.epoch = self.epoch;
            }
            self.current.offered_bytes += pkt.frame.len() as u64;
            self.current.offered_pkts += 1;
            for (port, bytes) in &out.emitted {
                self.current.tx_bytes += bytes.len() as u64;
                self.current.tx_pkts += 1;
                *self.port_tx_bytes.entry(*port).or_insert(0) += bytes.len() as u64;
            }
            if out.dropped {
                self.current.dropped += 1;
            }
            for report in &out.reports {
                self.current.reports += 1;
                if let Ok(parsed) = netpkt::ParsedPacket::parse(report) {
                    if let Some(ft) = parsed.five_tuple() {
                        self.reported_flows.insert(ft);
                    }
                }
            }
            self.idx += 1;
            n += 1;
        }
        n
    }

    /// Run the whole trace (see [`Replay::run_until`] for `inject`).
    pub fn run_all(&mut self, inject: impl FnMut(Nanos, u16, &[u8], &mut ProcessOutcome)) {
        let end = self.packets.last().map(|p| p.t + Nanos(1)).unwrap_or(Nanos::ZERO);
        self.run_until(end, inject);
        self.finish();
    }

    fn rotate_bucket(&mut self) {
        let mut s = std::mem::take(&mut self.current);
        s.t_secs = (self.bucket_end - self.bucket).as_secs_f64();
        if s.offered_pkts == 0 {
            // An idle bucket never saw a packet: tag it with the epoch
            // active when it rotated out.
            s.epoch = self.epoch;
        }
        self.stats.push(s);
        self.bucket_end += self.bucket;
    }

    /// Flush the in-progress bucket.
    pub fn finish(&mut self) {
        if self.current != BucketStats::default() {
            self.rotate_bucket();
        }
    }
}

/// What a sharded multi-worker replay produced, merged back into the
/// sequential [`Replay`]'s shapes so downstream consumers (status
/// reports, experiment harnesses) are worker-count-agnostic.
#[derive(Debug, Clone)]
pub struct ParallelOutcome {
    /// Bucket statistics summed across workers, aligned by bucket index
    /// (bucket boundaries are global, so index `i` is the same 50 ms
    /// window on every worker).
    pub stats: Vec<BucketStats>,
    /// Per-port emitted-byte totals summed across workers.
    pub port_tx_bytes: std::collections::HashMap<u16, u64>,
    /// Reported (punted) flows unioned across workers.
    pub reported_flows: HashSet<FiveTuple>,
    /// Per-worker bucket series, in worker order (kept for imbalance
    /// inspection; the merged `stats` is what experiments consume).
    pub per_worker: Vec<Vec<BucketStats>>,
    /// Per-worker engine counters sampled after the run.
    pub worker_stats: Vec<WorkerStats>,
    /// Packets injected across all workers.
    pub packets: u64,
}

/// Sharded multi-worker replay: the parallel front-end over a
/// [`WorkerPool`].
///
/// The trace is split by [`shard_for_frame`] — an RSS-style five-tuple
/// hash — so every packet of a flow lands on the same worker and per-flow
/// order is preserved. Each worker thread drives a private sequential
/// [`Replay`] over its shard; before each injection the worker adopts any
/// control-plane snapshot deltas published since its last packet
/// (batch-granular, never torn — see `rmt_sim::snapshot`).
///
/// Every packet is injected under the **global** packet id it would have
/// carried in a sequential replay of the same trace (`base + trace
/// index`), so per-packet trace events are bit-identical to the
/// sequential engine's and the merged ring is worker-count-independent.
pub struct ParallelReplay {
    shards: Vec<Vec<TimedPacket>>,
    ids: Vec<Vec<u64>>,
    bucket: Nanos,
    total: u64,
}

impl ParallelReplay {
    /// Shard a trace for `workers` workers, 50 ms buckets.
    pub fn new(packets: Vec<TimedPacket>, workers: usize) -> ParallelReplay {
        ParallelReplay::with_bucket(packets, workers, Nanos::from_millis(50))
    }

    /// With an explicit bucket width.
    pub(crate) fn with_bucket(packets: Vec<TimedPacket>, workers: usize, bucket: Nanos) -> ParallelReplay {
        let n = workers.max(1);
        let mut shards: Vec<Vec<TimedPacket>> = (0..n).map(|_| Vec::new()).collect();
        let mut ids: Vec<Vec<u64>> = (0..n).map(|_| Vec::new()).collect();
        let total = packets.len() as u64;
        for (i, p) in packets.into_iter().enumerate() {
            let s = shard_for_frame(&p.frame, n);
            ids[s].push(i as u64);
            shards[s].push(p);
        }
        ParallelReplay { shards, ids, bucket, total }
    }

    /// Packets per shard, in worker order.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(Vec::len).collect()
    }

    /// Total packets in the trace.
    pub fn total_packets(&self) -> u64 {
        self.total
    }

    /// Drive the whole trace through `pool`, one OS thread per worker.
    ///
    /// The pool must have exactly as many workers as this replay was
    /// sharded for. Control-plane activity may proceed concurrently on
    /// the master switch: workers pick up published batches at packet
    /// boundaries and are never blocked by a deploy.
    pub fn run(self, pool: &mut WorkerPool) -> SimResult<ParallelOutcome> {
        assert_eq!(
            pool.len(),
            self.shards.len(),
            "pool size must match the shard count"
        );
        // Workers fork with the master's packet-id cursor, so `base +
        // global index` reproduces the ids a sequential replay would
        // assign from the same starting point.
        let base = pool
            .workers()
            .iter()
            .map(|w| w.switch().next_packet_id())
            .max()
            .unwrap_or(0);
        let bucket = self.bucket;
        let runs: Vec<SimResult<Replay>> = std::thread::scope(|s| {
            let handles: Vec<_> = pool
                .workers_mut()
                .iter_mut()
                .zip(self.shards.into_iter().zip(self.ids))
                .map(|(w, (shard, ids))| {
                    s.spawn(move || {
                        let mut r = Replay::with_bucket(shard, bucket);
                        // Tag buckets with the epoch the worker starts
                        // under; concurrent epoch bumps surface through
                        // the merged telemetry, not bucket tags.
                        r.epoch = w.switch().telemetry().map_or(0, |m| m.epoch);
                        let mut err = None;
                        let mut k = 0usize;
                        r.run_all(|t, port, frame, out| {
                            if err.is_none() {
                                if let Some(tr) = w.switch_mut().trace_mut() {
                                    tr.set_now(t);
                                }
                                if let Err(e) = w.inject_at(base + ids[k], port, frame, out) {
                                    err = Some(e);
                                }
                            }
                            k += 1;
                        });
                        match err {
                            Some(e) => Err(e),
                            None => Ok(r),
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replay worker thread panicked"))
                .collect()
        });
        let mut per_worker = Vec::with_capacity(runs.len());
        let mut port_tx_bytes = std::collections::HashMap::new();
        let mut reported_flows = HashSet::new();
        for run in runs {
            let r = run?;
            for (port, bytes) in &r.port_tx_bytes {
                *port_tx_bytes.entry(*port).or_insert(0) += bytes;
            }
            reported_flows.extend(r.reported_flows.iter().cloned());
            per_worker.push(r.stats);
        }
        // Bucket boundaries are global (every worker's bucket `i` covers
        // `[i·bucket, (i+1)·bucket)`), so summation by index is exact.
        let buckets = per_worker.iter().map(Vec::len).max().unwrap_or(0);
        let mut stats = Vec::with_capacity(buckets);
        for i in 0..buckets {
            let mut m = BucketStats {
                t_secs: (Nanos(self.bucket.0 * i as u64)).as_secs_f64(),
                ..Default::default()
            };
            for w in &per_worker {
                if let Some(s) = w.get(i) {
                    m.offered_bytes += s.offered_bytes;
                    m.offered_pkts += s.offered_pkts;
                    m.tx_bytes += s.tx_bytes;
                    m.tx_pkts += s.tx_pkts;
                    m.dropped += s.dropped;
                    m.reports += s.reports;
                    m.epoch = m.epoch.max(s.epoch);
                }
            }
            stats.push(m);
        }
        Ok(ParallelOutcome {
            stats,
            port_tx_bytes,
            reported_flows,
            per_worker,
            worker_stats: pool.stats(),
            packets: self.total,
        })
    }
}

/// Stream packets from a generator closure running on a worker thread.
/// Useful when the synthesized trace would not fit memory comfortably.
pub fn generate_streaming<F>(gen: F, capacity: usize) -> Receiver<TimedPacket>
where
    F: FnOnce(crossbeam::channel::Sender<TimedPacket>) + Send + 'static,
{
    let (tx, rx) = bounded(capacity);
    std::thread::spawn(move || gen(tx));
    rx
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt_sim::phv::{FieldTable, Phv};

    fn fake_outcome(emit: Option<(u16, usize)>, dropped: bool, report: bool) -> ProcessOutcome {
        let mut out = ProcessOutcome::empty();
        out.emitted = emit.map(|(p, n)| (p, vec![0u8; n])).into_iter().collect();
        out.reports = if report { vec![vec![0u8; 14]] } else { vec![] };
        out.dropped = dropped;
        out.passes = 1;
        out.phv = Phv::new(&FieldTable::new());
        out
    }

    fn pkt(t_ms: u64, len: usize) -> TimedPacket {
        TimedPacket { t: Nanos::from_millis(t_ms), port: 0, frame: vec![0; len] }
    }

    #[test]
    fn buckets_aggregate_by_time() {
        let mut r = Replay::new(vec![pkt(10, 100), pkt(20, 100), pkt(60, 100), pkt(120, 100)]);
        r.run_all(|_, _, _, out| *out = fake_outcome(Some((1, 100)), false, false));
        // Buckets: [0,50): 2 pkts; [50,100): 1; [100,150): 1.
        assert_eq!(r.stats.len(), 3);
        assert_eq!(r.stats[0].offered_pkts, 2);
        assert_eq!(r.stats[1].offered_pkts, 1);
        assert_eq!(r.stats[2].offered_pkts, 1);
        assert_eq!(r.stats[0].tx_bytes, 200);
        assert!((r.stats[1].t_secs - 0.05).abs() < 1e-9);
    }

    #[test]
    fn run_until_splits_at_event_boundaries() {
        let mut r = Replay::new(vec![pkt(10, 50), pkt(60, 50), pkt(90, 50)]);
        let n = r.run_until(Nanos::from_millis(55), |_, _, _, out| *out = fake_outcome(None, true, false));
        assert_eq!(n, 1);
        assert!(!r.done());
        let n = r.run_until(Nanos::from_millis(1000), |_, _, _, out| *out = fake_outcome(None, true, false));
        assert_eq!(n, 2);
        assert!(r.done());
        r.finish();
        assert_eq!(r.stats.iter().map(|s| s.dropped).sum::<u64>(), 3);
    }

    #[test]
    fn buckets_are_tagged_with_the_active_epoch() {
        let mut r = Replay::new(vec![pkt(10, 100), pkt(60, 100), pkt(120, 100)]);
        // Bucket [0,50) under epoch 0; "deploy" before 60 ms bumps to 1.
        r.run_until(Nanos::from_millis(50), |_, _, _, out| *out = fake_outcome(None, false, false));
        r.epoch = 1;
        r.run_until(Nanos::from_millis(100), |_, _, _, out| *out = fake_outcome(None, false, false));
        r.epoch = 2;
        r.run_all(|_, _, _, out| *out = fake_outcome(None, false, false));
        assert_eq!(r.stats.iter().map(|s| s.epoch).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn inject_sees_the_trace_clock() {
        let mut r = Replay::new(vec![pkt(10, 100), pkt(60, 100)]);
        let mut seen = Vec::new();
        r.run_all(|t, _, _, out| {
            seen.push(t);
            *out = fake_outcome(None, false, false);
        });
        assert_eq!(seen, vec![Nanos::from_millis(10), Nanos::from_millis(60)]);
        assert_eq!(r.stats.iter().map(|s| s.offered_pkts).sum::<u64>(), 2);
    }

    #[test]
    fn emitted_bytes_are_counted_per_port() {
        let mut r = Replay::new(vec![pkt(1, 10), pkt(2, 10), pkt(3, 10), pkt(4, 10)]);
        let mut flip = 0u16;
        r.run_all(|_, _, _, out| {
            flip += 1;
            *out = fake_outcome(Some((flip % 2, 100)), false, false);
        });
        assert_eq!(r.port_tx_bytes, [(0, 200), (1, 200)].into_iter().collect());
    }

    #[test]
    fn rx_rate_computation() {
        let s = BucketStats { tx_bytes: 625_000, ..Default::default() };
        // 625 kB in 50 ms = 100 Mbps.
        assert!((s.rx_rate_bps(Nanos::from_millis(50)) - 100e6).abs() < 1.0);
    }

    #[test]
    fn streaming_generator_delivers_in_order() {
        let rx = generate_streaming(
            |tx| {
                for i in 0..100u64 {
                    tx.send(TimedPacket {
                        t: Nanos::from_micros(i),
                        port: 0,
                        frame: vec![i as u8],
                    })
                    .unwrap();
                }
            },
            8,
        );
        let got: Vec<TimedPacket> = rx.iter().collect();
        assert_eq!(got.len(), 100);
        assert!(got.windows(2).all(|w| w[0].t <= w[1].t));
    }
}
