//! Synthetic campus trace — the stand-in for the paper's ≈1.3 GB of
//! anonymized Tsinghua campus traffic (§6.4).
//!
//! Reproduced statistical features (the ones the case studies depend on):
//!
//! * exactly 4,096 distinct five-tuples (the paper post-processes the raw
//!   trace to that flow count);
//! * a TCP/UDP mix with heavy-tailed (Zipf) flow popularity;
//! * mostly small/medium packets with occasional *large TCP transfer
//!   bursts* — the cause of the RX-rate spikes visible in Figure 13(a);
//! * a constant offered rate (100 Mbps in the case studies), packets
//!   timestamped by their serialization spacing.

use crate::gen::{make_flows, zipf_weights, frame_for, netcache_frame, Flow, FlowSampler};
use crate::replay::TimedPacket;
use netpkt::CacheOp;
use rand::prelude::*;
use rand::rngs::StdRng;
use rmt_sim::clock::{Bandwidth, Nanos};

/// Campus trace generator parameters.
#[derive(Debug, Clone)]
pub struct CampusParams {
    /// Seed.
    pub seed: u64,
    /// Distinct five-tuples (the paper uses 4,096).
    pub flows: usize,
    /// Offered rate.
    pub rate: Bandwidth,
    /// Trace duration.
    pub duration: Nanos,
    /// Fraction of TCP flows.
    pub tcp_fraction: f64,
    /// Zipf exponent of flow popularity (0 = uniform).
    pub zipf_alpha: f64,
    /// Probability that a TCP packet belongs to a large-transfer burst.
    pub burst_probability: f64,
    /// Packets per burst.
    pub burst_len: usize,
    /// Ingress port packets arrive on.
    pub port: u16,
}

impl Default for CampusParams {
    fn default() -> Self {
        CampusParams {
            seed: 42,
            flows: 4096,
            rate: Bandwidth::from_mbps(100.0),
            duration: Nanos::from_secs(10),
            tcp_fraction: 0.8,
            zipf_alpha: 1.1,
            burst_probability: 0.02,
            burst_len: 40,
            port: 0,
        }
    }
}

/// The synthesized trace plus its ground truth.
#[derive(Debug, Clone)]
pub struct CampusTrace {
    /// Packets.
    pub packets: Vec<TimedPacket>,
    /// Flows.
    pub flows: Vec<Flow>,
    /// Per-flow packet counts (ground truth for the heavy-hitter study).
    pub flow_counts: Vec<u64>,
}

impl CampusTrace {
}

/// Synthesize the campus trace.
pub fn synthesize(p: &CampusParams) -> CampusTrace {
    let mut rng = StdRng::seed_from_u64(p.seed);
    let mut flows = make_flows(p.seed, p.flows, p.tcp_fraction);
    zipf_weights(&mut flows, p.zipf_alpha);
    let sampler = FlowSampler::new(&flows);
    let mut flow_counts = vec![0u64; flows.len()];

    let mut packets = Vec::new();
    let mut t = Nanos::ZERO;
    let mut burst_remaining = 0usize;
    let mut burst_flow = 0usize;
    while t < p.duration {
        let (flow_idx, payload) = if burst_remaining > 0 {
            burst_remaining -= 1;
            (burst_flow, 1400)
        } else {
            let idx = sampler.sample(&mut rng);
            let is_tcp = flows[idx].tuple.protocol == 6;
            if is_tcp && rng.random::<f64>() < p.burst_probability {
                burst_remaining = p.burst_len - 1;
                burst_flow = idx;
                (idx, 1400)
            } else {
                // Small/medium packets: bimodal around ACK-size and ~500 B.
                let payload = if rng.random::<f64>() < 0.6 {
                    rng.random_range(0..64)
                } else {
                    rng.random_range(200..800)
                };
                (idx, payload)
            }
        };
        let frame = frame_for(&flows[flow_idx].tuple, payload);
        let wire_len = frame.len();
        flow_counts[flow_idx] += 1;
        packets.push(TimedPacket { t, port: p.port, frame });
        // Next arrival: constant offered rate.
        t += p.rate.serialize(wire_len);
    }

    CampusTrace { packets, flows, flow_counts }
}

/// The NetCache workload transform (§6.4 Setup): UDP packets to the cache
/// port, payload discarded, a cache header attached; a fraction `hit_rate`
/// of requests use keys the cache will hold.
pub fn netcache_workload(
    p: &CampusParams,
    hit_keys: &[u64],
    miss_key_base: u64,
    hit_rate: f64,
) -> CampusTrace {
    let mut rng = StdRng::seed_from_u64(p.seed ^ 0x4e43);
    let mut flows = make_flows(p.seed, p.flows, 0.0);
    zipf_weights(&mut flows, 1.0);
    let sampler = FlowSampler::new(&flows);
    let mut flow_counts = vec![0u64; flows.len()];

    let mut packets = Vec::new();
    let mut t = Nanos::ZERO;
    while t < p.duration {
        let idx = sampler.sample(&mut rng);
        let key = if rng.random::<f64>() < hit_rate && !hit_keys.is_empty() {
            hit_keys[rng.random_range(0..hit_keys.len())]
        } else {
            miss_key_base + rng.random_range(0..1000) as u64
        };
        let frame = netcache_frame(&flows[idx].tuple, CacheOp::Read, key, 0);
        let wire_len = frame.len();
        flow_counts[idx] += 1;
        packets.push(TimedPacket { t, port: p.port, frame });
        t += p.rate.serialize(wire_len);
    }
    CampusTrace { packets, flows, flow_counts }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> CampusParams {
        CampusParams { duration: Nanos::from_millis(200), ..Default::default() }
    }

    #[test]
    fn trace_rate_close_to_offered() {
        let p = small_params();
        let trace = synthesize(&p);
        let bytes: usize = trace.packets.iter().map(|p| p.frame.len()).sum();
        let secs = p.duration.as_secs_f64();
        let rate = bytes as f64 * 8.0 / secs;
        assert!(
            (rate - p.rate.0).abs() / p.rate.0 < 0.05,
            "offered {} vs target {}",
            rate,
            p.rate.0
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = synthesize(&small_params());
        let b = synthesize(&small_params());
        assert_eq!(a.packets.len(), b.packets.len());
        assert_eq!(a.packets[0].frame, b.packets[0].frame);
        let c = synthesize(&CampusParams { seed: 1, ..small_params() });
        assert_ne!(a.packets[5].frame, c.packets[5].frame);
    }

    #[test]
    fn timestamps_monotone() {
        let trace = synthesize(&small_params());
        for w in trace.packets.windows(2) {
            assert!(w[0].t <= w[1].t);
        }
    }

    #[test]
    fn heavy_tail_produces_heavy_hitters() {
        let p = CampusParams { duration: Nanos::from_secs(2), ..small_params() };
        let trace = synthesize(&p);
        let total: u64 = trace.flow_counts.iter().sum();
        let heavy = trace.flow_counts.iter().filter(|&&c| c > total / 200).count();
        assert!(heavy > 0, "a Zipf trace has heavy flows");
        assert!(heavy < trace.flows.len() / 10, "but not too many");
    }

    #[test]
    fn bursts_include_large_frames() {
        let trace = synthesize(&small_params());
        let large = trace.packets.iter().filter(|p| p.frame.len() > 1300).count();
        assert!(large > 0, "burst packets present");
    }

    #[test]
    fn netcache_workload_hit_fraction() {
        let p = small_params();
        let trace = netcache_workload(&p, &[0x8888], 0x9000, 0.6);
        let mut hits = 0usize;
        for pkt in &trace.packets {
            let parsed = netpkt::ParsedPacket::parse(&pkt.frame).unwrap();
            let nc = parsed.netcache.expect("cache header attached");
            if nc.key == 0x8888 {
                hits += 1;
            }
        }
        let frac = hits as f64 / trace.packets.len() as f64;
        assert!((0.55..=0.65).contains(&frac), "hit fraction {frac}");
    }
}
