//! The traffic manager: forwarding verdicts and the recirculation
//! bandwidth/latency model.
//!
//! The traffic manager sits between the ingress and egress pipelines. It
//! reads the intrinsic metadata the ingress pipeline produced and decides
//! the packet's fate. This is why the paper restricts forwarding primitives
//! to ingress RPBs (allocation constraint (4) in §4.3): by the time a
//! packet reaches egress, the verdict has been consumed.

use crate::clock::{Bandwidth, Nanos};
use crate::phv::{FieldTable, Phv};

/// The traffic manager's decision for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Send to the given egress port.
    Forward(u16),
    /// Reflect out the ingress port (`RETURN`).
    Return,
    /// Drop.
    Drop,
    /// Send around for another pipeline pass.
    Recirculate,
    /// Replicate to every port of a multicast group.
    Multicast(u16),
}

/// Verdict plus the report side effect (`REPORT` copies to the CPU port and
/// lets the packet continue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TmDecision {
    /// Verdict.
    pub verdict: Verdict,
    /// Report copy.
    pub report_copy: bool,
}

/// Resolve the intrinsic metadata into a decision.
///
/// Priority: recirculate > drop > return > forward. Recirculation wins
/// over an already-taken drop/return verdict because a multi-pass program
/// may mark its verdict early (e.g. the cache-write `DROP`) while later
/// passes still have work to do — the flags ride in the recirculation
/// header and apply on the final pass. A packet with no explicit egress
/// spec is dropped (no default route in the fabric).
pub fn decide(ft: &FieldTable, phv: &Phv) -> TmDecision {
    let intr = ft.intrinsics();
    let report_copy = phv.get(intr.report_flag) != 0;
    let verdict = if phv.get(intr.recirc_flag) != 0 {
        Verdict::Recirculate
    } else if phv.get(intr.drop_flag) != 0 {
        Verdict::Drop
    } else if phv.get(intr.return_flag) != 0 {
        Verdict::Return
    } else if phv.get(intr.mcast_group) != 0 {
        Verdict::Multicast(phv.get(intr.mcast_group) as u16)
    } else if phv.get(intr.egress_valid) != 0 {
        Verdict::Forward(phv.get(intr.egress_spec) as u16)
    } else {
        Verdict::Drop
    };
    TmDecision { verdict, report_copy }
}

/// Analytic model of recirculation overhead, reproducing Figure 11.
///
/// Recirculated packets traverse a loopback port of fixed capacity carrying
/// the P4runpro state header. On the internal path the Ethernet FCS is not
/// carried, so the net wire overhead per pass is `header_len - 4` bytes.
/// The maximum lossless external throughput follows from the recirculation
/// port being the bottleneck; the RTT increase follows from per-pass
/// pipeline and serialization latency on top of an end-host-dominated base
/// RTT (the paper measures RTT from a server across its kernel stack,
/// which is why its absolute numbers are in milliseconds).
#[derive(Debug, Clone, Copy)]
pub struct RecircModel {
    /// External port rate.
    pub port: Bandwidth,
    /// Recirculation port capacity (one loopback port on the prototype).
    pub recirc: Bandwidth,
    /// State-header length in bytes.
    pub header_len: usize,
    /// Bytes of the header not charged on the internal wire (FCS reuse).
    pub fcs_reuse: usize,
    /// Base RTT of the measurement path (end-host software dominated).
    pub base_rtt: Nanos,
    /// Fixed per-pass latency: pipeline traversal + TM queueing.
    pub per_pass_fixed: Nanos,
    /// Effective serialization rate for the store-and-forward hop each
    /// pass adds (slower than line rate: the recirculation path is a
    /// single 100G MAC shared with its own scheduling overhead).
    pub per_pass_rate: Bandwidth,
}

impl Default for RecircModel {
    fn default() -> Self {
        RecircModel {
            port: Bandwidth::from_gbps(100.0),
            recirc: Bandwidth::from_gbps(100.0),
            header_len: netpkt::RECIRC_HEADER_LEN,
            fcs_reuse: 4,
            base_rtt: Nanos::from_micros(21_000), // 21 ms software RTT
            per_pass_fixed: Nanos::from_micros(75),
            per_pass_rate: Bandwidth::from_mbps(80.0),
        }
    }
}

impl RecircModel {
    /// Net wire overhead per recirculation pass, bytes.
    pub(crate) fn wire_overhead(&self) -> usize {
        self.header_len.saturating_sub(self.fcs_reuse)
    }

    /// Maximum external throughput without loss for packets of `pkt_size`
    /// bytes making `iterations` recirculation passes.
    pub(crate) fn max_lossless_throughput(&self, pkt_size: usize, iterations: u8) -> Bandwidth {
        if iterations == 0 {
            return self.port;
        }
        // Each external packet of S bytes consumes `iterations` slots of
        // (S + overhead) bytes on the recirculation port.
        let per_pkt_recirc_bytes = (pkt_size + self.wire_overhead()) * usize::from(iterations);
        let max = self.recirc.0 * pkt_size as f64 / per_pkt_recirc_bytes as f64;
        Bandwidth(max.min(self.port.0))
    }

    /// Fractional throughput loss at full offered load (Figure 11's
    /// "throughput loss" series).
    pub fn throughput_loss(&self, pkt_size: usize, iterations: u8) -> f64 {
        1.0 - self.max_lossless_throughput(pkt_size, iterations).0 / self.port.0
    }

    /// Added one-way latency for `iterations` passes.
    pub(crate) fn added_latency(&self, pkt_size: usize, iterations: u8) -> Nanos {
        let per_pass = self.per_pass_fixed
            + self.per_pass_rate.serialize(pkt_size + self.wire_overhead());
        Nanos(per_pass.0 * u64::from(iterations))
    }

    /// RTT normalized by the no-recirculation RTT (Figure 11's RTT series).
    pub fn normalized_rtt(&self, pkt_size: usize, iterations: u8) -> f64 {
        let base = self.base_rtt.0 as f64;
        (base + self.added_latency(pkt_size, iterations).0 as f64) / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phv::FieldTable;

    #[test]
    fn verdict_priority() {
        let ft = FieldTable::new();
        let intr = ft.intrinsics();
        let mut phv = Phv::new(&ft);
        // Nothing set → drop.
        assert_eq!(decide(&ft, &phv).verdict, Verdict::Drop);
        phv.set(&ft, intr.egress_spec, 5);
        assert_eq!(decide(&ft, &phv).verdict, Verdict::Drop, "port without valid bit");
        phv.set(&ft, intr.egress_valid, 1);
        assert_eq!(decide(&ft, &phv).verdict, Verdict::Forward(5));
        phv.set(&ft, intr.return_flag, 1);
        assert_eq!(decide(&ft, &phv).verdict, Verdict::Return);
        phv.set(&ft, intr.drop_flag, 1);
        assert_eq!(decide(&ft, &phv).verdict, Verdict::Drop);
        phv.set(&ft, intr.recirc_flag, 1);
        assert_eq!(decide(&ft, &phv).verdict, Verdict::Recirculate,
            "recirculation outranks an early drop verdict");
    }

    #[test]
    fn report_is_a_side_effect() {
        let ft = FieldTable::new();
        let intr = ft.intrinsics();
        let mut phv = Phv::new(&ft);
        phv.set(&ft, intr.egress_spec, 3);
        phv.set(&ft, intr.egress_valid, 1);
        phv.set(&ft, intr.report_flag, 1);
        let d = decide(&ft, &phv);
        assert!(d.report_copy);
        assert_eq!(d.verdict, Verdict::Forward(3));
    }

    #[test]
    fn no_recirc_no_loss() {
        let m = RecircModel::default();
        assert_eq!(m.throughput_loss(128, 0), 0.0);
        assert_eq!(m.added_latency(1500, 0), Nanos::ZERO);
        assert!((m.normalized_rtt(1500, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn one_iteration_loss_band_matches_paper() {
        // Paper: with R = 1 the loss ranges 1%–10% depending on packet
        // size, small packets losing more.
        let m = RecircModel::default();
        let small = m.throughput_loss(128, 1);
        let large = m.throughput_loss(1500, 1);
        assert!(small > large);
        assert!((0.01..=0.12).contains(&small), "128B loss {small}");
        assert!((0.001..=0.02).contains(&large), "1500B loss {large}");
    }

    #[test]
    fn loss_grows_with_iterations() {
        let m = RecircModel::default();
        let mut prev = 0.0;
        for r in 0..=6u8 {
            let loss = m.throughput_loss(512, r);
            assert!(loss >= prev);
            prev = loss;
        }
        // Two passes at least halve the lossless rate.
        assert!(m.max_lossless_throughput(512, 2).0 <= m.port.0 / 2.0 * 1.05);
    }

    #[test]
    fn latency_band_matches_paper_at_r6() {
        // Paper: 0.5–1.5 ms added at R = 6 (2.2%–7.2% RTT growth).
        let m = RecircModel::default();
        let small = m.added_latency(128, 6).as_millis_f64();
        let large = m.added_latency(1500, 6).as_millis_f64();
        assert!((0.4..=1.0).contains(&small), "128B added {small}ms");
        assert!((1.0..=1.6).contains(&large), "1500B added {large}ms");
        let growth = (m.normalized_rtt(1500, 6) - 1.0) * 100.0;
        assert!((2.0..=8.0).contains(&growth), "growth {growth}%");
    }

    #[test]
    fn lossless_throughput_capped_by_port() {
        let m = RecircModel {
            recirc: Bandwidth::from_gbps(1000.0),
            ..Default::default()
        };
        assert_eq!(m.max_lossless_throughput(64, 1).0, m.port.0);
    }
}
