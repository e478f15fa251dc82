//! Seeded inputs: resident programs, frame streams, deploy streams.
//!
//! The seed picks addresses, ports, keys, sizes and the order of draws. It
//! never picks *structure*: which families are resident, how popularity
//! ranks map to families, and how many frames or programs a stream holds are
//! fixed, so that the cost of a workload does not move with the seed and two
//! seeds measure the same thing on different bytes.

use crate::stats::Rng;
use crate::sut::{self, BATCH};
use netpkt::FiveTuple;
use std::net::Ipv4Addr;

/// Frames in a stream; the timed loop cycles over them.
pub const FRAMES: usize = 256 * BATCH;
/// Leading frames whose fates are recorded, fingerprinted and replayed on
/// the scan authority (they double as warm-up).
pub const CHECK_FRAMES: usize = 32 * BATCH;
/// Distinct five-tuples per stream.
const FLOWS: usize = 4096;
/// Resident programs of the `frames_1k_*` workloads.
const RESIDENTS_1K: usize = 1000;
/// Resident programs of the deploy and server workloads.
const RESIDENTS_DEPLOY: usize = 128;
/// Instance ids below this are residents; churn programs sit above it, so
/// no frame ever matches a churned program's filter.
const CHURN_ID_BASE: usize = 60_000;
/// Distinct programs in a churn stream (cycled).
const CHURN_POOL: usize = 84;

/// A program to deploy: `(source, name)`.
pub type Program = (String, String);

/// A frame stream in one allocation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Frames {
    bytes: Vec<u8>,
    /// `(offset, length, ingress port)` per frame.
    index: Vec<(u32, u16, u16)>,
}

impl Frames {
    fn push(&mut self, port: u16, frame: &[u8]) {
        self.index.push((self.bytes.len() as u32, frame.len() as u16, port));
        self.bytes.extend_from_slice(frame);
    }

    pub fn len(&self) -> usize {
        self.index.len()
    }

    #[inline]
    pub fn get(&self, i: usize) -> (u16, &[u8]) {
        let (at, len, port) = self.index[i];
        (port, &self.bytes[at as usize..at as usize + usize::from(len)])
    }

    /// Frames `from..from + n`, wrapping around the stream.
    pub fn window(&self, from: usize, n: usize) -> impl Iterator<Item = (u16, &[u8])> {
        (from..from + n).map(|i| self.get(i % self.len()))
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FrameInputs {
    pub residents: Vec<Program>,
    pub frames: Frames,
    /// Programs deployed and revoked beside the traffic; empty unless the
    /// workload churns.
    pub churn: Vec<Program>,
}

#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeployInputs {
    pub residents: Vec<Program>,
    /// The churn stream, cycled; every `round` consecutive programs hold
    /// each family once.
    pub cycles: Vec<Program>,
    pub round: usize,
}

fn flows(rng: &mut Rng, tcp_share: f64) -> Vec<(FiveTuple, u16)> {
    (0..FLOWS)
        .map(|_| {
            let tuple = FiveTuple {
                src_addr: Ipv4Addr::new(172, 16, rng.below(256) as u8, 1 + rng.below(254) as u8),
                dst_addr: Ipv4Addr::new(10, 200, rng.below(256) as u8, 1 + rng.below(254) as u8),
                src_port: 1024 + rng.below(60_000) as u16,
                dst_port: 1 + rng.below(1023) as u16,
                protocol: if rng.unit() < tcp_share { 6 } else { 17 },
            };
            (tuple, rng.below(64) as u16)
        })
        .collect()
}

/// The NetCache case study: 90 % reads of the resident key, 10 % misses.
fn cache_hit(rng: &mut Rng) -> FrameInputs {
    let key = 0x1000 + rng.below(0x7000) as u32;
    let flows = flows(rng, 0.0);
    let mut frames = Frames::default();
    for _ in 0..FRAMES {
        let (tuple, port) = flows[rng.below(FLOWS as u64) as usize];
        let k = if rng.unit() < 0.9 { key } else { key + 1 + rng.below(1000) as u32 };
        frames.push(port, &sut::netcache_read(&tuple, u64::from(k)));
    }
    FrameInputs {
        residents: vec![(sut::cache_program(key), "cache".into())],
        frames,
        churn: vec![],
    }
}

/// Minimum-size TCP/UDP frames through one wildcard forward.
fn fwd_64b(rng: &mut Rng) -> FrameInputs {
    let flows = flows(rng, 0.8);
    // 60 bytes on the wire before the FCS, whichever the transport.
    let built: Vec<Vec<u8>> = flows
        .iter()
        .map(|(t, _)| sut::plain_frame(t, if t.protocol == 6 { 6 } else { 18 }))
        .collect();
    let mut frames = Frames::default();
    for _ in 0..FRAMES {
        let f = rng.below(FLOWS as u64) as usize;
        frames.push(flows[f].1, &built[f]);
    }
    FrameInputs { residents: vec![(sut::FORWARD_ALL.into(), "fwd".into())], frames, churn: vec![] }
}

/// Family of resident `i` of the 1000-program set: every twentieth slot is
/// a two-pass program, the rest cycle over the single-pass families. Slot 3
/// of each twenty carries the deep program, so popularity ranks 4, 24, 44...
/// recirculate: a little over 5 % of Zipf(1.1) traffic.
fn family_1k(i: usize) -> &'static str {
    if i % 20 == 3 {
        sut::DEEP[(i / 20) % sut::DEEP.len()]
    } else {
        sut::SHALLOW[(i - (i + 16) / 20) % sut::SHALLOW.len()]
    }
}

/// Campus-like payload sizes: mostly small, a medium mode, rare full-size.
fn campus_payload(rng: &mut Rng) -> usize {
    let u = rng.unit();
    if u < 0.60 {
        rng.below(64) as usize
    } else if u < 0.98 {
        200 + rng.below(600) as usize
    } else {
        1400
    }
}

fn churn_programs(rng: &mut Rng, families: &[&str]) -> Vec<Program> {
    let rounds = CHURN_POOL / families.len();
    let mut out = Vec::with_capacity(rounds * families.len());
    let mut order: Vec<&str> = families.to_vec();
    for round in 0..rounds {
        // Fisher-Yates: each round holds every family once, in seeded order.
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for (k, fam) in order.iter().enumerate() {
            out.push(sut::program(fam, CHURN_ID_BASE + round * families.len() + k));
        }
    }
    out
}

/// 1000 residents, Zipf(1.1) popularity over 4096 flows, campus sizes.
fn resident_1k(rng: &mut Rng, churn: bool) -> FrameInputs {
    let base = rng.below(50_000) as usize;
    let residents: Vec<Program> =
        (0..RESIDENTS_1K).map(|i| sut::program(family_1k(i), base + i)).collect();

    // Flow of popularity rank r talks to resident r mod 1000.
    let mut flows = flows(rng, 0.8);
    for (rank, (tuple, _)) in flows.iter_mut().enumerate() {
        tuple.dst_addr = sut::instance_addr(base + rank % RESIDENTS_1K);
    }
    let mut cdf = Vec::with_capacity(FLOWS);
    let mut acc = 0.0;
    for rank in 0..FLOWS {
        acc += 1.0 / ((rank + 1) as f64).powf(1.1);
        cdf.push(acc);
    }

    let mut frames = Frames::default();
    for _ in 0..FRAMES {
        let u = rng.unit() * acc;
        let rank = cdf.partition_point(|&c| c < u).min(FLOWS - 1);
        let (tuple, port) = flows[rank];
        if sut::wants_netcache(family_1k(rank % RESIDENTS_1K)) {
            // Key 0x8000 is the instance's resident key.
            let key = if rng.unit() < 0.5 { 0x8000 } else { 0x9000 + rng.below(256) };
            frames.push(port, &sut::netcache_read(&tuple, key));
        } else {
            frames.push(port, &sut::plain_frame(&tuple, campus_payload(rng)));
        }
    }
    let churn = if churn { churn_programs(rng, &sut::CHURN) } else { vec![] };
    FrameInputs { residents, frames, churn }
}

/// Inputs of a `frames_*` workload.
pub fn frame_inputs(workload: &str, seed: u64) -> FrameInputs {
    let mut rng = Rng::new(seed);
    match workload {
        "frames_cache_hit" | "frames_observed" => cache_hit(&mut rng),
        "frames_fwd_64b" => fwd_64b(&mut rng),
        "frames_1k_resident" => resident_1k(&mut rng, false),
        "frames_1k_churn" => resident_1k(&mut rng, true),
        other => panic!("`{other}` is not a frame workload"),
    }
}

/// Inputs of `deploy_shallow` / `server_churn` (`deep == false`, the same
/// stream for the same seed) and of `deploy_deep`.
pub fn deploy_inputs(deep: bool, seed: u64) -> DeployInputs {
    let mut rng = Rng::new(seed);
    let base = rng.below(50_000) as usize;
    let residents = (0..RESIDENTS_DEPLOY)
        .map(|i| sut::program(sut::SHALLOW[i % sut::SHALLOW.len()], base + i))
        .collect();
    let families: &[&str] = if deep { &sut::DEEP } else { &sut::CHURN };
    DeployInputs { residents, cycles: churn_programs(&mut rng, families), round: families.len() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for w in ["frames_cache_hit", "frames_fwd_64b", "frames_1k_churn"] {
            let a = frame_inputs(w, 11);
            assert_eq!(a, frame_inputs(w, 11), "{w}");
            let b = frame_inputs(w, 12);
            assert_ne!(a.frames, b.frames, "{w}: another seed, other bytes");
            assert_eq!(a.frames.len(), FRAMES);
            assert_eq!(a.residents.len(), b.residents.len(), "{w}: structure is seed-independent");
        }
        for deep in [false, true] {
            let a = deploy_inputs(deep, 5);
            assert_eq!(a, deploy_inputs(deep, 5));
            assert_ne!(a, deploy_inputs(deep, 6));
            assert_eq!(a.cycles.len() % a.round, 0);
        }
    }

    #[test]
    fn resident_mix_is_95_to_5() {
        let deep = (0..RESIDENTS_1K).filter(|&i| sut::DEEP.contains(&family_1k(i))).count();
        assert_eq!(deep, 50);
        let mut per_family = std::collections::BTreeMap::new();
        for i in 0..RESIDENTS_1K {
            *per_family.entry(family_1k(i)).or_insert(0) += 1;
        }
        for f in sut::SHALLOW {
            assert!((79..=80).contains(&per_family[f]), "{f}: {}", per_family[f]);
        }
    }

    #[test]
    fn churn_rounds_hold_each_family_once_and_never_match_traffic() {
        let d = deploy_inputs(false, 3);
        for round in d.cycles.chunks(d.round) {
            let mut fams: Vec<&str> =
                round.iter().map(|(_, n)| n.split('_').next().unwrap()).collect();
            fams.sort_unstable();
            let mut want = sut::CHURN.to_vec();
            want.sort_unstable();
            assert_eq!(fams, want);
        }
        let names: std::collections::HashSet<_> = d.cycles.iter().map(|(_, n)| n).collect();
        assert_eq!(names.len(), d.cycles.len(), "churn names are distinct");
        assert!(d.residents.iter().all(|(_, n)| !names.contains(n)));
    }

    #[test]
    fn frames_window_wraps() {
        let mut f = Frames::default();
        f.push(1, b"ab");
        f.push(2, b"cde");
        let w: Vec<_> = f.window(1, 3).collect();
        assert_eq!(w, vec![(2, &b"cde"[..]), (1, &b"ab"[..]), (2, &b"cde"[..])]);
    }
}
