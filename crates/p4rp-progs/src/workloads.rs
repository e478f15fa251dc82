//! Parameterized workload generators for the §6.2 experiments.
//!
//! Each generator yields the `i`-th *instance* of a program family with a
//! unique name and a unique flow filter (an exact destination address
//! derived from the instance index), so hundreds of instances can coexist
//! — exactly how the paper arranges its 500-epoch deployment runs and the
//! program-capacity sweeps.
//!
//! Parameters follow §6.2: `mem` is the per-program memory request in
//! 32-bit buckets (the default 256 = the paper's 1,024 B), and
//! `elastic` is the number of elastic case blocks (the paper's baseline
//! is 2 where applicable, enhanced to 16 and 256 in Figure 9).

use crate::sources;

/// The program families the workloads draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Cache.
    Cache,
    /// Lb.
    Lb,
    /// Hh.
    Hh,
    /// NetCache.
    NetCache,
    /// Dqacc.
    Dqacc,
    /// Firewall.
    Firewall,
    /// L2Fwd.
    L2Fwd,
    /// L3Route.
    L3Route,
    /// Tunnel.
    Tunnel,
    /// Calculator.
    Calculator,
    /// Ecn.
    Ecn,
    /// Cms.
    Cms,
    /// Bf.
    Bf,
    /// SuMax.
    SuMax,
    /// Hll.
    Hll,
}

impl Family {
    /// The three workload programs of §6.2.1 (cache / lb / hh).
    pub(crate) const CORE: [Family; 3] = [Family::Cache, Family::Lb, Family::Hh];

    /// All 15 families (the "all-mixed" workload).
    pub const ALL: [Family; 15] = [
        Family::Cache,
        Family::Lb,
        Family::Hh,
        Family::NetCache,
        Family::Dqacc,
        Family::Firewall,
        Family::L2Fwd,
        Family::L3Route,
        Family::Tunnel,
        Family::Calculator,
        Family::Ecn,
        Family::Cms,
        Family::Bf,
        Family::SuMax,
        Family::Hll,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Family::Cache => "cache",
            Family::Lb => "lb",
            Family::Hh => "hh",
            Family::NetCache => "nc",
            Family::Dqacc => "dqacc",
            Family::Firewall => "fw",
            Family::L2Fwd => "l2",
            Family::L3Route => "l3",
            Family::Tunnel => "tun",
            Family::Calculator => "calc",
            Family::Ecn => "ecn",
            Family::Cms => "cms",
            Family::Bf => "bf",
            Family::SuMax => "sumax",
            Family::Hll => "hll",
        }
    }
}

/// Workload parameters (§6.2 defaults).
#[derive(Debug, Clone, Copy)]
pub struct WorkloadParams {
    /// Memory request per program in 32-bit buckets (256 = 1,024 B).
    pub mem: u32,
    /// Elastic case blocks, where applicable.
    pub elastic: usize,
}

impl Default for WorkloadParams {
    fn default() -> Self {
        WorkloadParams { mem: 256, elastic: 2 }
    }
}

/// A unique exact-match flow filter for instance `i`.
pub fn instance_filter(i: usize) -> String {
    let a = 10 + (i >> 16) as u8;
    let b = ((i >> 8) & 0xff) as u8;
    let c = (i & 0xff) as u8;
    format!("<hdr.ipv4.dst, {a}.{b}.{c}.1, 0xffffffff>")
}

/// Build instance `i` of a family.
pub fn instance(family: Family, i: usize, p: WorkloadParams) -> String {
    let name = format!("{}_{i:05}", family.name());
    let filter = instance_filter(i);
    let mem = p.mem.max(16).next_power_of_two();
    match family {
        Family::Cache => {
            let keys: Vec<(u32, u32)> = (0..p.elastic.div_ceil(2).max(1))
                .map(|k| (0x8000 + k as u32, k as u32))
                .collect();
            sources::cache(&name, &filter, mem, &keys)
        }
        Family::Lb => {
            let ports: Vec<u16> = (0..p.elastic.max(1)).map(|k| (k % 32) as u16).collect();
            sources::lb(&name, &filter, mem, &ports)
        }
        Family::Hh => sources::hh(&name, &filter, (mem / 4).max(16), 1024),
        Family::NetCache => {
            let keys: Vec<(u32, u32)> = (0..p.elastic.div_ceil(2).max(1))
                .map(|k| (0x8000 + k as u32, k as u32))
                .collect();
            sources::netcache(&name, &filter, (mem / 2).max(16).next_power_of_two(), &keys, 128)
        }
        Family::Dqacc => sources::dqacc(&name, &filter, mem),
        Family::Firewall => {
            // The firewall's own filter is port-based; rewrite it to the
            // instance filter for isolation.
            sources::firewall(&name, 31, mem)
                .replace("<hdr.ipv4.src, 0.0.0.0, 0x00000000>", &filter)
        }
        Family::L2Fwd => {
            let stations: Vec<(u32, u16)> =
                (0..p.elastic.max(1)).map(|k| (k as u32 + 1, (k % 32) as u16)).collect();
            sources::l2_forwarding(&name, &stations)
                .replace("<hdr.eth.type, 0, 0x0000>", &filter)
        }
        Family::L3Route => {
            let routes: Vec<(u32, u32, u16)> = (0..p.elastic.max(1))
                .map(|k| (0x0a00_0000 + ((k as u32) << 16), 0xffff_0000, (k % 32) as u16))
                .collect();
            sources::l3_routing(&name, &routes).replace("<hdr.ipv4.proto, 0, 0x00>", &filter)
        }
        Family::Tunnel => sources::tunnel(&name, &filter, 0x0a0a_0a0a, 8),
        Family::Calculator => sources::calculator(&name)
            .replace("<hdr.udp.dst_port, 7777, 0xffff>, <hdr.nc.op, 0, 0x00>", &filter),
        Family::Ecn => sources::ecn(&name, &filter),
        Family::Cms => sources::cms(&name, &filter, (mem / 2).max(16).next_power_of_two()),
        Family::Bf => sources::bloom(&name, &filter, (mem / 2).max(16).next_power_of_two()),
        Family::SuMax => sources::sumax(&name, &filter, (mem / 2).max(16).next_power_of_two()),
        Family::Hll => sources::hll(&name, &filter, mem.min(1024)),
    }
}

/// The §6.2 workload streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Only cache instances.
    Cache,
    /// Only load-balancer instances.
    Lb,
    /// Only heavy-hitter instances.
    Hh,
    /// Only NetCache instances (the most complex program).
    Nc,
    /// Randomly one of cache / lb / hh per epoch (the paper's "mix").
    Mixed,
    /// Randomly one of all 15 per epoch (the paper's "all-mixed").
    AllMixed,
}

impl Workload {
    /// The program for deployment epoch `i`. `pick` supplies randomness
    /// for the mixed workloads (pass an RNG-derived value; deterministic
    /// runs pass a seeded sequence).
    pub fn program(self, i: usize, pick: usize, p: WorkloadParams) -> String {
        let family = match self {
            Workload::Cache => Family::Cache,
            Workload::Lb => Family::Lb,
            Workload::Hh => Family::Hh,
            Workload::Nc => Family::NetCache,
            Workload::Mixed => Family::CORE[pick % 3],
            Workload::AllMixed => Family::ALL[pick % 15],
        };
        instance(family, i, p)
    }

    /// Label.
    pub fn label(self) -> &'static str {
        match self {
            Workload::Cache => "cache",
            Workload::Lb => "lb",
            Workload::Hh => "hh",
            Workload::Nc => "nc",
            Workload::Mixed => "mix",
            Workload::AllMixed => "all-mixed",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4rp_lang::parse;

    #[test]
    fn every_family_instance_parses() {
        for family in Family::ALL {
            for params in [
                WorkloadParams::default(),
                WorkloadParams { mem: 1024, elastic: 16 },
            ] {
                let src = instance(family, 3, params);
                parse(&src).unwrap_or_else(|e| panic!("{family:?}: {e}\n{src}"));
            }
        }
    }

    #[test]
    fn instances_have_unique_names_and_filters() {
        let a = instance(Family::Cache, 1, WorkloadParams::default());
        let b = instance(Family::Cache, 2, WorkloadParams::default());
        assert!(a.contains("cache_00001"));
        assert!(b.contains("cache_00002"));
        assert!(a.contains("10.0.1.1"));
        assert!(b.contains("10.0.2.1"));
    }

    #[test]
    fn filter_addresses_stay_distinct_across_thousands() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..4096 {
            assert!(seen.insert(instance_filter(i)), "collision at {i}");
        }
    }

    #[test]
    fn elastic_parameter_scales_cases() {
        let small = instance(Family::Lb, 0, WorkloadParams { mem: 256, elastic: 2 });
        let big = instance(Family::Lb, 0, WorkloadParams { mem: 256, elastic: 16 });
        let count = |s: &str| s.matches("case(").count();
        assert_eq!(count(&small), 2);
        assert_eq!(count(&big), 16);
    }

    #[test]
    fn workload_streams_select_families() {
        let p = WorkloadParams::default();
        assert!(Workload::Cache.program(0, 0, p).contains("program cache_"));
        assert!(Workload::Nc.program(0, 0, p).contains("program nc_"));
        // Mixed cycles through the three core families by pick value.
        assert!(Workload::Mixed.program(0, 0, p).contains("program cache_"));
        assert!(Workload::Mixed.program(0, 1, p).contains("program lb_"));
        assert!(Workload::Mixed.program(0, 2, p).contains("program hh_"));
    }
}
