//! The Table 1 catalog: the 15 programs with their paper-reported
//! comparison data (P4 control-block LoC, prior systems' update delays).

use crate::sources;

/// Which prior system Table 1 compares a program's update delay against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PriorSystem {
    /// ActiveRmt.
    ActiveRmt,
    /// FlyMon.
    FlyMon,
}

/// One Table 1 row.
#[derive(Debug, Clone)]
pub struct ProgramSpec {
    /// Short name as used in the paper.
    pub name: &'static str,
    /// Source.
    pub source: String,
    /// The equivalent P4 control-block LoC (Table 1's "P4" column).
    pub p4_loc: usize,
    /// The paper's own update delay for this program (ms) — our measured
    /// value is compared against this in EXPERIMENTS.md.
    pub paper_delay_ms: f64,
    /// Prior system's update delay (ms), where Table 1 reports one.
    pub prior: Option<(PriorSystem, f64)>,
}

/// Default filters used by the canonical instances.
pub(crate) const FILTER_NC: &str = "<hdr.udp.dst_port, 7777, 0xffff>";
/// `FILTER_IP`.
pub(crate) const FILTER_IP: &str = "<hdr.ipv4.dst, 10.0.0.0, 0xffff0000>";
/// `FILTER_SRC`.
pub(crate) const FILTER_SRC: &str = "<hdr.ipv4.src, 10.0.0.0, 0xffff0000>";

/// Build the canonical instance of every Table 1 program.
pub fn all() -> Vec<ProgramSpec> {
    vec![
        ProgramSpec {
            name: "cache",
            source: sources::cache("cache", FILTER_NC, 1024, &[(0x8888, 512)]),
            p4_loc: 77,
            paper_delay_ms: 11.47,
            prior: Some((PriorSystem::ActiveRmt, 194.30)),
        },
        ProgramSpec {
            name: "lb",
            source: sources::lb("lb", FILTER_IP, 256, &[0, 1]),
            p4_loc: 63,
            paper_delay_ms: 10.63,
            prior: Some((PriorSystem::ActiveRmt, 225.46)),
        },
        ProgramSpec {
            name: "hh",
            source: sources::hh("hh", FILTER_SRC, 1024, 1024),
            p4_loc: 109,
            paper_delay_ms: 30.64,
            prior: Some((PriorSystem::ActiveRmt, 228.70)),
        },
        ProgramSpec {
            name: "netcache",
            source: sources::netcache("netcache", FILTER_NC, 1024, &[(0x8888, 512)], 128),
            p4_loc: 152,
            paper_delay_ms: 40.06,
            prior: None,
        },
        ProgramSpec {
            name: "dqacc",
            source: sources::dqacc("dqacc", FILTER_NC, 256),
            p4_loc: 137,
            paper_delay_ms: 15.45,
            prior: None,
        },
        ProgramSpec {
            name: "firewall",
            source: sources::firewall("firewall", 31, 1024),
            p4_loc: 88,
            paper_delay_ms: 19.70,
            prior: None,
        },
        ProgramSpec {
            name: "l2fwd",
            source: sources::l2_forwarding("l2fwd", &[(0x0000_0001, 1), (0x0000_0002, 2)]),
            p4_loc: 33,
            paper_delay_ms: 2.98,
            prior: None,
        },
        ProgramSpec {
            name: "l3route",
            source: sources::l3_routing("l3route", &[(0x0a00_0000, 0xff00_0000, 7)]),
            p4_loc: 34,
            paper_delay_ms: 1.88,
            prior: None,
        },
        ProgramSpec {
            name: "tunnel",
            source: sources::tunnel("tunnel", FILTER_IP, 0x0a0a_0a0a, 8),
            p4_loc: 51,
            paper_delay_ms: 2.38,
            prior: None,
        },
        ProgramSpec {
            name: "calculator",
            source: sources::calculator("calculator"),
            p4_loc: 53,
            paper_delay_ms: 26.74,
            prior: None,
        },
        ProgramSpec {
            name: "ecn",
            source: sources::ecn("ecn", FILTER_IP),
            p4_loc: 18,
            paper_delay_ms: 4.84,
            prior: None,
        },
        ProgramSpec {
            name: "cms",
            source: sources::cms("cms", FILTER_SRC, 1024),
            p4_loc: 78,
            paper_delay_ms: 14.21,
            prior: Some((PriorSystem::FlyMon, 27.46)),
        },
        ProgramSpec {
            name: "bf",
            source: sources::bloom("bf", FILTER_SRC, 1024),
            p4_loc: 78,
            paper_delay_ms: 12.51,
            prior: Some((PriorSystem::FlyMon, 32.09)),
        },
        ProgramSpec {
            name: "sumax",
            source: sources::sumax("sumax", FILTER_SRC, 1024),
            p4_loc: 80,
            paper_delay_ms: 19.94,
            prior: Some((PriorSystem::FlyMon, 22.88)),
        },
        ProgramSpec {
            name: "hll",
            source: sources::hll("hll", FILTER_SRC, 256),
            p4_loc: 180,
            paper_delay_ms: 166.90,
            prior: Some((PriorSystem::FlyMon, 17.37)),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4rp_lang::{count_loc, parse};

    #[test]
    fn fifteen_programs() {
        assert_eq!(all().len(), 15);
    }

    #[test]
    fn all_parse_and_names_unique() {
        let specs = all();
        let mut names: Vec<&str> = specs.iter().map(|s| s.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 15);
        for s in &specs {
            parse(&s.source).unwrap_or_else(|e| panic!("{}: {e}", s.name));
        }
    }

    #[test]
    fn p4runpro_loc_beats_p4_everywhere() {
        // Table 1's headline: the P4runpro expression is smaller than the
        // equivalent P4 control block for every program.
        for s in all() {
            let ours = count_loc(&s.source);
            assert!(
                ours < s.p4_loc,
                "{}: ours {ours} !< P4 {}",
                s.name,
                s.p4_loc
            );
        }
    }
}
