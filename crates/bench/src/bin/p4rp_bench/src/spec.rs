//! The benchmark's contract in one place: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics with the end-to-end metric each
//! is expected to move. `BENCHMARK.json` at the repository root restates
//! these tables; a unit test keeps the two in step.

/// Which of the system's three paths a workload's operation exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// One operation = one frame through `Controller::inject_into`.
    Frames,
    /// One operation = one `Controller::deploy` (followed by its revoke).
    Deploy,
    /// One operation = one deploy request through the loopback server.
    Server,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub class: Class,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 8] = [
    Workload {
        name: "frames_cache_hit",
        class: Class::Frames,
        why: "NetCache case study, 4096 flows, 90% hits: SALU, hash and action execution do the work, tables hold <= 8 entries",
    },
    Workload {
        name: "frames_fwd_64b",
        class: Class::Frames,
        why: "one wildcard FORWARD program, minimum-size frames: fixed per-frame cost dominates, a table-index change must show no change",
    },
    Workload {
        name: "frames_1k_resident",
        class: Class::Frames,
        why: "1000 resident programs, Zipf flows, campus sizes: RPB tables hold up to 2048 ternary entries, so table lookup does most of the work",
    },
    Workload {
        name: "frames_1k_churn",
        class: Class::Frames,
        why: "same state and traffic plus one deploy+revoke per 1024 frames: a lookup gain bought with insert/delete cost shows here",
    },
    Workload {
        name: "frames_observed",
        class: Class::Frames,
        why: "cache-hit traffic with telemetry, attribution and the trace ring on: the recorder layer does the added work, bypassed elsewhere",
    },
    Workload {
        name: "deploy_shallow",
        class: Class::Deploy,
        why: "deploy+revoke of l2/l3/tun/cms/bf/sumax/hll over 128 residents: language, lowering, entry generation and the channel dominate",
    },
    Workload {
        name: "deploy_deep",
        class: Class::Deploy,
        why: "the same churn with hh/nc/fw (depth 11-23, two passes): the allocation solver is >99% of the time, the only place it may show",
    },
    Workload {
        name: "server_churn",
        class: Class::Server,
        why: "the deploy_shallow stream through the loopback server with min(nproc,2) closed-loop clients: protocol, hand-offs and ticks add the cost",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change is a regression.
    pub bound: f64,
}

/// Host wall-clock throughout. The operation is the workload's own: a frame,
/// a deploy, a server request (see [`Class`]).
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "op_ns_p50", unit: "ns", better: Better::Lower, bound: 0.20 },
    EndToEnd { name: "ops_per_s", unit: "1/s", better: Better::Higher, bound: 0.20 },
    EndToEnd { name: "peak_rss_mib", unit: "MiB", better: Better::Lower, bound: 0.05 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// What the metric is for: mostly, the end-to-end metric it should move
    /// and on which workloads.
    pub note: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    note: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, note }
}

const FRAME_FIXED: &str = "moves op_ns_p50 on frames_fwd_64b most, every frames_* some";
const FRAME_EXEC: &str = "moves op_ns_p50 on frames_cache_hit; flat on frames_fwd_64b";
const FRAME_TABLE: &str =
    "moves op_ns_p50 on frames_1k_resident and frames_1k_churn; flat on frames_fwd_64b and frames_cache_hit";
const FRAME_OBS: &str = "moves op_ns_p50 on frames_observed only";
const DEPLOY_FRONT: &str =
    "moves op_ns_p50 and ops_per_s on deploy_shallow, server_churn; ops_per_s on frames_1k_churn; flat on deploy_deep";
const DEPLOY_SOLVER: &str = "moves op_ns_p50 and ops_per_s on deploy_deep; setup_s on frames_1k_*";
const SERVER: &str = "moves op_ns_p50 and ops_per_s on server_churn";
const CONTEXT: &str = "context for every row; not ranked";

/// Units: `ns`/`us` are host time; `sim_us` is simulated device time and is
/// never put in a ratio with host time.
pub const PER_LAYER: [PerLayer; 50] = [
    // Frame path, fixed per-frame cost.
    pl("parser.parse_ns", "ns", Better::Lower, FRAME_FIXED),
    pl("parser.deparse_ns", "ns", Better::Lower, FRAME_FIXED),
    pl("tm.decide_ns", "ns", Better::Lower, FRAME_FIXED),
    pl("switch.frame_ns", "ns", Better::Lower, FRAME_FIXED),
    pl("switch.residual_ns", "ns", Better::Lower, FRAME_FIXED),
    pl("switch.unattributed_share", "ratio", Better::Lower, FRAME_FIXED),
    pl("ctl.inject_ns", "ns", Better::Lower, FRAME_FIXED),
    pl(
        "ctl.inject_overhead_ns",
        "ns",
        Better::Lower,
        "measured inject minus a recorder-free copy's process_frame: on frames_observed, what the recorders cost",
    ),
    pl("switch.allocs_per_frame", "count", Better::Lower, FRAME_FIXED),
    // Frame path, execution.
    pl("pipeline.ingress_ns", "ns", Better::Lower, FRAME_EXEC),
    pl("pipeline.egress_ns", "ns", Better::Lower, FRAME_EXEC),
    pl("action.exec_ns", "ns", Better::Lower, FRAME_EXEC),
    pl("salu.rmw_per_frame", "count", Better::Lower, FRAME_EXEC),
    pl("switch.passes_per_frame", "count", Better::Lower, FRAME_EXEC),
    // Frame path, table lookup.
    pl("table.lookup_ns", "ns", Better::Lower, FRAME_TABLE),
    pl("table.lookups_per_frame", "count", Better::Lower, FRAME_TABLE),
    pl("table.hit_ratio", "ratio", Better::Higher, FRAME_TABLE),
    pl("table.entries_max", "count", Better::Lower, FRAME_TABLE),
    pl("table.cache_hit_ratio", "ratio", Better::Higher, FRAME_TABLE),
    // Frame path, observability.
    pl("trace.events_per_frame", "count", Better::Lower, FRAME_OBS),
    pl("trace.dropped_events", "count", Better::Lower, FRAME_OBS),
    // Deploy path.
    pl("lang.parse_us", "us", Better::Lower, DEPLOY_FRONT),
    pl("lang.check_us", "us", Better::Lower, DEPLOY_FRONT),
    pl("compiler.lower_us", "us", Better::Lower, DEPLOY_FRONT),
    pl("compiler.alloc_us", "us", Better::Lower, DEPLOY_SOLVER),
    pl("compiler.alloc_nodes", "count", Better::Lower, DEPLOY_SOLVER),
    pl("ctl.deploy_us", "us", Better::Lower, DEPLOY_FRONT),
    pl("ctl.commit_us", "us", Better::Lower, DEPLOY_FRONT),
    pl("control.apply_us", "us", Better::Lower, DEPLOY_FRONT),
    pl("control.ops_per_deploy", "count", Better::Lower, DEPLOY_FRONT),
    pl("control.sim_update_us", "sim_us", Better::Lower, "simulated device delay; exact for a seed"),
    pl("ctl.entry_cache_hit_ratio", "ratio", Better::Higher, DEPLOY_FRONT),
    pl("ctl.allocs_per_deploy", "count", Better::Lower, DEPLOY_FRONT),
    pl("ctl.revoke_us", "us", Better::Lower, "moves ops_per_s on deploy_*, frames_1k_churn, server_churn"),
    // Server.
    pl("server.ping_rtt_us", "us", Better::Lower, SERVER),
    pl("server.rtt_us", "us", Better::Lower, SERVER),
    pl("server.overhead_us", "us", Better::Lower, SERVER),
    pl("server.batch_size_mean", "count", Better::Higher, SERVER),
    pl("server.coalesced_share", "ratio", Better::Higher, SERVER),
    pl("server.rejected", "count", Better::Lower, SERVER),
    pl("server.sim_update_us_p50", "sim_us", Better::Lower, "tick-dependent today (ROADMAP item 1); ungated"),
    // Context.
    pl("sim.fingerprint", "count", Better::Lower, "exact for a seed; a simulator speed-up must leave it identical"),
    pl("switch.emitted_share", "ratio", Better::Higher, CONTEXT),
    pl("switch.dropped_share", "ratio", Better::Lower, CONTEXT),
    pl("switch.bytes_per_frame", "count", Better::Lower, CONTEXT),
    pl("op_ns_tail", "ns", Better::Lower, "the operation's tail; not gated, a shared box does not repeat it within a tenth"),
    pl("op_tail_percentile", "%", Better::Higher, "highest percentile with >= 10 samples beyond it"),
    pl("op_samples", "count", Better::Higher, "samples behind the traced medians"),
    pl("bench.traced_op_ns_p50", "ns", Better::Lower, "the operation under tracing; against op_ns_p50 it gives the tracing overhead"),
    pl("bench.spans", "count", Better::Lower, "spans held in memory by the traced run"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn names_ok<'a>(names: impl Iterator<Item = &'a str>) {
        let mut seen = std::collections::HashSet::new();
        for n in names {
            assert!(n.len() <= 64 && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
            assert!(seen.insert(n), "duplicate name {n}");
        }
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        names_ok(
            WORKLOADS
                .iter()
                .map(|w| w.name)
                .chain(END_TO_END.iter().map(|m| m.name))
                .chain(PER_LAYER.iter().map(|m| m.name)),
        );
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for unit in END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit)) {
            assert!(unit.len() <= 16);
            assert!(unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
        match v.get(key) {
            Some(Value::Str(s)) => s,
            other => panic!("`{key}` not a string: {other:?}"),
        }
    }

    /// `BENCHMARK.json` restates these tables for the driver; they must not
    /// drift apart.
    #[test]
    fn benchmark_json_restates_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let doc = serde::json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let list = |key: &str| doc.get(key).and_then(Value::as_array).expect("array").to_vec();

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!((str_of(j, "name"), str_of(j, "why")), (w.name, w.why));
        }
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(
                (str_of(j, "name"), str_of(j, "unit"), str_of(j, "better")),
                (m.name, m.unit, m.better.as_str())
            );
            assert_eq!(j.get("bound"), Some(&Value::F64(m.bound)));
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(
                (str_of(j, "name"), str_of(j, "unit"), str_of(j, "better")),
                (m.name, m.unit, m.better.as_str())
            );
        }
    }
}
