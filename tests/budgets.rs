//! Count-based budgets: gates that hold on any host because they count
//! instead of timing (ROADMAP item 8).
//!
//! * the public surface of the nine library crates, by the census regex
//!   `^\s*pub ((const |unsafe |async )?(fn|struct|enum|trait|const|type|static|use|mod) )`
//!   — a ratchet: a PR that exports something new raises a number here on
//!   purpose or not at all;
//! * solver nodes for the paper's three deep programs on an empty plane
//!   (`p4rp_bench`'s `compiler.alloc_nodes`), and for each of the 15
//!   families on the 128-resident plane `deploy_deep` churns over, exactly;
//! * a fingerprint of every resident's memory region on that plane plus
//!   the three deep programs, exactly;
//! * heap allocations of one warm deploy of each `deploy_shallow` family
//!   and of its revoke, as upper bounds, of parsing and lowering `hll`
//!   (the largest of them), exactly, and of the rest of a warm `hll`
//!   deploy that hits the entry-template cache (`p4rp_bench`'s
//!   `ctl.allocs_per_deploy` counts such deploys), exactly;
//! * RPCs, control ops, trace events and lifecycle spans of one warm deploy
//!   and one revoke of `cache`, in each channel mode, exactly;
//! * trace events of 1 000 warm NetCache-mix frames with telemetry,
//!   attribution and the ring on (`p4rp_bench`'s `trace.events_per_frame`),
//!   exactly, the ring's bytes per event of capacity, as a ceiling, and the
//!   events one `journeys` call pulls from the ring (the retained ones),
//!   exactly.
//!
//! The counting allocator is `tests/zero_alloc.rs`'s
//! (`support/counting_alloc.rs`): this binary's own, counting per thread.

use p4runpro::p4rp_compiler::alloc::{allocate, AllocConfig, AllocView};
use p4runpro::p4rp_compiler::ir::{lower, MemDecl};
use p4runpro::p4rp_dataplane::{RPB_MEM_SIZE, RPB_TABLE_SIZE};
use p4runpro::p4rp_progs::{instance, Family, WorkloadParams};
use p4runpro::rmt_sim::trace::{journeys, TraceConfig};
use p4runpro::traffic::{make_flows, netcache_frame};
use p4runpro::{parse, Controller};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::Path;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, bytes_allocated, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Does `line` declare a `pub` item, by the census regex?
fn is_pub_item(line: &str) -> bool {
    const KINDS: [&str; 9] = [
        "fn ", "struct ", "enum ", "trait ", "const ", "type ", "static ", "use ", "mod ",
    ];
    let Some(rest) = line.trim_start().strip_prefix("pub ") else {
        return false;
    };
    ["", "const ", "unsafe ", "async "]
        .iter()
        .filter_map(|qualifier| rest.strip_prefix(qualifier))
        .any(|rest| KINDS.iter().any(|kind| rest.starts_with(kind)))
}

fn pub_items_under(dir: &Path) -> usize {
    let mut n = 0;
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            n += pub_items_under(&path);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            n += std::fs::read_to_string(&path)
                .unwrap()
                .lines()
                .filter(|l| is_pub_item(l))
                .count();
        }
    }
    n
}

#[test]
fn public_surface_stays_within_its_budget() {
    // What PR 22 reached (1 056 in total before it).
    let budgets = [
        ("netpkt", 55),
        ("rmt-sim", 316),
        ("p4rp-lang", 29),
        ("p4rp-dataplane", 67),
        ("p4rp-compiler", 36),
        ("p4rp-ctl", 120),
        ("baselines", 22),
        ("traffic", 38),
        ("p4rp-progs", 31),
    ];
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    for (name, budget) in budgets {
        let found = pub_items_under(&crates.join(name).join("src"));
        assert!(
            found <= budget,
            "{name} exports {found} `pub` items, its budget is {budget}: \
             lower the budget or justify the new export"
        );
    }
}

fn family(name: &str) -> Family {
    *Family::ALL.iter().find(|f| f.name() == name).unwrap()
}

#[test]
fn deep_programs_cost_a_fixed_number_of_solver_nodes() {
    let view = AllocView::unconstrained(RPB_TABLE_SIZE, RPB_MEM_SIZE);
    for (name, nodes) in [("hh", 23), ("nc", 23), ("fw", 11)] {
        let unit = parse(&instance(family(name), 60_000, WorkloadParams::default())).unwrap();
        let mems: Vec<MemDecl> = unit
            .annotations
            .iter()
            .map(|a| MemDecl {
                name: a.name.clone(),
                size: a.size as u32,
            })
            .collect();
        let ir = lower(&unit.programs[0], &mems).unwrap();
        let a = allocate(&ir, &view, &AllocConfig::default()).unwrap();
        assert_eq!(
            a.nodes_explored, nodes,
            "compiler.alloc_nodes of {name} on an empty plane"
        );
    }
}

#[test]
fn warm_shallow_deploys_and_revokes_stay_within_their_allocation_budgets() {
    // `deploy_shallow`'s seven families, one warm cycle each.
    let shallow = ["l2", "l3", "tun", "cms", "bf", "sumax", "hll"];
    let mut ctl = Controller::with_defaults().unwrap();
    let (mut deploys, mut revokes) = (0, 0);
    for name in shallow {
        // The first cycle warms the controller. Instance 1 names its
        // memories apart from instance 0 but has its shape, so its entries
        // come from instance 0's template.
        let warm_up = ctl
            .deploy(&instance(family(name), 0, WorkloadParams::default()))
            .unwrap();
        ctl.revoke(&warm_up[0].name).unwrap();

        let source = instance(family(name), 1, WorkloadParams::default());
        let before = allocations();
        let deployed = ctl.deploy(&source).unwrap();
        let after_deploy = allocations();
        ctl.revoke(&deployed[0].name).unwrap();
        deploys += after_deploy - before;
        revokes += allocations() - after_deploy;
    }
    assert!(
        deploys <= 1355,
        "ctl.allocs_per_deploy: {deploys} allocations in seven deploys"
    );
    assert!(revokes <= 86, "{revokes} allocations in their revokes");
}

#[test]
fn a_warm_hll_deploy_costs_a_fixed_number_of_allocations_after_parse_and_lower() {
    // The same source twice, as `deploy_shallow` cycles it: the second
    // deploy hits the entry-template cache (as another instance of the
    // family would: memory names are not part of a shape).
    let source = instance(family("hll"), 1, WorkloadParams::default());
    let mut ctl = Controller::with_defaults().unwrap();
    let warm_up = ctl.deploy(&source).unwrap();
    ctl.revoke(&warm_up[0].name).unwrap();

    let before = allocations();
    let unit = parse(&source).unwrap();
    let mems: Vec<MemDecl> = unit
        .annotations
        .iter()
        .map(|a| MemDecl {
            name: a.name.clone(),
            size: a.size as u32,
        })
        .collect();
    drop(lower(&unit.programs[0], &mems).unwrap());
    drop((unit, mems));
    let front = allocations() - before;
    let before = allocations();
    ctl.deploy(&source).unwrap();
    let back = allocations() - before - front;
    assert_eq!(back, 554, "allocations of a warm hll deploy after its parse and lower");
}

#[test]
fn parsing_and_lowering_hll_cost_a_fixed_number_of_allocations() {
    // The largest shallow program: 32 inelastic rank cases, 826 tokens.
    let source = instance(family("hll"), 1, WorkloadParams::default());
    let before = allocations();
    let unit = parse(&source).unwrap();
    let parsed = allocations() - before;
    let mems: Vec<MemDecl> = unit
        .annotations
        .iter()
        .map(|a| MemDecl {
            name: a.name.clone(),
            size: a.size as u32,
        })
        .collect();
    let before = allocations();
    let ir = lower(&unit.programs[0], &mems).unwrap();
    let lowered = allocations() - before;
    drop(ir);
    assert_eq!(
        (parsed, lowered),
        (77, 121),
        "allocations in hll's parse and lower"
    );
}

/// `[RPCs, control ops, trace events, spans]` of whatever `ctl` recorded
/// from trace event `seq` and lifecycle span `span` on.
fn lifecycle_counts(ctl: &Controller, seq: u64, span: u64) -> [usize; 4] {
    let names: Vec<&str> = ctl
        .trace()
        .unwrap()
        .events()
        .filter(|e| e.seq >= seq)
        .map(|e| e.kind.name())
        .collect();
    let count = |wanted: &[&str]| names.iter().filter(|n| wanted.contains(n)).count();
    [
        count(&["batch_begin"]),
        count(&["entry_insert", "entry_delete", "reg_write"]),
        names.len(),
        ctl.lifecycle_spans().filter(|s| s.seq >= span).count(),
    ]
}

#[test]
fn a_cache_deploy_and_revoke_cost_a_fixed_number_of_rpcs_ops_events_and_spans() {
    // (bulk channel, deploy, revoke): per-entry mode sends one RPC per
    // batch of the plan (body + filter; filter + body + memory reset), bulk
    // mode one per plan. `cache` writes 17 entries and owns one memory; the
    // other events are the epoch bump, each RPC's begin / end pair and the
    // closing lifecycle event.
    let budgets =
        [(false, [2, 17, 23, 1], [3, 18, 26, 1]), (true, [1, 17, 21, 1], [1, 18, 22, 1])];
    for (bulk, deploy, revoke) in budgets {
        let mut ctl = Controller::with_defaults().unwrap();
        ctl.set_fast_path(bulk);
        ctl.enable_trace(TraceConfig { postmortem_dir: None, ..TraceConfig::default() });
        let warm_up = ctl.deploy(&instance(family("cache"), 0, WorkloadParams::default())).unwrap();
        ctl.revoke(&warm_up[0].name).unwrap();

        let (seq, span) = (ctl.trace().unwrap().recorded(), 2);
        let deployed = ctl.deploy(&instance(family("cache"), 1, WorkloadParams::default())).unwrap();
        assert_eq!(lifecycle_counts(&ctl, seq, span), deploy, "deploy, bulk={bulk}");
        assert_eq!(deployed[0].entries_installed, deploy[1], "control.ops_per_deploy");

        let (seq, span) = (ctl.trace().unwrap().recorded(), 3);
        ctl.revoke(&deployed[0].name).unwrap();
        assert_eq!(lifecycle_counts(&ctl, seq, span), revoke, "revoke, bulk={bulk}");
    }
}

/// Trace events of 1 000 warm frames of `tests/zero_alloc.rs`'s NetCache
/// hit mix (nine reads of the resident key to one of another), with every
/// recorder on: the count behind `p4rp_bench`'s `trace.events_per_frame`.
/// Every event, its order and its content is part of the flight recorder's
/// contract, so this moves only when a hook is added or removed on purpose.
///
/// And the ring's bytes per event of capacity: one slot, 40 bytes. A ratchet
/// — it may only go down. And `journeys` over that ring is one pass.
#[test]
fn observed_netcache_frames_record_a_fixed_number_of_trace_events_into_40_byte_slots() {
    const CAPACITY: u64 = 4096;
    const KEY: u32 = 0x4242;
    let mut ctl = Controller::with_defaults().unwrap();
    ctl.enable_attribution();
    let before = bytes_allocated();
    ctl.enable_trace(TraceConfig {
        capacity: CAPACITY as usize,
        postmortem_dir: None,
        ..TraceConfig::default()
    });
    let ring_bytes = bytes_allocated() - before;
    // The ring is allocated whole when tracing is enabled; the rest of what
    // `enable_trace` allocates is the ring's header, well under `CAPACITY`
    // bytes.
    assert!(ring_bytes / CAPACITY <= 40, "{ring_bytes} bytes for {CAPACITY} events");

    ctl.deploy(&p4runpro::p4rp_progs::sources::cache(
        "cache",
        "<hdr.udp.dst_port, 7777, 0xffff>",
        1024,
        &[(KEY, 512)],
    ))
    .unwrap();
    let frames: Vec<Vec<u8>> = make_flows(1, 20, 0.0)
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let key = if i % 10 == 9 { KEY + 1 + i as u32 } else { KEY };
            netcache_frame(&f.tuple, netpkt::CacheOp::Read, u64::from(key), 0)
        })
        .collect();
    let inject = |ctl: &mut Controller, n: usize| {
        for i in 0..n {
            ctl.inject((i % 4) as u16, &frames[i % frames.len()]).unwrap();
        }
    };
    inject(&mut ctl, 64);
    let before = ctl.trace().unwrap().recorded();
    inject(&mut ctl, 1000);
    let events = ctl.trace().unwrap().recorded() - before;
    assert_eq!(events, 40_400, "trace events of 1 000 observed frames");

    // Journey reconstruction reads the ring once, however many packets it
    // holds: one `journeys` call pulls exactly the retained events.
    let trace = ctl.trace().unwrap();
    let mut pulled = 0;
    let packets = journeys(trace.events().inspect(|_| pulled += 1)).len();
    assert!(packets > 1, "{packets} journeys");
    assert_eq!(pulled, trace.stats().retained, "events pulled by one `journeys` call");
}

/// The 128-resident plane `p4rp_bench`'s `deploy_deep` churns over: the
/// twelve shallow families in turn.
fn resident_plane() -> Controller {
    let shallow = [
        "cache", "lb", "dqacc", "l2", "l3", "tun", "calc", "ecn", "cms", "bf", "sumax", "hll",
    ];
    let mut ctl = Controller::with_defaults().unwrap();
    for i in 0..128 {
        ctl.deploy(&instance(
            family(shallow[i % shallow.len()]),
            i,
            WorkloadParams::default(),
        ))
        .unwrap();
    }
    ctl
}

#[test]
fn every_family_costs_a_fixed_number_of_solver_nodes_on_the_resident_plane() {
    let ctl = resident_plane();
    let nodes: Vec<(&str, u64)> = Family::ALL
        .iter()
        .map(|&f| {
            let unit = parse(&instance(f, 60_000, WorkloadParams::default())).unwrap();
            let mems: Vec<MemDecl> = unit
                .annotations
                .iter()
                .map(|a| MemDecl {
                    name: a.name.clone(),
                    size: a.size as u32,
                })
                .collect();
            let ir = lower(&unit.programs[0], &mems).unwrap();
            let a = allocate(&ir, ctl.resources().alloc_view(), ctl.alloc_config()).unwrap();
            (f.name(), a.nodes_explored)
        })
        .collect();
    let pinned = [
        ("cache", 10),
        ("lb", 8),
        ("hh", 23),
        ("nc", 23),
        ("dqacc", 6),
        ("fw", 11),
        ("l2", 3),
        ("l3", 3),
        ("tun", 3),
        ("calc", 7),
        ("ecn", 5),
        ("cms", 8),
        ("bf", 8),
        ("sumax", 8),
        ("hll", 6),
    ];
    assert_eq!(
        nodes, pinned,
        "compiler.alloc_nodes per family over 128 residents"
    );
}

/// Where every resident's memory landed, `(rpb, offset, size)` in name
/// order, after the resident plane plus one `hh`, `nc` and `fw`: placement
/// is a pure function of the deploy sequence, so this moves only when the
/// placement rule does.
#[test]
fn the_resident_plane_places_memory_at_fixed_offsets() {
    let mut ctl = resident_plane();
    for name in ["hh", "nc", "fw"] {
        ctl.deploy(&instance(family(name), 60_000, WorkloadParams::default()))
            .unwrap();
    }
    let mut residents: Vec<_> = ctl.deployed_programs().collect();
    residents.sort_by_key(|(name, _)| *name);
    let mut h = DefaultHasher::new();
    let mut regions = 0;
    for (_, p) in residents {
        for r in &p.image.mem_regions {
            (r.rpb.0, r.offset, r.size).hash(&mut h);
            regions += 1;
        }
    }
    assert_eq!(
        (regions, h.finish()),
        (122, 9_870_182_301_668_028_282),
        "placement fingerprint"
    );
}
