//! The fast allocator against the reference: the window-propagated
//! solver in `p4rp_compiler::alloc` must be observationally equivalent to
//! the naive DFS kept beside this suite (`support/alloc_reference.rs`) —
//! same feasibility verdict and the same (exact) objective on every
//! program and plane state — plus a regression test that back-to-back
//! deploys competing for the same RPB never double-book memory or table
//! entries.
//!
//! The reference is the §4.3 model written out directly, with no pruning
//! beyond the `x_L` bound; the fast solver searches only inside propagated
//! per-level windows and adds suffix-capacity cuts and free-slot
//! dominance, all of which must be invisible in the result. The windows
//! themselves are checked for soundness: no assignment the reference
//! finds may lie outside them. Cases where the reference runs out of its
//! (large) node budget are discarded, so exact equality (not just "no
//! worse") is the right assertion.

use proptest::prelude::*;
use p4runpro::p4rp_compiler::alloc::{
    allocate, slot_requirements, windows, AllocConfig, AllocView, Objective,
};
use p4runpro::p4rp_compiler::ir::{lower, MemDecl, ProgramIr};
use p4runpro::p4rp_dataplane::{LogicalRpb, RpbId, NUM_RPBS, RPB_MEM_SIZE, RPB_TABLE_SIZE};
use p4runpro::p4rp_lang::parse;
use p4runpro::p4rp_ctl::Controller;
use p4runpro::p4rp_progs::{instance, Family, WorkloadParams};
use p4runpro::rmt_sim::trace::TraceConfig;

#[path = "support/alloc_reference.rs"]
mod alloc_reference;

fn ir_of(src: &str) -> ProgramIr {
    let unit = parse(src).unwrap();
    let mems: Vec<MemDecl> = unit
        .annotations
        .iter()
        .map(|a| MemDecl { name: a.name.clone(), size: a.size as u32 })
        .collect();
    lower(&unit.programs[0], &mems).unwrap()
}

/// The §4.3 model stated directly, independent of both solvers: do the
/// assignment `x` and the memory regions `(rpb, offset, size)`, one per
/// `ir.memories` entry, satisfy constraints (1)–(6) on `view`? Memory (3)
/// is checked on the concrete regions the resource manager commits: each
/// has its memory's size, lies in the RPB of its memory's first access,
/// inside one free span of that RPB, and no two regions overlap.
fn check_assignment(
    ir: &ProgramIr,
    view: &AllocView,
    max_index: u16,
    x: &[u16],
    regions: &[(RpbId, u32, u32)],
) -> Result<(), String> {
    let (reqs, pairs) = slot_requirements(ir);
    if x.len() != reqs.len() || x[0] < 1 || *x.last().unwrap() > max_index {
        return Err(format!("{x:?}: wrong length or outside 1..={max_index}"));
    }
    if !x.windows(2).all(|w| w[0] < w[1]) {
        return Err(format!("(1) not strictly increasing: {x:?}"));
    }
    let at = |i: usize| LogicalRpb::from_index(x[i]);
    if let Some(&(a, b)) = pairs.iter().find(|&&(a, b)| at(a).pass() != at(b).pass()) {
        return Err(format!("(6) levels {a} and {b} in different passes: {x:?}"));
    }
    if regions.len() != ir.memories.len() {
        return Err(format!(
            "{} regions for {} memories",
            regions.len(),
            ir.memories.len()
        ));
    }
    let mut used = [0usize; NUM_RPBS];
    let mut home: std::collections::HashMap<&str, (usize, u8)> = Default::default();
    for (i, req) in reqs.iter().enumerate() {
        let (rpb, pass) = (usize::from(at(i).rpb().0) - 1, at(i).pass());
        if req.is_forwarding && !at(i).is_ingress() {
            return Err(format!("(4) forwarding level {i} in an egress RPB: {x:?}"));
        }
        used[rpb] += req.entries;
        if used[rpb] > view.te_free[rpb] {
            return Err(format!("(2) RPB {} over its free entries at level {i}: {x:?}", rpb + 1));
        }
        for m in &req.mems {
            match home.insert(m, (rpb, pass)) {
                Some((r, p)) if r != rpb || p >= pass => {
                    return Err(format!("(5) `{m}` at level {i} not in its RPB on a later pass: {x:?}"));
                }
                Some(_) => {}
                None => {
                    let k = ir.memories.iter().position(|d| &d.name == m).unwrap();
                    let (r, offset, size) = regions[k];
                    if usize::from(r.0) != rpb + 1 || size != ir.memories[k].size {
                        return Err(format!(
                            "(3) `{m}` at {:?}, first accessed in RPB {}",
                            regions[k],
                            rpb + 1
                        ));
                    }
                    let inside = |&(start, len): &(u32, u32)| {
                        start <= offset && offset + size <= start + len
                    };
                    if !view.mem_free[rpb].iter().any(inside) {
                        return Err(format!(
                            "(3) `{m}` at {:?} is not inside a free span: {x:?}",
                            regions[k]
                        ));
                    }
                }
            }
        }
    }
    if home.len() != ir.memories.len() {
        return Err(format!(
            "(3) only {} of {} memories accessed",
            home.len(),
            ir.memories.len()
        ));
    }
    for (i, a) in regions.iter().enumerate() {
        if let Some(b) = regions[i + 1..]
            .iter()
            .find(|b| a.0 == b.0 && a.1 < b.1 + b.2 && b.1 < a.1 + a.2)
        {
            return Err(format!("(3) regions {a:?} and {b:?} overlap"));
        }
    }
    Ok(())
}

/// Random program source: register ops, up to two accesses to each of two
/// virtual memories (R = 1 permits at most two passes), optional
/// forwarding primitives that trigger the ingress-only constraint. Up to
/// 13 statements, so programs that use both memories twice — two passes,
/// two same-memory links — appear.
fn arb_source() -> impl Strategy<Value = String> {
    let reg = prop::sample::select(vec!["har", "sar", "mar"]);
    let simple = (reg.clone(), 0u32..1000).prop_map(|(r, i)| format!("LOADI({r}, {i});"));
    let two = (reg.clone(), reg, prop::sample::select(vec!["ADD", "XOR", "MIN", "MAX"]))
        .prop_filter_map("distinct regs", |(a, b, op)| {
            (a != b).then(|| format!("{op}({a}, {b});"))
        });
    let mem = prop::sample::select(vec![
        "LOADI(mar, 3); MEMREAD(ma);",
        "HASH_5_TUPLE_MEM(ma); MEMADD(ma);",
        "LOADI(mar, 7); MEMWRITE(mb);",
        "HASH_5_TUPLE_MEM(mb); MEMMAX(mb);",
    ])
    .prop_map(str::to_string);
    let fwd = prop::sample::select(vec!["FORWARD(5);", "DROP;"]).prop_map(str::to_string);
    let stmt = prop_oneof![simple, two, mem, fwd];
    proptest::collection::vec(stmt, 1..14)
        .prop_filter("≤2 accesses per memory", |stmts| {
            let joined = stmts.join(" ");
            joined.matches("(ma)").count() <= 2 && joined.matches("(mb)").count() <= 2
        })
        .prop_map(|stmts| {
            format!(
                "@ ma 256\n@ mb 128\nprogram p(<hdr.ipv4.dst, 10.0.0.1, 0xffffffff>) {{\n    {}\n}}\n",
                stmts.join("\n    ")
            )
        })
}

/// Random plane state: every RPB keeps full, reduced, or fragmented
/// entries and memory. Realism doesn't matter — both solvers must agree
/// on *any* view — but mixing full and tight RPBs exercises both the
/// feasible and infeasible paths.
fn arb_view() -> impl Strategy<Value = AllocView> {
    // Unweighted arms: repeat the full-capacity case so most RPBs stay
    // usable and the feasible path gets real coverage.
    let te = prop_oneof![
        Just(RPB_TABLE_SIZE),
        Just(RPB_TABLE_SIZE),
        Just(RPB_TABLE_SIZE),
        Just(RPB_TABLE_SIZE),
        0usize..8,
        8usize..64,
    ];
    let mem = prop_oneof![
        Just(vec![RPB_MEM_SIZE]),
        Just(vec![RPB_MEM_SIZE]),
        Just(vec![RPB_MEM_SIZE]),
        Just(vec![RPB_MEM_SIZE]),
        Just(vec![]),
        proptest::collection::vec(0u32..512, 1..3),
        Just(vec![300, RPB_MEM_SIZE / 2]),
    ];
    // Span lengths, laid out in address order 8 buckets apart (a lone
    // span starts at 0).
    let spans = |lens: Vec<u32>| -> Vec<(u32, u32)> {
        let mut at = 0;
        lens.into_iter()
            .map(|len| {
                let span = (at, len);
                at += len + 8;
                span
            })
            .collect()
    };
    (
        proptest::collection::vec(te, NUM_RPBS..NUM_RPBS + 1),
        proptest::collection::vec(mem, NUM_RPBS..NUM_RPBS + 1),
    )
        .prop_map(move |(te_free, lens)| AllocView {
            te_free,
            mem_free: lens.into_iter().map(spans).collect(),
        })
}

fn arb_objective() -> impl Strategy<Value = Objective> {
    prop_oneof![
        Just(Objective::LastOnly),
        Just(Objective::Hierarchical),
        Just(Objective::paper_default()),
        Just(Objective::WeightedDiff { alpha: 0.5, beta: 0.5 }),
        Just(Objective::Ratio),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("P4RP_PROPTEST_CASES")
            .ok().and_then(|s| s.parse().ok()).unwrap_or(48),
        .. ProptestConfig::default()
    })]

    /// Fast solver ≡ reference DFS: same verdict, same objective, and an
    /// `x_L` that is no worse, on random programs × planes × objectives.
    #[test]
    fn fast_solver_matches_reference(
        src in arb_source(),
        view in arb_view(),
        objective in arb_objective(),
    ) {
        let ir = ir_of(&src);
        // Completeness makes exact equality the correct assertion: a case
        // where the reference exhausts even this budget is discarded.
        let fast_cfg = AllocConfig { objective, node_budget: 20_000_000, ..AllocConfig::default() };

        let fast = allocate(&ir, &view, &fast_cfg);
        let reference = alloc_reference::solve(&ir, &view, &fast_cfg);
        if let Ok(f) = &fast {
            let valid = check_assignment(&ir, &view, 44, &f.x, &f.regions);
            prop_assert!(valid.is_ok(), "fast solver broke the model: {}", valid.unwrap_err());
            // Where the fast solver runs out of budget, the reference —
            // which visits a superset of its nodes — cannot have finished.
            prop_assert!(
                f.truncated_solves == 0 || reference.as_ref().map_or(true, |r| r.truncated_solves > 0),
                "only the fast solver truncated: {:?}", f,
            );
            // A valid assignment the reference did not find: it ran out of
            // budget in every inner solve, which an `Err` cannot report.
            prop_assume!(reference.is_ok());
        }
        if let Ok(r) = &reference {
            prop_assume!(r.truncated_solves == 0);
        }
        match (fast, reference) {
            (Ok(f), Ok(r)) => {
                // Window soundness: the reference's assignment lies inside
                // every window, with x_1 free and with x_1 held where the
                // reference put it; the latter's lower bound on x_L holds.
                for pin in [None, Some(r.x[0])] {
                    let w = windows(&ir, &view, &fast_cfg, pin);
                    prop_assert!(w.is_ok(), "windows({:?}) empty, reference found {:?}", pin, r.x);
                    let w = w.unwrap();
                    for (i, (&xi, &(lo, hi))) in r.x.iter().zip(&w).enumerate() {
                        prop_assert!(
                            lo <= xi && xi <= hi,
                            "windows({:?}): level {} at {} outside [{}, {}] (x {:?})",
                            pin, i, xi, lo, hi, r.x,
                        );
                    }
                    prop_assert!(w.last().unwrap().0 <= *r.x.last().unwrap());
                }
                prop_assert!(
                    (f.objective_value - r.objective_value).abs() < 1e-9,
                    "objective diverged: fast {} vs reference {} (x {:?} vs {:?})",
                    f.objective_value, r.objective_value, f.x, r.x,
                );
                prop_assert!(
                    f.x.last() <= r.x.last(),
                    "fast x_L worse: {:?} vs {:?}", f.x, r.x,
                );
                prop_assert_eq!(f.passes, r.passes);
                if f.x == r.x {
                    prop_assert_eq!(&f.regions, &r.regions);
                }
                prop_assert!(
                    f.nodes_explored <= r.nodes_explored,
                    "pruned solver explored more nodes: {} vs {}",
                    f.nodes_explored, r.nodes_explored,
                );
            }
            (Err(_), Err(_)) => {} // Same verdict: infeasible for both.
            (f, r) => prop_assert!(
                false,
                "verdict diverged: fast {:?} vs reference {:?}",
                f.map(|a| a.x), r.map(|a| a.x),
            ),
        }
    }
}

/// The paper's three deep programs (depth 11–23, two passes), on an empty
/// plane and on the 128-resident plane the benchmark's `deploy_deep`
/// churns over: the solve is exact (nothing truncated, the same answer
/// with an unlimited budget), cheap, and no worse than what the
/// enumeration-based solver returned before it, whose inner solves ran
/// out of budget on exactly these programs.
#[test]
fn deep_programs_solve_exactly_in_a_few_hundred_nodes() {
    let family = |name: &str| *Family::ALL.iter().find(|f| f.name() == name).unwrap();
    let source = |name: &str, i: usize| instance(family(name), i, WorkloadParams::default());
    let shallow =
        ["cache", "lb", "dqacc", "l2", "l3", "tun", "calc", "ecn", "cms", "bf", "sumax", "hll"];
    let mut ctl = Controller::with_defaults().unwrap();
    for i in 0..128 {
        ctl.deploy(&source(shallow[i % shallow.len()], i)).unwrap();
    }
    let loaded = ctl.resources().alloc_view().clone();
    let empty = AllocView::unconstrained(RPB_TABLE_SIZE, RPB_MEM_SIZE);

    // f1 objective values of the parent solver (budget 200 000, truncated).
    for (name, parent_objective) in [("hh", 16.2), ("nc", 16.2), ("fw", 12.6)] {
        let ir = ir_of(&source(name, 60_000));
        for (plane, view) in [("empty", &empty), ("128 residents", &loaded)] {
            let cfg = AllocConfig::default();
            let a = allocate(&ir, view, &cfg).unwrap();
            assert_eq!(a.truncated_solves, 0, "{name} on {plane}");
            assert!(a.nodes_explored <= 20_000, "{name} on {plane}: {} nodes", a.nodes_explored);
            assert!(
                a.objective_value <= parent_objective + 1e-9,
                "{name} on {plane}: {} > {parent_objective}",
                a.objective_value
            );
            let unlimited = AllocConfig { node_budget: u64::MAX, ..cfg };
            assert_eq!(a, allocate(&ir, view, &unlimited).unwrap(), "{name} on {plane}");
        }
    }
}

/// Conflicting deploys must never double-book resources: on an empty
/// plane all six programs want the same placement, so each one has to be
/// allocated against the view its predecessors left behind. Granted
/// regions must end up pairwise disjoint, and the invariant checker must
/// stay quiet through deploy-under-replay.
#[test]
fn concurrent_deploys_never_double_book() {
    let mut ctl = Controller::with_defaults().unwrap();
    ctl.enable_trace(TraceConfig::default());

    // Each program wants an entire RPB's memory (sizes must be powers of
    // two for mask-based address translation), so no two fit in the RPB
    // an empty plane steers them all toward.
    let big = RPB_MEM_SIZE;
    let sources: Vec<String> = (0..6)
        .map(|i| {
            format!(
                "@ m{i} {big}\nprogram p{i}(<hdr.ipv4.dst, 10.1.{i}.1, 0xffffffff>) \
                 {{ LOADI(mar, 1); MEMREAD(m{i}); MODIFY(hdr.ipv4.ttl, har); }}"
            )
        })
        .collect();
    for s in &sources {
        ctl.deploy(s).expect("plane has room for all six in distinct RPBs");
    }

    // No two granted regions overlap within an RPB.
    let mut regions: Vec<(u8, u32, u32)> = Vec::new();
    for (_, p) in ctl.deployed_programs() {
        for r in &p.image.mem_regions {
            regions.push((r.rpb.0, r.offset, r.size));
        }
    }
    assert_eq!(regions.len(), 6);
    for (i, a) in regions.iter().enumerate() {
        for b in &regions[i + 1..] {
            if a.0 == b.0 {
                let disjoint = a.1 + a.2 <= b.1 || b.1 + b.2 <= a.1;
                assert!(disjoint, "regions overlap: {a:?} vs {b:?}");
            }
        }
    }

    // Distinct values written per program read back intact — aliased
    // regions would clobber each other.
    for i in 0..6u32 {
        ctl.write_memory(&format!("p{i}"), &format!("m{i}"), 9, 1000 + i).unwrap();
    }
    for i in 0..6u32 {
        let v = ctl.read_memory(&format!("p{i}"), &format!("m{i}")).unwrap();
        assert_eq!(v[9], 1000 + i, "program p{i} lost its write");
    }

    // Deploy-under-replay: traffic through the freshly committed plane,
    // then tear half down, with the flight recorder's invariant checker
    // watching the whole time.
    let frame = p4runpro::traffic::frame_for(
        &p4runpro::netpkt::FiveTuple {
            src_addr: std::net::Ipv4Addr::new(10, 9, 9, 9),
            dst_addr: std::net::Ipv4Addr::new(10, 1, 0, 1),
            src_port: 4000,
            dst_port: 5000,
            protocol: 17,
        },
        8,
    );
    for _ in 0..64 {
        ctl.inject(1, &frame).unwrap();
    }
    for i in 0..3 {
        ctl.revoke(&format!("p{i}")).unwrap();
    }
    assert_eq!(ctl.deployed_programs().count(), 3);
    let stats = ctl.trace_stats();
    assert!(stats.enabled);
    assert_eq!(stats.violations, 0, "invariant checker flagged deploy-under-replay");
}

/// The same shape deployed many times exercises the entry-generation
/// cache; outputs must stay per-instance (distinct prog ids and offsets
/// were already covered by the unit test — here the whole pipeline runs).
#[test]
fn repeated_shapes_reuse_entry_templates() {
    let mut ctl = Controller::with_defaults().unwrap();
    let sources: Vec<String> = (0..8)
        .map(|i| {
            format!(
                "@ m 64\nprogram q{i}(<hdr.ipv4.dst, 10.2.{i}.1, 0xffffffff>) \
                 {{ LOADI(mar, 2); MEMADD(m); }}"
            )
        })
        .collect();
    for s in &sources {
        ctl.deploy(s).unwrap();
    }
    let (hits, misses) = ctl.entry_cache_stats();
    assert_eq!(hits + misses, 8);
    assert!(hits >= 6, "identical shapes should hit the template cache: {hits} hits");
}
