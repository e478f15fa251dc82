//! Failure exits of a deploy that only a pre-charged [`ResourceManager`]
//! reaches: each must hand back everything granted before it. And the one
//! placement decision: what the solver accepts is installed at the regions
//! it chose, and the books balance after every deploy, revoke and repair.

use super::*;
use p4rp_dataplane::{INIT_TABLE_SIZE, NUM_RPBS, RECIRC_TABLE_SIZE, RPB_TABLE_SIZE};
use proptest::prelude::*;

/// The catalog's source builders, shared with `p4rp-progs` (which depends
/// on this crate, so it cannot be a dependency here); `pub` there.
#[allow(unreachable_pub)]
#[path = "../../../p4rp-progs/src/sources.rs"]
mod sources;

const FORWARDER: &str = "program fwd(<hdr.ipv4.dst, 10.0.0.1, 0xffffffff>) { FORWARD(1); }";
/// Two accesses of one memory: a second pass, so one recirculation entry.
const TWO_PASS: &str = "@ m 256\nprogram twice(<hdr.ipv4.dst, 10.0.0.2, 0xffffffff>) \
                        { LOADI(mar, 0); MEMREAD(m); LOADI(mar, 1); MEMWRITE(m); }";
/// Two memories on one RPB (sibling branch arms). The solver places them
/// in name order, `a_big` first; `ir.memories` lists them in reference
/// order, `z_small` first.
const SIBLINGS: &str = "@ a_big 128\n@ z_small 64\n\
                        program sib(<hdr.ipv4.dst, 10.0.0.3, 0xffffffff>) { LOADI(mar, 0); BRANCH: \
                        case(<har, 0, 0xffffffff>) { MEMREAD(z_small); } \
                        case(<har, 1, 0xffffffff>) { MEMREAD(a_big); }; FORWARD(1); }";

/// Deploy `source` expecting `CompileError` `want`; the gauges must read
/// the same before and after and the next deploy must be handed id 1.
fn refused_without_a_trace(ctl: &mut Controller, source: &str, want: fn(&CompileError) -> bool) {
    let before = ResourceGauges::collect(&ctl.resman);
    match ctl.deploy(source) {
        Err(CtlError::Compile(e)) if want(&e) => {}
        other => panic!("expected a compile-side refusal, got {other:?}"),
    }
    assert_eq!(ResourceGauges::collect(&ctl.resman), before);
    assert!(ctl.programs.is_empty() && ctl.wedged.is_empty());
    assert_eq!(ctl.take_prog_id().unwrap(), 1, "the refused deploy kept its program id");
}

#[test]
fn a_full_init_table_refuses_the_deploy_and_leaks_nothing() {
    let mut ctl = Controller::with_defaults().unwrap();
    assert!(ctl.resman.charge_init(INIT_TABLE_SIZE));
    refused_without_a_trace(&mut ctl, TWO_PASS, |e| matches!(e, CompileError::InitTableFull { .. }));
}

#[test]
fn a_full_recirculation_block_refuses_the_deploy_and_leaks_nothing() {
    let mut ctl = Controller::with_defaults().unwrap();
    assert!(ctl.resman.charge_recirc(RECIRC_TABLE_SIZE));
    // A single-pass program needs no recirculation entry and still fits.
    ctl.deploy(FORWARDER).unwrap();
    ctl.revoke("fwd").unwrap();
    refused_without_a_trace(&mut ctl, TWO_PASS, |e| matches!(e, CompileError::InitTableFull { .. }));
}

#[test]
fn filter_literals_wider_than_their_field_are_refused_before_any_grant() {
    // Truncated to 16 bits, these would install port 4464 and mask 0xffff.
    for (filter, want) in [
        (
            "<hdr.udp.dst_port, 70000, 0xffff>",
            "check error at 1:1: filter value 70000 exceeds the 16-bit field `hdr.udp.dst_port`",
        ),
        (
            "<hdr.udp.dst_port, 7, 0x1ffff>",
            "check error at 1:1: filter mask 131071 exceeds the 16-bit field `hdr.udp.dst_port`",
        ),
    ] {
        let mut ctl = Controller::with_defaults().unwrap();
        let source = format!("program r({filter}) {{ FORWARD(1); }}");
        refused_without_a_trace(&mut ctl, &source, |e| {
            matches!(e, CompileError::Lang(errs) if errs.len() == 1)
        });
        let Err(CtlError::Compile(CompileError::Lang(errs))) = ctl.deploy(&source) else {
            unreachable!("refused above");
        };
        assert_eq!(errs[0].to_string(), want);
    }
    // The widest literals that fit are accepted.
    let mut ctl = Controller::with_defaults().unwrap();
    ctl.deploy("program r(<hdr.udp.dst_port, 0xffff, 0xffff>) { FORWARD(1); }").unwrap();
}

#[test]
fn cases_ordering_two_memories_oppositely_are_refused_and_leak_nothing() {
    // Without the order check, lowering pads the two cases against each
    // other forever.
    let mut ctl = Controller::with_defaults().unwrap();
    ctl.deploy(FORWARDER).unwrap();
    let source = "@ ma 256\n@ mc 256\nprogram p(<hdr.udp.dst_port, 7, 0xffff>) {\n    BRANCH:\n    \
                  case(<sar, 0, 0xffffffff>) { MEMREAD(ma); MEMREAD(mc); };\n    \
                  case(<sar, 1, 0xffffffff>) { MEMREAD(mc); MEMREAD(ma); };\n}\n";
    let before = ResourceGauges::collect(&ctl.resman);
    let Err(CtlError::Compile(CompileError::Lang(errs))) = ctl.deploy(source) else {
        panic!("expected a check error");
    };
    let message = errs[0].to_string();
    assert!(message.starts_with("check error at 5:1: sibling cases order"), "{message}");
    assert_eq!(ResourceGauges::collect(&ctl.resman), before);
    assert!(ctl.audit().unwrap().clean());
    assert_eq!(ctl.programs.len(), 1);
}

/// A controller whose every RPB is free only in holes of the given sizes,
/// in address order, 8 buckets apart; the rest is taken by no program.
/// Returns the taken ballast regions too.
fn fragmented(holes: &[u32]) -> (Controller, Vec<(RpbId, u32, u32)>) {
    let mut ctl = Controller::with_defaults().unwrap();
    let mut ballast = Vec::new();
    for rpb in (1..=NUM_RPBS as u8).map(RpbId) {
        let mut at = 0;
        for (i, hole) in holes.iter().enumerate() {
            at += hole;
            let size = if i + 1 == holes.len() {
                RPB_MEM_SIZE - at
            } else {
                8
            };
            ballast.push((rpb, at, size));
            at += size;
        }
    }
    for &(rpb, offset, size) in &ballast {
        assert!(ctl.resman.take(rpb, offset, size));
    }
    (ctl, ballast)
}

#[test]
fn a_deploy_the_solver_accepts_is_installed_at_the_regions_it_chose() {
    // Every RPB: free [0, 128) and [136, 200). A second first fit in
    // reference order would put `z_small` at 0 and leave `a_big` no room;
    // the solver's placement fits both.
    let (mut ctl, _) = fragmented(&[128, 64]);
    let before = ctl.resman.alloc_view().clone();
    ctl.deploy(SIBLINGS).unwrap();
    let image = &ctl.programs["sib"].image;
    let regions: Vec<_> = image
        .mem_regions
        .iter()
        .map(|r| (r.name.as_str(), r.rpb, r.offset, r.size))
        .collect();
    let [("z_small", z_rpb, 136, 64), ("a_big", a_rpb, 0, 128)] = regions[..] else {
        panic!("{regions:?}");
    };
    assert_eq!(z_rpb, a_rpb, "one level, one RPB");
    assert!(ctl.resman.alloc_view().mem_free[usize::from(a_rpb.0) - 1].is_empty());
    // The revoke hands both regions back: the same fragmented spans.
    ctl.revoke("sib").unwrap();
    assert_eq!(ctl.resman.alloc_view().mem_free, before.mem_free);
    assert_eq!(ctl.resman.alloc_view().te_free, before.te_free);
}

/// Pool program `k`: one of the 15 catalog families (`k < 15`), or a level
/// holding two or three memories whose name order and reference order
/// disagree. `mem` is a power of two ≥ 16.
fn pool_source(k: usize, mem: u32) -> String {
    let name = format!("p{k}");
    let filter = format!("<hdr.ipv4.dst, 10.7.{k}.1, 0xffffffff>");
    let half = (mem / 2).max(16);
    match k {
        0 => sources::cache(&name, &filter, mem, &[(0x8000, 0)]),
        1 => sources::lb(&name, &filter, mem, &[0, 1]),
        2 => sources::hh(&name, &filter, (mem / 4).max(16), 1024),
        3 => sources::netcache(&name, &filter, half, &[(0x8000, 0)], 128),
        4 => sources::dqacc(&name, &filter, mem),
        5 => sources::firewall(&name, 31, mem)
            .replace("<hdr.ipv4.src, 0.0.0.0, 0x00000000>", &filter),
        6 => sources::l2_forwarding(&name, &[(1, 0), (2, 1)])
            .replace("<hdr.eth.type, 0, 0x0000>", &filter),
        7 => sources::l3_routing(&name, &[(0x0a00_0000, 0xffff_0000, 0)])
            .replace("<hdr.ipv4.proto, 0, 0x00>", &filter),
        8 => sources::tunnel(&name, &filter, 0x0a0a_0a0a, 8),
        9 => sources::calculator(&name).replace(
            "<hdr.udp.dst_port, 7777, 0xffff>, <hdr.nc.op, 0, 0x00>",
            &filter,
        ),
        10 => sources::ecn(&name, &filter),
        11 => sources::cms(&name, &filter, half),
        12 => sources::bloom(&name, &filter, half),
        13 => sources::sumax(&name, &filter, half),
        14 => sources::hll(&name, &filter, mem.min(1024)),
        _ => {
            let mut arms = if k.is_multiple_of(2) {
                vec!["z", "a"]
            } else {
                vec!["a", "z"]
            };
            if k.is_multiple_of(3) {
                arms.insert(1, "m");
            }
            let cases: String = arms
                .iter()
                .enumerate()
                .map(|(i, m)| format!("case(<har, {i}, 0xffffffff>) {{ MEMREAD({m}); }} "))
                .collect();
            format!(
                "@ a {half}\n@ m 16\n@ z {mem}\n\
                 program {name}({filter}) {{ LOADI(mar, 0); BRANCH: {cases}; FORWARD(1); }}"
            )
        }
    }
}

/// Pool programs: the 15 catalog families and nine multi-memory levels.
const POOL: usize = 24;

/// The books balance. Per RPB, the free spans (address-ordered and
/// coalesced), the locked regions, the ballast and every resident's or
/// wedged program's regions tile `[0, RPB_MEM_SIZE)` exactly, and the free
/// entries plus every program's entries fill the table. Between events no
/// revoke is in flight, so a locked region is a wedged program's.
fn assert_books_balance(ctl: &Controller, ballast: &[(RpbId, u32, u32)], at: &str) {
    let view = ctl.resman.alloc_view();
    let residents: Vec<&ProgramImage> = ctl.programs.values().map(|p| &p.image).collect();
    let wedged: Vec<&ProgramImage> = ctl.wedged.values().map(|w| &w.image).collect();
    for (i, rpb) in (1..=NUM_RPBS as u8).map(RpbId).enumerate() {
        let free = &view.mem_free[i];
        assert!(
            free.windows(2).all(|w| w[0].0 + w[0].1 < w[1].0),
            "{at}: RPB {i} spans {free:?}"
        );
        let locked = ctl.resman.locked(rpb);
        let held = |images: &[&ProgramImage]| -> Vec<(u32, u32)> {
            let regions = images.iter().flat_map(|image| &image.mem_regions);
            regions
                .filter(|r| r.rpb == rpb)
                .map(|r| (r.offset, r.size))
                .collect()
        };
        let wedged_regions = held(&wedged);
        assert!(
            locked.iter().all(|l| wedged_regions.contains(l)),
            "{at}: RPB {i} locked {locked:?}"
        );
        let mut parts: Vec<(u32, u32)> = free.iter().chain(locked).copied().collect();
        parts.extend(ballast.iter().filter(|b| b.0 == rpb).map(|b| (b.1, b.2)));
        parts.extend(held(&residents));
        parts.extend(wedged_regions.into_iter().filter(|r| !locked.contains(r)));
        parts.sort_unstable();
        let end = parts.iter().try_fold(0, |end, &(offset, size)| {
            (offset == end && size > 0).then_some(end + size)
        });
        assert_eq!(
            end,
            Some(RPB_MEM_SIZE),
            "{at}: RPB {i} is not tiled: {parts:?}"
        );

        let charged: usize = residents
            .iter()
            .chain(&wedged)
            .map(|image| Claim::of(image).entries[i])
            .sum();
        assert_eq!(
            view.te_free[i] + charged,
            RPB_TABLE_SIZE,
            "{at}: RPB {i} entries"
        );
    }
    let images = residents.len() + wedged.len();
    assert_eq!(
        ctl.resman.init_entries_used(),
        images,
        "{at}: filter entries"
    );
    let recirc: usize = residents
        .iter()
        .chain(&wedged)
        .map(|image| image.recirc_ids.len())
        .sum();
    assert_eq!(
        ctl.resman.recirc_entries_used(),
        recirc,
        "{at}: recirculation entries"
    );
}

/// One step of a history: `(kind, pool index)`.
fn arb_event() -> impl Strategy<Value = (u8, usize)> {
    (0u8..6, 0..POOL)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("P4RP_PROPTEST_CASES")
            .ok().and_then(|s| s.parse().ok()).unwrap_or(24),
        .. ProptestConfig::default()
    })]

    /// Accepted ⇒ installed: on a fragmented plane, under random deploy /
    /// revoke / repair histories and a random fault plan, a deploy the
    /// solver accepts is refused before its plan ships only for a full
    /// initialization table, recirculation block or program-id space —
    /// never for a region or an entry the solver placed. A fault while it
    /// ships rolls it back or wedges it. And the books balance after
    /// every event.
    #[test]
    fn accepted_deploys_are_installed_and_the_books_balance(
        holes in proptest::collection::vec(prop::sample::select(vec![64u32, 128, 192, 256, 512, 1024]), 1..4),
        mems in proptest::collection::vec(prop::sample::select(vec![16u32, 32, 64, 128, 256]), POOL..POOL + 1),
        history in proptest::collection::vec(arb_event(), 1..24),
        faults in (0u64..1_000, 0usize..4),
    ) {
        let (mut ctl, ballast) = fragmented(&holes);
        ctl.set_fault_plan(FaultPlan::random(faults.0, faults.1, 300));
        for (step, &(kind, k)) in history.iter().enumerate() {
            let at = format!("step {step} ({kind}, {k}) of {history:?}, holes {holes:?}, faults {faults:?}");
            match kind {
                0..=2 => {
                    let name = format!("p{k}");
                    if ctl.programs.contains_key(&name) || ctl.wedged.contains_key(&name) {
                        continue;
                    }
                    let (mut irs, parse_wall) = ctl.compile(&pool_source(k, mems[k])).unwrap();
                    let ir = irs.remove(0);
                    let accepted = allocate(&ir, ctl.resman.alloc_view(), &ctl.alloc_cfg).is_ok();
                    match ctl.commit(ir, parse_wall) {
                        Ok(_) | Err(CtlError::DeployFault { .. } | CtlError::Wedged { .. }) => {
                            assert!(accepted, "{at}: installed what the solver refused");
                        }
                        Err(CtlError::Compile(
                            CompileError::InitTableFull { .. } | CompileError::ProgramIdsExhausted,
                        )) => {}
                        Err(CtlError::Compile(CompileError::AllocationFailed { .. }))
                            if !accepted => {}
                        Err(e) => panic!("{at}: accepted = {accepted}, refused with {e:?}"),
                    }
                }
                3 | 4 => {
                    let mut names: Vec<String> =
                        ctl.programs.keys().chain(ctl.wedged.keys()).cloned().collect();
                    if names.is_empty() {
                        continue;
                    }
                    names.sort();
                    match ctl.revoke(&names[k % names.len()]) {
                        Ok(_) | Err(CtlError::Wedged { .. }) => {}
                        Err(e) => panic!("{at}: revoke failed with {e:?}"),
                    }
                }
                _ => {
                    if !ctl.channel.is_connected() {
                        ctl.channel.reconnect();
                    }
                    if ctl.needs_reconcile {
                        let _ = ctl.reconcile();
                    }
                }
            }
            assert_books_balance(&ctl, &ballast, &at);
        }
    }
}
