//! Failure exits of a deploy that only a pre-charged [`ResourceManager`]
//! reaches: each must hand back everything granted before it.

use super::*;
use p4rp_dataplane::{INIT_TABLE_SIZE, NUM_RPBS, RECIRC_TABLE_SIZE};

const FORWARDER: &str = "program fwd(<hdr.ipv4.dst, 10.0.0.1, 0xffffffff>) { FORWARD(1); }";
/// Two accesses of one memory: a second pass, so one recirculation entry.
const TWO_PASS: &str = "@ m 256\nprogram twice(<hdr.ipv4.dst, 10.0.0.2, 0xffffffff>) \
                        { LOADI(mar, 0); MEMREAD(m); LOADI(mar, 1); MEMWRITE(m); }";
/// Two memories on one RPB (sibling branch arms). The solver places them
/// in name order, `a_big` first; grants follow reference order, `z_small`
/// first.
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
fn a_refused_memory_grant_returns_the_regions_granted_before_it() {
    let mut ctl = Controller::with_defaults().unwrap();
    // Every RPB: free [0, 128) and [136, 200), everything else taken.
    for rpb in (1..=NUM_RPBS as u8).map(RpbId) {
        for size in [128, 8, 64, RPB_MEM_SIZE - 200] {
            ctl.resman.grant_memory(rpb, size).expect("a fresh RPB is one free span");
        }
        ctl.resman.unlock_memory(rpb, 0, 128);
        ctl.resman.unlock_memory(rpb, 136, 64);
    }
    // `z_small` is granted [0, 64) first, and then `a_big` fits nowhere.
    refused_without_a_trace(&mut ctl, SIBLINGS, |e| {
        matches!(e, CompileError::AllocationFailed { reason } if reason == "memory grant for `a_big` failed")
    });
}
