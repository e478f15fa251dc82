//! Chaos-testing the control plane: deterministic fault injection,
//! transactional rollback, and post-reset reconciliation (docs/CHAOS.md).
//!
//! The fixed-seed acceptance scenario faults op 2 of a cache program's
//! install batch and proves the deploy rolls back without a trace: the
//! device audit is clean, the resource gauges are bit-identical to the
//! pre-deploy snapshot, zero invariants fired, and the same seed
//! reproduces the identical trace fingerprint twice.

use p4runpro::p4rp_ctl::chaos::{
    self, frame_to, pool_dst, pool_port, trace_fingerprint, SENTINEL_DST, SENTINEL_PORT,
};
use p4runpro::rmt_sim::clock::Nanos;
use p4runpro::rmt_sim::fault::{FaultKind, FaultPlan, FaultTrigger, OpKind};
use p4runpro::rmt_sim::trace::{chrome_trace_json, TraceConfig};
use p4runpro::traffic::replay::{Replay, TimedPacket};
use p4runpro::p4rp_ctl::telemetry::ResourceGauges;
use p4runpro::{ChaosConfig, Controller, CtlError};
use proptest::prelude::*;

const SENTINEL: &str =
    "program sentinel(<hdr.ipv4.dst, 10.9.9.9, 0xffffffff>) { FORWARD(7); }";
const CACHE: &str = "@ cache 64\nprogram cache(<hdr.ipv4.dst, 10.1.2.3, 0xffffffff>) \
                     { LOADI(mar, 9); MEMREAD(cache); FORWARD(2); }";

fn traced_controller() -> Controller {
    let mut ctl = Controller::with_defaults().unwrap();
    ctl.set_fast_path(true);
    ctl.enable_trace(TraceConfig { capacity: 4096, postmortem_dir: None, ..Default::default() });
    ctl
}

/// Retry wedged cleanups and reconcile until device == resource manager.
/// Returns whether the drain converged within the budget.
fn drain(ctl: &mut Controller, budget: usize) -> bool {
    for _ in 0..budget {
        if !ctl.channel().is_connected() {
            ctl.channel_mut().reconnect();
        }
        let mut wedged: Vec<String> = ctl.wedged_programs().cloned().collect();
        wedged.sort();
        for name in wedged {
            let _ = ctl.revoke(&name);
        }
        if ctl.wedged_programs().next().is_none()
            && !ctl.needs_reconcile()
            && ctl.audit().unwrap().clean()
        {
            return true;
        }
        let _ = ctl.reconcile();
    }
    false
}

/// The acceptance scenario, returning the trace fingerprint so callers
/// can assert seed-for-seed reproducibility.
fn faulted_cache_install() -> u64 {
    let mut ctl = traced_controller();
    ctl.deploy(SENTINEL).unwrap();
    let resources_before = ctl.telemetry_report().resources;
    let audit_before = ctl.audit().unwrap();
    assert!(audit_before.clean());

    // Fail the third op (index 2) of the cache program's install batch.
    ctl.set_fault_plan(FaultPlan::parse_spec("failop@2").unwrap());
    let err = ctl.deploy(CACHE).unwrap_err();
    match &err {
        CtlError::DeployFault { program, .. } => assert_eq!(program, "cache"),
        other => panic!("expected DeployFault, got {other}"),
    }

    // Rolled back without a trace: device diff empty, resource manager
    // bit-identical, nothing wedged, zero invariant violations.
    let audit_after = ctl.audit().unwrap();
    assert!(audit_after.clean(), "device diverged after rollback: {audit_after:?}");
    assert_eq!(audit_after.expected, audit_before.expected, "sentinel entries disturbed");
    assert_eq!(ctl.telemetry_report().resources, resources_before);
    assert!(ctl.program("cache").is_none());
    assert_eq!(ctl.trace().unwrap().violations().len(), 0);

    // The sentinel never flinched.
    let out = ctl.inject(0, &frame_to(SENTINEL_DST)).unwrap();
    assert!(out.emitted.iter().any(|&(p, _)| p == SENTINEL_PORT));

    // The books agree with the story.
    let stats = ctl.fault_stats();
    assert_eq!(stats.faults_injected, 1);
    assert_eq!(stats.deploy_faults, 1);
    assert_eq!(stats.rollbacks, 1);
    assert!(stats.rollback_ops >= 2, "two applied ops needed undoing");
    assert_eq!(stats.wedged, 0);

    // A retry after the plan exhausts commits cleanly.
    ctl.deploy(CACHE).unwrap();
    assert!(ctl.audit().unwrap().clean());

    trace_fingerprint(&ctl)
}

#[test]
fn faulted_cache_install_rolls_back_and_replays_identically() {
    let a = faulted_cache_install();
    let b = faulted_cache_install();
    assert_eq!(a, b, "same scenario, different trace");
}

#[test]
fn device_reset_mid_install_reconciles_every_resident_program() {
    let mut ctl = traced_controller();
    ctl.deploy(SENTINEL).unwrap();
    ctl.deploy(&chaos::pool_source(0)).unwrap();
    let resources_before = ctl.telemetry_report().resources;

    ctl.set_fault_plan(FaultPlan::parse_spec("reset@1").unwrap());
    let err = ctl.deploy(CACHE).unwrap_err();
    assert!(matches!(err, CtlError::DeployFault { .. }), "got {err}");
    assert!(ctl.needs_reconcile());
    assert_eq!(ctl.switch().generation(), 1);

    // The wipe took the residents down; reconcile puts them back and the
    // failed deploy's resources were refunded.
    let audit = ctl.audit().unwrap();
    assert_eq!(audit.missing, audit.expected, "reset should wipe everything");
    let rep = ctl.reconcile().unwrap();
    assert_eq!(rep.reinstalled, audit.expected);
    assert!(!ctl.needs_reconcile());
    assert!(ctl.audit().unwrap().clean());
    assert_eq!(ctl.telemetry_report().resources, resources_before);

    let out = ctl.inject(0, &frame_to(SENTINEL_DST)).unwrap();
    assert!(out.emitted.iter().any(|&(p, _)| p == SENTINEL_PORT));
    let out = ctl.inject(0, &frame_to(pool_dst(0))).unwrap();
    assert!(out.emitted.iter().any(|&(p, _)| p == pool_port(0)));
}

#[test]
fn every_fault_kind_at_every_op_index_converges() {
    let kinds = [
        FaultKind::FailOp,
        FaultKind::BatchTimeout,
        FaultKind::ChannelDrop,
        FaultKind::DeviceReset,
    ];
    for kind in kinds {
        for at in 0..12u64 {
            let mut ctl = traced_controller();
            ctl.deploy(SENTINEL).unwrap();
            ctl.set_fault_plan(FaultPlan::new(vec![FaultTrigger {
                at,
                op_kind: None,
                fault: kind,
            }]));
            match ctl.deploy(CACHE) {
                Ok(_) | Err(CtlError::DeployFault { .. }) | Err(CtlError::Wedged { .. }) => {}
                Err(e) => panic!("{kind:?}@{at}: unexpected error {e}"),
            }
            assert!(drain(&mut ctl, 8), "{kind:?}@{at}: drain did not converge");
            assert_eq!(
                ctl.trace().unwrap().violations().len(),
                0,
                "{kind:?}@{at}: invariant violation"
            );
            let out = ctl.inject(0, &frame_to(SENTINEL_DST)).unwrap();
            assert!(
                out.emitted.iter().any(|&(p, _)| p == SENTINEL_PORT),
                "{kind:?}@{at}: sentinel lost"
            );
        }
    }
}

#[test]
fn kind_matched_trigger_only_fires_on_matching_ops() {
    let mut ctl = traced_controller();
    ctl.deploy(SENTINEL).unwrap();
    // Armed against deletes only: the install (all inserts) sails through.
    ctl.set_fault_plan(FaultPlan::new(vec![FaultTrigger {
        at: 0,
        op_kind: Some(OpKind::Delete),
        fault: FaultKind::FailOp,
    }]));
    ctl.deploy(CACHE).unwrap();
    assert_eq!(ctl.fault_stats().faults_injected, 0);
    // The revoke's first delete trips it and the program wedges.
    let err = ctl.revoke("cache").unwrap_err();
    assert!(matches!(err, CtlError::Wedged { .. }), "got {err}");
    assert!(drain(&mut ctl, 8));
    assert!(ctl.program("cache").is_none());
}

#[test]
fn replay_traffic_interleaves_with_faulted_churn() {
    let mut ctl = traced_controller();
    ctl.enable_telemetry();
    ctl.deploy(SENTINEL).unwrap();
    // A transient fault on the first deploy's batch; a mid-batch fault is
    // armed separately before the second deploy (plans count ops from
    // arming, so this pins each fault to its intended batch).
    ctl.set_fault_plan(FaultPlan::parse_spec("timeout@0").unwrap());

    let packets: Vec<TimedPacket> = (0..60)
        .map(|k| TimedPacket {
            t: Nanos::from_micros(k * 50),
            port: 0,
            frame: frame_to(SENTINEL_DST),
        })
        .collect();
    let mut rp = Replay::new(packets);

    // Burst → deploy (absorbs the timeout via retry) → burst → faulted
    // deploy (rolls back) → burst → revoke → rest of the trace.
    rp.run_until(Nanos::from_micros(500), |_, p, f, out| ctl.inject_into(p, f, out).unwrap());
    ctl.deploy(&chaos::pool_source(2)).unwrap();
    rp.run_until(Nanos::from_micros(1500), |_, p, f, out| ctl.inject_into(p, f, out).unwrap());
    ctl.set_fault_plan(FaultPlan::parse_spec("failop@2").unwrap());
    let err = ctl.deploy(CACHE).unwrap_err();
    assert!(matches!(err, CtlError::DeployFault { .. }), "got {err}");
    rp.run_until(Nanos::from_micros(2500), |_, p, f, out| ctl.inject_into(p, f, out).unwrap());
    ctl.revoke("c2").unwrap();
    rp.run_all(|_, p, f, out| ctl.inject_into(p, f, out).unwrap());

    // Every sentinel packet forwarded across all five phases.
    let (tx, offered): (u64, u64) =
        rp.stats.iter().fold((0, 0), |(t, o), b| (t + b.tx_pkts, o + b.offered_pkts));
    assert_eq!(offered, 60);
    assert_eq!(tx, 60, "sentinel packets lost during faulted churn");
    assert_eq!(ctl.trace().unwrap().violations().len(), 0);
    assert!(ctl.audit().unwrap().clean());
    let stats = ctl.fault_stats();
    assert_eq!(stats.faults_injected, 2);
    assert!(stats.retries >= 1);
}

#[test]
fn chaos_trace_round_trips_through_chrome_json() {
    let mut ctl = traced_controller();
    ctl.deploy(SENTINEL).unwrap();
    ctl.set_fault_plan(FaultPlan::parse_spec("failop@2").unwrap());
    let _ = ctl.deploy(CACHE);
    ctl.set_fault_plan(FaultPlan::parse_spec("reset@2").unwrap());
    let _ = ctl.deploy(CACHE);
    assert!(drain(&mut ctl, 8));

    let json = chrome_trace_json(ctl.trace().unwrap().events());
    for needle in ["fault_injected", "rollback_begin", "rollback_end", "reconcile_begin", "reconcile_end"]
    {
        assert!(json.contains(needle), "chrome trace lacks {needle}");
    }
    // Round-trip: the export parses back and the fault events survive in
    // the traceEvents array with their categories intact.
    let v = serde::json::parse(&json).expect("chrome trace is valid JSON");
    let obj = v.as_object().expect("chrome trace is a JSON object");
    let events = obj
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .and_then(|(_, v)| v.as_array())
        .expect("traceEvents array");
    let fault_events = events
        .iter()
        .filter_map(|e| e.as_object())
        .filter(|fields| {
            fields.iter().any(|(k, v)| {
                k == "name"
                    && matches!(v, serde::Value::Str(s) if s.starts_with("fault_")
                        || s.starts_with("rollback_") || s.starts_with("reconcile_"))
            })
        })
        .count();
    assert!(fault_events >= 5, "only {fault_events} fault-family events round-tripped");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("P4RP_PROPTEST_CASES")
            .ok().and_then(|s| s.parse().ok()).unwrap_or(12),
        .. ProptestConfig::default()
    })]

    /// Random program churn × random fault plans: deploys either commit
    /// or roll back atomically, the drain converges, the sentinel never
    /// misforwards under a coherent device, and no invariant fires. The
    /// seed is in the failure message via proptest's shrunken input.
    #[test]
    fn chaos_campaigns_always_converge(
        seed in 0u64..1_000_000,
        nfaults in 0usize..8,
        horizon in 40u64..400,
        programs in 2usize..7,
    ) {
        let cfg = ChaosConfig {
            seed,
            steps: 40,
            programs,
            faults: FaultPlan::random(seed ^ 0x9e3779b9, nfaults, horizon),
            packets_per_burst: 3,
            workers: 1,
            watchdog: None,
        };
        let out = chaos::run(&cfg).map_err(|e| {
            proptest::test_runner::TestCaseError::Fail(format!("seed {seed}: campaign error {e}"))
        })?;
        prop_assert_eq!(out.sentinel_misses, 0, "seed {}: sentinel misforwarded {:?}", seed, &out);
        prop_assert_eq!(out.resident_misses, 0, "seed {}: resident misforwarded {:?}", seed, &out);
        prop_assert_eq!(out.invariant_violations, 0, "seed {}: invariants fired", seed);
        prop_assert!(out.converged, "seed {}: drain did not converge: {:?}", seed, &out);
        prop_assert!(out.final_audit.clean(), "seed {}: final audit dirty: {:?}", seed, &out.final_audit);
    }
}

// ---------------------------------------------------------------------------
// Nothing-moved gates. On a deterministic simulator an identical event
// stream for an identical seed is the equivalence proof, so a rewrite of the
// controller's lifecycle code is pinned by values recorded before it (PR 23:
// all of these passed on the commit before the lifecycle engine went in).
// ---------------------------------------------------------------------------

/// One 80-step campaign under ten random faults over the first 150 ops.
/// The plan seed is `seed + 37`: the smallest offset at which campaigns
/// 1-4 all ran to the end when the values were recorded (see
/// `dense_campaign_outlives_a_reconcile_that_retires_a_wedged_program`).
fn pinned_campaign(seed: u64, workers: usize) -> (u64, [u64; 5]) {
    let cfg = ChaosConfig {
        seed,
        steps: 80,
        faults: FaultPlan::random(seed + 37, 10, 150),
        workers,
        ..ChaosConfig::default()
    };
    let out = chaos::run(&cfg).unwrap();
    assert!(out.converged && out.final_audit.clean(), "seed {seed}: {out:?}");
    let f = &out.fault_stats;
    let counters =
        [f.deploy_faults, f.revoke_faults, f.rollbacks, f.rollback_ops, f.reconciles];
    (out.trace_fingerprint, counters)
}

#[test]
fn chaos_fingerprints_are_pinned() {
    // (seed, fingerprint with 1 worker, with 2 workers, [deploy faults,
    // revoke faults, rollbacks, rollback ops, reconciles]): between them
    // the four campaigns roll back, wedge, retry and reconcile.
    let pinned = [
        (1, 0x4a3a8134dc02e742, 0xaed2a75ba62e1eea, [3, 0, 2, 3, 1]),
        (2, 0xc66baafba0a5eab0, 0x4fd74ad1245a6641, [2, 3, 4, 12, 1]),
        (3, 0xc7b606e1ad35daff, 0x43a2819e60f5b4f3, [4, 2, 5, 4, 1]),
        (4, 0x567d7a5560f8c7fe, 0xc4d54ce99b146327, [2, 0, 2, 3, 0]),
    ];
    for (seed, sequential, two_workers, counters) in pinned {
        assert_eq!(pinned_campaign(seed, 1), (sequential, counters), "seed {seed}, 1 worker");
        assert_eq!(pinned_campaign(seed, 2), (two_workers, counters), "seed {seed}, 2 workers");
    }
}

/// A repair tick's `reconcile` retires wedged programs; the campaign's own
/// list of them used to go stale, and a later retry of such a program
/// ended the run with `NoSuchProgram` — about one dense campaign in two.
#[test]
fn dense_campaign_outlives_a_reconcile_that_retires_a_wedged_program() {
    let cfg = ChaosConfig {
        seed: 3,
        steps: 80,
        faults: FaultPlan::random(3, 10, 150),
        ..ChaosConfig::default()
    };
    let out = chaos::run(&cfg).expect("the campaign runs to the end");
    assert!(out.converged && out.final_audit.clean(), "{out:?}");
    assert_eq!((out.sentinel_misses, out.resident_misses, out.invariant_violations), (0, 0, 0));
}

/// Names of the control events recorded from `seq` on, runs of one name
/// folded to `name*n`.
fn control_names(ctl: &Controller, seq: u64) -> String {
    let mut runs: Vec<(&str, usize)> = Vec::new();
    for ev in ctl.trace().unwrap().events().filter(|e| e.seq >= seq) {
        match runs.last_mut() {
            Some((name, n)) if *name == ev.kind.name() => *n += 1,
            _ => runs.push((ev.kind.name(), 1)),
        }
    }
    let fold = |(name, n): &(&str, usize)| {
        if *n == 1 {
            (*name).to_string()
        } else {
            format!("{name}*{n}")
        }
    };
    runs.iter().map(fold).collect::<Vec<_>>().join(" ")
}

/// The control-event sequence of every lifecycle path, per channel mode:
/// what is recorded, and in which order, is part of the engine's contract
/// (the invariant checker and `p4rp trace` both read it).
#[test]
fn lifecycle_event_sequences_are_golden() {
    // [per-entry, bulk]
    const DEPLOY: [&str; 2] = [
        "epoch_bump batch_begin entry_insert*4 batch_end batch_begin entry_insert batch_end \
         lifecycle",
        "epoch_bump batch_begin entry_insert*5 batch_end lifecycle",
    ];
    const REVOKE: [&str; 2] = [
        "epoch_bump batch_begin entry_delete batch_end batch_begin entry_delete*4 batch_end \
         batch_begin reg_write batch_end lifecycle",
        "epoch_bump batch_begin entry_delete*5 reg_write batch_end lifecycle",
    ];
    // The faulted batch is the first RPC in both modes, and undo, parked
    // cleanup and their retries always travel as one batch.
    const ROLLBACK: &str = "epoch_bump batch_begin entry_insert fault_injected batch_end \
                            epoch_bump rollback_begin batch_begin entry_delete batch_end \
                            rollback_end";
    const WEDGED: &str = "epoch_bump batch_begin entry_insert*2 fault_injected batch_end \
                          epoch_bump rollback_begin batch_begin fault_injected batch_end \
                          rollback_end";
    const RETRIED: &str = "epoch_bump rollback_begin batch_begin entry_delete*2 reg_write \
                           batch_end rollback_end lifecycle";
    const RESET: &str = "epoch_bump batch_begin fault_injected batch_end";
    const RECONCILE: [&str; 2] = [
        "epoch_bump reconcile_begin batch_begin entry_insert*4 batch_end batch_begin \
         entry_insert batch_end reconcile_end",
        "epoch_bump reconcile_begin batch_begin entry_insert*5 batch_end reconcile_end",
    ];

    for bulk in [false, true] {
        let mode = usize::from(bulk);
        let fresh = |faults: &str| {
            let mut ctl = traced_controller();
            ctl.set_fast_path(bulk);
            ctl.set_fault_plan(FaultPlan::parse_spec(faults).unwrap());
            ctl
        };
        let mark = |ctl: &Controller| ctl.trace().unwrap().recorded();

        let mut ctl = fresh("");
        ctl.deploy(CACHE).unwrap();
        assert_eq!(control_names(&ctl, 0), DEPLOY[mode], "clean deploy, bulk={bulk}");
        let from = mark(&ctl);
        ctl.revoke("cache").unwrap();
        assert_eq!(control_names(&ctl, from), REVOKE[mode], "clean revoke, bulk={bulk}");

        // FailOp on the second body entry: the one applied op is undone.
        let mut ctl = fresh("failop@1");
        assert!(matches!(ctl.deploy(CACHE), Err(CtlError::DeployFault { .. })));
        assert_eq!(control_names(&ctl, 0), ROLLBACK, "rollback, bulk={bulk}");

        // Double fault: the rollback's first delete fails too, the program
        // wedges, and a retried `revoke` finishes the parked cleanup.
        let mut ctl = fresh("failop@2,failop:delete@0");
        assert!(matches!(ctl.deploy(CACHE), Err(CtlError::Wedged { .. })));
        assert_eq!(control_names(&ctl, 0), WEDGED, "double fault, bulk={bulk}");
        let from = mark(&ctl);
        ctl.revoke("cache").unwrap();
        assert_eq!(control_names(&ctl, from), RETRIED, "retried revoke, bulk={bulk}");
        assert!(ctl.audit().unwrap().clean());

        // A device reset under a second deploy wipes the resident one;
        // `reconcile` puts it back, body first.
        let mut ctl = fresh("");
        ctl.deploy(CACHE).unwrap();
        let from = mark(&ctl);
        ctl.set_fault_plan(FaultPlan::parse_spec("reset@0").unwrap());
        assert!(matches!(ctl.deploy(SENTINEL), Err(CtlError::DeployFault { .. })));
        assert_eq!(control_names(&ctl, from), RESET, "device reset, bulk={bulk}");
        let from = mark(&ctl);
        ctl.reconcile().unwrap();
        assert_eq!(control_names(&ctl, from), RECONCILE[mode], "reconcile, bulk={bulk}");
        assert!(ctl.audit().unwrap().clean());
    }
}

/// A deploy that fails after it was granted something gives all of it
/// back: the gauges read as before and the next deploy is handed the same
/// program id. (A full init table, a full recirculation block and a
/// refused grant need a pre-charged `ResourceManager`: `p4rp-ctl`'s
/// `controller::tests`.)
#[test]
fn failed_deploys_leave_the_resource_manager_where_they_found_it() {
    let gauges = |ctl: &Controller| ResourceGauges::collect(ctl.resources());

    // A memory no RPB has room for: whole-RPB memories until one is refused.
    let mut ctl = Controller::with_defaults().unwrap();
    let hog = |i: usize| {
        format!(
            "@ m{i} 65536\nprogram hog{i}(<hdr.ipv4.dst, 10.2.{i}.1, 0xffffffff>) \
             {{ LOADI(mar, 1); MEMREAD(m{i}); FORWARD(3); }}"
        )
    };
    let mut granted = 0;
    let refused = loop {
        let before = gauges(&ctl);
        match ctl.deploy(&hog(granted)) {
            Ok(_) => granted += 1,
            Err(e) => break (before, e),
        }
        assert!(granted <= 22, "22 RPBs cannot hold {granted} whole-RPB memories");
    };
    assert!(matches!(refused.1, CtlError::Compile(_)), "got {}", refused.1);
    assert_eq!(gauges(&ctl), refused.0);
    assert_eq!(ctl.deploy(SENTINEL).unwrap()[0].prog_id as usize, granted + 1);

    // A fault of every kind at every op index of the install and of the
    // rollback it triggers.
    for kind in
        [FaultKind::FailOp, FaultKind::BatchTimeout, FaultKind::ChannelDrop, FaultKind::DeviceReset]
    {
        for at in 0..8u64 {
            let mut ctl = traced_controller();
            ctl.deploy(SENTINEL).unwrap();
            let before = gauges(&ctl);
            ctl.set_fault_plan(FaultPlan::new(vec![
                FaultTrigger { at, op_kind: None, fault: kind },
                FaultTrigger { at: at + 2, op_kind: None, fault: kind },
            ]));
            let deployed = ctl.deploy(CACHE);
            assert!(drain(&mut ctl, 8), "{kind:?}@{at}: drain did not converge");
            ctl.set_fault_plan(FaultPlan::none());
            let prog_id = match deployed {
                Ok(reports) => reports[0].prog_id,
                Err(_) => {
                    assert_eq!(gauges(&ctl), before, "{kind:?}@{at}: resources leaked");
                    ctl.deploy(CACHE).unwrap()[0].prog_id
                }
            };
            assert_eq!(prog_id, 2, "{kind:?}@{at}: the failed deploy kept its program id");
            ctl.revoke("cache").unwrap();
            assert_eq!(gauges(&ctl), before, "{kind:?}@{at}: revoke after recovery");
        }
    }
}
