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
