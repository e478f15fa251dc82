//! Robustness suites: arbitrary input must never panic the parsers — the
//! wire parsers reject gracefully, the language front end produces
//! diagnostics, and the controller surfaces typed errors.

use proptest::prelude::*;
use p4runpro::p4rp_lang;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes through the packet parser: parse or reject, never
    /// panic; anything that parses re-emits and re-parses to itself.
    #[test]
    fn wire_parser_total(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        if let Ok(parsed) = netpkt::ParsedPacket::parse(&bytes) {
            let emitted = parsed.emit();
            let reparsed = netpkt::ParsedPacket::parse(&emitted).unwrap();
            prop_assert_eq!(parsed, reparsed);
        }
    }

    /// Arbitrary text through the language front end: diagnostics, not
    /// panics.
    #[test]
    fn language_frontend_total(src in "\\PC{0,200}") {
        let _ = p4rp_lang::parse(&src);
    }

    /// Arbitrary printable soup with P4runpro-ish tokens mixed in.
    #[test]
    fn language_frontend_tokeny(parts in proptest::collection::vec(
        prop::sample::select(vec![
            "program", "case", "BRANCH:", "{", "}", "(", ")", "<", ">", ",", ";",
            "har", "sar", "mar", "MEMADD(m)", "LOADI", "0xff", "10.0.0.1", "@ m 64",
        ]), 0..30))
    {
        let src = parts.join(" ");
        let _ = p4rp_lang::parse(&src);
    }

    /// The recirculation-header parser tolerates any buffer.
    #[test]
    fn recirc_header_total(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        if let Ok(h) = netpkt::RecircHeader::new_checked(&bytes) {
            let repr = netpkt::RecircRepr::parse(&h);
            let emitted = repr.emit(h.payload());
            prop_assert_eq!(&emitted[..netpkt::RECIRC_HEADER_LEN],
                            &bytes[..netpkt::RECIRC_HEADER_LEN]);
        }
    }
}

/// Deploy errors are typed and the controller stays usable afterwards.
#[test]
fn controller_survives_bad_inputs() {
    let mut ctl = p4runpro::Controller::with_defaults().unwrap();
    for bad in [
        "",
        "garbage",
        "program p() { }",
        "program p(<hdr.ipv4.dst, 1, 1>) { }",
        "program p(<hdr.ipv4.dst, 1, 1>) { MEMREAD(ghost); }",
        "@ m 100\nprogram p(<hdr.ipv4.dst, 1, 1>) { MEMREAD(m); }", // non-pow2
        "program p(<hdr.bogus.f, 1, 1>) { DROP; }",
        "program p(<hdr.ipv4.ttl, 1, 1>) { DROP; }", // unsupported filter field
    ] {
        assert!(ctl.deploy(bad).is_err(), "{bad:?} must be rejected");
    }
    // Still fully functional.
    ctl.deploy("program ok(<hdr.ipv4.dst, 10.0.0.1, 0xffffffff>) { FORWARD(1); }")
        .unwrap();
    assert_eq!(ctl.deployed_programs().count(), 1);
    assert_eq!(ctl.resources().init_entries_used(), 1);
}

const PROG: &str = "@ m 64\nprogram p(<hdr.ipv4.dst, 10.0.0.1, 0xffffffff>) \
                    { LOADI(mar, 1); MEMREAD(m); FORWARD(1); }";

/// A dropped control channel is absorbed by the deploy's retry loop; a
/// sustained outage surfaces a typed error and the controller recovers
/// once the channel comes back.
#[test]
fn controller_survives_channel_drop() {
    use p4runpro::rmt_sim::fault::FaultPlan;

    let mut ctl = p4runpro::Controller::with_defaults().unwrap();
    // One drop: reconnect + retry make the deploy succeed anyway.
    ctl.set_fault_plan(FaultPlan::parse_spec("drop@0").unwrap());
    ctl.deploy(PROG).unwrap();
    assert!(ctl.channel().is_connected());
    let stats = ctl.fault_stats();
    assert_eq!(stats.faults_injected, 1);
    assert!(stats.retries >= 1);
    ctl.revoke("p").unwrap();

    // Five consecutive drops exhaust the retry budget: typed error, no
    // partial state, and the next deploy (after reconnect) succeeds.
    ctl.set_fault_plan(
        FaultPlan::parse_spec("drop@0,drop@0,drop@0,drop@0,drop@0").unwrap(),
    );
    let err = ctl.deploy(PROG).unwrap_err();
    assert!(
        matches!(err, p4runpro::CtlError::DeployFault { .. }),
        "sustained outage must be a typed deploy fault, got {err}"
    );
    assert!(ctl.program("p").is_none());
    if !ctl.channel().is_connected() {
        ctl.channel_mut().reconnect();
    }
    ctl.deploy(PROG).unwrap();
    assert!(ctl.audit().unwrap().clean());
}

/// A fault during rollback (a double fault) wedges the program with a
/// typed error instead of panicking, and revoking a half-rolled-back
/// program is idempotent: each retry makes progress until the name frees.
#[test]
fn double_fault_wedges_and_revoke_is_idempotent() {
    use p4runpro::rmt_sim::fault::FaultPlan;

    let mut ctl = p4runpro::Controller::with_defaults().unwrap();
    ctl.set_fast_path(true);
    let pristine = ctl.telemetry_report().resources;
    // failop@2 kills the install mid-batch; failop@3 then kills the
    // rollback's own batch (rollback ops continue the op count).
    ctl.set_fault_plan(FaultPlan::parse_spec("failop@2,failop@3").unwrap());
    let err = ctl.deploy(PROG).unwrap_err();
    let wedged_err = matches!(err, p4runpro::CtlError::Wedged { .. });
    assert!(wedged_err, "double fault must wedge, got {err}");
    assert_eq!(ctl.fault_stats().wedged, 1);
    assert_eq!(ctl.wedged_programs().count(), 1);

    // The name stays taken while wedged.
    let dup = ctl.deploy(PROG).unwrap_err();
    assert!(matches!(dup, p4runpro::CtlError::DuplicateProgram(_)), "got {dup}");

    // Revoke retries the parked cleanup. Under more injected faults it
    // stays wedged (idempotent, no double refund); once the plan
    // exhausts it completes, and a further revoke is NoSuchProgram.
    ctl.set_fault_plan(FaultPlan::parse_spec("failop@0").unwrap());
    let again = ctl.revoke("p").unwrap_err();
    assert!(matches!(again, p4runpro::CtlError::Wedged { .. }), "got {again}");
    ctl.revoke("p").unwrap();
    assert_eq!(ctl.wedged_programs().count(), 0);
    let gone = ctl.revoke("p").unwrap_err();
    assert!(matches!(gone, p4runpro::CtlError::NoSuchProgram(_)), "got {gone}");

    // Fully recovered: every claimed resource refunded exactly once.
    assert_eq!(ctl.telemetry_report().resources, pristine);
    assert!(ctl.audit().unwrap().clean());
    ctl.deploy(PROG).unwrap();
    assert!(ctl.audit().unwrap().clean());
}

/// Recovery traffic is billed by the controller's channel mode like any
/// other plan: per-entry RPC costs plus 600 µs per RPC with the fast path
/// off, marginal bulk costs with it on. PROG owns one memory region.
#[test]
fn recovery_traffic_is_billed_by_the_channel_mode() {
    use p4runpro::rmt_sim::clock::Nanos;
    use p4runpro::rmt_sim::fault::FaultPlan;

    for (fast_path, per_insert, per_delete, per_reset) in [(false, 330, 250, 25), (true, 30, 20, 5)]
    {
        let mut ctl = p4runpro::Controller::with_defaults().unwrap();
        ctl.set_fast_path(fast_path);

        // failop@2: two body inserts land and the third faults, in either
        // mode inside the first RPC; the rollback deletes the two in one
        // RPC of its own.
        ctl.set_fault_plan(FaultPlan::parse_spec("failop@2").unwrap());
        let t0 = ctl.channel().clock.now();
        let err = ctl.deploy(PROG).unwrap_err();
        assert!(matches!(err, p4runpro::CtlError::DeployFault { .. }), "got {err}");
        assert_eq!(
            ctl.channel().clock.now().0 - t0.0,
            Nanos::from_micros(600 + 2 * per_insert + 600 + 2 * per_delete).0,
            "mid-install rollback, fast_path={fast_path}"
        );
        assert!(ctl.audit().unwrap().clean());

        // A revoke faulted on its first op parks the whole removal plan;
        // the retry ships it — every entry's delete and the region reset —
        // as one RPC.
        let entries = ctl.deploy(PROG).unwrap()[0].entries_installed as u64;
        ctl.set_fault_plan(FaultPlan::parse_spec("failop@0").unwrap());
        let err = ctl.revoke("p").unwrap_err();
        assert!(matches!(err, p4runpro::CtlError::Wedged { .. }), "got {err}");
        let finished = ctl.revoke("p").unwrap();
        assert_eq!(
            finished.update_delay,
            Nanos::from_micros(600 + entries * per_delete + per_reset),
            "wedged-then-finished revoke, fast_path={fast_path}"
        );
        assert!(ctl.audit().unwrap().clean());
    }
}

/// `update` compiles the new source before it revokes anything: a source
/// that does not compile leaves the running program exactly as it was,
/// and a good one reports revoke + deploy under the controller's one
/// channel model.
#[test]
fn update_compiles_before_it_revokes() {
    for fast_path in [false, true] {
        let mut ctl = p4runpro::Controller::with_defaults().unwrap();
        ctl.set_fast_path(fast_path);
        ctl.deploy(PROG).unwrap();
        ctl.write_memory("p", "m", 3, 77).unwrap();
        let epoch = ctl.epoch();

        let broken = PROG.replace("FORWARD(1)", "FORWARD(");
        let err = ctl.update("p", &broken).unwrap_err();
        assert!(matches!(err, p4runpro::CtlError::Compile(_)), "got {err}");
        assert!(ctl.program("p").is_some(), "failed update destroyed the running program");
        assert_eq!(ctl.read_memory("p", "m").unwrap()[3], 77, "memory was reset");
        assert_eq!(ctl.epoch(), epoch, "a rejected source must not touch the data plane");
        assert!(ctl.audit().unwrap().clean());

        // The same lifecycle as separate calls on a twin controller.
        let replacement = PROG.replace("FORWARD(1)", "FORWARD(9)");
        let mut twin = p4runpro::Controller::with_defaults().unwrap();
        twin.set_fast_path(fast_path);
        twin.deploy(PROG).unwrap();
        let revoked = twin.revoke("p").unwrap();
        let redeployed = twin.deploy(&replacement).unwrap().remove(0);

        let updated = ctl.update("p", &replacement).unwrap();
        assert_eq!(updated.update_delay, revoked.update_delay + redeployed.update_delay);
        assert_eq!(updated.entries_installed, redeployed.entries_installed);
        assert!(ctl.audit().unwrap().clean());
    }
}
