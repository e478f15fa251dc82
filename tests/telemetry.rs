//! End-to-end telemetry: a deploy → replay → revoke cycle must leave the
//! control-side spans, the resource gauges, and the packet-side counters
//! mutually consistent — the invariants `status --metrics` is trusted to
//! report (see `docs/TELEMETRY.md`).

use p4runpro::p4rp_progs::{instance, Family, WorkloadParams};
use p4runpro::rmt_sim::clock::Nanos;
use p4runpro::traffic::{synthesize, CampusParams, Replay};
use p4runpro::{Controller, TelemetryReport};

/// The Figure 13(a) scenario in miniature: running traffic with program
/// churn interleaved. After revoking everything, every write must be
/// matched by a revocation, every claimed bucket released, and the churn
/// must not have dropped a single packet of the running traffic.
#[test]
fn deploy_replay_revoke_counters_are_consistent() {
    let mut ctl = Controller::with_defaults().unwrap();
    ctl.enable_telemetry();
    // The basic forwarding program carrying the traffic (all IPv4 → 1).
    ctl.deploy("program basefwd(<hdr.ipv4.src, 0.0.0.0, 0x00000000>) { FORWARD(1); }")
        .unwrap();

    let p = CampusParams { duration: Nanos::from_secs(2), ..Default::default() };
    let trace = synthesize(&p);
    let mut replay = Replay::new(trace.packets.clone());
    replay.epoch = ctl.epoch();

    // Churn: deploy three Table-1 programs mid-replay. Their filters use
    // instance ids ≥ 1000 (10.0.x.x), independent of the 10.1/10.2 trace.
    let mut deployed: Vec<String> = Vec::new();
    let mut event_t = Nanos::from_millis(500);
    for (i, fam) in [Family::ALL[0], Family::ALL[3], Family::ALL[7]].iter().enumerate() {
        replay.run_until(event_t, |_, port, frame, out| ctl.inject_into(port, frame, out).unwrap());
        let src = instance(*fam, 1000 + i, WorkloadParams::default());
        deployed.push(ctl.deploy(&src).unwrap()[0].name.clone());
        replay.epoch = ctl.epoch();
        event_t += Nanos::from_millis(400);
    }
    replay.run_all(|_, port, frame, out| ctl.inject_into(port, frame, out).unwrap());

    for name in &deployed {
        ctl.revoke(name).unwrap();
    }
    ctl.revoke("basefwd").unwrap();

    let report = ctl.telemetry_report();

    // Per-program: the deploy span's writes equal the revoke span's
    // revocations, and claimed memory equals released memory.
    for name in deployed.iter().chain(std::iter::once(&"basefwd".to_string())) {
        let dep = report
            .spans
            .iter()
            .find(|s| s.kind == "deploy" && &s.program == name)
            .unwrap_or_else(|| panic!("no deploy span for {name}"));
        let rev = report
            .spans
            .iter()
            .find(|s| s.kind == "revoke" && &s.program == name)
            .unwrap_or_else(|| panic!("no revoke span for {name}"));
        assert_eq!(dep.entries_written, rev.entries_revoked, "{name}: entry balance");
        assert_eq!(dep.memory_claimed, rev.memory_released, "{name}: memory balance");
        assert!(dep.entries_written > 0, "{name}: a deploy writes entries");
        assert!(rev.epoch > dep.epoch, "{name}: revoke follows deploy");
    }
    let written: u64 = report.spans.iter().map(|s| s.entries_written).sum();
    let revoked: u64 = report.spans.iter().map(|s| s.entries_revoked).sum();
    assert_eq!(written, revoked, "all writes matched by revocations");

    // Gauges: everything returned to the free lists.
    assert_eq!(report.resources.memory_utilization, 0.0);
    assert_eq!(report.resources.entry_utilization, 0.0);
    assert_eq!(report.resources.init_used, 0);
    assert_eq!(report.resources.recirc_used, 0);
    assert_eq!(report.programs_deployed, 0);

    // One epoch per lifecycle event (`seq` counts them all, `spans` keeps
    // only the latest `SPAN_HISTORY`), and the data plane recorder carries
    // the latest.
    assert_eq!(report.epoch, report.spans.last().unwrap().seq + 1);
    let dp = report.dataplane.as_ref().expect("telemetry enabled");
    assert_eq!(dp.epoch, report.epoch);

    // The Figure 13(a) claim: churn never drops running traffic.
    assert_eq!(dp.tm.dropped.get(), 0, "no TM drops during churn");
    assert!(dp.tm.forwarded.get() > 0, "traffic flowed");
    assert!(report.control_write_latency.count() > 0, "writes were timed");

    // Replay buckets carry monotone epoch tags spanning the churn.
    assert!(replay.stats.windows(2).all(|w| w[0].epoch <= w[1].epoch));
    assert_eq!(replay.stats.first().unwrap().epoch, 1, "first bucket: only basefwd");
    assert!(replay.stats.last().unwrap().epoch >= 4, "last bucket saw all deploys");

    // The whole report — live dataplane counters included — round-trips
    // through the JSON document `status --json` emits.
    let back = TelemetryReport::from_json(&report.to_json()).unwrap();
    assert_eq!(back, report);
}

/// The span history is a ring: a controller that lives through more
/// lifecycle events than `SPAN_HISTORY` keeps the most recent ones, `seq`
/// keeps counting, and the totals stay in the epoch and the channel
/// counters.
#[test]
fn span_history_is_bounded_and_seq_keeps_counting() {
    use p4runpro::p4rp_ctl::SPAN_HISTORY;

    let mut ctl = Controller::with_defaults().unwrap();
    let src = "program fwd(<hdr.ipv4.src, 0.0.0.0, 0x00000000>) { FORWARD(1); }";
    let cycles = SPAN_HISTORY / 2 + 8; // deploy + revoke: two spans a cycle
    for _ in 0..cycles {
        ctl.deploy(src).unwrap();
        ctl.revoke("fwd").unwrap();
    }
    let events = 2 * cycles as u64;
    let report = ctl.telemetry_report();
    assert_eq!(report.epoch, events);
    assert_eq!(report.spans.len(), SPAN_HISTORY);
    assert_eq!(ctl.lifecycle_spans().len(), SPAN_HISTORY);
    let first = events - SPAN_HISTORY as u64;
    for (i, s) in report.spans.iter().enumerate() {
        assert_eq!(s.seq, first + i as u64, "oldest first, no gaps");
        assert_eq!(s.kind, if s.seq % 2 == 0 { "deploy" } else { "revoke" });
        assert_eq!(s.epoch, s.seq + 1);
    }
    assert!(report.control_write_latency.count() >= events, "every write still counted");
}

/// Single-program attribution round-trip: with exactly one resident
/// program owning all traffic, its row accounts for every global
/// counter (the unattributed slot stays empty save for pre-binding
/// stage-0 lookups), the report carries the schema version, program
/// rows, watchdog status, and series, and the whole document survives
/// the `status --json` round trip.
#[test]
fn single_program_attribution_accounts_for_all_traffic() {
    use p4runpro::p4rp_ctl::{SloThresholds, SCHEMA_VERSION};

    let mut ctl = Controller::with_defaults().unwrap();
    ctl.enable_attribution();
    ctl.enable_series(16);
    ctl.arm_watchdog(SloThresholds {
        max_drop_ppm: Some(1_000_000),
        ..Default::default()
    });
    ctl.deploy("program solo(<hdr.ipv4.src, 0.0.0.0, 0x00000000>) { FORWARD(1); }")
        .unwrap();

    let flows = p4runpro::traffic::make_flows(3, 8, 0.0);
    for i in 0..200 {
        let frame = p4runpro::traffic::frame_for(&flows[i % flows.len()].tuple, 64);
        ctl.inject(0, &frame).unwrap();
    }

    let report = ctl.telemetry_report();
    assert_eq!(report.schema_version, SCHEMA_VERSION);
    let dp = report.dataplane.as_ref().expect("attribution implies telemetry");

    // The solo program's row owns every packet.
    let solo = report
        .programs
        .iter()
        .find(|p| p.name == "solo")
        .expect("attribution row for solo");
    assert_eq!(solo.packets, 200);
    assert_eq!(solo.forwarded, 200);
    assert_eq!(solo.drops, 0);
    assert!(solo.entries > 0, "resource columns come from the installed image");
    assert!(solo.resource_share > 0.0);

    // Summed over every row (unattributed slot included), the per-program
    // counters reproduce the globals exactly.
    let terminal = dp.tm.forwarded.get() + dp.tm.returned.get() + dp.tm.multicast.get();
    assert_eq!(report.programs.iter().map(|p| p.packets).sum::<u64>(), 200);
    assert_eq!(report.programs.iter().map(|p| p.forwarded).sum::<u64>(), terminal);
    assert_eq!(
        report.programs.iter().map(|p| p.drops).sum::<u64>(),
        dp.tm.dropped.get()
    );
    assert_eq!(
        report.programs.iter().map(|p| p.recirc_passes).sum::<u64>(),
        dp.tm.recirculated.get()
    );
    assert_eq!(
        report.programs.iter().map(|p| p.hits).sum::<u64>(),
        dp.ingress.total().hits.get() + dp.egress.total().hits.get()
    );
    assert_eq!(
        report.programs.iter().map(|p| p.salu_rmws).sum::<u64>(),
        dp.ingress.total().salu_reads.get() + dp.egress.total().salu_reads.get()
    );

    // Watchdog: armed with a permissive threshold, no violations; the
    // series collected at least the deploy-epoch bucket.
    let slo = report.slo.as_ref().expect("watchdog armed");
    assert_eq!(slo.violations, 0);
    assert!(slo.breached.is_empty());
    assert!(report.series.as_ref().is_some_and(|s| !s.points.is_empty()));

    // The human summary surfaces the new sections.
    let text = report.summary();
    assert!(text.contains("per-program:"), "summary lists program rows:\n{text}");
    assert!(text.contains("solo"), "summary names the program:\n{text}");
    assert!(text.contains("slo watchdog: armed"), "summary shows the watchdog:\n{text}");
    assert!(text.contains("series:"), "summary shows series retention:\n{text}");

    // Full round trip, new sections included.
    let back = TelemetryReport::from_json(&report.to_json()).unwrap();
    assert_eq!(back, report);
}

/// Disabling telemetry detaches the recorder and returns the snapshot;
/// subsequent traffic must not touch it.
#[test]
fn disabled_telemetry_records_nothing() {
    let mut ctl = Controller::with_defaults().unwrap();
    ctl.deploy("program fwd(<hdr.ipv4.src, 0.0.0.0, 0x00000000>) { FORWARD(1); }")
        .unwrap();
    let frame = p4runpro::traffic::frame_for(
        &p4runpro::traffic::make_flows(1, 1, 0.0)[0].tuple,
        64,
    );
    ctl.inject(0, &frame).unwrap();
    let report = ctl.telemetry_report();
    assert!(report.dataplane.is_none(), "telemetry off → no packet counters");
    // Spans and the control-channel histogram are always on.
    assert_eq!(report.spans.len(), 1);
    assert!(report.control_write_latency.count() > 0);

    // Enabling later starts from zero, synchronized to the current epoch.
    ctl.enable_telemetry();
    ctl.inject(0, &frame).unwrap();
    let dp = ctl.telemetry_report().dataplane.unwrap();
    assert_eq!(dp.epoch, 1);
    assert_eq!(dp.tm.forwarded.get(), 1);
}

/// An entry-less table is answered before any index work, but it is still
/// looked up: with one wildcard `FORWARD` resident, 22 of the 24 tables hold
/// nothing, and every one of them must count every frame — on its own
/// hit/miss counters whether or not anything records, and as one
/// `table_lookup` event each when something does.
#[test]
fn empty_tables_still_count_every_lookup() {
    const N: u64 = 100;
    let mut ctl = Controller::with_defaults().unwrap();
    ctl.deploy("program fwd(<hdr.ipv4.src, 0.0.0.0, 0x00000000>) { FORWARD(1); }")
        .unwrap();
    let frame = p4runpro::traffic::frame_for(
        &p4runpro::traffic::make_flows(1, 1, 0.0)[0].tuple,
        64,
    );
    // Half with nothing listening, half with the recorder on.
    for _ in 0..N / 2 {
        assert_eq!(ctl.inject(0, &frame).unwrap().passes, 1);
    }
    ctl.enable_telemetry();
    for _ in 0..N / 2 {
        assert_eq!(ctl.inject(0, &frame).unwrap().passes, 1);
    }

    let tables = ctl.switch().table_index_stats();
    assert_eq!(tables.len(), 24);
    assert_eq!(tables.iter().filter(|t| t.entries == 0).count(), 22);
    for t in &tables {
        assert_eq!(t.hits + t.misses, N, "{} {} table `{}`", t.gress, t.stage, t.name);
    }
    let dp = ctl.telemetry_report().dataplane.unwrap();
    let (i, e) = (dp.ingress.total(), dp.egress.total());
    let recorded = i.hits.get() + i.misses.get() + e.hits.get() + e.misses.get();
    assert_eq!(recorded, 24 * (N / 2), "24 lookup events per recorded frame");
    assert_eq!(i.hits.get() + e.hits.get(), 2 * (N / 2), "the filter and the one RPB entry");
}
