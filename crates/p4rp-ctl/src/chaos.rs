//! Seeded chaos scenarios: deterministic fault-injection campaigns over
//! the controller lifecycle (documented in `docs/CHAOS.md`).
//!
//! A scenario interleaves deploy / revoke churn from a generated program
//! pool with traffic bursts, while the control channel runs under an
//! armed [`FaultPlan`]. A fault-free *sentinel* program is deployed
//! before the plan is armed; every burst asserts it still forwards —
//! the packet-visible form of the atomicity guarantee (a half-installed
//! or half-rolled-back neighbour must never disturb a resident program).
//!
//! Everything is driven by one `u64` seed through the vendored
//! deterministic RNG and the simulated clock, so a scenario replays
//! bit-identically: the retained trace ring hashes to the same
//! [`ChaosOutcome::trace_fingerprint`] on every run of the same seed.

use crate::controller::{AuditReport, Controller, CtlError, CtlResult};
use crate::telemetry::{FaultStats, SloThresholds};
use netpkt::{EtherType, EthernetRepr, IpProtocol, Ipv4Repr, Mac, ParsedPacket, UdpRepr};
use rand::prelude::*;
use rand::rngs::StdRng;
use rmt_sim::fault::FaultPlan;
use rmt_sim::trace::TraceConfig;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::net::Ipv4Addr;

/// The port the sentinel program forwards to.
pub const SENTINEL_PORT: u16 = 7;
/// The sentinel's match address.
pub const SENTINEL_DST: Ipv4Addr = Ipv4Addr::new(10, 9, 9, 9);

/// One chaos campaign's knobs. Everything observable is a pure function
/// of this configuration.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Master seed for the action/traffic RNG.
    pub seed: u64,
    /// Scenario steps (each step is one deploy, revoke, burst, or repair).
    pub steps: usize,
    /// Size of the generated program pool.
    pub programs: usize,
    /// Fault plan armed after the sentinel is resident.
    pub faults: FaultPlan,
    /// Packets injected per traffic burst.
    pub packets_per_burst: usize,
    /// Data-plane workers. 1 (the default) runs the sequential engine —
    /// exactly the pre-parallel campaign; more shards every burst across
    /// the multi-worker engine while deploy/revoke churn publishes
    /// snapshot deltas underneath it.
    pub workers: usize,
    /// SLO watchdog thresholds to arm for the campaign. `None` (the
    /// default) runs without a watchdog; `Some` also enables per-program
    /// attribution so the drop-rate SLO evaluates real merged counters.
    /// Because every watchdog input is sim-clock / seeded-state driven,
    /// the emitted `SloViolation` events replay bit-for-bit and enter
    /// [`ChaosOutcome::trace_fingerprint`].
    pub watchdog: Option<SloThresholds>,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seed: 1,
            steps: 40,
            programs: 6,
            faults: FaultPlan::none(),
            packets_per_burst: 4,
            workers: 1,
            watchdog: None,
        }
    }
}

/// What a campaign observed.
#[derive(Debug, Clone, Default)]
pub struct ChaosOutcome {
    /// Steps executed.
    pub steps: usize,
    /// Deploys that committed.
    pub deploys_ok: u64,
    /// Deploys aborted by an injected fault (rolled back or wedged).
    pub deploys_faulted: u64,
    /// Revokes that completed.
    pub revokes_ok: u64,
    /// Revokes interrupted by an injected fault.
    pub revokes_faulted: u64,
    /// Reconcile passes run (including faulted partial passes).
    pub reconcile_passes: u64,
    /// Sentinel packets forwarded to [`SENTINEL_PORT`].
    pub sentinel_hits: u64,
    /// Sentinel packets that went astray while the device was supposed
    /// to be coherent. The atomicity guarantee says this stays 0.
    pub sentinel_misses: u64,
    /// Pool-program packets checked against their expected port.
    pub resident_hits: u64,
    /// Pool-program packets that misforwarded under a coherent device.
    pub resident_misses: u64,
    /// Online invariant-checker violations in the trace ring.
    pub invariant_violations: usize,
    /// Final device-vs-resource-manager audit (after the drain phase).
    pub final_audit: AuditReport,
    /// Final cumulative fault counters.
    pub fault_stats: FaultStats,
    /// Hash over every retained trace event — the determinism receipt.
    pub trace_fingerprint: u64,
    /// The drain phase converged (clean audit, nothing wedged).
    pub converged: bool,
    /// `SloViolation` events in the merged trace ring (0 when no
    /// watchdog was armed, or when no threshold was breached).
    pub slo_violations: u64,
}

/// Build a minimal UDP frame addressed to `dst` (what the pool programs
/// and the sentinel match on).
pub fn frame_to(dst: Ipv4Addr) -> Vec<u8> {
    ParsedPacket {
        ethernet: EthernetRepr {
            dst: Mac::from_host_id(u32::from_be_bytes(dst.octets())),
            src: Mac::from_host_id(0x0a00_0001),
            ethertype: EtherType::Ipv4,
        },
        ipv4: Some(Ipv4Repr {
            src_addr: Ipv4Addr::new(10, 0, 0, 1),
            dst_addr: dst,
            protocol: IpProtocol::Udp,
            ttl: 64,
            dscp: 0,
            ecn: 0,
        }),
        udp: Some(UdpRepr { src_port: 40000, dst_port: 4791 }),
        tcp: None,
        netcache: None,
        payload_len: 16,
    }
    .emit()
}

/// The address pool program `i` matches.
pub fn pool_dst(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, (i % 200) as u8, 1)
}

/// The port pool program `i` forwards to.
pub fn pool_port(i: usize) -> u16 {
    (i % 4) as u16 + 1
}

/// P4runpro source for pool program `i`. Even indices are pure
/// forwarders; odd indices carry a 64-bucket virtual memory (a cache-like
/// program whose install batch includes body entries across stages), so
/// fault sweeps hit both shapes.
pub fn pool_source(i: usize) -> String {
    let dst = pool_dst(i);
    let port = pool_port(i);
    if i.is_multiple_of(2) {
        format!("program c{i}(<hdr.ipv4.dst, {dst}, 0xffffffff>) {{ FORWARD({port}); }}")
    } else {
        format!(
            "@ m{i} 64\nprogram c{i}(<hdr.ipv4.dst, {dst}, 0xffffffff>) \
             {{ LOADI(mar, 5); MEMREAD(m{i}); FORWARD({port}); }}"
        )
    }
}

/// The sentinel program's source.
pub(crate) fn sentinel_source() -> String {
    format!(
        "program sentinel(<hdr.ipv4.dst, {SENTINEL_DST}, 0xffffffff>) \
         {{ FORWARD({SENTINEL_PORT}); }}"
    )
}

/// Hash every retained trace event into one fingerprint. Only simulated
/// time appears in the ring, so the same seed reproduces the same value.
pub fn trace_fingerprint(ctl: &Controller) -> u64 {
    let mut h = DefaultHasher::new();
    // The *merged* ring: with workers, packet events live on per-worker
    // rings and the merge is deterministic (global timestamp/packet-id
    // order); without, this is a clone of the master ring, so sequential
    // fingerprints are unchanged.
    if let Some(t) = ctl.merged_trace() {
        for ev in t.events() {
            ev.seq.hash(&mut h);
            ev.t_ns.hash(&mut h);
            ev.epoch.hash(&mut h);
            ev.render().hash(&mut h);
        }
    }
    h.finish()
}

/// Invariant-checker violations across every live ring (master plus
/// workers). Checkers run per-ring at record time; the merge never
/// re-checks, so this is the authoritative count.
pub fn total_violations(ctl: &Controller) -> usize {
    let master = ctl.trace().map_or(0, |t| t.violations().len());
    let workers = ctl.workers().map_or(0, |p| {
        p.workers()
            .iter()
            .filter_map(|w| w.switch().trace())
            .map(|t| t.violations().len())
            .sum()
    });
    master + workers
}

/// Run one campaign. See the module docs for the scenario shape; the
/// returned outcome carries both the liveness counters and the final
/// consistency verdicts.
pub fn run(cfg: &ChaosConfig) -> CtlResult<ChaosOutcome> {
    let mut ctl = Controller::with_defaults()?;
    ctl.set_fast_path(true);
    ctl.enable_trace(TraceConfig {
        capacity: 8192,
        postmortem_dir: None,
        ..TraceConfig::default()
    });
    let mut out = ChaosOutcome::default();

    // The sentinel goes in before any fault can fire.
    ctl.deploy(&sentinel_source())?;
    // Fork the worker pool *after* the sentinel is resident: workers
    // inherit it in the fork, and every later deploy/revoke reaches them
    // as one atomic snapshot delta. `inject` runs on the sequential engine
    // when no pool exists, so `workers: 1` replays the pre-parallel
    // campaign bit-for-bit.
    // Watchdog campaigns also enable per-program attribution (before the
    // worker fork, so every worker inherits it): the drop-rate SLO then
    // evaluates the real merged TM counters and a breach event names the
    // heaviest-dropping program.
    if let Some(t) = &cfg.watchdog {
        ctl.enable_attribution();
        ctl.arm_watchdog(t.clone());
    }
    if cfg.workers > 1 {
        ctl.enable_workers(cfg.workers);
    }
    ctl.set_fault_plan(cfg.faults.clone());

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Pool indices currently resident (deploy committed, not yet revoked).
    let mut resident: Vec<usize> = Vec::new();
    // Pool indices wedged (cleanup parked); their names stay taken.
    let mut stuck: Vec<usize> = Vec::new();

    for step in 0..cfg.steps {
        out.steps = step + 1;
        match rng.random_range(0u32..100) {
            // Deploy the first pool program that is neither resident nor
            // wedged.
            0..=39 => {
                let Some(i) = (0..cfg.programs)
                    .find(|i| !resident.contains(i) && !stuck.contains(i))
                else {
                    continue;
                };
                match ctl.deploy(&pool_source(i)) {
                    Ok(_) => {
                        out.deploys_ok += 1;
                        resident.push(i);
                    }
                    Err(CtlError::Wedged { .. }) => {
                        out.deploys_faulted += 1;
                        stuck.push(i);
                    }
                    Err(CtlError::DeployFault { .. }) => out.deploys_faulted += 1,
                    Err(e) => return Err(e),
                }
            }
            // Revoke a random resident program, or retry a wedged one.
            40..=64 => {
                let total = resident.len() + stuck.len();
                if total == 0 {
                    continue;
                }
                let k = rng.random_range(0..total);
                let (i, was_stuck) = if k < resident.len() {
                    (resident[k], false)
                } else {
                    (stuck[k - resident.len()], true)
                };
                match ctl.revoke(&format!("c{i}")) {
                    Ok(_) => {
                        out.revokes_ok += 1;
                        if was_stuck {
                            stuck.retain(|&j| j != i);
                        } else {
                            resident.retain(|&j| j != i);
                        }
                    }
                    Err(CtlError::Wedged { .. }) => {
                        out.revokes_faulted += 1;
                        if !was_stuck {
                            resident.retain(|&j| j != i);
                            stuck.push(i);
                        }
                    }
                    Err(e) => return Err(e),
                }
            }
            // Traffic burst: the sentinel plus random resident programs.
            65..=89 => {
                // A device reset legitimately blanks resident programs
                // until a reconcile repairs them; only a coherent device
                // owes correct forwarding.
                let coherent = !ctl.needs_reconcile();
                for p in 0..cfg.packets_per_burst {
                    let (dst, port, sentinel) = if p == 0 || resident.is_empty() {
                        (SENTINEL_DST, SENTINEL_PORT, true)
                    } else {
                        let i = resident[rng.random_range(0..resident.len())];
                        (pool_dst(i), pool_port(i), false)
                    };
                    let outcome = ctl.inject(0, &frame_to(dst))?;
                    let hit = outcome.emitted.iter().any(|&(pt, _)| pt == port);
                    if !coherent {
                        continue;
                    }
                    match (sentinel, hit) {
                        (true, true) => out.sentinel_hits += 1,
                        (true, false) => out.sentinel_misses += 1,
                        (false, true) => out.resident_hits += 1,
                        (false, false) => out.resident_misses += 1,
                    }
                }
            }
            // Repair tick: reconcile if the device diverged.
            _ => {
                if ctl.needs_reconcile() {
                    out.reconcile_passes += 1;
                    let _ = ctl.reconcile();
                    // A reconcile pass retires wedged programs.
                    stuck.retain(|i| ctl.wedged_programs().any(|n| *n == format!("c{i}")));
                }
            }
        }
    }

    // Drain: retry wedged cleanups and reconcile until the device and the
    // resource manager agree. Every trigger is one-shot, so once the plan
    // exhausts each pass makes strict progress.
    let budget = 16 + cfg.faults.triggers().len();
    let mut converged = false;
    for _ in 0..budget {
        // Each drain pass re-evaluates the armed SLOs (a no-op when
        // disarmed): faults that accumulated during the campaign breach
        // here at a deterministic sim-clock instant.
        ctl.slo_check();
        if !ctl.channel().is_connected() {
            ctl.channel_mut().reconnect();
        }
        let mut wedged: Vec<String> = ctl.wedged_programs().cloned().collect();
        wedged.sort();
        for name in wedged {
            match ctl.revoke(&name) {
                Ok(_) => out.revokes_ok += 1,
                Err(CtlError::Wedged { .. }) => out.revokes_faulted += 1,
                Err(e) => return Err(e),
            }
        }
        if ctl.needs_reconcile() || !ctl.audit()?.clean() {
            out.reconcile_passes += 1;
            let _ = ctl.reconcile();
            continue;
        }
        converged = true;
        break;
    }
    out.converged = converged;

    // Post-drain burst: the sentinel and every surviving program must
    // forward again.
    resident.retain(|i| ctl.program(&format!("c{i}")).is_some());
    let outcome = ctl.inject(0, &frame_to(SENTINEL_DST))?;
    if outcome.emitted.iter().any(|&(pt, _)| pt == SENTINEL_PORT) {
        out.sentinel_hits += 1;
    } else {
        out.sentinel_misses += 1;
    }
    for &i in &resident {
        let outcome = ctl.inject(0, &frame_to(pool_dst(i)))?;
        if outcome.emitted.iter().any(|&(pt, _)| pt == pool_port(i)) {
            out.resident_hits += 1;
        } else {
            out.resident_misses += 1;
        }
    }

    // Final SLO pass over the post-drain state, then count the emitted
    // violation events straight from the merged ring — the same ring the
    // fingerprint hashes, so breaches are part of the determinism receipt.
    ctl.slo_check();
    out.slo_violations = ctl.merged_trace().map_or(0, |t| {
        t.events()
            .filter(|e| matches!(e.kind, rmt_sim::trace::TraceEventKind::SloViolation { .. }))
            .count() as u64
    });

    out.final_audit = ctl.audit()?;
    out.fault_stats = ctl.fault_stats();
    out.invariant_violations = total_violations(&ctl);
    out.trace_fingerprint = trace_fingerprint(&ctl);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt_sim::fault::FaultPlan;

    #[test]
    fn fault_free_campaign_is_clean_and_deterministic() {
        let cfg = ChaosConfig { seed: 7, steps: 30, ..ChaosConfig::default() };
        let a = run(&cfg).unwrap();
        let b = run(&cfg).unwrap();
        assert_eq!(a.sentinel_misses, 0);
        assert_eq!(a.resident_misses, 0);
        assert_eq!(a.invariant_violations, 0);
        assert!(a.converged);
        assert!(a.final_audit.clean());
        assert!(a.deploys_ok > 0);
        assert_eq!(a.trace_fingerprint, b.trace_fingerprint);
    }

    #[test]
    fn seeded_fault_campaign_converges_with_sentinel_intact() {
        let cfg = ChaosConfig {
            seed: 11,
            steps: 60,
            faults: FaultPlan::random(11, 6, 400),
            ..ChaosConfig::default()
        };
        let a = run(&cfg).unwrap();
        let b = run(&cfg).unwrap();
        assert_eq!(a.sentinel_misses, 0, "sentinel misforwarded: {a:?}");
        assert_eq!(a.resident_misses, 0, "resident program misforwarded: {a:?}");
        assert_eq!(a.invariant_violations, 0);
        assert!(a.converged, "drain did not converge: {a:?}");
        assert!(a.final_audit.clean(), "device diverged: {:?}", a.final_audit);
        assert_eq!(a.trace_fingerprint, b.trace_fingerprint, "same seed, different trace");
    }

    #[test]
    fn clean_campaign_with_armed_watchdog_emits_no_violations() {
        let cfg = ChaosConfig {
            seed: 7,
            steps: 30,
            watchdog: Some(SloThresholds {
                max_deploy_failures: Some(0),
                max_p99_write_ns: Some(u64::MAX),
                ..SloThresholds::default()
            }),
            ..ChaosConfig::default()
        };
        let out = run(&cfg).unwrap();
        assert_eq!(out.slo_violations, 0, "{out:?}");
        assert!(out.converged);
        assert!(out.final_audit.clean());
    }

    #[test]
    fn breaching_faults_produce_deterministic_slo_violations() {
        let cfg = ChaosConfig {
            seed: 11,
            steps: 60,
            faults: FaultPlan::random(11, 6, 400),
            watchdog: Some(SloThresholds {
                max_deploy_failures: Some(0),
                max_drop_ppm: Some(0),
                ..SloThresholds::default()
            }),
            ..ChaosConfig::default()
        };
        let a = run(&cfg).unwrap();
        let b = run(&cfg).unwrap();
        assert!(
            a.deploys_faulted + a.revokes_faulted > 0,
            "campaign should hit faults: {a:?}"
        );
        assert!(a.slo_violations > 0, "breaching thresholds must emit events: {a:?}");
        assert_eq!(a.slo_violations, b.slo_violations);
        assert_eq!(
            a.trace_fingerprint, b.trace_fingerprint,
            "SloViolation events must replay bit-for-bit"
        );
        assert!(a.converged, "{a:?}");
    }

    #[test]
    fn parallel_campaign_is_clean_and_deterministic() {
        let cfg = ChaosConfig {
            seed: 13,
            steps: 40,
            workers: 2,
            faults: FaultPlan::random(13, 4, 300),
            ..ChaosConfig::default()
        };
        let a = run(&cfg).unwrap();
        let b = run(&cfg).unwrap();
        assert_eq!(a.sentinel_misses, 0, "sentinel misforwarded under workers: {a:?}");
        assert_eq!(a.resident_misses, 0, "resident misforwarded under workers: {a:?}");
        assert_eq!(a.invariant_violations, 0);
        assert!(a.converged, "drain did not converge: {a:?}");
        assert!(a.final_audit.clean(), "device diverged: {:?}", a.final_audit);
        assert_eq!(a.trace_fingerprint, b.trace_fingerprint, "same seed, different trace");
    }
}
