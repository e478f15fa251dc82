//! Per-program attribution and the Prometheus-style exposition
//! (docs/METRICS.md).
//!
//! Two acceptance properties pin the observability layer down:
//!
//! 1. **Conservation** — per-program counters summed over every
//!    attribution row reproduce the global counters exactly, whatever
//!    the worker count: attribution re-buckets events, it never
//!    invents or loses them.
//! 2. **Round trip** — the text exposition parses back to the same
//!    counter values the report carries, so a scraper sees what the
//!    controller sees.
//!
//! A CLI smoke test (the CI `metrics-smoke` step) drives the same
//! surfaces end to end: deploy two programs, replay traffic, render
//! `top --once`, export the exposition, and re-parse it.

use p4runpro::p4rp_ctl::{
    parse_prometheus, render_prometheus, Cli, ProgramUsage, Sample, TelemetryReport,
};
use p4runpro::traffic::gen::{frame_for, make_flows, Flow};
use p4runpro::Controller;
use proptest::prelude::*;

/// Forward the first few distinct destinations of `mix` to distinct
/// ports (same shape as the parallel-engine tests), so attribution sees
/// several owners plus unmatched traffic on the unattributed slot.
fn deploy_forwarders(ctl: &mut Controller, mix: &[Flow]) {
    let mut seen = std::collections::HashSet::new();
    let mut i = 0;
    for f in mix {
        if seen.len() == 3 {
            break;
        }
        if seen.insert(f.tuple.dst_addr) {
            let src = format!(
                "program f{i}(<hdr.ipv4.dst, {}, 0xffffffff>) {{ FORWARD({}); }}",
                f.tuple.dst_addr,
                i + 1
            );
            ctl.deploy(&src).unwrap();
            i += 1;
        }
    }
}

/// Replay a seeded mix with attribution on and return the report.
fn run_attributed(seed: u64, flows: usize, packets: usize, workers: usize) -> TelemetryReport {
    let mut ctl = Controller::with_defaults().unwrap();
    ctl.enable_attribution();
    let mix = make_flows(seed, flows, 0.5);
    deploy_forwarders(&mut ctl, &mix);
    if workers > 0 {
        ctl.enable_workers(workers);
    }
    for i in 0..packets {
        let frame = frame_for(&mix[i % mix.len()].tuple, 64);
        ctl.inject(0, &frame).unwrap();
    }
    ctl.telemetry_report()
}

/// The sample carrying `name` with `prog_id == id`, or panic.
fn prog_sample<'a>(samples: &'a [Sample], name: &str, id: u64) -> &'a Sample {
    let id = id.to_string();
    samples
        .iter()
        .find(|s| s.name == name && s.label("prog_id") == Some(id.as_str()))
        .unwrap_or_else(|| panic!("no {name} sample for prog_id {id}"))
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("P4RP_PROPTEST_CASES")
            .ok().and_then(|s| s.parse().ok()).unwrap_or(8),
        .. ProptestConfig::default()
    })]

    /// Conservation and round trip, across the sequential engine and
    /// 1/2/4-worker pools.
    #[test]
    fn attribution_sums_to_globals_and_exposition_round_trips(
        seed in 0u64..10_000,
        flows in 4usize..=16,
        packets in 40usize..=160,
    ) {
        for workers in [0usize, 1, 2, 4] {
            let report = run_attributed(seed, flows, packets, workers);
            let dp = report.dataplane.as_ref().expect("attribution implies telemetry");

            // Conservation: the rows partition the global counters.
            let terminal = dp.tm.forwarded.get() + dp.tm.returned.get()
                + dp.tm.multicast.get() + dp.tm.dropped.get();
            prop_assert_eq!(terminal, packets as u64, "{} workers", workers);
            let rows = &report.programs;
            prop_assert_eq!(
                rows.iter().map(|p| p.packets).sum::<u64>(),
                packets as u64, "{} workers", workers
            );
            prop_assert_eq!(
                rows.iter().map(|p| p.forwarded).sum::<u64>(),
                dp.tm.forwarded.get() + dp.tm.returned.get() + dp.tm.multicast.get(),
                "{} workers", workers
            );
            prop_assert_eq!(
                rows.iter().map(|p| p.drops).sum::<u64>(),
                dp.tm.dropped.get(), "{} workers", workers
            );
            prop_assert_eq!(
                rows.iter().map(|p| p.recirc_passes).sum::<u64>(),
                dp.tm.recirculated.get(), "{} workers", workers
            );
            prop_assert_eq!(
                rows.iter().map(|p| p.hits).sum::<u64>(),
                dp.ingress.total().hits.get() + dp.egress.total().hits.get(),
                "{} workers", workers
            );
            prop_assert_eq!(
                rows.iter().map(|p| p.salu_rmws).sum::<u64>(),
                dp.ingress.total().salu_reads.get() + dp.egress.total().salu_reads.get(),
                "{} workers", workers
            );

            // Round trip: the exposition parses back to the same values.
            let text = render_prometheus(&report);
            let samples = parse_prometheus(&text).unwrap();
            for p in rows {
                let cases = [
                    ("p4rp_program_packets_total", p.packets),
                    ("p4rp_program_forwarded_total", p.forwarded),
                    ("p4rp_program_drops_total", p.drops),
                    ("p4rp_program_recirc_passes_total", p.recirc_passes),
                    ("p4rp_program_hits_total", p.hits),
                    ("p4rp_program_salu_rmws_total", p.salu_rmws),
                ];
                for (name, want) in cases {
                    let s = prog_sample(&samples, name, p.prog_id);
                    prop_assert_eq!(s.value, want as f64, "{} prog {}", name, p.prog_id);
                    prop_assert_eq!(
                        s.label("program"), Some(p.name.as_str()),
                        "program label on {}", name
                    );
                }
            }
            let verdicts = [
                ("forwarded", dp.tm.forwarded.get()),
                ("dropped", dp.tm.dropped.get()),
                ("recirculated", dp.tm.recirculated.get()),
            ];
            for (kind, want) in verdicts {
                let s = samples
                    .iter()
                    .find(|s| {
                        s.name == "p4rp_tm_verdicts_total" && s.label("verdict") == Some(kind)
                    })
                    .unwrap();
                prop_assert_eq!(s.value, want as f64, "verdict {}", kind);
            }
        }
    }
}

/// The CI smoke path: two programs, replayed traffic, a `top --once`
/// render, and a `metrics export` whose output parses with valid label
/// syntax and counters that only ever grow between scrapes.
#[test]
fn cli_top_and_export_smoke() {
    let mut cli = Cli::new(Controller::with_defaults().unwrap());
    let mix = make_flows(5, 8, 0.5);
    let (a, b) = (mix[0].tuple.dst_addr, mix[1].tuple.dst_addr);
    assert!(cli
        .exec(&format!("deploy program alpha(<hdr.ipv4.dst, {a}, 0xffffffff>) {{ FORWARD(1); }}"))
        .contains("linked `alpha`"));
    assert!(cli
        .exec(&format!("deploy program beta(<hdr.ipv4.dst, {b}, 0xffffffff>) {{ FORWARD(2); }}"))
        .contains("linked `beta`"));

    // `top` arms attribution on first use, so replay traffic after it.
    let first = cli.exec("top --once");
    assert!(first.contains("attribution just enabled"), "{first}");
    assert!(cli.exec("replay --packets 400 --flows 8 --seed 5").contains("replayed"));

    let top = cli.exec("top --once");
    assert!(top.contains("alpha") && top.contains("beta"), "{top}");
    assert!(top.contains("PACKETS"), "{top}");

    // First scrape.
    let text1 = cli.exec("metrics export -");
    let s1 = parse_prometheus(&text1).unwrap_or_else(|e| panic!("scrape 1: {e}\n{text1}"));
    assert!(!s1.is_empty());

    // More traffic, second scrape: every *_total counter is monotone.
    assert!(cli.exec("replay --packets 400 --flows 8 --seed 5").contains("replayed"));
    let text2 = cli.exec("metrics export -");
    let s2 = parse_prometheus(&text2).unwrap_or_else(|e| panic!("scrape 2: {e}\n{text2}"));
    let key = |s: &Sample| {
        let mut labels = s.labels.clone();
        labels.sort();
        (s.name.clone(), labels)
    };
    let first_by_key: std::collections::HashMap<_, _> =
        s1.iter().map(|s| (key(s), s.value)).collect();
    let mut counters_checked = 0;
    for s in &s2 {
        if !s.name.ends_with("_total") {
            continue;
        }
        if let Some(&before) = first_by_key.get(&key(s)) {
            assert!(
                s.value >= before,
                "counter {} went backwards: {} -> {}",
                s.name,
                before,
                s.value
            );
            counters_checked += 1;
        }
    }
    assert!(counters_checked > 10, "only {counters_checked} counters compared");

    // The packet counters attributed to the two programs both moved.
    let alpha = s2
        .iter()
        .find(|s| {
            s.name == "p4rp_program_packets_total" && s.label("program") == Some("alpha")
        })
        .expect("alpha row exported");
    assert!(alpha.value > 0.0, "alpha attributed packets");

    // Writing to a file works too.
    let dir = std::env::temp_dir().join("p4rp-metrics-smoke");
    let path = dir.join("metrics.prom");
    let out = cli.exec(&format!("metrics export {}", path.display()));
    assert!(out.contains("wrote"), "{out}");
    let text = std::fs::read_to_string(&path).unwrap();
    parse_prometheus(&text).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Characters that have broken (or could break) the exposition at some
/// point: the escape triggers themselves (`\`, `"`, `\n`, `\r`), the
/// label-syntax metacharacters, and multi-byte UTF-8 of 2, 3, and 4
/// bytes. Random draws from this set compose into hostile label values.
const TRICKY_CHARS: &[char] = &[
    'a', 'B', '0', '"', '\\', '\n', '\r', '\t', ' ', '=', ',', '{', '}', 'λ', 'й', '日', '🦀',
];

fn label_value() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..TRICKY_CHARS.len(), 0..10)
        .prop_map(|ix| ix.into_iter().map(|i| TRICKY_CHARS[i]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("P4RP_PROPTEST_CASES")
            .ok().and_then(|s| s.parse().ok()).unwrap_or(32),
        .. ProptestConfig::default()
    })]

    /// For arbitrary label values — including carriage returns,
    /// backslashes, quotes, and multi-byte UTF-8 — and arbitrary series
    /// of program rows, `render_prometheus` → `parse_prometheus` is the
    /// identity on both label values and counter values, and the wire
    /// text never carries a raw CR or a label-internal raw LF that would
    /// break HTTP framing. (This property caught the unescaped `\r`:
    /// a raw CR round-trips in memory because `str::lines` only splits
    /// on `\n`, but corrupts the exposition once it crosses a socket.)
    #[test]
    fn arbitrary_label_values_round_trip_through_exposition(
        names in prop::collection::vec(label_value(), 1..5),
        counts in prop::collection::vec(1u64..1_000_000, 5..6),
    ) {
        let ctl = Controller::with_defaults().unwrap();
        let mut report = ctl.telemetry_report();
        report.programs = names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                ProgramUsage {
                    name: name.clone(),
                    prog_id: i as u64,
                    packets: counts[i % counts.len()],
                    drops: counts[(i + 1) % counts.len()],
                    hits: counts[(i + 2) % counts.len()],
                    ..Default::default()
                }
            })
            .collect();
        let text = render_prometheus(&report);
        prop_assert!(!text.contains('\r'), "raw CR reached the wire:\n{:?}", text);
        let samples = match parse_prometheus(&text) {
            Ok(s) => s,
            Err(e) => {
                return Err(proptest::test_runner::TestCaseError::Fail(format!(
                    "exposition failed to re-parse: {e}\n{text:?}"
                )))
            }
        };
        for (i, name) in names.iter().enumerate() {
            let id = i.to_string();
            for (metric, want) in [
                ("p4rp_program_packets_total", counts[i % counts.len()]),
                ("p4rp_program_drops_total", counts[(i + 1) % counts.len()]),
                ("p4rp_program_hits_total", counts[(i + 2) % counts.len()]),
            ] {
                let s = samples
                    .iter()
                    .find(|s| s.name == metric && s.label("prog_id") == Some(id.as_str()))
                    .unwrap_or_else(|| panic!("missing {metric} row for prog {id}"));
                prop_assert_eq!(
                    s.label("program"), Some(name.as_str()),
                    "label value mangled on {} ({:?})", metric, name
                );
                prop_assert_eq!(s.value, want as f64, "counter value drifted on {}", metric);
            }
        }
    }
}
