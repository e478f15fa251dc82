//! `p4rp_bench`: the one seeded benchmark for the frame path and the deploy
//! path (see `README.md` beside this crate).
//!
//! Two ways in:
//!
//! * **One run** — `--workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//!   generates the inputs from the seed, measures, checks the outputs, and
//!   prints one JSON object as the last line of stdout (`--trace 0`: the
//!   end-to-end metrics; `--trace 1`: the per-layer metrics, and the spans go
//!   to `<target dir>/p4rp_bench/<workload>.trace.json`).
//! * **The report** — no `--trace`: for every workload (or the one named),
//!   one untraced run and one traced run a quarter as long, each in a child
//!   process of this same binary so peak memory is per run; every metric is
//!   printed by name and unit. `--repeat N` does the whole set N times and
//!   fails if two halves of the runs disagree by more than a metric's bound.

mod gen;
mod spans;
mod spec;
mod stats;
mod sut;
mod workloads;

use serde::Value;
use spec::{Better, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static ALLOC: stats::CountingAlloc = stats::CountingAlloc;

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;
/// Figures of a traced run that must repeat exactly for a seed.
const EXACT: [&str; 3] = ["sim.fingerprint", "compiler.alloc_nodes", "control.sim_update_us"];

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: None, seed: 1, seconds: DEFAULT_SECONDS, trace: None, repeat: 1 };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |what: &str| format!("`{flag} {value}`: expected {what}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(spec::workload(&value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    bad(&format!("one of {}", names.join(", ")))
                })?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(bad("more than 0 and at most 60"));
                }
            }
            "--trace" => {
                args.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--repeat" => {
                args.repeat = value.parse().map_err(|_| bad("a count"))?;
                if args.repeat == 0 {
                    return Err(bad("at least 1"));
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(args)
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// `<target dir>/p4rp_bench`, next to the profile directory the binary was
/// built into: inside the checkout, ignored by git, never the repo root.
fn artifact_dir() -> std::path::PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    let target = exe.parent().and_then(|profile| profile.parent());
    target.unwrap_or(std::path::Path::new("target")).join("p4rp_bench")
}

/// One run, in this process. The result line is the last line of stdout.
fn run_once(w: &Workload, seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let report = workloads::run(w, seed, seconds, trace);
    if let Some(spans) = &report.spans {
        let dir = artifact_dir();
        let path = dir.join(format!("{}.trace.json", w.name));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, spans.chrome_trace_json(w.name)));
        match written {
            Ok(()) => eprintln!("p4rp_bench: spans written to {}", path.display()),
            Err(e) => eprintln!("p4rp_bench: could not write {}: {e}", path.display()),
        }
    }
    let specs: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let metrics = specs
        .into_iter()
        .map(|(name, unit)| {
            let value =
                *report.metrics.get(name).unwrap_or_else(|| panic!("`{name}` not measured"));
            (name, obj(vec![("value", Value::F64(value)), ("unit", Value::Str(unit.into()))]))
        })
        .collect();
    let notes = report.notes.iter().map(|(k, v)| (*k, Value::F64(*v))).collect();
    println!("{}", serde::json::to_string(&obj(vec![("notes", obj(notes))])));
    println!(
        "{}",
        serde::json::to_string(&obj(vec![
            ("correct", Value::Bool(report.failed == 0)),
            ("attempted", Value::U64(report.attempted.max(1))),
            ("failed", Value::U64(report.failed)),
            ("metrics", obj(metrics)),
        ]))
    );
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What a child run printed.
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    values: BTreeMap<String, f64>,
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

/// Run one workload once in a child process of this binary and read its
/// result line (and its notes line) back.
fn child(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", w.name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev().filter(|l| !l.trim().is_empty());
    let result = lines.next().ok_or("the run printed no result")?;
    let doc = serde::json::parse(result).map_err(|e| format!("result line: {e}"))?;
    let mut values = BTreeMap::new();
    for (name, m) in doc.get("metrics").and_then(Value::as_object).ok_or("no metrics")? {
        values.insert(name.clone(), m.get("value").and_then(number).ok_or("metric without value")?);
    }
    let notes = lines.next().and_then(|l| serde::json::parse(l).ok());
    for (name, v) in notes.as_ref().and_then(|n| n.get("notes")?.as_object()).unwrap_or(&[]) {
        values.entry(name.clone()).or_insert(number(v).unwrap_or(0.0));
    }
    let count = |key: &str| doc.get(key).and_then(number).map_or(0, |x| x as u64);
    Ok(ChildRun {
        correct: doc.get("correct") == Some(&Value::Bool(true)) && out.status.success(),
        attempted: count("attempted"),
        failed: count("failed"),
        values,
    })
}

fn print_metric(name: &str, value: f64, unit: &str, extra: &str) {
    println!("  {name:<28} {value:>16.4} {unit:<8} {extra}");
}

/// Print one workload's untraced and traced runs; returns the number of
/// cross-run checks that failed.
fn print_pair(w: &Workload, seed: u64, u: &ChildRun, t: &ChildRun) -> u64 {
    println!("\n== {} (seed {seed}) ==\n   {}", w.name, w.why);
    println!(" end to end (untraced; {} operations attempted, {} failed)", u.attempted, u.failed);
    for m in &END_TO_END {
        let extra = format!("{} is better, bound {:.0}%", m.better.as_str(), m.bound * 100.0);
        print_metric(m.name, u.values[m.name], m.unit, &extra);
    }
    print_metric(
        "failed_ops_share",
        (u.failed + t.failed) as f64 / (u.attempted + t.attempted) as f64,
        "ratio",
        "both runs; must be 0",
    );
    println!(" per layer (traced; {} operations attempted, {} failed)", t.attempted, t.failed);
    for m in &PER_LAYER {
        let extra = format!("{} is better; {}", m.better.as_str(), m.note);
        print_metric(m.name, t.values[m.name], m.unit, &extra);
    }
    let overhead = t.values["bench.traced_op_ns_p50"] / u.values["op_ns_p50"] - 1.0;
    print_metric("bench.trace_overhead_share", overhead, "ratio", "traced vs untraced operation");
    let parts = [
        "parser.parse_ns",
        "pipeline.ingress_ns",
        "tm.decide_ns",
        "pipeline.egress_ns",
        "parser.deparse_ns",
    ];
    let sum: f64 = parts.iter().map(|p| t.values[*p]).sum();
    println!(
        "  frame layers sum to {sum:.1} ns of switch.frame_ns {:.1} ns; unattributed share {:.3}",
        t.values["switch.frame_ns"], t.values["switch.unattributed_share"]
    );

    let mut bad = u64::from(!u.correct) + u64::from(!t.correct);
    if u.values.get("sim.fingerprint") != t.values.get("sim.fingerprint") {
        println!("  MISMATCH: sim.fingerprint differs between the untraced and the traced run");
        bad += 1;
    }
    bad
}

/// The `--repeat` summary: spreads, and the two-halves gate on every
/// end-to-end metric. Returns the number of violations.
fn print_repeats(
    w: &Workload,
    untraced: &BTreeMap<String, Vec<f64>>,
    traced: &BTreeMap<String, Vec<f64>>,
) -> u64 {
    let mut bad = 0;
    println!("\n== {}: {} runs ==", w.name, untraced["op_ns_p50"].len());
    println!("  {:<28} {:>14} {:>14} {:>14} {:>8}  gate", "metric", "median", "q1", "q3", "spread");
    for m in &END_TO_END {
        let xs = &untraced[m.name];
        let [q1, _, q3] = stats::quartiles(xs);
        let (first, second) = xs.split_at(xs.len().div_ceil(2));
        let (a, b) = (stats::median(first), stats::median(second));
        let worse = match m.better {
            Better::Lower => (b - a) / a,
            Better::Higher => (a - b) / a,
        };
        let ok = worse <= m.bound;
        bad += u64::from(!ok);
        println!(
            "  {:<28} {:>14.4} {:>14.4} {:>14.4} {:>7.2}%  second half {:+.2}% vs bound {:.0}%{}",
            m.name,
            stats::median(xs),
            q1,
            q3,
            stats::relative_spread(xs) * 100.0,
            worse * 100.0,
            m.bound * 100.0,
            if ok { "" } else { "  REGRESSION" }
        );
    }
    for name in EXACT {
        let xs = &traced[name];
        if xs.iter().any(|x| x != &xs[0]) {
            println!("  MISMATCH: {name} must repeat exactly for a seed, got {xs:?}");
            bad += 1;
        }
    }
    bad
}

fn report(args: &Args) -> Result<ExitCode, String> {
    let selected: Vec<&Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    println!(
        "p4rp_bench: seed {}, {} s untraced + {} s traced per workload, {} clients for the server, {} set(s)",
        args.seed,
        args.seconds,
        args.seconds / 4.0,
        workloads::client_count(),
        args.repeat
    );
    type Series = BTreeMap<String, Vec<f64>>;
    let mut series: BTreeMap<&str, (Series, Series)> = BTreeMap::new();
    let mut bad = 0;
    for _ in 0..args.repeat {
        for w in &selected {
            let u = child(w, args.seed, args.seconds, false)?;
            let t = child(w, args.seed, args.seconds / 4.0, true)?;
            bad += print_pair(w, args.seed, &u, &t);
            let (us, ts) = series.entry(w.name).or_default();
            for (dst, src) in [(us, &u), (ts, &t)] {
                for (name, v) in &src.values {
                    dst.entry(name.clone()).or_default().push(*v);
                }
            }
        }
    }
    if args.repeat > 1 {
        for w in &selected {
            let (us, ts) = &series[w.name];
            bad += print_repeats(w, us, ts);
        }
    }
    if bad > 0 {
        println!("\np4rp_bench: {bad} check(s) failed");
        return Ok(ExitCode::FAILURE);
    }
    println!("\np4rp_bench: all checks passed");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match (args.trace, args.workload) {
        (Some(trace), Some(w)) => Ok(run_once(w, args.seed, args.seconds, trace)),
        (Some(_), None) => Err("`--trace` runs one workload: name it with `--workload`".into()),
        (None, _) => report(&args),
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("p4rp_bench: {e}");
        eprintln!(
            "usage: p4rp_bench [--workload <name>] [--seed <u64>] [--seconds <s>] \
             [--trace <0|1>] [--repeat <n>]"
        );
        ExitCode::from(2)
    })
}
