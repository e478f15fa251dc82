//! A runtime command-line interface over the controller — the analogue of
//! the prototype's runtime CLI (§5 "We implement a runtime CLI to interact
//! with the P4runpro data plane").
//!
//! One command per line. [`COMMANDS`] lists every command once; `help`
//! prints that list and usage messages quote it. Its first seven commands
//! are shared with the control server: the CLI parses them into the
//! server's command model (`crate::command`), runs them in-process — or,
//! under `client <addr>`, on a served controller — and prints the reply
//! through the one renderer, so a line prints the same text either way.
//! The other commands run in-process only.
//!
//! Every command returns its output as a `String`, so the CLI is equally
//! usable from a REPL binary, tests, or scripts.

use crate::command::{execute, parse_line, render, Op, Parsed};
use crate::controller::{Controller, CtlError};
use crate::server::{Client, ServerConfig};
use rmt_sim::pipeline::Gress;
use rmt_sim::trace::{chrome_trace_json, filter_events, journeys, TraceConfig, TraceFilter};
use serde::Value;
use std::str::FromStr;

/// Every command as `help` lists it: its usage, ` — `, what it does. The
/// first seven are shared with the control server.
const COMMANDS: &[&str] = &[
    "deploy <src> — link the programs of a source (to the end of the line; `\\n` escapes)",
    "revoke <name> — unlink a program",
    "status [--json|--metrics] — resource figures; the telemetry report as JSON, or its summary",
    "trace [status] — flight-recorder ring statistics",
    "metrics export [path|-] — Prometheus text exposition to a file or stdout",
    "ping — the controller's epoch and sim clock",
    "shutdown — drain a served controller (over `client` only)",
    "update <name> <src> — incremental update: revoke + redeploy",
    "programs — list deployed programs",
    "mem <program> <memory> — a program's non-zero memory buckets",
    "memwrite <program> <memory> <addr> <value> — write one memory bucket",
    "trace on [cap] | off | journeys | export [path] — start, stop, journeys, Chrome trace JSON",
    "trace dump [last <n>] [control | packets | table <gress> <stage> <table> | flow <a.b.c.d> \
     [port]] — recorded events, filtered",
    "replay [--packets <n>] [--flows <n>] [--workers <n>] [--seed <n>] — replay a seeded flow \
     mix; `--workers > 1` shards it across the parallel engine (docs/PERF.md)",
    "top [--once] — residents ranked by attributed packets; enables attribution",
    "watchdog arm [--drop-ppm <n>] [--deploy-faults <n>] [--p99-ns <n>] | status | disarm — SLO \
     thresholds; breaches emit SloViolation trace events",
    "series on [cap] | status — windowed telemetry time series",
    "chaos run [--seed <n>] [--faults <spec>] [--steps <n>] [--programs <n>] [--workers <n>] \
     [--slo-drop-ppm <n>] [--slo-deploy-faults <n>] [--slo-p99-ns <n>] — seeded fault-injection \
     campaign on a fresh controller (docs/CHAOS.md)",
    "serve <addr> [--max-clients <n>] [--rate <r>] [--timeout-ns <n>] — run the control server \
     on this controller until a client sends `shutdown` (docs/SERVER.md)",
    "client <addr> <command> — run one of the first seven commands on a served controller",
    "help — this list",
];

/// The command interpreter.
pub struct Cli {
    /// Ctl.
    pub ctl: Controller,
}

impl Cli {
    /// Construct with defaults appropriate to the type.
    pub fn new(ctl: Controller) -> Cli {
        Cli { ctl }
    }

    /// Execute one command line.
    pub fn exec(&mut self, line: &str) -> String {
        let (cmd, rest) = split(line);
        let out = match parse_line(cmd, rest) {
            Parsed::Shared(Op::Shutdown, _) => {
                Err("error: `shutdown` drains a served controller; send it with \
                     `client <addr> shutdown`"
                    .to_string())
            }
            Parsed::Shared(op, to) => finish(&execute(&mut self.ctl, 0, op), to),
            Parsed::Malformed => Err(usage(cmd)),
            Parsed::Local => self.local(cmd, rest),
        };
        out.unwrap_or_else(|e| e)
    }

    /// The commands that run in-process only.
    fn local(&mut self, cmd: &str, rest: &str) -> Result<String, String> {
        let args: Vec<&str> = rest.split_whitespace().collect();
        match cmd {
            "" | "help" => Ok(help()),
            "update" => self.update(rest),
            "programs" => Ok(self.programs()),
            "mem" => self.mem(&args),
            "memwrite" => self.memwrite(&args),
            "trace" => self.trace(&args),
            "replay" => self.replay(&args),
            "top" => self.top(rest),
            "watchdog" => self.watchdog(&args),
            "series" => self.series(&args),
            "chaos" => chaos(&args),
            "serve" => self.serve(&args),
            "client" => client(rest),
            other => Err(format!("unknown command `{other}` — try `help`")),
        }
    }

    fn update(&mut self, rest: &str) -> Result<String, String> {
        let (name, source) = rest.split_once(char::is_whitespace).ok_or_else(|| usage("update"))?;
        let r = self.ctl.update(name, &source.replace("\\n", "\n")).map_err(failed)?;
        Ok(format!(
            "updated `{}` → `{}` in {:.2} ms total",
            name,
            r.name,
            r.update_delay.as_millis_f64()
        ))
    }

    fn programs(&self) -> String {
        let mut rows: Vec<String> = self
            .ctl
            .deployed_programs()
            .map(|(name, p)| {
                format!(
                    "  {name:<16} id {:<5} entries {:<4} passes {} memories {}",
                    p.image.prog_id,
                    p.image.entry_count(),
                    p.image.passes,
                    p.image.mem_regions.len()
                )
            })
            .collect();
        rows.sort();
        if rows.is_empty() {
            "no programs deployed".to_string()
        } else {
            format!("{} program(s):\n{}", rows.len(), rows.join("\n"))
        }
    }

    fn mem(&mut self, args: &[&str]) -> Result<String, String> {
        let [prog, mem] = args else { return Err(usage("mem")) };
        let values = self.ctl.read_memory(prog, mem).map_err(failed)?;
        let nonzero: Vec<String> = values
            .iter()
            .enumerate()
            .filter(|(_, v)| **v != 0)
            .map(|(i, v)| format!("[{i}]={v}"))
            .collect();
        let shown = nonzero[..nonzero.len().min(32)].join(" ");
        Ok(format!("{}/{} buckets non-zero: {shown}", nonzero.len(), values.len()))
    }

    fn memwrite(&mut self, args: &[&str]) -> Result<String, String> {
        let [prog, mem, addr, value] = args else { return Err(usage("memwrite")) };
        // A bad address used to collapse to `u32::MAX` (guaranteed
        // out-of-range error) and a bad value to `0` (a silent write of
        // the wrong data) — both must be loud instead.
        let addr: u32 = addr.parse().map_err(|_| format!("bad address `{addr}` for memwrite"))?;
        let value: u32 = value.parse().map_err(|_| format!("bad value `{value}` for memwrite"))?;
        self.ctl.write_memory(prog, mem, addr, value).map_err(failed)?;
        Ok(format!("{prog}:{mem}[{addr}] = {value}"))
    }

    /// The `trace` subcommands that run in-process (`trace [status]` is
    /// shared).
    fn trace(&mut self, args: &[&str]) -> Result<String, String> {
        match args {
            ["on", cap @ ..] => {
                let mut cfg = TraceConfig::default();
                if let Some(cap) = cap.first() {
                    cfg.capacity = capacity(cap)?;
                }
                let t = self.ctl.enable_trace(cfg);
                Ok(format!("tracing on (capacity {})", t.capacity()))
            }
            ["off", ..] => {
                let s = self.ctl.disable_trace().ok_or("tracing was already off")?.stats();
                let (r, d, v) = (s.recorded, s.dropped, s.violations);
                Ok(format!("tracing off: {r} recorded, {d} dropped, {v} violation(s)"))
            }
            ["dump", filter @ ..] => self.trace_dump(filter),
            ["journeys", ..] => {
                let t = self.ctl.trace().ok_or("tracing off")?;
                let js = journeys(t.events());
                if js.is_empty() {
                    return Ok("no packet journeys retained".to_string());
                }
                Ok(js.iter().map(|j| j.render()).collect::<Vec<_>>().join("\n"))
            }
            ["export", path @ ..] => {
                let path = path.first().copied().unwrap_or("results/trace.json");
                let t = self.ctl.trace().ok_or("tracing off")?;
                write_out(path, &chrome_trace_json(t.events()))?;
                Ok(format!("wrote {} event(s) to {path}", t.stats().retained))
            }
            _ => Err(format!("unknown trace subcommand `{}` — try `help`", args.join(" "))),
        }
    }

    fn trace_dump(&self, args: &[&str]) -> Result<String, String> {
        let t = self.ctl.trace().ok_or("tracing off")?;
        // `and_then(.. parse().ok())` used to fold "missing" and
        // "unparseable" into one silent None; say which it was.
        let (last, filter) = match args {
            ["last"] => return Err(usage("trace dump")),
            ["last", n, filter @ ..] => match n.parse::<usize>() {
                Ok(n) => (n, filter),
                Err(_) => {
                    return Err(format!("bad count `{n}` for `last`\n{}", usage("trace dump")))
                }
            },
            _ => (usize::MAX, args),
        };
        let evs = filter_events(t.events(), parse_filter(filter)?);
        let evs = &evs[evs.len().saturating_sub(last)..];
        if evs.is_empty() {
            return Ok("no matching events".to_string());
        }
        Ok(evs.iter().map(|e| e.render()).collect::<Vec<_>>().join("\n"))
    }

    /// `replay`: synthesize a seeded flow mix and replay it through the
    /// data plane. With `--workers 1` (the default) this is the sequential
    /// engine — exactly the path every other command exercises; with more,
    /// flows are sharded across the parallel engine and the merged outcome
    /// is reported (the per-worker breakdown lands in `status --json`).
    fn replay(&mut self, args: &[&str]) -> Result<String, String> {
        let (mut packets, mut flows, mut workers, mut seed) = (2000usize, 64usize, 1usize, 1u64);
        for (flag, v) in flags(args, "replay")? {
            match flag {
                "--packets" => packets = value(flag, v, 1)?,
                "--flows" => flows = value(flag, v, 1)?,
                "--workers" => workers = value(flag, v, 1)?,
                "--seed" => seed = value(flag, v, 0)?,
                _ => return Err(unknown_flag(flag, "replay")),
            }
        }
        let mix = traffic::gen::make_flows(seed, flows, 0.5);
        let trace: Vec<traffic::replay::TimedPacket> = (0..packets)
            .map(|i| traffic::replay::TimedPacket {
                t: rmt_sim::clock::Nanos::from_micros(i as u64),
                port: 0,
                frame: traffic::gen::frame_for(&mix[i % mix.len()].tuple, 64),
            })
            .collect();
        let mut shards = Vec::new();
        let stats = if workers <= 1 {
            let mut r = traffic::replay::Replay::new(trace);
            let mut failed = None;
            r.run_all(|_, port, frame, out| {
                if failed.is_none() {
                    if let Err(e) = self.ctl.inject_into(port, frame, out) {
                        failed = Some(format!("error: {e}"));
                    }
                }
            });
            if let Some(e) = failed {
                return Err(e);
            }
            r.stats
        } else {
            self.ctl.enable_workers(workers);
            let pr = traffic::replay::ParallelReplay::new(trace, workers);
            shards = pr.shard_sizes();
            let pool = self.ctl.workers_mut().expect("workers just enabled");
            pr.run(pool).map_err(|e| format!("error: {e}"))?.stats
        };
        let (tx, dropped) =
            stats.iter().fold((0u64, 0u64), |(t, d), s| (t + s.tx_pkts, d + s.dropped));
        // A finished replay is a series tick and an SLO checkpoint.
        self.ctl.tick_series();
        self.ctl.slo_check();
        let replayed = format!("replayed {packets} packet(s), {flows} flow(s)");
        if workers <= 1 {
            return Ok(format!("{replayed}, sequential engine: {tx} tx, {dropped} dropped"));
        }
        Ok(format!(
            "{replayed} across {workers} worker(s) (shards {shards:?}): {tx} tx, \
             {dropped} dropped, snapshot generation {} — per-worker counters in `status --json`",
            self.ctl.channel().snapshot_generation()
        ))
    }

    /// `top [--once]`: per-program usage ranked by attributed packets.
    /// Enables attribution on first use, so counters accumulate from
    /// here on; `--once` is accepted for scripting symmetry (the CLI
    /// always renders exactly one frame — there is no terminal loop in
    /// the simulator).
    fn top(&mut self, rest: &str) -> Result<String, String> {
        if !matches!(rest, "" | "--once") {
            return Err(unknown_flag(rest, "top"));
        }
        let first = !self.ctl.attribution_enabled();
        if first {
            self.ctl.enable_attribution();
        }
        let mut out = crate::metrics::render_top(&self.ctl.telemetry_report());
        if first {
            out.push_str("(attribution just enabled — packet counters attribute from now on)\n");
        }
        Ok(out)
    }

    fn watchdog(&mut self, args: &[&str]) -> Result<String, String> {
        match args {
            ["arm", rest @ ..] => {
                let mut t = crate::telemetry::SloThresholds::default();
                for (flag, v) in flags(rest, "watchdog")? {
                    match flag {
                        "--drop-ppm" => t.max_drop_ppm = Some(value(flag, v, 0)?),
                        "--deploy-faults" => t.max_deploy_failures = Some(value(flag, v, 0)?),
                        "--p99-ns" => t.max_p99_write_ns = Some(value(flag, v, 0)?),
                        _ => return Err(unknown_flag(flag, "watchdog")),
                    }
                }
                if !t.is_armed() {
                    return Err(format!("no thresholds given\n{}", usage("watchdog")));
                }
                self.ctl.arm_watchdog(t);
                // Evaluate immediately so `status` right after `arm`
                // reflects any standing breach.
                self.ctl.slo_check();
                Ok(render_watchdog(self.ctl.watchdog_status().as_ref()))
            }
            [] | ["status"] => Ok(render_watchdog(self.ctl.watchdog_status().as_ref())),
            ["disarm"] => {
                let s = self.ctl.disarm_watchdog().ok_or("watchdog was not armed")?;
                Ok(format!("watchdog disarmed after {} violation(s)", s.violations))
            }
            _ => Err(format!(
                "unknown watchdog subcommand `{}`\n{}",
                args.join(" "),
                usage("watchdog")
            )),
        }
    }

    /// `series on [capacity]`: start windowed time-series collection
    /// (buckets cut on every lifecycle event and replay).
    fn series(&mut self, args: &[&str]) -> Result<String, String> {
        match args {
            ["on", cap @ ..] => {
                self.ctl.enable_series(cap.first().map_or(Ok(256), |c| capacity(c))?);
                let s = self.ctl.series().expect("just enabled");
                Ok(format!(
                    "series on: {} point(s) retained (capacity {})",
                    s.points.len(),
                    s.capacity
                ))
            }
            [] | ["status"] => {
                let s = self.ctl.series().ok_or("series off")?;
                let (n, cap, ev) = (s.points.len(), s.capacity, s.evicted);
                Ok(format!("series on: {n} point(s) retained (capacity {cap}, {ev} evicted)"))
            }
            _ => Err(format!(
                "unknown series subcommand `{}` — try `series on [cap]`",
                args.join(" ")
            )),
        }
    }

    /// `serve`: run the persistent runtime-control server on this
    /// controller. Blocks the calling thread until a client sends
    /// `shutdown`.
    fn serve(&mut self, args: &[&str]) -> Result<String, String> {
        let [addr, rest @ ..] = args else { return Err(usage("serve")) };
        let mut cfg = ServerConfig::default();
        for (flag, v) in flags(rest, "serve")? {
            match flag {
                "--max-clients" => cfg.max_clients = value(flag, v, 1)?,
                "--rate" => cfg.rate = Some(value(flag, v, 1)?),
                "--timeout-ns" => cfg.request_timeout_ns = Some(value(flag, v, 1)?),
                _ => return Err(unknown_flag(flag, "serve")),
            }
        }
        let listener =
            std::net::TcpListener::bind(addr).map_err(|e| format!("error binding {addr}: {e}"))?;
        let local = listener.local_addr().map_or_else(|_| addr.to_string(), |a| a.to_string());
        let stats = crate::server::serve(&mut self.ctl, listener, &cfg)
            .map_err(|e| format!("error serving on {local}: {e}"))?;
        Ok(format!(
            "server on {local} drained: {} session(s) accepted, {} request(s), \
             {} ok / {} err / {} rejected",
            stats.accepted,
            stats.requests,
            stats.responses_ok,
            stats.responses_err,
            stats.rejected()
        ))
    }
}

/// `client <addr> <command>`: run one shared command on a served
/// controller and print its reply as `exec` prints it in-process.
fn client(rest: &str) -> Result<String, String> {
    let (addr, line) = rest.split_once(char::is_whitespace).ok_or_else(|| usage("client"))?;
    let (cmd, rest) = split(line);
    let (op, to) = match parse_line(cmd, rest) {
        Parsed::Shared(op, to) => (op, to),
        Parsed::Malformed => return Err(usage(cmd)),
        Parsed::Local if COMMANDS.iter().any(|c| c.split(' ').next() == Some(cmd)) => {
            return Err(format!(
                "`{}` runs in-process only: `client` sends the first seven commands of `help`",
                line.trim()
            ))
        }
        Parsed::Local => return Err(format!("unknown command `{cmd}` — try `help`")),
    };
    let mut c = Client::connect(addr).map_err(|e| format!("error connecting to {addr}: {e}"))?;
    let reply = c.send(op).map_err(|e| format!("error: {e}"))?;
    let reply = serde::json::parse(&reply).map_err(|e| format!("error: bad reply: {e}"))?;
    finish(&reply, to)
}

/// A shared command's reply as text, or — for `metrics export <path>` —
/// that text written to `path`.
fn finish(reply: &Value, to: Option<&str>) -> Result<String, String> {
    let text = render(reply);
    match to {
        Some(path) if reply.get("ok") == Some(&Value::Bool(true)) => {
            write_out(path, &text)?;
            Ok(format!("wrote {} exposition line(s) to {path}", text.lines().count()))
        }
        _ => Ok(text),
    }
}

/// Write `body` to `path`, creating its directory first.
fn write_out(path: &str, body: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(path, body).map_err(|e| format!("error writing {path}: {e}"))
}

/// A line's command word and the rest, both trimmed.
fn split(line: &str) -> (&str, &str) {
    let line = line.trim();
    line.split_once(char::is_whitespace).map_or((line, ""), |(c, r)| (c, r.trim()))
}

/// `usage: ` and the first usage in [`COMMANDS`] that starts with `cmd`.
fn usage(cmd: &str) -> String {
    let line = COMMANDS.iter().find(|c| c.starts_with(cmd)).copied().unwrap_or(cmd);
    format!("usage: {}", line.split_once(" — ").map_or(line, |(usage, _)| usage))
}

fn help() -> String {
    format!("commands (the first seven also run over `client`):\n  {}", COMMANDS.join("\n  "))
}

fn failed(e: CtlError) -> String {
    format!("error: {e}")
}

/// The `--flag value` pairs of `args`; a flag without its value prints
/// the usage of `cmd`.
fn flags<'a>(args: &[&'a str], cmd: &str) -> Result<Vec<(&'a str, &'a str)>, String> {
    args.chunks(2)
        .map(|pair| match *pair {
            [flag, value] => Ok((flag, value)),
            _ => Err(format!("missing value for `{}`\n{}", pair[0], usage(cmd))),
        })
        .collect()
}

/// The message for a flag that `cmd` does not take.
fn unknown_flag(flag: &str, cmd: &str) -> String {
    format!("unknown flag `{flag}`\n{}", usage(cmd))
}

/// The value `v` of `flag`, which must be at least `min`.
fn value<T: FromStr + PartialOrd>(flag: &str, v: &str, min: T) -> Result<T, String> {
    v.parse().ok().filter(|n| *n >= min).ok_or_else(|| format!("bad value `{v}` for `{flag}`"))
}

/// A ring capacity: a count above zero.
fn capacity(v: &str) -> Result<usize, String> {
    v.parse().ok().filter(|&c| c > 0).ok_or_else(|| format!("bad capacity `{v}`"))
}

/// Render the watchdog's status line.
fn render_watchdog(status: Option<&crate::telemetry::SloStatus>) -> String {
    match status {
        None => "watchdog disarmed".to_string(),
        Some(s) => {
            let t = &s.thresholds;
            let limits: Vec<String> = [
                t.max_drop_ppm.map(|v| format!("drop ≤ {v} ppm")),
                t.max_deploy_failures.map(|v| format!("deploy faults ≤ {v}")),
                t.max_p99_write_ns.map(|v| format!("write p99 ≤ {v} ns")),
            ]
            .into_iter()
            .flatten()
            .collect();
            let mut line =
                format!("watchdog armed: {} | {} violation(s)", limits.join(", "), s.violations);
            if !s.breached.is_empty() {
                line += &format!(" | IN BREACH: {}", s.breached.join(", "));
            }
            line
        }
    }
}

/// `chaos run`: run a seeded, deterministic fault-injection campaign
/// against a fresh controller and summarise what survived. The fault spec
/// syntax is `<kind>[:<opkind>]@<index>[,…]` — see `docs/CHAOS.md`.
/// `--workers` > 1 drives injections through the sharded parallel engine.
fn chaos(args: &[&str]) -> Result<String, String> {
    let ["run", rest @ ..] = args else { return Err(usage("chaos")) };
    let mut cfg = crate::chaos::ChaosConfig::default();
    let mut slo = crate::telemetry::SloThresholds::default();
    for (flag, v) in flags(rest, "chaos")? {
        match flag {
            "--seed" => cfg.seed = value(flag, v, 0)?,
            "--steps" => cfg.steps = value(flag, v, 1)?,
            "--programs" => cfg.programs = value(flag, v, 1)?,
            "--workers" => cfg.workers = value(flag, v, 1)?,
            "--faults" => {
                cfg.faults = rmt_sim::fault::FaultPlan::parse_spec(v)
                    .map_err(|e| format!("bad value `{v}` for `{flag}`: {e}"))?;
            }
            "--slo-drop-ppm" => slo.max_drop_ppm = Some(value(flag, v, 0)?),
            "--slo-deploy-faults" => slo.max_deploy_failures = Some(value(flag, v, 0)?),
            "--slo-p99-ns" => slo.max_p99_write_ns = Some(value(flag, v, 0)?),
            _ => return Err(unknown_flag(flag, "chaos")),
        }
    }
    cfg.watchdog = slo.is_armed().then_some(slo);
    let out = crate::chaos::run(&cfg).map_err(|e| format!("error: {e}"))?;
    let a = &out.final_audit;
    let summary = format!(
        "chaos seed {}: {} step(s), deploys {} ok / {} faulted, \
         revokes {} ok / {} faulted, {} reconcile pass(es)\n\
         sentinel {} hit / {} miss, residents {} hit / {} miss, \
         {} invariant violation(s)\n\
         audit: {} expected, {} present, {} missing, {} unexpected, \
         {} wedged ({})\n\
         faults: {} injected, {} retries, {} rollback(s) ({} undo ops), \
         device generation {}\n\
         trace fingerprint {:#018x} — {}",
        cfg.seed,
        out.steps,
        out.deploys_ok,
        out.deploys_faulted,
        out.revokes_ok,
        out.revokes_faulted,
        out.reconcile_passes,
        out.sentinel_hits,
        out.sentinel_misses,
        out.resident_hits,
        out.resident_misses,
        out.invariant_violations,
        a.expected,
        a.present,
        a.missing,
        a.unexpected,
        a.wedged,
        if a.clean() { "clean" } else { "DIRTY" },
        out.fault_stats.faults_injected,
        out.fault_stats.retries,
        out.fault_stats.rollbacks,
        out.fault_stats.rollback_ops,
        out.fault_stats.device_generation,
        out.trace_fingerprint,
        if out.converged { "converged" } else { "DID NOT CONVERGE" },
    );
    Ok(match cfg.watchdog {
        Some(_) => format!("{summary}\nslo watchdog: {} violation(s)", out.slo_violations),
        None => summary,
    })
}

/// Parse a `trace dump` filter: nothing (all), `control`, `packets`,
/// `table <gress> <stage> <table>`, or `flow <a.b.c.d> [port]`.
fn parse_filter(args: &[&str]) -> Result<TraceFilter, String> {
    const USAGE: &str =
        "filters: control | packets | table <gress> <stage> <table> | flow <a.b.c.d> [port]";
    // Each numeric slot says which one was bad: the old `and_then(..
    // parse().ok())` swallowed them into the generic usage line.
    let number =
        |what: &str, v: &str| v.parse::<u16>().map_err(|_| format!("bad {what} `{v}`\n{USAGE}"));
    match *args {
        [] => Ok(TraceFilter::All),
        ["control"] => Ok(TraceFilter::Control),
        ["packets"] => Ok(TraceFilter::Packets),
        ["table", gress, stage, table] => {
            let gress = match gress {
                "ingress" => Gress::Ingress,
                "egress" => Gress::Egress,
                other => {
                    return Err(format!("bad gress `{other}` (expected ingress|egress)\n{USAGE}"))
                }
            };
            let (stage, table) = (number("stage", stage)?, number("table", table)?);
            Ok(TraceFilter::Table { gress, stage, table })
        }
        ["flow", a, ref port @ ..] if port.len() <= 1 => {
            let addr = parse_ipv4(a)
                .ok_or_else(|| format!("bad address `{a}` (expected a.b.c.d)\n{USAGE}"))?;
            let port = port.first().map(|p| number("port", p)).transpose()?;
            Ok(TraceFilter::Flow { addr, port })
        }
        _ => Err(USAGE.to_string()),
    }
}

/// Parse dotted-quad IPv4 into the big-endian u32 the trace events carry.
fn parse_ipv4(s: &str) -> Option<u32> {
    let mut octets = [0u8; 4];
    let mut it = s.split('.');
    for o in &mut octets {
        *o = it.next()?.parse().ok()?;
    }
    if it.next().is_some() {
        return None;
    }
    Some(u32::from_be_bytes(octets))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "program p(<hdr.ipv4.dst, 10.0.0.1, 0xffffffff>) { FORWARD(3); }";

    fn cli() -> Cli {
        Cli::new(Controller::with_defaults().unwrap())
    }

    #[test]
    fn deploy_list_revoke_cycle() {
        let mut cli = cli();
        let out = cli.exec(&format!("deploy {SRC}"));
        assert!(out.contains("linked `p`"), "{out}");
        let out = cli.exec("programs");
        assert!(out.contains("1 program(s)"), "{out}");
        let out = cli.exec("status");
        assert!(out.contains("programs: 1"), "{out}");
        let out = cli.exec("revoke p");
        assert!(out.contains("revoked `p`"), "{out}");
        assert!(cli.exec("programs").contains("no programs"));
    }

    #[test]
    fn update_replaces_program() {
        let mut cli = cli();
        cli.exec(&format!("deploy {SRC}"));
        let new_src = SRC.replace("FORWARD(3)", "FORWARD(9)");
        let out = cli.exec(&format!("update p {new_src}"));
        assert!(out.contains("updated `p`"), "{out}");
        assert_eq!(cli.ctl.deployed_programs().count(), 1);
    }

    #[test]
    fn memory_commands() {
        let mut cli = cli();
        cli.exec("deploy @ m 64\\nprogram q(<hdr.ipv4.dst, 10.0.0.1, 0xffffffff>) { LOADI(mar, 5); MEMREAD(m); }");
        let out = cli.exec("memwrite q m 5 42");
        assert!(out.contains("= 42"), "{out}");
        let out = cli.exec("mem q m");
        assert!(out.contains("[5]=42"), "{out}");
        assert!(cli.exec("mem q ghost").starts_with("error:"));
    }

    #[test]
    fn status_metrics_renders_lifecycle_spans() {
        let mut cli = cli();
        cli.ctl.enable_telemetry();
        cli.exec(&format!("deploy {SRC}"));
        let out = cli.exec("status --metrics");
        assert!(out.contains("telemetry epoch 1"), "{out}");
        assert!(out.contains("#0 deploy"), "{out}");
        assert!(out.contains("entries"), "{out}");
        assert!(out.contains("dataplane (epoch 1)"), "{out}");
        cli.exec("revoke p");
        let out = cli.exec("status --metrics");
        assert!(out.contains("#1 revoke"), "{out}");
    }

    #[test]
    fn status_json_roundtrips() {
        let mut cli = cli();
        cli.exec(&format!("deploy {SRC}"));
        let text = cli.exec("status --json");
        let report = crate::telemetry::TelemetryReport::from_json(&text).unwrap();
        assert_eq!(report, cli.ctl.telemetry_report());
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.spans[0].kind, "deploy");
        assert!(report.spans[0].entries_written > 0);
    }

    #[test]
    fn trace_lifecycle_and_dump() {
        let mut cli = cli();
        assert_eq!(cli.exec("trace"), "tracing off");
        let out = cli.exec("trace on 1024");
        assert!(out.contains("capacity 1024"), "{out}");
        cli.exec(&format!("deploy {SRC}"));
        let out = cli.exec("trace status");
        assert!(out.contains("tracing on"), "{out}");
        assert!(out.contains("0 violation(s)"), "{out}");
        let out = cli.exec("trace dump control");
        assert!(out.contains("ctl epoch → 1"), "{out}");
        assert!(out.contains("begin ("), "{out}");
        assert!(out.contains("ctl insert"), "{out}");
        assert!(out.contains("ctl deploy prog"), "{out}");
        // No packets injected yet → packet filter comes back empty.
        assert_eq!(cli.exec("trace dump packets"), "no matching events");
        let out = cli.exec("trace dump last 1 control");
        assert_eq!(out.lines().count(), 1, "{out}");
        // `status --json` carries the same stats the subcommand shows.
        let report =
            crate::telemetry::TelemetryReport::from_json(&cli.exec("status --json")).unwrap();
        assert!(report.trace.enabled);
        assert!(report.trace.recorded > 0);
        let out = cli.exec("trace off");
        assert!(out.contains("tracing off:"), "{out}");
        assert_eq!(cli.exec("trace"), "tracing off");
        assert_eq!(cli.exec("trace dump"), "tracing off");
    }

    #[test]
    fn trace_dump_rejects_bad_filters() {
        let mut cli = cli();
        cli.exec("trace on 64");
        assert!(cli.exec("trace dump table sideways 0 0").starts_with("bad gress `sideways`"));
        assert!(cli.exec("trace dump table ingress 0").starts_with("filters:"));
        assert!(cli.exec("trace dump flow not-an-ip").starts_with("bad address `not-an-ip`"));
        assert!(cli.exec("trace bogus").contains("unknown trace subcommand"));
        assert!(cli.exec("trace on zero").starts_with("bad capacity"));
    }

    #[test]
    fn trace_dump_numeric_args_fail_loudly() {
        let mut cli = cli();
        cli.exec("trace on 64");
        // Each numeric slot gets its own message — none may collapse into
        // the generic usage line (the old silent-`None` behavior).
        assert!(cli.exec("trace dump last ten").starts_with("bad count `ten`"));
        assert!(cli.exec("trace dump last").starts_with("usage: trace dump"));
        assert!(cli.exec("trace dump table ingress x 0").starts_with("bad stage `x`"));
        assert!(cli.exec("trace dump table ingress 0 70000").starts_with("bad table `70000`"));
        assert!(cli.exec("trace dump flow 10.0.0.1 notaport").starts_with("bad port `notaport`"));
        assert!(cli.exec("trace dump flow 10.0.0.1 65536").starts_with("bad port `65536`"));
    }

    #[test]
    fn memwrite_rejects_bad_numeric_args_without_writing() {
        let mut cli = cli();
        cli.exec(
            "deploy @ m 64\\nprogram q(<hdr.ipv4.dst, 10.0.0.1, 0xffffffff>) \
             { LOADI(mar, 5); MEMREAD(m); }",
        );
        // A bad address used to become u32::MAX, a bad value used to
        // write 0 — both silently. Now they refuse before touching state.
        let out = cli.exec("memwrite q m five 42");
        assert!(out.starts_with("bad address `five`"), "{out}");
        let out = cli.exec("memwrite q m 5 fortytwo");
        assert!(out.starts_with("bad value `fortytwo`"), "{out}");
        let out = cli.exec("mem q m");
        assert!(out.starts_with("0/"), "nothing may have been written: {out}");
        assert!(cli.exec("memwrite q m 5").starts_with("usage: memwrite"));
    }

    #[test]
    fn serve_rejects_bad_numeric_flags_before_binding() {
        let mut cli = cli();
        assert!(cli.exec("serve").starts_with("usage: serve"));
        let out = cli.exec("serve 127.0.0.1:0 --max-clients x");
        assert_eq!(out, "bad value `x` for `--max-clients`");
        let out = cli.exec("serve 127.0.0.1:0 --max-clients 0");
        assert_eq!(out, "bad value `0` for `--max-clients`");
        assert!(cli.exec("serve 127.0.0.1:0 --queue 8").contains("unknown flag `--queue`"));
        assert!(cli.exec("serve 127.0.0.1:0 --rate -1").starts_with("bad value `-1` for `--rate`"));
        let out = cli.exec("serve 127.0.0.1:0 --timeout-ns x");
        assert!(out.starts_with("bad value `x` for `--timeout-ns`"), "{out}");
        assert!(cli.exec("serve 127.0.0.1:0 --rate").contains("missing value"));
        assert!(cli.exec("serve 127.0.0.1:0 --sideways 1").contains("unknown flag"));
    }

    #[test]
    fn client_reports_usage_and_connect_errors() {
        let mut cli = cli();
        assert!(cli.exec("client").starts_with("usage: client"));
        assert!(cli.exec("client 127.0.0.1:1").starts_with("usage: client"));
        // Port 1 on loopback is essentially never listening.
        assert!(cli.exec("client 127.0.0.1:1 ping").starts_with("error connecting"));
    }

    #[test]
    fn serve_and_client_loopback_roundtrip() {
        // Pick a free port, release it, and race to rebind — fine for a
        // single-process test.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let addr = format!("127.0.0.1:{port}");
        let mut srv = cli();
        let serve_line = format!("serve {addr}");
        let handle = std::thread::spawn(move || {
            let out = srv.exec(&serve_line);
            (out, srv)
        });
        // Wait for the listener to come up.
        let mut driver = cli();
        let mut attempts = 0;
        let ping = loop {
            let out = driver.exec(&format!("client {addr} ping"));
            if !out.starts_with("error connecting") {
                break out;
            }
            attempts += 1;
            assert!(attempts < 500, "server never came up: {out}");
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        assert_eq!(ping, "pong: epoch 0, sim clock 0 ns");
        let out = driver.exec(&format!("client {addr} deploy {SRC}"));
        assert!(out.starts_with("linked `p` (id 1): "), "{out}");
        let out = driver.exec(&format!("client {addr} revoke p"));
        assert!(out.starts_with("revoked `p` in "), "{out}");
        let out = driver.exec(&format!("client {addr} revoke p"));
        assert_eq!(out, "error: no deployed program `p`");
        let out = driver.exec(&format!("client {addr} trace on"));
        assert!(out.starts_with("`trace on` runs in-process only"), "{out}");
        assert!(driver.exec(&format!("client {addr} revoke")).starts_with("usage: revoke"));
        let out = driver.exec(&format!("client {addr} shutdown"));
        assert!(out.starts_with("server draining"), "{out}");
        let (summary, srv) = handle.join().unwrap();
        assert!(summary.contains("drained"), "{summary}");
        assert!(srv.ctl.audit().unwrap().clean());
    }

    #[test]
    fn shutdown_in_process_is_refused() {
        let out = cli().exec("shutdown");
        assert!(out.starts_with("error: `shutdown` drains a served controller"), "{out}");
    }

    #[test]
    fn trace_export_writes_chrome_json() {
        let dir = std::env::temp_dir().join(format!("p4rp-cli-trace-{}", std::process::id()));
        let path = dir.join("trace.json");
        let mut cli = cli();
        cli.exec("trace on 4096");
        cli.exec(&format!("deploy {SRC}"));
        let out = cli.exec(&format!("trace export {}", path.display()));
        assert!(out.starts_with("wrote"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = serde::json::parse(&text).unwrap();
        let events = doc.get("traceEvents").and_then(|v| v.as_array()).unwrap();
        assert!(!events.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_run_reports_converged_campaign() {
        let mut cli = cli();
        let out = cli.exec("chaos run --seed 7 --steps 30 --faults failop@4,reset@19");
        assert!(out.contains("chaos seed 7: 30 step(s)"), "{out}");
        assert!(out.contains("(clean)"), "{out}");
        assert!(out.contains("converged"), "{out}");
        assert!(out.contains("0 invariant violation(s)"), "{out}");
        assert!(out.contains("faults: 2 injected"), "{out}");
        // Same seed, same spec → the identical fingerprint line.
        let again = cli.exec("chaos run --seed 7 --steps 30 --faults failop@4,reset@19");
        assert_eq!(out, again);
        // A different seed changes the campaign.
        let other = cli.exec("chaos run --seed 8 --steps 30 --faults failop@4,reset@19");
        assert_ne!(out, other);
    }

    #[test]
    fn chaos_run_rejects_bad_flags() {
        let mut cli = cli();
        assert!(cli.exec("chaos").starts_with("usage: chaos run"), "chaos");
        assert!(cli.exec("chaos poke").starts_with("usage: chaos run"));
        assert!(cli.exec("chaos run --seed").contains("missing value"));
        assert!(cli.exec("chaos run --seed zebra").starts_with("bad value `zebra` for `--seed`"));
        assert!(cli.exec("chaos run --steps 0").starts_with("bad value `0` for `--steps`"));
        assert!(cli.exec("chaos run --programs x").starts_with("bad value `x` for `--programs`"));
        let out = cli.exec("chaos run --faults sideways@3");
        assert!(out.starts_with("bad value `sideways@3` for `--faults`: "), "{out}");
        assert!(cli.exec("chaos run --frobnicate 1").contains("unknown flag"));
    }

    #[test]
    fn status_json_exposes_fault_counters() {
        let mut cli = cli();
        cli.ctl
            .set_fault_plan(rmt_sim::fault::FaultPlan::parse_spec("failop@1").unwrap());
        assert!(cli.exec(&format!("deploy {SRC}")).starts_with("error:"));
        let report =
            crate::telemetry::TelemetryReport::from_json(&cli.exec("status --json")).unwrap();
        assert_eq!(report.faults.faults_injected, 1);
        assert_eq!(report.faults.deploy_faults, 1);
        assert_eq!(report.faults.rollbacks, 1);
        assert_eq!(report, cli.ctl.telemetry_report());
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let mut cli = cli();
        assert!(cli.exec("revoke nope").starts_with("error:"));
        assert!(cli.exec("deploy BOGUS").starts_with("error:"));
        assert!(cli.exec("frobnicate").contains("unknown command"));
        assert!(cli.exec("help").contains("deploy"));
        assert!(cli.exec("help").contains("replay"), "replay missing from help");
    }

    #[test]
    fn replay_sequential_engine_reports_merged_counters() {
        let mut cli = cli();
        cli.exec(&format!("deploy {SRC}"));
        let out = cli.exec("replay --packets 200 --flows 8 --seed 3");
        assert!(out.contains("200 packet(s)"), "{out}");
        assert!(out.contains("sequential engine"), "{out}");
        // Sequential replay must not install a worker pool.
        let report =
            crate::telemetry::TelemetryReport::from_json(&cli.exec("status --json")).unwrap();
        assert!(report.parallel.is_none(), "{report:?}");
    }

    #[test]
    fn replay_parallel_engine_exposes_per_worker_stats() {
        let mut cli = cli();
        cli.exec(&format!("deploy {SRC}"));
        let out = cli.exec("replay --packets 300 --flows 16 --workers 2 --seed 5");
        assert!(out.contains("across 2 worker(s)"), "{out}");
        assert!(out.contains("snapshot generation"), "{out}");
        let report =
            crate::telemetry::TelemetryReport::from_json(&cli.exec("status --json")).unwrap();
        let par = report.parallel.as_ref().expect("parallel section missing");
        assert_eq!(par.workers, 2);
        assert_eq!(par.per_worker.len(), 2);
        let injected: u64 = par.per_worker.iter().map(|w| w.packets).sum();
        assert_eq!(injected, 300, "{par:?}");
        assert_eq!(report, cli.ctl.telemetry_report());
    }

    #[test]
    fn top_enables_attribution_and_ranks_programs() {
        let mut cli = cli();
        cli.exec(&format!("deploy {SRC}"));
        let out = cli.exec("top --once");
        assert!(out.contains("attribution just enabled"), "{out}");
        assert!(out.contains("PROGRAM"), "{out}");
        cli.exec("replay --packets 100 --flows 4 --seed 2");
        let out = cli.exec("top");
        assert!(!out.contains("attribution just enabled"), "{out}");
        assert!(out.contains('p'), "{out}");
        let report =
            crate::telemetry::TelemetryReport::from_json(&cli.exec("status --json")).unwrap();
        assert!(!report.programs.is_empty(), "{report:?}");
        assert!(cli.exec("top --loop").contains("unknown flag"));
    }

    #[test]
    fn metrics_export_writes_parseable_exposition() {
        let dir = std::env::temp_dir().join(format!("p4rp-cli-metrics-{}", std::process::id()));
        let path = dir.join("metrics.prom");
        let mut cli = cli();
        cli.exec("top --once"); // enables attribution
        cli.exec(&format!("deploy {SRC}"));
        cli.exec("replay --packets 50 --flows 4 --seed 1");
        let body = cli.exec("metrics export");
        let samples = crate::metrics::parse_prometheus(&body).expect("well-formed");
        assert!(samples.iter().any(|s| s.name == "p4rp_program_packets_total"), "{body}");
        let out = cli.exec(&format!("metrics export {}", path.display()));
        assert!(out.starts_with("wrote"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, body);
        assert!(cli.exec("metrics").starts_with("usage:"));
        assert!(cli.exec("metrics serve 127.0.0.1:0").starts_with("usage:"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn watchdog_arm_status_disarm_cycle() {
        let mut cli = cli();
        assert_eq!(cli.exec("watchdog"), "watchdog disarmed");
        let out = cli.exec("watchdog arm --drop-ppm 1000 --p99-ns 500000000");
        assert!(out.contains("watchdog armed: drop ≤ 1000 ppm"), "{out}");
        assert!(out.contains("0 violation(s)"), "{out}");
        let out = cli.exec("watchdog status");
        assert!(out.contains("watchdog armed"), "{out}");
        let report =
            crate::telemetry::TelemetryReport::from_json(&cli.exec("status --json")).unwrap();
        let slo = report.slo.expect("slo section armed");
        assert_eq!(slo.thresholds.max_drop_ppm, Some(1000));
        let out = cli.exec("watchdog disarm");
        assert!(out.contains("disarmed after 0 violation(s)"), "{out}");
        assert_eq!(cli.exec("watchdog disarm"), "watchdog was not armed");
        assert!(cli.exec("watchdog arm").contains("no thresholds given"));
        assert!(cli.exec("watchdog arm --drop-ppm x").starts_with("bad value"));
        assert!(cli.exec("watchdog poke").contains("unknown watchdog subcommand"));
    }

    #[test]
    fn watchdog_breach_surfaces_in_trace_and_status() {
        let mut cli = cli();
        cli.exec("trace on 1024");
        cli.ctl.enable_telemetry();
        cli.exec("watchdog arm --p99-ns 1"); // everything breaches this
        cli.exec(&format!("deploy {SRC}"));
        cli.exec("replay --packets 20 --flows 2 --seed 1");
        let out = cli.exec("watchdog status");
        assert!(out.contains("IN BREACH: p99_latency"), "{out}");
        let dump = cli.exec("trace dump control");
        assert!(dump.contains("ctl slo p99_latency"), "{dump}");
        let report =
            crate::telemetry::TelemetryReport::from_json(&cli.exec("status --json")).unwrap();
        assert_eq!(report.slo.unwrap().violations, 1, "breach must latch once");
    }

    #[test]
    fn series_collects_buckets_on_lifecycle_and_replay() {
        let mut cli = cli();
        cli.ctl.enable_telemetry();
        assert_eq!(cli.exec("series"), "series off");
        let out = cli.exec("series on 8");
        assert!(out.contains("capacity 8"), "{out}");
        cli.exec(&format!("deploy {SRC}"));
        cli.exec("replay --packets 50 --flows 4 --seed 1");
        let report =
            crate::telemetry::TelemetryReport::from_json(&cli.exec("status --json")).unwrap();
        let series = report.series.expect("series armed");
        assert!(series.points.len() >= 2, "deploy + replay must cut buckets: {series:?}");
        let replay_bucket = series.points.last().unwrap();
        assert!(replay_bucket.forwarded + replay_bucket.drops > 0, "{series:?}");
        assert!(cli.exec("series on zero").starts_with("bad capacity"));
        assert!(cli.exec("series sideways").contains("unknown series subcommand"));
    }

    #[test]
    fn chaos_run_with_slo_flags_reports_violations() {
        let mut cli = cli();
        let out = cli.exec("chaos run --seed 7 --steps 20 --slo-deploy-faults 0");
        assert!(out.contains("slo watchdog: 0 violation(s)"), "{out}");
        let out = cli.exec("chaos run --seed 7 --steps 20");
        assert!(!out.contains("slo watchdog"), "{out}");
        assert!(cli.exec("chaos run --slo-drop-ppm x").starts_with("bad value `x`"));
    }

    #[test]
    fn replay_rejects_bad_flags() {
        let mut cli = cli();
        assert!(cli.exec("replay --packets").contains("missing value"));
        assert!(cli.exec("replay --packets 0").starts_with("bad value"));
        assert!(cli.exec("replay --workers zero").starts_with("bad value"));
        assert!(cli.exec("replay --seed x").starts_with("bad value `x` for `--seed`"));
        assert!(cli.exec("replay --sideways 1").contains("unknown flag"));
    }
}
